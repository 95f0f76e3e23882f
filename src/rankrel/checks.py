"""Golden-result verification over the bundled housing demo.

Each check replays one worked result: the natural join, the transformed
queries and their preserved tuple order, the product-scored contrast (whose
tuple order is *not* preserved), the restriction with and without the
transformed condition, the containment and similarity scores, the ordinal
relations, the canonical inclusion witness, and one calculus formula whose
table commutes with the score map.  Exposed through the CLI ``verify``
subcommand and reused by the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import algebra, calculus, demo, ordinal
from .chain import RATIONAL
from .maps import canonical_map, compose_table
from .table import RankedTable, Row

Expected = Sequence[tuple[str, tuple]]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _fr(text: str) -> Fraction:
    return Fraction(text)


def match_table(
    table: RankedTable,
    expected: Expected,
    attrs: Sequence[str],
    tolerance: str = "0",
    ordered: bool = True,
) -> Optional[str]:
    """Compare a table against (score, values) rows; None means match.

    ``ordered`` also pins the display order (descending score, canonical
    ties) to the expected row order.
    """
    actual = table.rows_by_rank()
    if len(actual) != len(expected):
        return f"expected {len(expected)} rows, found {len(actual)}"
    tol = _fr(tolerance)
    got = [
        (score.value, tuple(row.value(a) for a in attrs)) for row, score in actual
    ]
    want = [(_fr(score), values) for score, values in expected]
    if not ordered:
        got = sorted(got, key=lambda pair: pair[1])
        want = sorted(want, key=lambda pair: pair[1])
    for (g_score, g_vals), (w_score, w_vals) in zip(got, want):
        if g_vals != w_vals:
            return f"row mismatch: expected {w_vals}, found {g_vals}"
        if abs(g_score - w_score) > tol:
            return (
                f"score mismatch on {w_vals}: expected {w_score} "
                f"+/- {tol}, found {g_score}"
            )
    return None


def tuple_order(table: RankedTable, attrs: Sequence[str]) -> list[tuple]:
    return [tuple(row.value(a) for a in attrs) for row, _ in table.rows_by_rank()]


JOIN_EXPECTED: Expected = (
    ("0.937", (71, 3, 3280, "Adams", 849000)),
    ("0.937", (71, 3, 3280, "Black", 798000)),
    ("0.778", (85, 5, 4580, "Black", 998000)),
    ("0.643", (82, 4, 2350, "Adams", 648000)),
    ("0.426", (58, 4, 1760, "Black", 829000)),
    ("0.148", (93, 2, 1130, "Black", 598000)),
)

TRANSFORMED_PROJECTION_EXPECTED: Expected = (
    ("0.882", (71, 798000)),
    ("0.882", (71, 849000)),
    ("0.655", (85, 998000)),
    ("0.541", (82, 648000)),
    ("0.462", (58, 829000)),
    ("0.272", (93, 598000)),
)

PRODUCT_PROJECTION_EXPECTED: Expected = (
    ("0.877", (71, 798000)),
    ("0.782", (71, 849000)),
    ("0.655", (85, 998000)),
    ("0.429", (58, 829000)),
    ("0.361", (82, 648000)),
    ("0.160", (93, 598000)),
)

RESTRICTION_EXPECTED: Expected = (
    ("0.778", (85, 5, 998000)),
    ("0.699", (71, 3, 798000)),
    ("0.699", (71, 3, 849000)),
    ("0.643", (82, 4, 648000)),
    ("0.426", (58, 4, 829000)),
    ("0.148", (93, 2, 598000)),
)

RESTRICTION_TRANSFORMED_EXPECTED: Expected = (
    ("0.655", (85, 5, 998000)),
    ("0.579", (71, 3, 798000)),
    ("0.579", (71, 3, 849000)),
    ("0.541", (82, 4, 648000)),
    ("0.462", (58, 4, 829000)),
    ("0.272", (93, 2, 598000)),
)

UNTRANSFORMED_CONDITION_EXPECTED: Expected = (
    ("0.699", (71, 3, 798000)),
    ("0.699", (71, 3, 849000)),
    ("0.655", (85, 5, 998000)),
    ("0.541", (82, 4, 648000)),
    ("0.462", (58, 4, 829000)),
    ("0.272", (93, 2, 598000)),
)

#: score correspondences a -> f(a) spot-checked on the transformed join
TRANSFORM_CORRESPONDENCES = (
    ("0.148", "0.272"),
    ("0.426", "0.462"),
    ("0.643", "0.541"),
    ("0.778", "0.655"),
    ("0.937", "0.882"),
)

CANONICAL_PIECES_EXPECTED = (
    ("0", "0.148", "0.148"),
    ("0.148", "0.426", "0.426"),
    ("0.426", "0.643", "0.643"),
    ("0.643", "0.778", "0.778"),
    ("0.778", "0.939", "0.937"),
    ("0.939", "1", "1"),
)


def check_join() -> CheckResult:
    joined = algebra.natural_join(demo.houses(), demo.offers())
    issue = match_table(joined, JOIN_EXPECTED, ("id", "bdrm", "sqft", "agent", "price"))
    return CheckResult("natural-join", issue is None, issue or "6 rows, exact scores")


def check_transformed_projection() -> CheckResult:
    f = demo.demo_map()
    joined = algebra.natural_join(
        compose_table(demo.houses(), f), compose_table(demo.offers(), f)
    )
    projected = algebra.project(joined, ("id", "price"))
    issue = match_table(
        projected, TRANSFORMED_PROJECTION_EXPECTED, ("id", "price"), tolerance="0.0005"
    )
    if issue is None:
        plain = algebra.project(
            algebra.natural_join(demo.houses(), demo.offers()), ("id", "price")
        )
        if tuple_order(projected, ("id", "price")) != tuple_order(plain, ("id", "price")):
            issue = "transformed projection reordered the tuples"
    return CheckResult(
        "transformed-join-projection", issue is None, issue or "scores within 0.0005, order kept"
    )


def check_transform_correspondences() -> CheckResult:
    f = demo.demo_map()
    joined = algebra.natural_join(demo.houses(), demo.offers())
    transformed = compose_table(joined, f)
    tol = _fr("0.0005")
    for row, score in joined:
        image = transformed.score_of(row)
        if image.is_bottom:
            return CheckResult("transform-correspondences", False, f"row {row!r} vanished")
    for source, target in TRANSFORM_CORRESPONDENCES:
        image = f.apply(RATIONAL.parse(source))
        if abs(image.value - _fr(target)) > tol:
            return CheckResult(
                "transform-correspondences",
                False,
                f"{source} maps to {image.value}, expected about {target}",
            )
    special = transformed.score_of(
        Row.of({"id": 93, "bdrm": 2, "sqft": 1130, "agent": "Black", "price": 598000})
    )
    if abs(special.value - _fr("0.272")) > tol:
        return CheckResult(
            "transform-correspondences", False, f"bottom row scored {special.value}"
        )
    return CheckResult(
        "transform-correspondences", True, "whole-table transform matches the score map"
    )


def check_product_contrast() -> CheckResult:
    f = demo.demo_map()
    product = algebra.product_join(
        compose_table(demo.houses(), f), compose_table(demo.offers(), f)
    )
    projected = algebra.project(product, ("id", "price"))
    issue = match_table(
        projected, PRODUCT_PROJECTION_EXPECTED, ("id", "price"), tolerance="0.001"
    )
    if issue is None:
        order = tuple_order(projected, ("id", "price"))
        swapped = order.index((58, 829000)) < order.index((82, 648000))
        minimum_order = [values for _, values in TRANSFORMED_PROJECTION_EXPECTED]
        kept = minimum_order.index((82, 648000)) < minimum_order.index((58, 829000))
        if not (swapped and kept):
            issue = "expected the product scoring to swap rows 82/58"
    return CheckResult(
        "product-join-contrast", issue is None, issue or "top scores match; tuple order swaps"
    )


def check_restriction() -> CheckResult:
    theta = demo.bedrooms_condition()
    joined = algebra.natural_join(demo.houses(), demo.offers())
    plain = algebra.project(algebra.restrict(joined, theta), ("id", "bdrm", "price"))
    issue = match_table(plain, RESTRICTION_EXPECTED, ("id", "bdrm", "price"), tolerance="0.001")
    if issue:
        return CheckResult("restriction", False, issue)
    f = demo.demo_map()
    transformed_join = algebra.natural_join(
        compose_table(demo.houses(), f), compose_table(demo.offers(), f)
    )
    transformed = algebra.project(
        algebra.restrict(transformed_join, theta.compose(f)), ("id", "bdrm", "price")
    )
    issue = match_table(
        transformed, RESTRICTION_TRANSFORMED_EXPECTED, ("id", "bdrm", "price"),
        tolerance="0.001",
    )
    if issue:
        return CheckResult("restriction", False, issue)
    if tuple_order(plain, ("id", "bdrm", "price")) != tuple_order(
        transformed, ("id", "bdrm", "price")
    ):
        return CheckResult("restriction", False, "transformed restriction reordered tuples")
    return CheckResult("restriction", True, "both variants within 0.001 with one tuple order")


def check_untransformed_condition() -> CheckResult:
    theta = demo.bedrooms_condition()
    f = demo.demo_map()
    transformed_join = algebra.natural_join(
        compose_table(demo.houses(), f), compose_table(demo.offers(), f)
    )
    mixed = algebra.project(algebra.restrict(transformed_join, theta), ("id", "bdrm", "price"))
    issue = match_table(
        mixed, UNTRANSFORMED_CONDITION_EXPECTED, ("id", "bdrm", "price"), tolerance="0.001"
    )
    if issue:
        return CheckResult("untransformed-condition", False, issue)
    transformed = algebra.project(
        algebra.restrict(transformed_join, theta.compose(f)), ("id", "bdrm", "price")
    )
    if tuple_order(mixed, ("id", "bdrm", "price")) == tuple_order(
        transformed, ("id", "bdrm", "price")
    ):
        return CheckResult(
            "untransformed-condition", False,
            "skipping the condition transform should have changed the order",
        )
    return CheckResult(
        "untransformed-condition", True, "keeping the raw condition changes the tuple order"
    )


def check_containment_scores() -> CheckResult:
    joined = algebra.natural_join(demo.houses(), demo.offers())
    similar = demo.similar_join()
    forward = algebra.subsethood(joined, similar)
    backward = algebra.subsethood(similar, joined)
    both = algebra.similarity(joined, similar)
    if not forward.is_top:
        return CheckResult("containment-scores", False, f"expected full containment, got {forward!r}")
    if backward.value != _fr("0.937") or both.value != _fr("0.937"):
        return CheckResult(
            "containment-scores", False,
            f"expected 0.937 backward, got {backward!r} and {both!r}",
        )
    return CheckResult("containment-scores", True, "containment 1 / 0.937, similarity 0.937")


def check_ordinal_relations() -> CheckResult:
    joined = algebra.natural_join(demo.houses(), demo.offers())
    similar = demo.similar_join()
    if not ordinal.ordinally_included(similar, joined):
        return CheckResult("ordinal-relations", False, "similar table should be included")
    if ordinal.ordinally_included(joined, similar):
        return CheckResult("ordinal-relations", False, "join should not be included back")
    evidence = ordinal.first_inclusion_violation(joined, similar)
    if evidence is None or evidence.value("price") != 798000:
        return CheckResult(
            "ordinal-relations", False, f"expected evidence at price 798000, got {evidence!r}"
        )
    first, second = demo.single_column_pair()
    if not (
        ordinal.ordinally_included(first, second)
        and ordinal.ordinally_included(second, first)
        and ordinal.ordinally_equivalent(first, second)
        and first != second
    ):
        return CheckResult("ordinal-relations", False, "one-row pair should be equivalent, unequal")
    return CheckResult(
        "ordinal-relations", True, "inclusion one-way with evidence price 798000"
    )


def check_canonical_map() -> CheckResult:
    joined = algebra.natural_join(demo.houses(), demo.offers())
    similar = demo.similar_join()
    witness = canonical_map(similar, joined)
    pieces = [
        (piece.lo.value, piece.hi.value, piece.value.value) for piece in witness.pieces
    ]
    expected = [tuple(_fr(part) for part in triple) for triple in CANONICAL_PIECES_EXPECTED]
    if not witness.bottom_value.is_bottom:
        return CheckResult("canonical-map", False, "value at bottom must be bottom")
    if pieces != expected:
        return CheckResult("canonical-map", False, f"pieces differ: {pieces}")
    if compose_table(similar, witness) != joined:
        return CheckResult("canonical-map", False, "composing the witness missed the target")
    return CheckResult("canonical-map", True,
                       f"all {len(expected)} pieces match and compose correctly")


#: how far a good house match for an id implies a good offer for it; one free
#: variable and two nested binders keep it at 26**3 valuations of the demo universe
CALCULUS_FORMULA = "(exists x. exists y. houses(i, x, y)) -> exists x. exists y. offers(i, x, y)"


def check_calculus_invariance() -> CheckResult:
    m = calculus.structure_from_tables(demo.demo_catalog().tables)
    f = demo.demo_map()
    phi = calculus.parse_formula(CALCULUS_FORMULA)
    direct = calculus.table_of(m, phi)
    if compose_table(direct, f) != calculus.table_of(m.compose(f), phi):
        return CheckResult(
            "calculus-invariance", False, "transforming the structure changed the formula's table"
        )
    partial = sum(1 for _, score in direct if not score.is_top)
    return CheckResult(
        "calculus-invariance", True,
        f"{len(direct)} rows ({partial} below top) commute with the score map",
    )


ALL_CHECKS: tuple[Callable[[], CheckResult], ...] = (
    check_join,
    check_transformed_projection,
    check_transform_correspondences,
    check_product_contrast,
    check_restriction,
    check_untransformed_condition,
    check_containment_scores,
    check_ordinal_relations,
    check_canonical_map,
    check_calculus_invariance,
)


def run_all() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
