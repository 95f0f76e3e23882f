"""Golden-result verification over the bundled housing demo.

Each check replays one worked result: the natural join, the transformed
queries and their preserved tuple order, the product-scored contrast (whose
tuple order is *not* preserved), the restriction with and without the
transformed condition, the containment and similarity scores, the ordinal
relations, the canonical inclusion witness, and one calculus formula whose
table commutes with the score map.  Every golden table is the result of a
query text run through the query parser and planner, as ``rankrel eval``
runs it, and is matched row by row in display order.  Exposed through the
CLI ``verify`` subcommand and reused by the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import algebra, calculus, demo, ordinal, planner
from .maps import compose_table
from .table import RankedTable, values_of

Expected = Sequence[tuple[str, tuple]]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def run_query(text: str, transformed: bool = False) -> RankedTable:
    """A query's result over the demo catalog, or over it with every table
    composed with the catalog's map ``f``."""
    catalog = demo.demo_catalog()
    if transformed:
        f = catalog.order_map("f")
        catalog.tables = {name: compose_table(t, f) for name, t in catalog.tables.items()}
    return planner.evaluate(planner.parse_query(text), catalog)


def match_table(table: RankedTable, expected: Expected, tolerance: str = "0") -> Optional[str]:
    """Compare a table's rows in display order (descending score, canonical
    ties) against (score, values) rows, values in scheme order; None means match."""
    actual, values = table.rows_by_rank(), values_of(table.scheme, table.scheme.names)
    if len(actual) != len(expected):
        return f"expected {len(expected)} rows, found {len(actual)}"
    tol = Fraction(tolerance)
    for (row, score), (w_score, w_vals) in zip(actual, expected):
        if values(row) != w_vals:
            return f"row mismatch: expected {w_vals}, found {values(row)}"
        if abs(score.value - Fraction(w_score)) > tol:
            return (
                f"score mismatch on {w_vals}: expected {w_score} "
                f"+/- {tol}, found {score.value}"
            )
    return None


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

#: on id alone the two 71 rows merge into their best extension, 0.877: the one
#: golden projection that merges rows of different scores
PRODUCT_BY_ID_EXPECTED: Expected = tuple(
    (score, values[:1]) for score, values in PRODUCT_PROJECTION_EXPECTED if values != (71, 849000)
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

#: score correspondences a -> f(a) of the demo map on the join's scores
TRANSFORM_CORRESPONDENCES = {
    "0.148": "0.272",
    "0.426": "0.462",
    "0.643": "0.541",
    "0.778": "0.655",
    "0.937": "0.882",
}

CANONICAL_PIECES_EXPECTED = (
    ("0", "0.148", "0.148"),
    ("0.148", "0.426", "0.426"),
    ("0.426", "0.643", "0.643"),
    ("0.643", "0.778", "0.778"),
    ("0.778", "0.939", "0.937"),
    ("0.939", "1", "1"),
)

JOIN = "join(houses, offers)"
PROJECTION = "project(join(houses, offers), [id, price])"
PRODUCT_PROJECTION = "project(product(houses, offers), [id, price])"
#: format with the restriction condition's catalog name
RESTRICTION = "project(restrict(join(houses, offers), {}), [id, bdrm, price])"


def check_join() -> CheckResult:
    issue = match_table(run_query(JOIN), JOIN_EXPECTED)
    return CheckResult("natural-join", issue is None, issue or "6 rows, exact scores")


def check_transformed_projection() -> CheckResult:
    projected = run_query(PROJECTION, transformed=True)
    issue = match_table(projected, TRANSFORMED_PROJECTION_EXPECTED, "0.0005")
    if issue is None and [row for row, _ in projected.rows_by_rank()] != [
        row for row, _ in run_query(PROJECTION).rows_by_rank()
    ]:
        issue = "transformed projection reordered the tuples"
    return CheckResult(
        "transformed-join-projection", issue is None, issue or "scores within 0.0005, order kept"
    )


def check_transform_correspondences() -> CheckResult:
    transformed = compose_table(run_query(JOIN), demo.demo_map())
    expected = [(TRANSFORM_CORRESPONDENCES[score], values) for score, values in JOIN_EXPECTED]
    issue = match_table(transformed, expected, "0.0005")
    return CheckResult(
        "transform-correspondences", issue is None,
        issue or "whole-table transform matches the score map",
    )


def check_product_contrast() -> CheckResult:
    issue = match_table(
        run_query(PRODUCT_PROJECTION, transformed=True), PRODUCT_PROJECTION_EXPECTED, "0.001"
    ) or match_table(
        run_query("project(product(houses, offers), [id])", transformed=True),
        PRODUCT_BY_ID_EXPECTED, "0.001",
    )
    return CheckResult(
        "product-join-contrast", issue is None, issue or "top scores match; tuple order swaps"
    )


def check_restriction() -> CheckResult:
    issue = match_table(
        run_query(RESTRICTION.format("theta")), RESTRICTION_EXPECTED, "0.001"
    ) or match_table(
        run_query(RESTRICTION.format("theta_f"), transformed=True),
        RESTRICTION_TRANSFORMED_EXPECTED, "0.001",
    )
    return CheckResult(
        "restriction", issue is None, issue or "both variants within 0.001 with one tuple order"
    )


def check_untransformed_condition() -> CheckResult:
    mixed = run_query(RESTRICTION.format("theta"), transformed=True)
    issue = match_table(mixed, UNTRANSFORMED_CONDITION_EXPECTED, "0.001")
    return CheckResult(
        "untransformed-condition", issue is None,
        issue or "keeping the raw condition changes the tuple order",
    )


def check_containment_scores() -> CheckResult:
    joined = run_query(JOIN)
    similar = demo.similar_join()
    forward = algebra.subsethood(joined, similar)
    backward = algebra.subsethood(similar, joined)
    both = algebra.similarity(joined, similar)
    if not forward.is_top:
        return CheckResult("containment-scores", False, f"expected full containment, got {forward!r}")
    if backward.value != Fraction("0.937") or both.value != Fraction("0.937"):
        return CheckResult("containment-scores", False,
                           f"expected 0.937 backward, got {backward!r} and {both!r}")
    return CheckResult("containment-scores", True, "containment 1 / 0.937, similarity 0.937")


def check_ordinal_relations() -> CheckResult:
    joined = run_query(JOIN)
    similar = demo.similar_join()
    if not ordinal.ordinally_included(similar, joined):
        return CheckResult("ordinal-relations", False, "similar table should be included")
    if ordinal.ordinally_included(joined, similar):
        return CheckResult("ordinal-relations", False, "join should not be included back")
    evidence = ordinal.first_inclusion_violation(joined, similar)
    if evidence is None or values_of(joined.scheme, ["price"])(evidence) != (798000,):
        return CheckResult(
            "ordinal-relations", False, f"expected evidence at price 798000, got {evidence!r}"
        )
    first, second = demo.single_column_pair()
    if not (ordinal.ordinally_equivalent(first, second) and first != second):
        return CheckResult("ordinal-relations", False, "one-row pair should be equivalent, unequal")
    return CheckResult("ordinal-relations", True, "inclusion one-way with evidence price 798000")


def check_canonical_map() -> CheckResult:
    joined = run_query(JOIN)
    similar = demo.similar_join()
    witness = ordinal.canonical_map(similar, joined)
    pieces = [(piece.lo.value, piece.hi.value, piece.value.value) for piece in witness.pieces]
    expected = [tuple(Fraction(part) for part in triple) for triple in CANONICAL_PIECES_EXPECTED]
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
