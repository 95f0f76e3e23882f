"""Order maps: application, verified properties, witnesses, extension."""

import ast
import inspect
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (
    enumerate_rows,
    reference_compose_table,
    reference_rank_profile,
    reference_witness,
    replay_hint,
    rnd_grid_isomorphism,
    rnd_monotone_map,
    rnd_scheme,
    rnd_table,
    row_value,
    stable_seed,
)

from rankrel import algebra, maps, ordinal
from rankrel.calculus import structure_from_tables
from rankrel.chain import RATIONAL, Score, symbolic_chain
from rankrel.conditions import ExprCondition
from rankrel.errors import (
    IncompatibleChainError,
    MapDomainError,
    MapPropertyError,
    NotEquivalentError,
    NotIncludedError,
    QuantizationError,
    RankrelError,
)
from rankrel.maps import (
    AnalyticMap,
    GraphMap,
    IDENTITY,
    OrderMap,
    Piece,
    PiecewiseConstantMap,
    compose_table,
)
from rankrel.ordinal import canonical_map, ordinally_included, witness_isomorphism
from rankrel.table import INT, AttrType, RankedTable, Row, Scheme
from rankrel import demo


def fr(text):
    return RATIONAL.parse(text)


def image_steps(f, scores):
    """Consecutive pairs of f's image values over ``scores`` taken in ascending order."""
    values = [f.apply(s).value for s in sorted(scores, key=lambda s: s.value)]
    return list(zip(values, values[1:]))


class TestApply:
    def test_demo_map_values(self):
        f = demo.demo_map()
        assert RATIONAL.format(f.apply(fr("0.148"))) == "0.272"
        assert RATIONAL.format(f.apply(fr("0.937"))) == "0.882"
        assert f.apply(RATIONAL.bottom).is_bottom
        assert f.apply(RATIONAL.top).is_top

    def test_identity(self):
        assert IDENTITY.apply(fr("0.42")) == fr("0.42")

    def test_piecewise_domain_error_on_gap(self):
        gap = PiecewiseConstantMap(
            RATIONAL, RATIONAL.bottom,
            (Piece(fr("0.5"), fr("1"), fr("1")),),
        )
        with pytest.raises(MapDomainError):
            gap.apply(fr("0.25"))
        # Bounds are half-open (lo, hi]; a gap sits between the two pieces.
        split = PiecewiseConstantMap(
            RATIONAL, RATIONAL.bottom,
            (Piece(RATIONAL.bottom, fr("0.25"), fr("0.1")),
             Piece(fr("0.5"), fr("0.75"), fr("0.6"))),
        )
        assert split.apply(fr("0.125")) == fr("0.1")
        assert split.apply(fr("0.25")) == fr("0.1")
        assert split.apply(fr("0.75")) == fr("0.6")
        for outside in ("0.3", "0.5", "0.8", "1"):
            with pytest.raises(MapDomainError):
                split.apply(fr(outside))

    def test_piecewise_pieces_on_another_chain_rejected(self):
        other = symbolic_chain("no < some < all")
        with pytest.raises(IncompatibleChainError):
            PiecewiseConstantMap(
                RATIONAL, RATIONAL.bottom,
                (Piece(other.score("no"), other.score("all"), other.score("all")),),
            )

    def test_graph_lookup_and_domain(self):
        graph = GraphMap.of({RATIONAL.bottom: RATIONAL.bottom, fr("0.6"): fr("0.5")})
        assert graph.apply(fr("0.6")) == fr("0.5")
        with pytest.raises(MapDomainError):
            graph.apply(fr("0.7"))
        with pytest.raises(MapDomainError):
            graph.apply(symbolic_chain("no < yes").bottom)  # same raw value, other chain

    def test_quantization_injectivity_guard(self):
        squeeze = AnalyticMap.parse("0.5 + x/10000000")
        with pytest.raises(QuantizationError):
            squeeze.apply_all({fr("0.1"), fr("0.2")})

    @pytest.mark.parametrize("text, images", [
        ("min(x, 0.5)", {85: "0.5", 56: "0.5", 71: "0.5", 82: "0.5", 58: "0.426", 93: "0.148"}),
        ("x - 1/2", {85: "0.5", 56: "0.471", 71: "0.437", 82: "0.143"}),
    ])
    def test_only_rounding_counts_as_a_quantization_collapse(self, text, images):
        # These maps merge scores exactly, before any rounding, so nothing is refused.
        houses = demo.houses()
        ids = {row: row_value(houses.scheme, row, "id") for row, _ in houses}
        expected = RankedTable(houses.scheme, RATIONAL, {
            row: fr(images[ident]) for row, ident in ids.items() if ident in images
        })
        assert compose_table(houses, AnalyticMap.parse(text)) == expected


    TINY = AnalyticMap.parse("x * 0.000001")

    @pytest.mark.parametrize("text", ["bdrm >= 3 ? 0.4 : 0", "bdrm >= 3 ? 0.4 : 1"])
    def test_a_restriction_refuses_rounding_a_score_onto_bottom(self, text):
        # Whether another key scores bottom, or 1, must not decide the refusal.
        theta = ExprCondition.parse(text).compose(self.TINY)
        with pytest.raises(QuantizationError):
            algebra.restrict(demo.houses(), theta)

    def test_a_table_and_a_structure_refuse_rounding_a_score_onto_bottom(self):
        table = RankedTable.from_entries(
            Scheme((("a", INT),)), [({"a": 1}, Fraction(2, 5)), ({"a": 2}, Fraction(9, 10))])
        low_to_tiny = AnalyticMap.parse("x <= 0.5 ? x * 0.000001 : x")
        with pytest.raises(QuantizationError):
            compose_table(table, low_to_tiny)
        with pytest.raises(QuantizationError):
            structure_from_tables({"t": table}).compose(low_to_tiny)

    def test_no_rows_apply_no_map(self):
        empty = RankedTable.empty(demo.houses().scheme)
        theta = ExprCondition.parse("bdrm").compose(AnalyticMap.parse("x/2 + 1/4"))
        assert len(algebra.restrict(empty, theta)) == 0


class TestPropertyVerification:
    def test_grid_isomorphism_embeds(self):
        rng = random.Random(7)
        f = rnd_grid_isomorphism(rng)
        scores = [fr("0"), fr("0.25"), fr("0.5"), fr("0.75"), fr("1")]
        assert all(a < b for a, b in image_steps(f, scores))

    def test_collapsing_map_preserves_but_does_not_reflect(self):
        collapse = PiecewiseConstantMap(
            RATIONAL, RATIONAL.bottom, (Piece(RATIONAL.bottom, RATIONAL.top, fr("0.5")),)
        )
        scores = [fr("0.2"), fr("0.8")]
        assert all(a <= b for a, b in image_steps(collapse, scores))
        assert not all(a < b for a, b in image_steps(collapse, scores))

    def test_declared_property_enforced_on_compose(self):
        collapse = PiecewiseConstantMap(
            RATIONAL, RATIONAL.bottom,
            (Piece(RATIONAL.bottom, RATIONAL.top, fr("0.5")),),
            declared=frozenset(("embedding",)),
        )
        table = rnd_table(random.Random(3), rnd_scheme(random.Random(3)))
        if len(table) < 2:  # need two score levels to expose the collapse
            pytest.skip("degenerate sample")
        with pytest.raises(MapPropertyError):
            compose_table(table, collapse)


class CountingMap(OrderMap):
    """Wraps a map and counts how often each score is sent through it."""

    def __init__(self, inner: OrderMap):
        self.inner = inner
        self.declared = inner.declared
        self.calls = Counter()

    def apply(self, score):
        self.calls[score] += 1
        return self.inner.apply(score)


def two_level_table() -> RankedTable:
    return RankedTable(Scheme((("a", INT),)), RATIONAL,
                       {Row.of({"a": 1}): fr("0.2"), Row.of({"a": 2}): fr("0.8")})


class TestComposeTable:
    def test_each_score_mapped_once_under_declared_properties(self):
        rng = random.Random(5)
        table = rnd_table(rng, rnd_scheme(rng))
        f = CountingMap(rnd_grid_isomorphism(rng))
        assert {"preserving", "reflecting", "embedding"} <= f.declared
        compose_table(table, f)
        inner = {score for _, score in table if not score.is_top}
        assert inner and all(f.calls[score] == 1 for score in inner)

    @pytest.mark.parametrize("declared, fails", [
        ("preserving", False), ("fixed-bottom", False), ("reflecting", True),
        ("embedding", True), ("isomorphism", True), ("fixed-top", True),
    ])
    def test_collapse_checked_per_declared_property(self, declared, fails):
        collapse = PiecewiseConstantMap(
            RATIONAL, RATIONAL.bottom,
            (Piece(RATIONAL.bottom, RATIONAL.top, fr("0.5")),),
            declared=frozenset((declared,)),
        )
        if fails:
            with pytest.raises(MapPropertyError):
                compose_table(two_level_table(), collapse)
        else:
            assert len(compose_table(two_level_table(), collapse)) == 2

    def test_unknown_declared_property_is_refused(self):
        # Declared correctly, this map fails verification on the demo scores;
        # misspelled, it must not pass unchecked.
        reverse = "x <= 0.5 ? x : 1.5 - x"
        with pytest.raises(MapPropertyError, match="not on these scores"):
            compose_table(demo.houses(), AnalyticMap.parse(reverse, declared=("preserving",)))
        builds = (lambda names: AnalyticMap.parse(reverse, declared=names),
                  lambda names: GraphMap.of({}, declared=names),
                  lambda names: PiecewiseConstantMap(RATIONAL, RATIONAL.bottom, (), names))
        for build in builds:
            with pytest.raises(MapPropertyError, match="'order-preserving'.*'preserving'"):
                compose_table(demo.houses(), build(frozenset(("order-preserving",))))


    def test_identity_is_neutral(self):
        table = demo.houses()
        assert compose_table(table, IDENTITY) == table

    def test_distinct_objects_of_one_score_map_alike(self):
        # Each row builds its own score, so each value is two objects.  Equal inputs
        # collapse before the strict reflection test: no MapPropertyError.
        texts = ("0.5", "0.25", "1", "0.5", "0.25", "1")
        table = RankedTable(Scheme((("a", INT),)), RATIONAL, {
            Row.of({"a": i}): Score(RATIONAL, Fraction(text)) for i, text in enumerate(texts)})
        assert table.score_of(Row.of({"a": 0})) is not table.score_of(Row.of({"a": 3}))
        for f in (AnalyticMap.parse("x/2 + x^2/2", declared=("embedding", "fixed-top")),
                  rnd_grid_isomorphism(random.Random(11)), IDENTITY):
            assert "embedding" in f.declared
            image = compose_table(table, f)
            for i in range(3):
                assert image.score_of(Row.of({"a": i})) == image.score_of(Row.of({"a": i + 3}))
                assert image.score_of(Row.of({"a": i})) == f.apply(fr(texts[i]))
            assert image == reference_compose_table(table, f)

    def test_empty_table(self):
        empty = RankedTable.empty(Scheme((("a", INT),)))
        assert compose_table(empty, demo.demo_map()) == empty

    def test_requires_bottom_fixed(self):
        lift = AnalyticMap.parse("0.5 + x/2")
        with pytest.raises(MapPropertyError):
            compose_table(demo.houses(), lift)

    def test_transformed_demo_row(self):
        transformed = compose_table(demo.houses(), demo.demo_map())
        row = Row.of({"id": 93, "bdrm": 2, "sqft": 1130})
        assert RATIONAL.format(transformed.score_of(row)) == "0.272"

    def test_answer_set_shrinks_not_grows(self):
        rng = random.Random(11)
        for _ in range(25):
            table = rnd_table(rng, rnd_scheme(rng))
            f = rnd_monotone_map(rng)
            image = compose_table(table, f)
            assert image.answer_set <= table.answer_set

    def test_reflecting_map_keeps_answer_set(self):
        rng = random.Random(12)
        for _ in range(25):
            table = rnd_table(rng, rnd_scheme(rng))
            f = rnd_grid_isomorphism(rng)
            assert compose_table(table, f).answer_set == table.answer_set


def eq_fa_oracle(d1, d2, value):
    """Direct scan of the canonical-map formula: least d2 score where d1 >= a."""
    candidates = [d2.score_of(row).value for row, s in d1 if s.value >= value]
    return min(candidates) if candidates else Fraction(1)


class TestCanonicalMap:
    def test_included_pair_composes_onto_target(self):
        rng = random.Random(21)
        for _ in range(60):
            d1 = rnd_table(rng, rnd_scheme(rng))
            d2 = compose_table(d1, rnd_monotone_map(rng))
            f = canonical_map(d1, d2)
            assert compose_table(d1, f) == d2
            scores = [d1.chain.bottom, *(s for _, s in d1)]
            assert all(a <= b for a, b in image_steps(f, scores))
            for score in scores:
                if not score.is_bottom:
                    assert f.apply(score).value == eq_fa_oracle(d1, d2, score.value)

    def test_reflexive(self):
        table = demo.houses()
        f = canonical_map(table, table)
        assert compose_table(table, f) == table

    def test_covered_finite_domain_keeps_only_the_answer_set(self):
        # d2 covers the finite domain beyond d1: inclusion holds, but the
        # witness fixes bottom, so row a=1 stays absent after composing.
        scheme = Scheme((("a", AttrType("int", (0, 1))),))
        d1 = RankedTable.from_entries(scheme, [({"a": 0}, fr("1/2"))])
        d2 = RankedTable.from_entries(scheme, [({"a": 0}, fr("1/2")), ({"a": 1}, fr("1/4"))])
        assert ordinally_included(d1, d2)
        composed = compose_table(d1, canonical_map(d1, d2))
        assert composed != d2
        assert composed == d1  # agrees with d2 on d1's answer set
        assert d2.score_of(Row.of({"a": 1})) == fr("1/4")

    def test_not_included_rejected(self):
        from rankrel.errors import NotIncludedError

        scheme = Scheme((("a", INT),))
        d1 = RankedTable.from_entries(scheme, [({"a": 1}, fr("0.5"))])
        d2 = RankedTable.from_entries(scheme, [({"a": 2}, fr("0.5"))])
        with pytest.raises(NotIncludedError):
            canonical_map(d1, d2)


class TestWitnessIsomorphism:
    def test_identity_on_self(self):
        table = demo.houses()
        witness = witness_isomorphism(table, table)
        for src, dst in witness.graph:
            assert src == dst

    def test_single_row_pair(self):
        first, second = demo.single_column_pair()
        witness = witness_isomorphism(first, second)
        pairs = {(src.value, dst.value) for src, dst in witness.graph}
        assert pairs == {(Fraction(0), Fraction(0)), (Fraction(6, 10), Fraction(5, 10))}

    def test_round_trip_through_inverse(self):
        rng = random.Random(31)
        for _ in range(60):
            table = rnd_table(rng, rnd_scheme(rng))
            g = rnd_grid_isomorphism(rng)
            image = compose_table(table, g)
            witness = witness_isomorphism(table, image)
            assert compose_table(table, witness) == image
            assert compose_table(image, witness_isomorphism(image, table)) == table

    def test_not_equivalent_rejected(self):
        from rankrel.errors import NotEquivalentError

        scheme = Scheme((("a", INT),))
        one = RankedTable.from_entries(scheme, [({"a": 1}, fr("0.5"))])
        two = RankedTable.from_entries(
            scheme, [({"a": 1}, fr("0.5")), ({"a": 2}, fr("0.25"))]
        )
        with pytest.raises(NotEquivalentError):
            witness_isomorphism(one, two)


LEVELS = symbolic_chain("none < l1 < l2 < l3 < l4 < l5 < l6 < full")
SMALL = AttrType("int", (0, 1, 2))


def rnd_relabelled(rng, table):
    """The table under a random order isomorphism of its range that fixes bottom."""
    chain = table.chain
    if chain.is_rational:
        return compose_table(table, rnd_grid_isomorphism(rng))
    levels = sorted({score.value for _, score in table})
    images = dict(zip(levels, sorted(rng.sample(range(1, len(chain.levels)), len(levels)))))
    return RankedTable(table.scheme, chain,
                       {row: chain.score(images[score.value]) for row, score in table})


def rnd_finite_table(rng, scheme, chain):
    """A table over an explicitly finite scheme, covering all of it a third of the time."""
    if chain.is_rational:
        scores = [chain.score(Fraction(i, 8)) for i in range(1, 9)]
    else:
        scores = [chain.score(level) for level in range(1, len(chain.levels))]
    density = rng.choice((0.4, 0.8, 1.0))
    return RankedTable(scheme, chain, {row: rng.choice(scores) for row in enumerate_rows(scheme)
                                       if rng.random() < density})


def without_lowest_level(table):
    lowest = min(score.value for _, score in table)
    return RankedTable(table.scheme, table.chain,
                       {row: score for row, score in table if score.value != lowest})


def witness_outcome(func, d1, d2):
    try:
        witness = func(d1, d2)
    except RankrelError as exc:
        return type(exc)
    return witness.graph, witness.declared


def test_witness_matches_the_range_zip_reference():
    seed = stable_seed("witness isomorphism")
    rng = random.Random(seed)
    seen = Counter()
    with replay_hint(seed):
        for _ in range(400):
            chain = rng.choice((RATIONAL, LEVELS))
            finite = rng.random() < 0.4
            if finite:
                scheme = Scheme((("a", SMALL), ("b", SMALL)))
                d1 = rnd_finite_table(rng, scheme, chain)
            else:
                scheme = rnd_scheme(rng)
                d1 = rnd_table(rng, scheme, max_rows=8, chain=chain)
            relation = rng.choice(("image", "image", "independent", "other scheme", "other chain"))
            if relation == "image":
                d2 = rnd_relabelled(rng, d1)
                if finite and len(d2) == len(enumerate_rows(scheme)) and rng.random() < 0.5:
                    d2 = without_lowest_level(d2)  # d1 covers the domain, d2 does not
            elif relation == "independent":
                d2 = (rnd_finite_table(rng, scheme, chain) if finite
                      else rnd_table(rng, scheme, max_rows=8, chain=chain))
            elif relation == "other scheme":
                d2 = rnd_table(rng, Scheme((("z", INT),)), chain=chain)
            else:
                d2 = rnd_table(rng, scheme, chain=LEVELS if chain.is_rational else RATIONAL)
            if rng.random() < 0.5:
                d1, d2 = d2, d1
            expected = witness_outcome(reference_witness, d1, d2)
            assert witness_outcome(witness_isomorphism, d1, d2) == expected, (d1, d2)
            seen["rational" if chain.is_rational else "symbolic"] += 1
            seen[relation] += 1
            covered = finite and len(enumerate_rows(scheme)) in (len(d1), len(d2))
            seen["covered"] += covered
            seen["covered equivalent"] += covered and not isinstance(expected, type)
            seen[expected if isinstance(expected, type) else "equivalent"] += 1
    assert all(seen[key] >= 10 for key in ("rational", "symbolic", "image", "independent",
                                           "covered", "covered equivalent", "equivalent",
                                           NotEquivalentError, IncompatibleChainError)), seen


def rnd_monotone_image(rng, table):
    """The table under a random order-preserving map fixing bottom; levels may merge or drop."""
    chain = table.chain
    if chain.is_rational:
        return compose_table(table, rnd_monotone_map(rng))
    levels = sorted({score.value for _, score in table})
    images = dict(zip(levels, sorted(rng.randrange(len(chain.levels)) for _ in levels)))
    return RankedTable(table.scheme, chain, {row: chain.score(images[score.value])
                                             for row, score in table if images[score.value]})


def canonical_probes(chain, levels):
    """Bottom, top, every level and (rational) every midpoint between neighbouring levels."""
    if not chain.is_rational:
        return list(range(len(chain.levels)))
    ends = sorted({chain.bottom.value, *levels, chain.top.value})
    return sorted({*ends, *((a + b) / 2 for a, b in zip(ends, ends[1:]))})


def test_canonical_map_matches_the_definition():
    seed = stable_seed("canonical map")
    rng = random.Random(seed)
    seen = Counter()
    with replay_hint(seed):
        for _ in range(900):
            chain = rng.choice((RATIONAL, LEVELS))
            finite = rng.random() < 0.4
            if finite:
                scheme = Scheme((("a", SMALL), ("b", SMALL)))
                d1 = rnd_finite_table(rng, scheme, chain)
            else:
                scheme = rnd_scheme(rng)
                d1 = rnd_table(rng, scheme, max_rows=8, chain=chain)
            relation = rng.choice(("image", "image", "cover", "independent"))
            d2 = rnd_monotone_image(rng, d1)
            if relation == "cover" and finite and len(d2):
                # d2 covers the domain beyond d1, at its own lowest score
                low = min((score for _, score in d2), key=lambda score: score.value)
                d2 = RankedTable(scheme, chain, {row: d2.score_of(row) if d2.score_of(row).value
                                                 else low for row in enumerate_rows(scheme)})
            elif relation != "image":
                relation = "independent"
                d2 = (rnd_finite_table(rng, scheme, chain) if finite
                      else rnd_table(rng, scheme, max_rows=8, chain=chain))
            floors, escaping = reference_rank_profile(d1, d2)
            if escaping:
                with pytest.raises(NotIncludedError):
                    canonical_map(d1, d2)
                seen["not included"] += 1
                continue
            f = canonical_map(d1, d2)
            assert f.bottom_value == chain.bottom and f.declared == {"preserving"}
            assert all(a.hi == b.lo and a.value != b.value for a, b in zip(f.pieces, f.pieces[1:]))
            assert f.pieces[0].lo == chain.bottom and f.pieces[-1].hi == chain.top
            for probe in canonical_probes(chain, floors):
                reaching = [level for level in floors if level >= probe]
                expected = (chain.bottom.value if probe == chain.bottom.value
                            else floors[min(reaching)] if reaching else chain.top.value)
                assert f.apply(Score(chain, probe)).value == expected, (d1, d2, probe)
            outside = {row for row, _ in d2} - {row for row, _ in d1}
            assert (compose_table(d1, f) == d2) == (not outside)
            seen["included"] += 1
            seen["rational" if chain.is_rational else "symbolic"] += 1
            seen["finite"] += finite
            seen[relation] += 1
            seen["covered beyond d1"] += bool(outside)
    assert seen["included"] >= 500, seen
    assert all(seen[key] >= 30 for key in ("rational", "symbolic", "finite", "image", "cover",
                                           "independent", "covered beyond d1",
                                           "not included")), seen


def test_witnesses_read_the_ranks_only_through_the_kernel(monkeypatch):
    calls = []
    profile = ordinal._rank_profile

    def counted(d1, d2):
        calls.append((d1, d2))
        return profile(d1, d2)
    monkeypatch.setattr(ordinal, "_rank_profile", counted)
    first, second = demo.single_column_pair()
    witness_isomorphism(first, second)
    assert calls == [(first, second)]  # one coding gives both directions
    calls.clear()
    canonical_map(first, second)
    assert calls == [(first, second)]


def test_maps_imports_nothing_from_ordinal():
    tree = ast.parse(inspect.getsource(maps))
    imported = {name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for name in (node.module, *(alias.name for alias in node.names))}
    assert "ordinal" not in imported and "_rank_profile" not in imported


def test_only_maps_applies_an_order_map():
    package = Path(maps.__file__).parent
    for path in sorted(package.rglob("*.py")):
        if path.name == "maps.py":
            continue
        calls = [node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and node.func.attr in ("apply", "apply_all")]
        assert not calls, f"{path.name} applies an order map at lines {calls}"


class TestExtension:
    def test_extension_agrees_and_preserves(self):
        rng = random.Random(41)
        for _ in range(40):
            table = rnd_table(rng, rnd_scheme(rng))
            g = rnd_grid_isomorphism(rng)
            image = compose_table(table, g)
            witness = witness_isomorphism(table, image)
            total = canonical_map(table, image)
            for src, dst in witness.graph:
                assert total.apply(src) == dst
            probes = [RATIONAL.score(Fraction(i, 7)) for i in range(8)]
            assert all(a <= b for a, b in image_steps(total, probes))
            assert compose_table(table, total) == image
