"""Order maps: application, verified properties, witnesses, extension."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import rnd_grid_isomorphism, rnd_monotone_map, rnd_scheme, rnd_table

from rankrel.chain import RATIONAL, symbolic_chain
from rankrel.errors import (
    IncompatibleChainError,
    MapDomainError,
    MapPropertyError,
    QuantizationError,
)
from rankrel.maps import (
    AnalyticMap,
    GraphMap,
    IDENTITY,
    OrderMap,
    Piece,
    PiecewiseConstantMap,
    canonical_map,
    compose_table,
    extend_piecewise,
    is_order_embedding_on,
    is_order_preserving_on,
    is_order_reflecting_on,
    witness_isomorphism,
)
from rankrel.ordinal import ordinally_included
from rankrel.table import INT, AttrType, RankedTable, Row, Scheme
from rankrel import demo


def fr(text):
    return RATIONAL.parse(text)


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


class TestPropertyVerification:
    def test_grid_isomorphism_embeds(self):
        rng = random.Random(7)
        f = rnd_grid_isomorphism(rng)
        scores = [fr("0"), fr("0.25"), fr("0.5"), fr("0.75"), fr("1")]
        assert is_order_embedding_on(f, scores)

    def test_collapsing_map_preserves_but_does_not_reflect(self):
        collapse = PiecewiseConstantMap(
            RATIONAL, RATIONAL.bottom, (Piece(RATIONAL.bottom, RATIONAL.top, fr("0.5")),)
        )
        scores = [fr("0.2"), fr("0.8")]
        assert is_order_preserving_on(collapse, scores)
        assert not is_order_reflecting_on(collapse, scores)

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


    def test_identity_is_neutral(self):
        table = demo.houses()
        assert compose_table(table, IDENTITY) == table

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
            scores = [s for s in d1.range_of()]
            assert is_order_preserving_on(f, scores)
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
            assert compose_table(image, witness.inverse()) == table

    def test_not_equivalent_rejected(self):
        from rankrel.errors import NotEquivalentError

        scheme = Scheme((("a", INT),))
        one = RankedTable.from_entries(scheme, [({"a": 1}, fr("0.5"))])
        two = RankedTable.from_entries(
            scheme, [({"a": 1}, fr("0.5")), ({"a": 2}, fr("0.25"))]
        )
        with pytest.raises(NotEquivalentError):
            witness_isomorphism(one, two)


class TestExtension:
    def test_extension_agrees_and_preserves(self):
        rng = random.Random(41)
        for _ in range(40):
            table = rnd_table(rng, rnd_scheme(rng))
            g = rnd_grid_isomorphism(rng)
            image = compose_table(table, g)
            witness = witness_isomorphism(table, image)
            total = extend_piecewise(witness, RATIONAL)
            for src, dst in witness.graph:
                assert total.apply(src) == dst
            probes = [RATIONAL.score(Fraction(i, 7)) for i in range(8)]
            assert is_order_preserving_on(total, probes)
            assert compose_table(table, total) == image
