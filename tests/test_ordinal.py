"""Ordinal inclusion and equivalence, decided by the one sort-based kernel.

``ordinal._rank_profile`` is checked against the quadratic oracles in
``helpers``: cones enumerated over finite domains, the lower-cone dual, a
brute-force first violator, and the rank signature.
"""

import random
from fractions import Fraction

import pytest

from helpers import (
    enumerate_rows,
    first_violation_oracle,
    included_enumerated_oracle,
    included_lower_oracle,
    rank_profile_values,
    rank_signature,
    rnd_grid_isomorphism,
    rnd_monotone_map,
    rnd_scheme,
    rnd_table,
    row_value,
)

from rankrel import algebra, demo, ordinal
from rankrel.chain import RATIONAL
from rankrel.errors import SchemeError
from rankrel.maps import compose_table
from rankrel.table import AttrType, INT, RankedTable, Row, Scheme

fr = RATIONAL.parse


@pytest.fixture
def joined():
    return algebra.natural_join(demo.houses(), demo.offers())


@pytest.fixture
def similar():
    return demo.similar_join()


class TestInclusion:
    def test_demo_directions(self, joined, similar):
        assert ordinal.ordinally_included(similar, joined)
        assert not ordinal.ordinally_included(joined, similar)

    def test_demo_profile_escapes_only_black_798000(self, joined, similar):
        black = Row.of({"id": 71, "bdrm": 3, "sqft": 3280, "agent": "Black", "price": 798000})
        adams = Row.of({"id": 71, "bdrm": 3, "sqft": 3280, "agent": "Adams", "price": 849000})
        floors, escaping = rank_profile_values(joined, similar)
        assert escaping == [black]
        # Black's joined level is shared with Adams only, and Adams scores
        # strictly lower in similar: that level's floor is Adams's score.
        level = joined.score_of(black)
        assert {row for row, score in joined if score.value >= level.value} == {black, adams}
        assert floors[level.value] == similar.score_of(adams).value
        assert similar.score_of(adams).value < similar.score_of(black).value
        # Absent tuples score bottom in both: their level is present (the
        # cone of bottom is every tuple) and its floor is bottom.
        absent = Row.of({"id": 1, "bdrm": 1, "sqft": 1, "agent": "Nobody", "price": 1})
        assert joined.score_of(absent).is_bottom and absent not in escaping
        assert floors[RATIONAL.bottom.value] == RATIONAL.bottom.value

    def test_reflexive(self, joined):
        assert ordinal.ordinally_included(joined, joined)
        floors, escaping = rank_profile_values(joined, joined)
        assert escaping == [] and all(level == floor for level, floor in floors.items())

    def test_transitive(self):
        rng = random.Random(53)
        for _ in range(40):
            d1 = rnd_table(rng, rnd_scheme(rng))
            d2 = compose_table(d1, rnd_monotone_map(rng))
            d3 = compose_table(d2, rnd_monotone_map(rng))
            assert ordinal.ordinally_included(d1, d2)
            assert ordinal.ordinally_included(d2, d3)
            assert ordinal.ordinally_included(d1, d3)

    def test_empty_second_table_always_includes(self):
        scheme = Scheme((("a", INT),))
        table = RankedTable.from_entries(scheme, [({"a": 1}, fr("0.5"))])
        empty = RankedTable.empty(scheme)
        assert ordinal.ordinally_included(table, empty)
        assert not ordinal.ordinally_included(empty, table)

    def test_scheme_mismatch(self, joined):
        with pytest.raises(SchemeError):
            ordinal.ordinally_included(joined, demo.houses())

    def test_upper_and_lower_deciders_agree(self):
        # Unbounded INT attributes: the kernel against the lower-cone oracle,
        # and its evidence against a brute-force canonical-first violator.
        rng = random.Random(59)
        outside_d1 = 0
        for _ in range(200):
            scheme = rnd_scheme(rng)
            d1, d2 = rnd_table(rng, scheme), rnd_table(rng, scheme)
            if rng.random() < 0.5:  # bias toward related pairs
                d2 = compose_table(d1, rnd_monotone_map(rng))
            included = ordinal.ordinally_included(d1, d2)
            evidence = ordinal.first_inclusion_violation(d1, d2)
            assert included == included_lower_oracle(d1, d2)
            assert evidence == first_violation_oracle(d1, d2)
            assert (evidence is None) == included
            outside_d1 += evidence is not None and evidence not in d1.answer_set
        assert outside_d1 > 0  # rows only d2 holds must win the evidence sometimes

    def test_reduction_matches_enumeration_on_finite_domains(self):
        rng = random.Random(61)
        domain = AttrType("int", (0, 1, 2))
        scheme = Scheme((("a", domain), ("b", domain)))
        rows = enumerate_rows(scheme)
        covered = 0
        for _ in range(150):
            def build():
                density = rng.choice((0.4, 0.8, 1.0))  # partly or fully covered
                entries = {}
                for row in rows:
                    if rng.random() < density:
                        entries[row] = RATIONAL.score(
                            Fraction(rng.randint(1, 4), 4)
                        )
                return RankedTable(scheme, RATIONAL, entries)

            d1, d2 = build(), build()
            included = ordinal.ordinally_included(d1, d2)
            assert included == included_enumerated_oracle(d1, d2)
            assert included == included_lower_oracle(d1, d2)
            assert ordinal.first_inclusion_violation(d1, d2) == first_violation_oracle(d1, d2)
            covered += len(d1.answer_set | d2.answer_set) == len(rows)
        assert covered > 0  # the stand-in-free case must actually occur

    def test_fully_covered_finite_domain(self):
        domain = AttrType("int", (0, 1))
        scheme = Scheme((("a", domain),))
        full = RankedTable.from_entries(
            scheme, [({"a": 0}, fr("0.5")), ({"a": 1}, fr("0.25"))]
        )
        sparse = RankedTable.from_entries(scheme, [({"a": 0}, fr("0.5"))])
        # With the whole domain covered, full's bottom rank plays the role of
        # sparse's score-0 tuples: the pair is equivalent despite the
        # different answer sets.  No tuple lies outside both answer sets, so
        # the kernel adds no all-bottom stand-in here.
        assert ordinal.ordinally_included(sparse, full)
        assert ordinal.ordinally_included(full, sparse)
        reversed_full = RankedTable.from_entries(
            scheme, [({"a": 0}, fr("0.25")), ({"a": 1}, fr("0.5"))]
        )
        assert not ordinal.ordinally_included(sparse, reversed_full)


class TestEquivalence:
    def test_single_row_pair(self):
        first, second = demo.single_column_pair()
        assert ordinal.ordinally_equivalent(first, second)
        assert first != second

    def test_demo_pair_not_equivalent(self, joined, similar):
        assert not ordinal.ordinally_equivalent(joined, similar)

    def test_isomorphism_image_equivalent(self):
        rng = random.Random(67)
        for _ in range(60):
            table = rnd_table(rng, rnd_scheme(rng))
            image = compose_table(table, rnd_grid_isomorphism(rng))
            assert ordinal.ordinally_equivalent(table, image)

    def test_operations_invariant_up_to_equivalence(self):
        rng = random.Random(71)
        for _ in range(40):
            d1 = rnd_table(rng, rnd_scheme(rng, names=("a", "b")))
            d2 = rnd_table(rng, rnd_scheme(rng, names=("b", "c")))
            f = rnd_grid_isomorphism(rng)
            plain = algebra.natural_join(d1, d2)
            transformed = algebra.natural_join(compose_table(d1, f), compose_table(d2, f))
            assert ordinal.ordinally_equivalent(plain, transformed)
            assert ordinal.ordinally_equivalent(
                algebra.project(plain, ("b",)),
                algebra.project(transformed, ("b",)),
            )


class TestRankSignature:
    def test_demo_grouping(self, joined):
        signature = rank_signature(joined)
        assert [len(group) for group in signature] == [2, 1, 1, 1, 1]
        top = {row_value(joined.scheme, row, "agent") for row in signature[0]}
        assert top == {"Adams", "Black"}

    def test_empty_signature(self):
        assert rank_signature(RankedTable.empty(Scheme((("a", INT),)))) == ()

    def test_signature_equality_is_equivalence(self):
        rng = random.Random(73)
        agreements = 0
        for _ in range(500):
            scheme = rnd_scheme(rng, names=("a",))
            d1, d2 = rnd_table(rng, scheme, max_rows=5), rnd_table(rng, scheme, max_rows=5)
            if rng.random() < 0.5:
                d2 = compose_table(d1, rnd_grid_isomorphism(rng))
            same_signature = rank_signature(d1) == rank_signature(d2)
            assert same_signature == ordinal.ordinally_equivalent(d1, d2)
            agreements += same_signature
        assert agreements > 50  # the biased half must actually exercise equality


def test_first_violation_evidence(joined, similar):
    evidence = ordinal.first_inclusion_violation(joined, similar)
    assert evidence is not None and row_value(joined.scheme, evidence, "price") == 798000
    assert ordinal.first_inclusion_violation(similar, joined) is None
    # a=9 escapes inside d1's answer set, but a=1, held only by d2, escapes
    # too (its d1 cone is every tuple) and comes first in canonical order.
    scheme = Scheme((("a", INT),))
    d1 = RankedTable.from_entries(scheme, [({"a": 5}, fr("0.5")), ({"a": 9}, fr("0.25"))])
    d2 = RankedTable.from_entries(
        scheme, [({"a": 5}, fr("0.5")), ({"a": 9}, fr("0.75")), ({"a": 1}, fr("0.5"))]
    )
    assert ordinal.first_inclusion_violation(d1, d2) == Row.of({"a": 1})
