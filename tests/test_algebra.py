"""The relational operations: worked values, classic degeneration, laws."""

import random

import pytest

from helpers import join_rows, rnd_condition, rnd_scheme, rnd_table, row_value

from rankrel import algebra, demo
from rankrel.chain import RATIONAL, meet
from rankrel.conditions import ExprCondition
from rankrel.errors import SchemeError, UnsupportedOperationError
from rankrel.table import INT, RankedTable, Row, Scheme, from_classic, values_of

fr = RATIONAL.parse


def table_on(names, entries):
    scheme = Scheme((name, INT) for name in names)
    return RankedTable.from_entries(
        scheme, [(dict(zip(names, values)), fr(score)) for *values, score in entries]
    )


UNIT = RankedTable.from_entries(Scheme(()), [({}, 1)])


class TestNaturalJoin:
    def test_demo_values(self):
        joined = algebra.natural_join(demo.houses(), demo.offers())
        assert joined.score_of(
            Row.of({"id": 71, "bdrm": 3, "sqft": 3280, "agent": "Adams", "price": 849000})
        ) == fr("0.937")
        assert joined.score_of(
            Row.of({"id": 85, "bdrm": 5, "sqft": 4580, "agent": "Black", "price": 998000})
        ) == fr("0.778")
        assert len(joined) == 6

    def test_unit_table_is_neutral(self):
        assert algebra.natural_join(demo.houses(), UNIT) == demo.houses()

    def test_empty_annihilates(self):
        empty = RankedTable.empty(Scheme((("z", INT),)))
        assert len(algebra.natural_join(demo.houses(), empty)) == 0

    def test_commutative_associative_idempotent(self):
        rng = random.Random(5)
        for _ in range(30):
            d1 = rnd_table(rng, rnd_scheme(rng))
            d2 = rnd_table(rng, rnd_scheme(rng))
            d3 = rnd_table(rng, rnd_scheme(rng))
            ab = algebra.natural_join(d1, d2)
            assert ab == algebra.natural_join(d2, d1)
            assert algebra.natural_join(ab, d3) == algebra.natural_join(
                d1, algebra.natural_join(d2, d3)
            )
            assert algebra.natural_join(d1, d1) == d1


class TestRestrict:
    def test_constant_bounds(self):
        table = demo.houses()
        assert algebra.restrict(table, ExprCondition.parse("1")) == table
        assert len(algebra.restrict(table, ExprCondition.parse("0"))) == 0

    def test_scores_never_increase(self):
        rng = random.Random(6)
        for _ in range(30):
            table = rnd_table(rng, rnd_scheme(rng))
            theta = rnd_condition(rng, table.scheme)
            restricted = algebra.restrict(table, theta)
            for row, score in restricted:
                assert score <= table.score_of(row)

    def test_expression_condition(self):
        table = table_on(("a",), [(0, "0.9"), (1, "0.9"), (2, "0.9")])
        theta = ExprCondition.parse("a <= 1 ? 0.25*(a+1) : 1")
        restricted = algebra.restrict(table, theta)
        assert restricted.score_of(Row.of({"a": 0})) == fr("0.25")
        assert restricted.score_of(Row.of({"a": 1})) == fr("0.5")
        assert restricted.score_of(Row.of({"a": 2})) == fr("0.9")

    def test_scheme_mismatch(self):
        table = demo.houses()
        theta = ExprCondition.parse("price/1000000")
        with pytest.raises(SchemeError):
            algebra.restrict(table, theta)


class TestProject:
    def test_full_scheme_is_identity(self):
        table = demo.houses()
        assert algebra.project(table, table.scheme.names) == table

    def test_empty_scheme_takes_best_score(self):
        projected = algebra.project(demo.houses(), ())
        assert projected.score_of(Row.of({})) == fr("1.000")

    def test_takes_max_over_extensions(self):
        table = table_on(("a", "b"), [(1, 1, "0.3"), (1, 2, "0.8"), (2, 1, "0.5")])
        projected = algebra.project(table, ("a",))
        assert projected.score_of(Row.of({"a": 1})) == fr("0.8")
        assert projected.score_of(Row.of({"a": 2})) == fr("0.5")

    def test_not_a_subset(self):
        with pytest.raises(SchemeError):
            algebra.project(demo.houses(), ("price",))


class TestUnionDifference:
    def test_union_pointwise_sup(self):
        d1 = table_on(("a",), [(1, "0.3")])
        d2 = table_on(("a",), [(1, "0.9")])
        assert algebra.union_tables(d1, d2).score_of(Row.of({"a": 1})) == fr("0.9")

    def test_union_with_empty(self):
        table = demo.houses()
        empty = RankedTable.empty(table.scheme)
        assert algebra.union_tables(table, empty) == table

    def test_union_disjoint_answer_sets_concatenates(self):
        d1 = table_on(("a",), [(1, "0.3")])
        d2 = table_on(("a",), [(2, "0.9")])
        merged = algebra.union_tables(d1, d2)
        assert len(merged) == 2 and merged.score_of(Row.of({"a": 2})) == fr("0.9")

    def test_difference_of_self_is_empty(self):
        table = demo.houses()
        assert len(algebra.difference(table, table)) == 0

    def test_difference_keeps_dominating_scores(self):
        bigger = table_on(("a",), [(1, "0.9")])
        smaller = table_on(("a",), [(1, "0.3")])
        assert algebra.difference(bigger, smaller) == bigger
        assert len(algebra.difference(smaller, bigger)) == 0


def divide_oracle(dividend, mediator, divisor):
    """Literal evaluation of the division's defining infimum."""
    from rankrel.chain import residuum

    entries = {}
    for row, bound in dividend:
        values = [bound]
        for s_row, s_score in divisor:
            from helpers import join_rows

            values.append(residuum(s_score, mediator.score_of(join_rows(row, s_row))))
        result = min(values, key=lambda s: s.value)
        if not result.is_bottom:
            entries[row] = result
    return RankedTable(dividend.scheme, dividend.chain, entries)


class TestDivide:
    def _fixture(self, dividend_score):
        divisor = table_on(("s",), [(1, "1"), (2, "0.8")])
        mediator = table_on(("x", "s"), [(1, 1, "0.9"), (1, 2, "0.9")])
        dividend = table_on(("x",), [(1, dividend_score)])
        return dividend, mediator, divisor

    def test_bounded_by_dividend(self):
        dividend, mediator, divisor = self._fixture("0.7")
        result = algebra.divide(dividend, mediator, divisor)
        assert result.score_of(Row.of({"x": 1})) == fr("0.7")
        assert result == divide_oracle(dividend, mediator, divisor)

    def test_cut_down_to_violating_mediator_score(self):
        dividend, mediator, divisor = self._fixture("0.95")
        result = algebra.divide(dividend, mediator, divisor)
        assert result.score_of(Row.of({"x": 1})) == fr("0.9")
        assert result == divide_oracle(dividend, mediator, divisor)

    def test_empty_divisor_returns_dividend(self):
        dividend = table_on(("x",), [(1, "0.7"), (2, "0.4")])
        mediator = RankedTable.empty(Scheme((("x", INT), ("s", INT))))
        divisor = RankedTable.empty(Scheme((("s", INT),)))
        assert algebra.divide(dividend, mediator, divisor) == dividend

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(17)
        for _ in range(120):
            dividend = rnd_table(rng, rnd_scheme(rng, names=("a", "b")[: rng.randint(1, 2)]))
            divisor = rnd_table(rng, rnd_scheme(rng, names=("c",)))
            mediator = rnd_table(rng, dividend.scheme.union(divisor.scheme))
            result = algebra.divide(dividend, mediator, divisor)
            assert result == divide_oracle(dividend, mediator, divisor)
            assert result.answer_set <= dividend.answer_set

    def test_overlapping_schemes_rejected(self):
        table = table_on(("a",), [(1, "0.5")])
        with pytest.raises(SchemeError):
            algebra.divide(table, table, table)


class TestResiduumTables:
    def test_vacuous_when_antecedent_below(self):
        d3 = table_on(("a",), [(1, "0.9")])
        d1 = table_on(("a",), [(1, "0.3")])
        d2 = table_on(("a",), [(1, "0.5")])
        assert algebra.residuum_tables(d3, d1, d2) == d3

    def test_cuts_to_consequent(self):
        d3 = table_on(("a",), [(1, "0.9")])
        d1 = table_on(("a",), [(1, "0.8")])
        d2 = table_on(("a",), [(1, "0.5")])
        result = algebra.residuum_tables(d3, d1, d2)
        assert result.score_of(Row.of({"a": 1})) == fr("0.5")

    def test_empty_bound_gives_empty(self):
        d1 = table_on(("a",), [(1, "0.8")])
        empty = RankedTable.empty(d1.scheme)
        assert len(algebra.residuum_tables(empty, d1, d1)) == 0

    def test_case_split(self):
        rng = random.Random(23)
        for _ in range(60):
            scheme = rnd_scheme(rng)
            d3, d1, d2 = (rnd_table(rng, scheme) for _ in range(3))
            result = algebra.residuum_tables(d3, d1, d2)
            for row in d3.answer_set | d1.answer_set | d2.answer_set:
                a, b, c = d3.score_of(row), d1.score_of(row), d2.score_of(row)
                expected = a if (b <= c or a <= c) else c
                assert result.score_of(row) == expected


class TestContainmentScores:
    def test_demo_values(self):
        joined = algebra.natural_join(demo.houses(), demo.offers())
        similar = demo.similar_join()
        assert algebra.subsethood(joined, similar).is_top
        assert algebra.subsethood(similar, joined) == fr("0.937")
        assert algebra.similarity(similar, joined) == fr("0.937")

    def test_self_containment(self):
        table = demo.houses()
        assert algebra.subsethood(table, table).is_top
        assert algebra.similarity(table, table).is_top

    def test_full_mutual_containment_means_equality(self):
        rng = random.Random(29)
        for _ in range(80):
            scheme = rnd_scheme(rng)
            d1, d2 = rnd_table(rng, scheme), rnd_table(rng, scheme)
            mutual = (
                algebra.subsethood(d1, d2).is_top and algebra.subsethood(d2, d1).is_top
            )
            assert mutual == (d1 == d2)

    def test_similarity_symmetric(self):
        rng = random.Random(31)
        for _ in range(40):
            scheme = rnd_scheme(rng)
            d1, d2 = rnd_table(rng, scheme), rnd_table(rng, scheme)
            assert algebra.similarity(d1, d2) == algebra.similarity(d2, d1)

    def test_join_similarity_lower_bounds(self):
        rng = random.Random(37)
        for _ in range(60):
            r_scheme = rnd_scheme(rng, names=("a", "b"))
            s_scheme = rnd_scheme(rng, names=("b", "c"))
            d1, d2 = rnd_table(rng, r_scheme), rnd_table(rng, r_scheme)
            d3, d4 = rnd_table(rng, s_scheme), rnd_table(rng, s_scheme)
            bound = meet(algebra.subsethood(d1, d2), algebra.subsethood(d3, d4))
            joined = algebra.subsethood(
                algebra.natural_join(d1, d3), algebra.natural_join(d2, d4)
            )
            assert bound <= joined
            e_bound = meet(algebra.similarity(d1, d2), algebra.similarity(d3, d4))
            e_joined = algebra.similarity(
                algebra.natural_join(d1, d3), algebra.natural_join(d2, d4)
            )
            assert e_bound <= e_joined


class TestSemijoinRename:
    def test_both_forms_agree(self):
        houses, offers = demo.houses(), demo.offers()
        direct = algebra.semijoin(houses, offers)
        shared = [name for name in houses.scheme.names if name in offers.scheme.name_set]
        other = algebra.natural_join(houses, algebra.project(offers, shared))
        assert direct == other
        assert direct.score_of(Row.of({"id": 71, "bdrm": 3, "sqft": 3280})) == fr("0.937")

    def test_unit_neutral_empty_annihilates(self):
        table = demo.houses()
        assert algebra.semijoin(table, UNIT) == table
        empty = RankedTable.empty(Scheme((("zz", INT),)))
        assert len(algebra.semijoin(table, empty)) == 0

    def test_rename_round_trip(self):
        table = demo.houses()
        renamed = algebra.rename(table, {"id": "house_id"})
        assert "house_id" in renamed.scheme
        assert algebra.rename(renamed, {"house_id": "id"}) == table

    def test_rename_collision_rejected(self):
        with pytest.raises(SchemeError):
            algebra.rename(demo.houses(), {"id": "bdrm"})

    def test_a_name_renamed_twice_in_any_case_is_rejected(self):
        # Two keys equal after lowercasing would otherwise fold into one.
        for mapping in ({"ID": "a", "id": "b"}, [("id", "a"), ("ID", "b")]):
            with pytest.raises(SchemeError, match="attribute 'id' is renamed twice"):
                algebra.rename(demo.houses(), mapping)

    def test_rename_takes_pairs_as_a_mapping(self):
        table = demo.houses()
        assert algebra.rename(table, [("ID", "a")]) == algebra.rename(table, {"id": "a"})

    def test_rename_empty(self):
        empty = RankedTable.empty(Scheme((("a", INT),)))
        assert len(algebra.rename(empty, {"a": "b"})) == 0


class TestProductJoin:
    def test_unit_neutral(self):
        table = demo.houses()
        assert algebra.product_join(table, UNIT) == table

    def test_product_scores(self):
        d1 = table_on(("a",), [(1, "0.5")])
        d2 = table_on(("a",), [(1, "0.5")])
        assert algebra.product_join(d1, d2).score_of(Row.of({"a": 1})) == fr("0.25")

    def test_symbolic_carrier_rejected(self):
        from rankrel.chain import symbolic_chain

        chain = symbolic_chain("no < yes")
        scheme = Scheme((("a", INT),))
        table = RankedTable.from_entries(scheme, [({"a": 1}, chain.score("yes"))], chain)
        with pytest.raises(UnsupportedOperationError):
            algebra.product_join(table, table)


# --- classic degeneration ----------------------------------------------------


def classic_join(r1, scheme1, r2, scheme2, shared):
    key1, key2 = values_of(scheme1, shared), values_of(scheme2, shared)
    return {join_rows(a, b) for a in r1 for b in r2 if key1(a) == key2(b)}


class TestCrispDegeneration:
    def _crisp_pair(self, rng, scheme):
        rows = list({Row.of({n: rng.choice((0, 1, 2)) for n in scheme.names})
                     for _ in range(rng.randint(0, 8))})
        split = rng.randint(0, len(rows))
        return set(rows[:split]), set(rows)

    def test_all_operations(self):
        rng = random.Random(43)
        for _ in range(50):
            sch1 = rnd_scheme(rng, names=("a", "b"))
            sch2 = rnd_scheme(rng, names=("b", "c"))
            rel1, _ = self._crisp_pair(rng, sch1)
            rel2, _ = self._crisp_pair(rng, sch2)
            d1, d2 = from_classic(rel1, sch1), from_classic(rel2, sch2)

            joined = algebra.natural_join(d1, d2)
            assert joined.answer_set == classic_join(rel1, sch1, rel2, sch2, ("b",))

            projected = algebra.project(d1, ("a",))
            expected = {Row.of({"a": row_value(sch1, row, "a")}) for row in rel1}
            assert projected.answer_set == expected

            other, _ = self._crisp_pair(rng, sch1)
            d3 = from_classic(other, sch1)
            assert algebra.union_tables(d1, d3).answer_set == rel1 | other
            assert algebra.difference(d1, d3).answer_set == rel1 - other
            assert algebra.intersection(d1, d3).answer_set == rel1 & other

    def test_classic_restriction(self):
        rng = random.Random(41)
        for _ in range(40):
            scheme = rnd_scheme(rng, names=("a", "b"))
            rel, _ = self._crisp_pair(rng, scheme)
            table = from_classic(rel, scheme)
            theta = ExprCondition.parse("a = b ? 1 : 0")
            restricted = algebra.restrict(table, theta)
            assert restricted.answer_set == {
                row for row in rel if row_value(scheme, row, "a") == row_value(scheme, row, "b")
            }
            assert all(score.is_top for _, score in restricted)

    def test_classic_division(self):
        rng = random.Random(47)
        for _ in range(50):
            r_scheme = rnd_scheme(rng, names=("a",))
            s_scheme = rnd_scheme(rng, names=("c",))
            dividend_rows, _ = self._crisp_pair(rng, r_scheme)
            divisor_rows, _ = self._crisp_pair(rng, s_scheme)
            med_scheme = r_scheme.union(s_scheme)
            mediator_rows, _ = self._crisp_pair(rng, med_scheme)
            result = algebra.divide(
                from_classic(dividend_rows, r_scheme),
                from_classic(mediator_rows, med_scheme),
                from_classic(divisor_rows, s_scheme),
            )
            from helpers import join_rows

            expected = {
                row
                for row in dividend_rows
                if all(join_rows(row, s) in mediator_rows for s in divisor_rows)
            }
            assert result.answer_set == expected
            assert all(score.is_top for _, score in result)


def test_double_difference_witness():
    """Frozen regression: intersection differs from difference-of-difference."""
    d1 = table_on(("v",), [(1, "0.7")])
    d2 = table_on(("v",), [(1, "0.5")])
    intersected = algebra.intersection(d1, d2)
    doubled = algebra.difference(d1, algebra.difference(d1, d2))
    assert intersected.score_of(Row.of({"v": 1})) == fr("0.5")
    assert len(doubled) == 0
    assert intersected != doubled
