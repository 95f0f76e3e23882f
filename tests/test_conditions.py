"""Restriction conditions: per-call scorers against per-row ``score_of``."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from helpers import (
    grid_score,
    reference_condition_score,
    replay_hint,
    rnd_condition,
    rnd_grid_isomorphism,
    rnd_monotone_map,
    rnd_scheme,
    rnd_table,
    stable_seed,
)

from rankrel import algebra, demo, exprs, maps
from rankrel.chain import RATIONAL, ScoreChain
from rankrel.conditions import ComposedCondition, ExprCondition, TableCondition
from rankrel.errors import IncompatibleChainError, MapPropertyError, UnsupportedOperationError
from rankrel.maps import AnalyticMap, compose_table
from rankrel.table import INT, RankedTable, Row, Scheme

LEVELS = ScoreChain(("low", "mid", "high"))

EXPRESSIONS = ("a <= 1 ? 0.25*(a+1) : 1", "0.1*(4+b)", "min(a, c)/2 + 1/4", "3/4",
               "a == b ? 1 : 1/3")


def houses(rows: int, rng: random.Random) -> RankedTable:
    scheme = Scheme((("id", INT), ("bdrm", INT)))
    return RankedTable(scheme, RATIONAL, {
        Row.of({"id": i, "bdrm": rng.randint(1, 6)}): grid_score(rng) for i in range(rows)
    })


def counting_compiler(monkeypatch):
    """Replace ``exprs.compile_expr`` with one counting compilations and runs."""
    counts = {"compiled": 0, "runs": 0}
    compile_expr = exprs.compile_expr

    def counted(expr):
        counts["compiled"] += 1
        run = compile_expr(expr)

        def counted_run(env):
            counts["runs"] += 1
            return run(env)
        return counted_run

    monkeypatch.setattr(exprs, "compile_expr", counted)
    return counts


class TestScorer:
    def test_restrict_compiles_once_and_runs_once_per_distinct_value(self, monkeypatch):
        table = houses(2000, random.Random(stable_seed("restrict count")))
        theta = ExprCondition.parse("0.1*(4+bdrm)")
        counts = counting_compiler(monkeypatch)
        restricted = algebra.restrict(table, theta)
        distinct = {row.value("bdrm") for row, _ in table}
        assert counts == {"compiled": 1, "runs": len(distinct)} and len(distinct) == 6
        for row, score in table:
            assert restricted.score_of(row).value == min(
                score.value, Fraction(4 + row.value("bdrm"), 10))

    def test_scorer_agrees_with_score_of(self):
        seed = stable_seed("scorer")
        rng = random.Random(seed)
        with replay_hint(seed):
            for _ in range(60):
                scheme = rnd_scheme(rng, names=("a", "b", "c")[:rng.randint(1, 3)])
                table = rnd_table(rng, scheme, max_rows=30)
                usable = [text for text in EXPRESSIONS
                          if exprs.free_names(exprs.parse_expr(text)) <= scheme.name_set]
                conditions = [ExprCondition.parse(rng.choice(usable)), rnd_condition(rng, scheme)]
                for theta in conditions:
                    score_of = theta.scorer(scheme, RATIONAL)
                    for row, _ in table:
                        assert score_of(row) == theta.score_of(row, RATIONAL), theta
                conditions += [c.compose(rnd_grid_isomorphism(rng)) for c in conditions]
                conditions.append(
                    conditions[0].compose(rnd_monotone_map(rng)).compose(rnd_grid_isomorphism(rng)))
                for theta in conditions:
                    expected = {row: reference_condition_score(theta, row, RATIONAL)
                                for row, _ in table}
                    for row, _ in table:
                        assert theta.score_of(row, RATIONAL) == expected[row], theta
                    assert algebra.restrict(table, theta) == RankedTable.from_entries(
                        scheme, {row: min(s, expected[row]) for row, s in table})

    def test_a_composed_condition_checks_its_map_on_the_scores_it_meets(self):
        reversing = AnalyticMap.parse("x > 0 ? 1 - x/2 : 0", declared=("preserving",))
        theta = demo.bedrooms_condition().compose(reversing)
        with pytest.raises(MapPropertyError):
            algebra.restrict(demo.houses(), theta)
        with pytest.raises(MapPropertyError):
            compose_table(demo.houses(), reversing)

    def test_restrict_maps_each_distinct_base_score_once(self, monkeypatch):
        table = houses(2000, random.Random(stable_seed("restrict maps once")))
        theta = ExprCondition.parse("0.1*(4+bdrm)").compose(maps.IDENTITY)
        calls = []

        def counted(self, score):
            calls.append(score)
            return score

        monkeypatch.setattr(maps.IdentityMap, "apply", counted)
        restricted = algebra.restrict(table, theta)
        distinct = {row.value("bdrm") for row, _ in table}
        assert len(calls) == len(distinct) + 2  # each distinct score, then bottom and top
        assert restricted == algebra.restrict(table, theta.base)

    @pytest.mark.parametrize("theta, error", [
        (ExprCondition.parse("1/2"), UnsupportedOperationError),
        (ExprCondition.parse("1/2").compose(maps.IDENTITY), UnsupportedOperationError),
        (TableCondition(RankedTable.empty(Scheme((("a", INT),)))), IncompatibleChainError),
    ], ids=["expr", "composed", "table"])
    def test_chain_errors_fire_on_the_first_row_only(self, theta, error):
        scheme = Scheme((("a", INT),))
        assert len(algebra.restrict(RankedTable.empty(scheme, LEVELS), theta)) == 0
        table = RankedTable.from_entries(scheme, [({"a": 1}, "mid")], LEVELS)
        with pytest.raises(error):
            algebra.restrict(table, theta)

    def test_conditions_and_maps_still_copy_pickle_compare_and_hash(self):
        table = houses(50, random.Random(3))
        theta = ExprCondition.parse("bdrm <= 3 ? 0.1*(4+bdrm) : 1")
        f = AnalyticMap.parse("x^2", declared=("preserving",))
        composed = ComposedCondition(theta, f)
        algebra.restrict(table, composed)
        compose_table(table, f)
        f.apply(RATIONAL.score(Fraction(1, 2)))
        for value, fresh in ((theta, ExprCondition.parse("bdrm <= 3 ? 0.1*(4+bdrm) : 1")),
                             (f, AnalyticMap.parse("x^2", declared=("preserving",))),
                             (composed, None)):
            assert not any(callable(v) for v in vars(value).values())
            for again in (copy.copy(value), copy.deepcopy(value),
                          pickle.loads(pickle.dumps(value))):
                assert again == value and hash(again) == hash(value)
                assert repr(again) == repr(value)
            if fresh is not None:
                assert fresh == value and hash(fresh) == hash(value)
