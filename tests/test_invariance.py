"""Invariance of every operation under order-preserving score transformations.

For an order isomorphism f fixing bottom and top, transforming all inputs
and then running an operation gives the same table as running the operation
first and transforming its output.  The minimum-based operations need only
order preservation; division, the bounded residuum, difference, and the
containment score need the embedding (plus the endpoint conditions), and the
negative tests below show each stronger assumption is really necessary.
"""

import random

import pytest

from helpers import (
    replay_hint,
    rnd_condition,
    rnd_grid_isomorphism,
    rnd_monotone_map,
    rnd_scheme,
    rnd_table,
    stable_seed,
)

from rankrel import algebra
from rankrel.chain import RATIONAL, abjunction
from rankrel.maps import Piece, PiecewiseConstantMap, compose_table
from rankrel.table import RankedTable, Scheme, INT

fr = RATIONAL.parse

TRIALS = 80  # the acceptance suite reruns these loops at full count


def run_join_trial(rng, f):
    d1 = rnd_table(rng, rnd_scheme(rng, names=("a", "b")))
    d2 = rnd_table(rng, rnd_scheme(rng, names=("b", "c")))
    lhs = compose_table(algebra.natural_join(d1, d2), f)
    rhs = algebra.natural_join(compose_table(d1, f), compose_table(d2, f))
    assert lhs == rhs


def run_restrict_trial(rng, f):
    d = rnd_table(rng, rnd_scheme(rng))
    theta = rnd_condition(rng, d.scheme)
    lhs = compose_table(algebra.restrict(d, theta), f)
    rhs = algebra.restrict(compose_table(d, f), theta.compose(f))
    assert lhs == rhs


def run_union_trial(rng, f):
    scheme = rnd_scheme(rng)
    d1, d2 = rnd_table(rng, scheme), rnd_table(rng, scheme)
    lhs = compose_table(algebra.union_tables(d1, d2), f)
    rhs = algebra.union_tables(compose_table(d1, f), compose_table(d2, f))
    assert lhs == rhs


def run_project_trial(rng, f):
    d = rnd_table(rng, rnd_scheme(rng, max_attrs=3))
    keep = d.scheme.names[: rng.randint(0, len(d.scheme.names))]
    lhs = compose_table(algebra.project(d, keep), f)
    rhs = algebra.project(compose_table(d, f), keep)
    assert lhs == rhs


def run_difference_trial(rng, f):
    scheme = rnd_scheme(rng)
    d1, d2 = rnd_table(rng, scheme), rnd_table(rng, scheme)
    lhs = compose_table(algebra.difference(d1, d2), f)
    rhs = algebra.difference(compose_table(d1, f), compose_table(d2, f))
    assert lhs == rhs


def run_divide_trial(rng, f):
    dividend = rnd_table(rng, rnd_scheme(rng, names=("a",)))
    divisor = rnd_table(rng, rnd_scheme(rng, names=("c",)))
    mediator = rnd_table(rng, dividend.scheme.union(divisor.scheme))
    lhs = compose_table(algebra.divide(dividend, mediator, divisor), f)
    rhs = algebra.divide(
        compose_table(dividend, f), compose_table(mediator, f), compose_table(divisor, f)
    )
    assert lhs == rhs


def run_residuum_trial(rng, f):
    scheme = rnd_scheme(rng)
    d3, d1, d2 = (rnd_table(rng, scheme) for _ in range(3))
    lhs = compose_table(algebra.residuum_tables(d3, d1, d2), f)
    rhs = algebra.residuum_tables(
        compose_table(d3, f), compose_table(d1, f), compose_table(d2, f)
    )
    assert lhs == rhs


def run_subsethood_trial(rng, f):
    scheme = rnd_scheme(rng)
    d1, d2 = rnd_table(rng, scheme), rnd_table(rng, scheme)
    lhs = f.apply(algebra.subsethood(d1, d2))
    rhs = algebra.subsethood(compose_table(d1, f), compose_table(d2, f))
    assert lhs == rhs


def run_semijoin_trial(rng, f):
    d1 = rnd_table(rng, rnd_scheme(rng, names=("a", "b")))
    d2 = rnd_table(rng, rnd_scheme(rng, names=("b", "c")))
    lhs = compose_table(algebra.semijoin(d1, d2), f)
    rhs = algebra.semijoin(compose_table(d1, f), compose_table(d2, f))
    assert lhs == rhs


TRIAL_RUNNERS = {
    "join": run_join_trial,
    "restrict": run_restrict_trial,
    "union": run_union_trial,
    "project": run_project_trial,
    "difference": run_difference_trial,
    "divide": run_divide_trial,
    "residuum": run_residuum_trial,
    "subsethood": run_subsethood_trial,
    "semijoin": run_semijoin_trial,
}


@pytest.mark.parametrize("name", sorted(TRIAL_RUNNERS))
def test_operation_invariant_under_isomorphisms(name):
    seed = stable_seed(name)
    rng = random.Random(seed)
    with replay_hint(seed):
        for _ in range(TRIALS):
            TRIAL_RUNNERS[name](rng, rnd_grid_isomorphism(rng))


@pytest.mark.parametrize("name", ["join", "restrict", "union", "project", "semijoin"])
def test_minimum_based_operations_need_only_preservation(name):
    # These four laws hold for arbitrary order-preserving maps, collapsing
    # ones included.
    seed = stable_seed(f"preserving-{name}")
    rng = random.Random(seed)
    with replay_hint(seed):
        for _ in range(TRIALS):
            TRIAL_RUNNERS[name](rng, rnd_monotone_map(rng))


def test_transformed_containment_lower_bound():
    # f(min(S(d1,d2), S(d3,d4))) <= S(join(d1.f, d3.f), join(d2.f, d4.f))
    rng = random.Random(2024)
    from rankrel.chain import meet

    for _ in range(TRIALS):
        r_scheme = rnd_scheme(rng, names=("a", "b"))
        s_scheme = rnd_scheme(rng, names=("b", "c"))
        d1, d2 = rnd_table(rng, r_scheme), rnd_table(rng, r_scheme)
        d3, d4 = rnd_table(rng, s_scheme), rnd_table(rng, s_scheme)
        f = rnd_grid_isomorphism(rng)
        bound = f.apply(
            meet(algebra.subsethood(d1, d2), algebra.subsethood(d3, d4))
        )
        joined = algebra.subsethood(
            algebra.natural_join(compose_table(d1, f), compose_table(d3, f)),
            algebra.natural_join(compose_table(d2, f), compose_table(d4, f)),
        )
        assert bound <= joined


def collapse_map(*values):
    """Order preserving map sending every listed score to its maximum."""
    ceiling = max(fr(v) for v in values)
    pieces = []
    lo = RATIONAL.bottom
    for text in ("0.25", "0.5", "0.75", "1"):
        hi = fr(text)
        image = ceiling if hi <= ceiling else hi
        pieces.append(Piece(lo, hi, image))
        lo = hi
    return PiecewiseConstantMap(RATIONAL, RATIONAL.bottom, tuple(pieces))


def one_row(score_text):
    scheme = Scheme((("v", INT),))
    return RankedTable.from_entries(scheme, [({"v": 1}, fr(score_text))])


class TestNecessityOfStrongerAssumptions:
    def test_difference_fails_without_reflection(self):
        f = collapse_map("0.25", "0.5")  # preserving, collapses 0.25 and 0.5
        d1, d2 = one_row("0.5"), one_row("0.25")
        lhs = compose_table(algebra.difference(d1, d2), f)
        rhs = algebra.difference(compose_table(d1, f), compose_table(d2, f))
        assert lhs != rhs

    def test_residuum_fails_without_reflection(self):
        f = collapse_map("0.25", "0.5")
        d3, d1, d2 = one_row("1"), one_row("0.5"), one_row("0.25")
        lhs = compose_table(algebra.residuum_tables(d3, d1, d2), f)
        rhs = algebra.residuum_tables(
            compose_table(d3, f), compose_table(d1, f), compose_table(d2, f)
        )
        assert lhs != rhs

    def test_divide_fails_without_reflection(self):
        f = collapse_map("0.25", "0.5")
        dividend = one_row("1")
        divisor = RankedTable.from_entries(
            Scheme((("s", INT),)), [({"s": 1}, fr("0.5"))]
        )
        mediator = RankedTable.from_entries(
            Scheme((("v", INT), ("s", INT))), [({"v": 1, "s": 1}, fr("0.25"))]
        )
        lhs = compose_table(algebra.divide(dividend, mediator, divisor), f)
        rhs = algebra.divide(
            compose_table(dividend, f), compose_table(mediator, f), compose_table(divisor, f)
        )
        assert lhs != rhs

    def test_subsethood_fails_without_fixed_top(self):
        halve = PiecewiseConstantMap(
            RATIONAL,
            RATIONAL.bottom,
            (
                Piece(RATIONAL.bottom, fr("0.25"), fr("0.125")),
                Piece(fr("0.25"), fr("0.5"), fr("0.25")),
                Piece(fr("0.5"), fr("0.75"), fr("0.375")),
                Piece(fr("0.75"), fr("1"), fr("0.5")),
            ),
        )  # embedding on the quarter grid, but sends top to one half
        d = one_row("0.5")
        lhs = halve.apply(algebra.subsethood(d, d))
        rhs = algebra.subsethood(compose_table(d, halve), compose_table(d, halve))
        assert lhs != rhs

    def test_difference_needs_fixed_bottom_at_score_level(self):
        lift = lambda s: fr("0.25") if s.is_bottom else s  # noqa: E731
        a, b = fr("0.25"), fr("0.5")
        assert lift(abjunction(a, b)) != abjunction(lift(a), lift(b))
