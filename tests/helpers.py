"""Shared generators for randomized law and invariance tests.

All scores are drawn from a fixed fine grid so that a single random order
isomorphism of the grid covers every score any operation can produce (the
minimum-based operations only ever return scores of their inputs, bottom,
or top).
"""

from __future__ import annotations

import itertools
import random
import zlib
from contextlib import contextmanager
from fractions import Fraction

from rankrel.calculus import And, Atom, Exists, Falsum, ForAll, Implies, Not, Or, Structure
from rankrel.chain import RATIONAL, Score
from rankrel.conditions import TableCondition
from rankrel.errors import UnsupportedOperationError
from rankrel.maps import Piece, PiecewiseConstantMap
from rankrel.table import INT, RankedTable, Row, Scheme

#: Score grid: multiples of 1/24 (contains halves, quarters, sixths...).
GRID_DENOM = 24
GRID = [Fraction(i, GRID_DENOM) for i in range(GRID_DENOM + 1)]

ATTR_POOL = ("a", "b", "c", "d")
VALUE_POOL = (0, 1, 2)


def stable_seed(label: str) -> int:
    """RNG seed derived from ``label``, the same in every process.

    Unlike ``hash(label)``, it does not depend on ``PYTHONHASHSEED``, so a
    failing seed can be replayed.
    """
    return zlib.crc32(label.encode())


@contextmanager
def replay_hint(seed: int):
    """Re-raise any failure inside the block with the seed that replays it."""
    try:
        yield
    except Exception as exc:
        raise AssertionError(f"failed under random.Random({seed}): {exc!r}") from exc


def grid_score(rng: random.Random) -> Score:
    return RATIONAL.score(GRID[rng.randrange(1, GRID_DENOM + 1)])


def rnd_scheme(rng: random.Random, names=None, max_attrs: int = 4) -> Scheme:
    if names is None:
        count = rng.randint(1, max_attrs)
        names = rng.sample(ATTR_POOL, count)
    return Scheme((name, INT) for name in names)


def rnd_table(rng: random.Random, scheme: Scheme, max_rows: int = 12) -> RankedTable:
    rows = {}
    for _ in range(rng.randint(0, max_rows)):
        row = Row.of({name: rng.choice(VALUE_POOL) for name in scheme.names})
        rows[row] = grid_score(rng)
    return RankedTable(scheme, RATIONAL, rows)


def rnd_condition(rng: random.Random, scheme: Scheme) -> TableCondition:
    """A random condition given as an explicit score table on the scheme."""
    return TableCondition(rnd_table(rng, scheme))


def rnd_grid_isomorphism(rng: random.Random) -> PiecewiseConstantMap:
    """A random order isomorphism of the grid fixing bottom and top.

    Piecewise constant with one piece per grid step, strictly increasing
    outputs: an order embedding on every grid score, order preserving on the
    whole carrier.
    """
    raw = rng.sample(range(1, 20 * GRID_DENOM), GRID_DENOM - 1)
    outputs = [Fraction(v, 20 * GRID_DENOM) for v in sorted(raw)] + [Fraction(1)]
    pieces = []
    lo = RATIONAL.bottom
    for step, out in zip(GRID[1:], outputs):
        hi = RATIONAL.score(step)
        pieces.append(Piece(lo, hi, RATIONAL.score(out)))
        lo = hi
    return PiecewiseConstantMap(
        RATIONAL, RATIONAL.bottom, tuple(pieces),
        declared=frozenset(("preserving", "reflecting", "embedding")),
    )


def rnd_monotone_map(rng: random.Random) -> PiecewiseConstantMap:
    """Order preserving but possibly collapsing map of the grid, fixing bottom."""
    outputs = sorted(GRID[rng.randrange(0, GRID_DENOM + 1)] for _ in range(GRID_DENOM))
    pieces = []
    lo = RATIONAL.bottom
    for step, out in zip(GRID[1:], outputs):
        hi = RATIONAL.score(step)
        pieces.append(Piece(lo, hi, RATIONAL.score(out)))
        lo = hi
    return PiecewiseConstantMap(RATIONAL, RATIONAL.bottom, tuple(pieces),
                                declared=frozenset(("preserving",)))


# --- calculus -----------------------------------------------------------------


def rnd_structure(rng: random.Random, universe_size: int = 3) -> Structure:
    universe = tuple(f"m{i}" for i in range(universe_size))
    arities = {"p": 1, "q": 2, "r": 2}
    interps = {}
    for symbol, arity in arities.items():
        table = {}
        vectors = [()]
        for _ in range(arity):
            vectors = [v + (el,) for v in vectors for el in universe]
        for vector in vectors:
            if rng.random() < 0.45:
                table[vector] = grid_score(rng)
        interps[symbol] = table
    return Structure(RATIONAL, universe, arities, interps)


def rnd_formula(rng: random.Random, depth: int = 2, variables=("x", "y", "z")):
    arities = {"p": 1, "q": 2, "r": 2}
    if depth <= 0:
        roll = rng.random()
        if roll < 0.1:
            return Falsum()
        symbol = rng.choice(list(arities))
        args = tuple(rng.choice(variables) for _ in range(arities[symbol]))
        return Atom(symbol, args)
    roll = rng.random()
    if roll < 0.25:
        return And(rnd_formula(rng, depth - 1, variables),
                   rnd_formula(rng, depth - 1, variables))
    if roll < 0.5:
        return Implies(rnd_formula(rng, depth - 1, variables),
                       rnd_formula(rng, depth - 1, variables))
    if roll < 0.6:
        return Or(rnd_formula(rng, depth - 1, variables),
                  rnd_formula(rng, depth - 1, variables))
    if roll < 0.7:
        return Not(rnd_formula(rng, depth - 1, variables))
    if roll < 0.85:
        return ForAll(rng.choice(variables), rnd_formula(rng, depth - 1, variables))
    return Exists(rng.choice(variables), rnd_formula(rng, depth - 1, variables))


# --- ordinal oracles ----------------------------------------------------------
# Quadratic decision procedures for ordinal inclusion, kept only to
# cross-check the sort-based kernel in rankrel.ordinal.


def enumerate_rows(scheme: Scheme, cap: int = 100_000) -> list[Row]:
    """All rows over an explicitly finite scheme, refusing more than ``cap``."""
    size = scheme.domain_size()
    if size is None:
        raise UnsupportedOperationError(
            f"scheme {scheme.names} has an infinite attribute type; cannot enumerate"
        )
    if size > cap:
        raise UnsupportedOperationError(
            f"finite domain of {scheme.names} has {size} tuples, above the {cap} cap"
        )
    domains = [attr.atype.domain for attr in scheme.attrs]
    return [Row.of(dict(zip(scheme.names, combo))) for combo in itertools.product(*domains)]


def _covers_whole_domain(d: RankedTable) -> bool:
    size = d.scheme.domain_size()
    return size is not None and size == len(d)


def included_enumerated_oracle(d1: RankedTable, d2: RankedTable) -> bool:
    """Upper-cone comparison over every tuple of an explicitly finite domain."""
    domain = enumerate_rows(d1.scheme)
    for row in domain:
        score1 = d1.score_of(row)
        score2 = d2.score_of(row)
        for other in domain:
            if d1.score_of(other).value >= score1.value and d2.score_of(other).value < score2.value:
                return False
    return True


def included_lower_oracle(d1: RankedTable, d2: RankedTable) -> bool:
    """Inclusion decided through lower cones (the dual characterization)."""
    if _covers_whole_domain(d2):
        domain = enumerate_rows(d1.scheme)
        for row in domain:
            s1, s2 = d1.score_of(row), d2.score_of(row)
            for other in domain:
                if d1.score_of(other).value <= s1.value and d2.score_of(other).value > s2.value:
                    return False
        return True
    # Some tuple scores bottom in d2.  Rows absent from d1 sit in every lower
    # cone of d1, so containment forces them to bottom in d2 as well; on d1's
    # answer set the lower-cone condition is checked pair by pair.
    if not d2.answer_set <= d1.answer_set:
        return False
    rows = list(d1)
    for row, score in rows:
        image = d2.score_of(row)
        for other, other_score in rows:
            if other_score.value <= score.value and d2.score_of(other).value > image.value:
                return False
    return True


def first_violation_oracle(d1: RankedTable, d2: RankedTable):
    """Canonical-first row whose d1 upper cone escapes its d2 cone, by brute force.

    Finite schemes are enumerated whole.  Otherwise the candidates are the
    union of both answer sets, and every other tuple scores bottom in both
    tables, which one (bottom, bottom) pair stands for inside the cones.
    """
    if d1.scheme.is_finite:
        rows = enumerate_rows(d1.scheme)
        pairs = []
    else:
        rows = list(d1.answer_set | d2.answer_set)
        pairs = [(d1.chain.bottom.value, d2.chain.bottom.value)]
    pairs += [(d1.score_of(row).value, d2.score_of(row).value) for row in rows]
    for row in sorted(rows, key=Row.key):
        s1, s2 = d1.score_of(row).value, d2.score_of(row).value
        if any(o1 >= s1 and o2 < s2 for o1, o2 in pairs):
            return row
    return None
