"""Shared generators for randomized law and invariance tests.

All scores are drawn from a fixed fine grid so that a single random order
isomorphism of the grid covers every score any operation can produce (the
minimum-based operations only ever return scores of their inputs, bottom,
or top).
"""

from __future__ import annotations

import csv
import heapq
import io
import itertools
import math
import random
import zlib
from contextlib import contextmanager
from fractions import Fraction

from rankrel import planner
from rankrel.calculus import (
    And, Atom, Exists, Falsum, ForAll, Implies, Not, Or, Structure, free_vars,
)
from rankrel.chain import (
    GRID_PLACES, RATIONAL, Score, ScoreChain, join_sup, meet, residuum,
)
from rankrel.conditions import ComposedCondition, Condition, ExprCondition, TableCondition
from rankrel.errors import (
    ChainError, EvalError, NotEquivalentError, UnsupportedOperationError,
)
from rankrel.exprs import POWER_BITS_CAP, Binary, Call, Compare, Num, Ref, Ternary, Unary
from rankrel.maps import GraphMap, OrderMap, Piece, PiecewiseConstantMap, apply_checked
from rankrel.ordinal import _rank_profile, ordinally_equivalent
from rankrel.table import (
    INT, STR, RankedTable, Row, Scheme, _conforms, parse_header, rank_sorted, values_of,
)
from rankrel.topk import TopKResult, _completion_plan

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


def rnd_table(rng: random.Random, scheme: Scheme, max_rows: int = 12,
              chain: ScoreChain = RATIONAL) -> RankedTable:
    """Random rows scored on the grid, or on any nonzero level of a symbolic chain."""
    rows = {}
    for _ in range(rng.randint(0, max_rows)):
        row = Row.of({name: rng.choice(VALUE_POOL) for name in scheme.names})
        if chain.is_rational:
            rows[row] = grid_score(rng)
        else:
            rows[row] = chain.score(rng.randrange(1, len(chain.levels)))
    return RankedTable(scheme, chain, rows)


def rnd_condition(rng: random.Random, scheme: Scheme) -> TableCondition:
    """A random condition given as an explicit score table on the scheme."""
    return TableCondition(rnd_table(rng, scheme))


def rnd_restriction_condition(rng, scheme: Scheme, chain: ScoreChain):
    """A condition on ``scheme``: an expression (rational chain only) or a score
    table, composed with an order map half the time.  Each kind can score some
    rows bottom: an expression branch may give 0, a table omits rows, and a map
    may collapse scores to bottom."""
    if chain.is_rational and rng.random() < 0.5:
        name, cut = rng.choice(scheme.names), rng.choice((0, 1, 2))
        branches = [rng.choice(("0", "1/4", "0.5", "1")) for _ in range(2)]
        texts = [f"{name} <= {cut} ? {branches[0]} : {branches[1]}", f"{name}/2",
                 branches[0]]  # the last one has no free attribute
        theta = ExprCondition.parse(rng.choice(texts))
    else:
        theta = TableCondition(rnd_table(rng, scheme, max_rows=9, chain=chain))
    if rng.random() < 0.5:
        return theta
    if chain.is_rational:
        return theta.compose(rnd_monotone_map(rng))
    images = sorted(rng.randrange(len(chain.levels)) for _ in chain.levels[1:])
    return theta.compose(GraphMap.of({chain.score(0): chain.bottom} | {
        chain.score(level): chain.score(image)
        for level, image in enumerate(images, start=1)}))


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


def rnd_formula(rng: random.Random, depth: int = 2, variables=("x", "y", "z"),
                arities=None):
    arities = arities or {"p": 1, "q": 2, "r": 2}
    if depth <= 0:
        roll = rng.random()
        if roll < 0.1:
            return Falsum()
        symbol = rng.choice(list(arities))
        args = tuple(rng.choice(variables) for _ in range(arities[symbol]))
        return Atom(symbol, args)
    roll = rng.random()

    def sub():
        return rnd_formula(rng, depth - 1, variables, arities)

    if roll < 0.25:
        return And(sub(), sub())
    if roll < 0.5:
        return Implies(sub(), sub())
    if roll < 0.6:
        return Or(sub(), sub())
    if roll < 0.7:
        return Not(sub())
    if roll < 0.85:
        return ForAll(rng.choice(variables), sub())
    return Exists(rng.choice(variables), sub())


#: Symbols of :func:`rnd_any_structure`, a propositional one included.
ANY_ARITIES = {"o": 0, "p": 1, "q": 2, "r": 2}


def rnd_any_structure(rng: random.Random, chain: ScoreChain, universe_size: int = 3,
                      arities=ANY_ARITIES, density: float = 0.5):
    """A structure on either carrier whose interpretations may store bottom;
    each vector is stored with probability ``density``."""
    if chain.is_rational:
        scores = [chain.score(value) for value in GRID]
    else:
        scores = [chain.score(level) for level in chain.levels]
    universe = tuple(f"m{i}" for i in range(universe_size))
    interps = {}
    for symbol, arity in arities.items():
        interps[symbol] = {
            vector: rng.choice(scores)
            for vector in itertools.product(universe, repeat=arity)
            if rng.random() < density
        }
    return Structure(chain, universe, dict(arities), interps)


def reference_evaluate(phi, m: Structure, valuation) -> Score:
    """Recursive evaluation on scores themselves: the oracle for ``calculus.evaluate``."""
    if isinstance(phi, Falsum):
        return m.chain.bottom
    if isinstance(phi, Atom):
        vector = []
        for var in phi.args:
            if var not in valuation:
                raise EvalError(f"unbound variable {var!r}")
            vector.append(valuation[var])
        m.check_atom(phi.symbol, len(vector))
        return m.interps.get(phi.symbol, {}).get(tuple(vector), m.chain.bottom)
    if isinstance(phi, And):
        return meet(reference_evaluate(phi.left, m, valuation),
                    reference_evaluate(phi.right, m, valuation))
    if isinstance(phi, Or):
        return join_sup(reference_evaluate(phi.left, m, valuation),
                        reference_evaluate(phi.right, m, valuation))
    if isinstance(phi, Implies):
        return residuum(reference_evaluate(phi.left, m, valuation),
                        reference_evaluate(phi.right, m, valuation))
    if isinstance(phi, (ForAll, Exists)):
        values = [reference_evaluate(phi.body, m, {**valuation, phi.var: element})
                  for element in m.universe]
        return min(values) if isinstance(phi, ForAll) else max(values)
    raise EvalError(f"unknown formula node {phi!r}")


def reference_table_of(m: Structure, phi) -> RankedTable:
    """Every valuation of the free variables, scored by :func:`reference_evaluate`."""
    variables = free_vars(phi)
    entries = {}
    for values in itertools.product(m.universe, repeat=len(variables)):
        valuation = dict(zip(variables, values))
        score = reference_evaluate(phi, m, valuation)
        if not score.is_bottom:
            entries[Row.of(valuation)] = score
    return RankedTable(Scheme((var, STR) for var in variables), m.chain, entries)


def stringified(table: RankedTable) -> RankedTable:
    """The same table with every value replaced by its CSV text (:func:`format_value`)."""
    scheme = Scheme((name, STR) for name in table.scheme.names)
    return RankedTable(scheme, table.chain, {
        Row.of({name: format_value(value) for name, value in row.items}): score
        for row, score in table})


# --- ordinal oracles ----------------------------------------------------------
# Quadratic decision procedures for ordinal inclusion, the rank signature and
# the range-zip witness, kept only to cross-check the sort-based kernel in
# rankrel.ordinal and the two witness maps built from it.


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
    for row in sorted(rows):
        s1, s2 = d1.score_of(row).value, d2.score_of(row).value
        if any(o1 >= s1 and o2 < s2 for o1, o2 in pairs):
            return row
    return None


def rank_signature(d: RankedTable) -> tuple[frozenset[Row], ...]:
    """Answer-set rows grouped by score, best group first.

    Under the convention that some tuple scores bottom in every table (true
    for unbounded attribute types), two tables are ordinally equivalent
    exactly when their signatures are equal.
    """
    groups: dict = {}
    for row, score in d:
        groups.setdefault(score.value, set()).add(row)
    return tuple(frozenset(groups[value]) for value in sorted(groups, reverse=True))


def _range(d: RankedTable) -> list[Score]:
    """Stored scores ascending, plus bottom when some tuple lies outside the answer set."""
    values = {score.value for _, score in d}
    if not _covers_whole_domain(d):
        values.add(d.chain.bottom.value)
    return [Score(d.chain, value) for value in sorted(values)]


def reference_witness(d1: RankedTable, d2: RankedTable) -> GraphMap:
    """The two ranges matched rank by rank: the oracle for ``ordinal.witness_isomorphism``."""
    if d1.scheme != d2.scheme or not ordinally_equivalent(d1, d2):
        raise NotEquivalentError("tables are not ordinally equivalent")
    range1, range2 = _range(d1), _range(d2)
    assert len(range1) == len(range2), "equivalent tables with ranges of different sizes"
    return GraphMap.of(zip(range1, range2), declared=frozenset(("embedding", "isomorphism")))


# --- expression oracle --------------------------------------------------------


def reference_evaluate_expr(expr, env):
    """Recursive tree walk: the oracle for ``exprs.evaluate`` and ``exprs.compile_expr``."""
    try:
        result = _reference_eval(expr, env)
    except OverflowError as exc:
        raise EvalError(f"expression overflows: {exc}") from None
    if isinstance(result, str):
        raise EvalError("expression evaluates to a string, not a number")
    return result


def _reference_eval(expr, env):
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Ref):
        try:
            value = env[expr.name]
        except KeyError:
            raise EvalError(f"unknown name {expr.name!r}") from None
        if isinstance(value, bool) or not isinstance(value, (int, Fraction, float, str)):
            raise EvalError(f"unsupported value {value!r} for {expr.name!r}")
        return Fraction(value) if isinstance(value, int) else value
    if isinstance(expr, Unary):
        return -_reference_numeric(_reference_eval(expr.operand, env))
    if isinstance(expr, Binary):
        left = _reference_numeric(_reference_eval(expr.left, env))
        right = _reference_numeric(_reference_eval(expr.right, env))
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            if right == 0:
                raise EvalError("division by zero")
            return left / right
        if expr.op == "^":
            try:
                if isinstance(right, Fraction) and right.denominator == 1:
                    if not isinstance(left, float) and abs(right.numerator) * (max(
                            left.numerator.bit_length(),
                            left.denominator.bit_length()) - 1) > POWER_BITS_CAP:
                        raise EvalError(f"exact power above the cap of {POWER_BITS_CAP:,} bits")
                    return left ** right.numerator
                base, exponent = float(left), float(right)
                if base < 0 and not exponent.is_integer():
                    raise EvalError("power of a negative value with a non-integer exponent")
                return base ** exponent
            except ZeroDivisionError:
                raise EvalError("power of zero with a negative exponent") from None
            except OverflowError:
                raise EvalError("power out of the float range") from None
        raise EvalError(f"unknown operator {expr.op!r}")
    if isinstance(expr, Compare):
        left = _reference_eval(expr.left, env)
        right = _reference_eval(expr.right, env)
        if isinstance(left, str) or isinstance(right, str):
            if expr.op not in ("==", "!="):
                raise EvalError("strings only support = and != comparisons")
            outcome = (left == right) if expr.op == "==" else (left != right)
        else:
            ops = {
                "<=": left <= right,
                "<": left < right,
                ">=": left >= right,
                ">": left > right,
                "==": left == right,
                "!=": left != right,
            }
            outcome = ops[expr.op]
        return Fraction(1 if outcome else 0)
    if isinstance(expr, Ternary):
        test = _reference_eval(expr.test, env)
        branch = expr.then if (not isinstance(test, str) and test != 0) else expr.otherwise
        return _reference_eval(branch, env)
    if isinstance(expr, Call):
        args = [_reference_eval(arg, env) for arg in expr.args]
        if expr.func in ("min", "max"):
            numbers = [_reference_numeric(a) for a in args]
            return (min if expr.func == "min" else max)(numbers)
        if expr.func == "abs":
            (arg,) = _reference_one(expr, args)
            return abs(_reference_numeric(arg))
        if expr.func == "sqrt":
            (arg,) = _reference_one(expr, args)
            value = float(_reference_numeric(arg))
            if value < 0:
                raise EvalError("sqrt of a negative value")
            return math.sqrt(value)
        raise EvalError(f"unknown function {expr.func!r}")
    raise EvalError(f"unknown expression node {expr!r}")


def _reference_numeric(value):
    if isinstance(value, str):
        raise EvalError(f"string value {value!r} used in arithmetic")
    return value


def _reference_one(expr, args: list):
    if len(args) != 1:
        raise EvalError(f"{expr.func} takes one argument")
    return args


# --- table oracles --------------------------------------------------------------


class PairRow(tuple):
    """The oracles' row: the tuple of a row's ``(name, value)`` pairs in name order.

    Each row carries its names, so an oracle reads no scheme position, and
    rows of one scheme order by their values in name order, as the engine's
    value rows are meant to.  :func:`pairs_of` and :func:`table_of_pairs`
    cross between the two layouts.
    """

    __slots__ = ()

    @classmethod
    def of(cls, mapping) -> "PairRow":
        return cls(sorted((name.lower(), value) for name, value in mapping.items()))


def pairs_of(table: RankedTable) -> dict[PairRow, Score]:
    """A table's entries keyed by pair rows."""
    return {PairRow(row.items): score for row, score in table}


def table_of_pairs(scheme: Scheme, chain: ScoreChain, entries: dict) -> RankedTable:
    """The table of pair-row ``entries``, through the validating constructor."""
    return RankedTable(scheme, chain, {Row.of(dict(row)): score for row, score in entries.items()})


def reference_row_conforms(scheme: Scheme, row: Row) -> bool:
    """Name-by-name conformance check: the oracle for ``table._row_conforms``."""
    if tuple(name for name, _ in row.items) != scheme.sorted_names:
        return False
    for name, value in row.items:
        attr = scheme.attr(name)
        if not _conforms(value, attr.atype.kind):
            return False
        if attr.atype.domain is not None and value not in attr.atype.domain:
            return False
    return True


def row_value(scheme: Scheme, row: Row, name: str):
    """``row``'s value of ``name``, read through ``values_of`` as every operator reads it."""
    return values_of(scheme, [name])(row)[0]


# --- row-building oracles: the per-row forms the row plans replace, on pair rows ---


def join_pairs(r: PairRow, s: PairRow) -> PairRow:
    """Join two pair rows agreeing on shared attributes (the empty row is neutral)."""
    merged = dict(r)
    for name, value in s:
        if name in merged and merged[name] != value:
            raise ValueError(
                f"tuples disagree on {name!r}: {merged[name]!r} vs {value!r}"
            )
        merged[name] = value
    return PairRow.of(merged)


def join_rows(r: Row, s: Row) -> Row:
    """:func:`join_pairs` on two engine rows."""
    return Row.of(dict(join_pairs(PairRow(r.items), PairRow(s.items))))


# Connectives on the raw values, never on ``Score.key``: the oracle for the key.


def value_meet(a: Score, b: Score) -> Score:
    return a if a.value <= b.value else b


def value_join(a: Score, b: Score) -> Score:
    return a if a.value >= b.value else b


def value_residuum(a: Score, b: Score) -> Score:
    return a.chain.top if a.value <= b.value else b


def value_abjunction(a: Score, b: Score) -> Score:
    return a.chain.bottom if a.value <= b.value else a


def value_min(scores, default: Score) -> Score:
    return min([default, *scores], key=lambda s: s.value)


def rank_key(item: tuple[Row, Score]) -> tuple:
    """Display-order key for a (row, score) pair: descending score, then the pair row."""
    row, score = item
    return (-score.value, PairRow(row.items))


def _reference_matched_pairs(d1: RankedTable, d2: RankedTable):
    """Every pair row of d1 and d2 that agree on the shared attributes, hashed on those pairs."""
    shared = d1.scheme.name_set & d2.scheme.name_set

    def key(row: PairRow) -> tuple:
        return tuple(pair for pair in row if pair[0] in shared)

    index: dict = {}
    for row, score in pairs_of(d2).items():
        index.setdefault(key(row), []).append((row, score))
    for row, score in pairs_of(d1).items():
        for other, other_score in index.get(key(row), ()):
            yield row, score, other, other_score


def reference_natural_join(d1: RankedTable, d2: RankedTable) -> RankedTable:
    entries = {
        join_pairs(row, other): value_meet(score, other_score)
        for row, score, other, other_score in _reference_matched_pairs(d1, d2)
    }
    return table_of_pairs(d1.scheme.union(d2.scheme), d1.chain, entries)


def reference_product_join(d1: RankedTable, d2: RankedTable) -> RankedTable:
    entries = {}
    for row, score, other, other_score in _reference_matched_pairs(d1, d2):
        value = d1.chain.score(score.value * other_score.value)
        if not value.is_bottom:
            entries[join_pairs(row, other)] = value
    return table_of_pairs(d1.scheme.union(d2.scheme), d1.chain, entries)


def reference_project(d: RankedTable, names) -> RankedTable:
    scheme = d.scheme.project(names)
    entries: dict = {}
    for row, score in pairs_of(d).items():
        shorter = PairRow(pair for pair in row if pair[0] in scheme.name_set)
        best = entries.get(shorter)
        if best is None or score.value > best.value:
            entries[shorter] = score
    return table_of_pairs(scheme, d.chain, entries)


def reference_semijoin(d1: RankedTable, d2: RankedTable) -> RankedTable:
    return reference_project(reference_natural_join(d1, d2), d1.scheme.names)


def reference_rename(d: RankedTable, mapping) -> RankedTable:
    lowered = {old.lower(): new.lower() for old, new in mapping.items()}
    entries = {
        PairRow.of({lowered.get(name, name): value for name, value in row}): score
        for row, score in pairs_of(d).items()
    }
    return table_of_pairs(d.scheme.rename(mapping), d.chain, entries)


def reference_union(d1: RankedTable, d2: RankedTable) -> RankedTable:
    entries = pairs_of(d1)
    for row, score in pairs_of(d2).items():
        entries[row] = value_join(entries.get(row, score), score)
    return table_of_pairs(d1.scheme, d1.chain, entries)


def reference_difference(d1: RankedTable, d2: RankedTable) -> RankedTable:
    other, bottom = pairs_of(d2), d2.chain.bottom
    entries = {row: value for row, score in pairs_of(d1).items()
               if not (value := value_abjunction(score, other.get(row, bottom))).is_bottom}
    return table_of_pairs(d1.scheme, d1.chain, entries)


def reference_divide(dividend: RankedTable, mediator: RankedTable,
                     divisor: RankedTable) -> RankedTable:
    entries = {}
    for row, bound in dividend:
        value = bound
        for s_row, s_score in divisor:
            value = meet(value, residuum(s_score, mediator.score_of(join_rows(row, s_row))))
        if not value.is_bottom:
            entries[row] = value
    return RankedTable(dividend.scheme, dividend.chain, entries)


def reference_rank_order(pairs) -> list:
    return sorted(pairs, key=rank_key)


def format_value(value) -> str:
    """A value's CSV text, written without ``chain.exact_decimal_str``.

    A ``dec`` value is the shortest decimal that equals it, its sign first,
    or ``p/q`` when no decimal does; an integral one has no point.
    """
    if not isinstance(value, Fraction):
        return str(value)
    if value.denominator == 1:
        return str(value.numerator)
    # a terminating decimal needs at most log2(denominator) places
    for places in range(1, value.denominator.bit_length() + 1):
        scaled = value * 10**places
        if scaled.denominator == 1:
            whole, part = divmod(abs(scaled.numerator), 10**places)
            return f"{'-' * (value < 0)}{whole}.{part:0{places}d}"
    return f"{value.numerator}/{value.denominator}"


def reference_write_table_csv(table: RankedTable) -> str:
    """One ``csv.writer`` line per row, ending in ``\\n``.

    The writer quotes a cell holding a character of its line terminator, so
    it writes each line with ``\\r\\n``, which quotes a ``\\r`` as well as a
    ``\\n``, and the terminator is then cut back to ``\\n``.
    """
    def line(cells) -> str:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\r\n").writerow(cells)
        return buffer.getvalue().removesuffix("\r\n") + "\n"

    lines = [line(["#"] + [f"{a.name}:{a.atype.kind}" for a in table.scheme.attrs])]
    for row, score in reference_rank_order(table):
        cells = [table.chain.format(score, places=None)]
        values = dict(row.items)
        cells += [format_value(values[a.name]) for a in table.scheme.attrs]
        lines.append(line(cells))
    return "".join(lines)


def reference_read_table_csv(text: str, chain: ScoreChain = RATIONAL) -> RankedTable:
    reader = csv.reader(io.StringIO(text))
    scheme = parse_header(next(reader))
    parse = {"str": str, "int": int, "dec": Fraction}
    entries = {}
    for cells in reader:
        if not cells or all(not cell.strip() for cell in cells):
            continue
        row = Row.of({
            attr.name: parse[attr.atype.kind](cell.strip())
            for attr, cell in zip(scheme.attrs, cells[1:])
        })
        assert row not in entries, f"duplicate tuple {row!r}"
        entries[row] = chain.parse(cells[0])
    return RankedTable(scheme, chain, entries)


# --- score-coding oracles: the per-row forms the rank codes replace ---------------


def reference_parse(chain: ScoreChain, text: str) -> Score:
    """Every rational text through ``Fraction(text)``: the oracle for ``ScoreChain.parse``."""
    text = text.strip()
    if chain.is_rational:
        try:
            return chain.score(Fraction(text))
        except (ValueError, ZeroDivisionError):
            raise ChainError(f"cannot parse rational score from {text!r}") from None
    return chain.score(text)


def reference_quantize(value: Fraction | float) -> Fraction:
    """``round(value * 10**GRID_PLACES)`` in ``Fraction``s: the oracle for ``ScoreChain.on_grid``."""
    grid = 10**GRID_PLACES
    return Fraction(round(Fraction(value) * grid), grid)  # a float's exact binary expansion


def reference_clamp01(value: Fraction | float) -> Fraction | float:
    """Three comparisons on the value itself: the oracle for ``chain.clamp01``."""
    if value != value:
        raise EvalError("expression evaluates to NaN")
    if value < 0:
        return Fraction(0)
    if value > 1:
        return Fraction(1)
    return value


def reference_rank_profile(d1: RankedTable, d2: RankedTable) -> tuple[dict, list[Row]]:
    """One sort on the raw score values: the oracle for ``ordinal._rank_profile``."""
    bottom = d1.chain.bottom.value
    first = {row: score.value for row, score in d1}
    second = {row: score.value for row, score in d2}
    union = first.keys() | second.keys()
    pairs = [(first.get(row, bottom), second.get(row, bottom), row) for row in union]
    size = d1.scheme.domain_size()
    if size is None or size > len(union):
        pairs.append((bottom, bottom, None))
    pairs.sort(key=lambda pair: pair[0], reverse=True)
    floors = {}
    least = d2.chain.top.value
    for level, image, _ in pairs:
        least = min(least, image)
        floors[level] = least  # ties run consecutively; the last one sets it
    escaping = [row for level, image, row in pairs if image > floors[level]]
    return floors, escaping


def rank_profile_values(d1: RankedTable, d2: RankedTable) -> tuple[dict, list[Row]]:
    """d1's profile from ``ordinal._rank_profile``, its floor codes decoded to raw score values."""
    return _decoded(*next(_rank_profile(d1, d2)))


def both_rank_profile_values(d1: RankedTable, d2: RankedTable) -> list[tuple[dict, list[Row]]]:
    """Both profiles of ``ordinal._rank_profile(d1, d2)``, decoded as ``rank_profile_values``."""
    return [_decoded(*profile) for profile in _rank_profile(d1, d2)]


def _decoded(floors: dict, decode: list[Score], escaping: list[Row]) -> tuple[dict, list[Row]]:
    return {decode[level].value: decode[floor].value for level, floor in floors.items()}, escaping


def reference_compose_table(table: RankedTable, f: OrderMap) -> RankedTable:
    """Scores hashed per row: the oracle for ``maps.compose_table``.

    ``apply_checked`` runs only for its checks; the images come from
    ``f.apply`` on the table's scores, looked up by value for every row.
    """
    apply_checked(f, (score for _, score in table), table.chain)
    images = {score: f.apply(score) for score in {score for _, score in table}}
    entries = {row: images[score] for row, score in table if not images[score].is_bottom}
    return RankedTable(table.scheme, table.chain, entries)


def reference_condition_score(theta: Condition, row: Row, chain: ScoreChain) -> Score:
    """A condition's score of one row, each composed map applied bare to the base's score.

    Unchecked: the oracle for the scores of lawful compositions only.
    """
    if isinstance(theta, ComposedCondition):
        return theta.order_map.apply(reference_condition_score(theta.base, row, chain))
    return theta.score_of(row, chain)


def reference_restrict(table: RankedTable, theta: Condition) -> RankedTable:
    """Each row's score met with its :func:`reference_condition_score`, one row at a time:
    the oracle for ``algebra.restrict``."""
    entries = {row: value for row, score in table if not (
        value := value_meet(score, reference_condition_score(theta, row, table.chain))).is_bottom}
    return RankedTable(table.scheme, table.chain, entries)


def reference_rewrite(law, expr, catalog) -> tuple:
    """One whole-tree pass of a plan law ``(outer, inner, body)``: one ``planner.fold``
    trying it at each rebuilt node, its schemes typed afresh by ``infer_scheme``.

    Returns the tree, how many times the law fired, and its notes in node order.
    """
    outer, inner, body = law
    applied, notes = 0, []

    def visit(node, kids, path):
        nonlocal applied
        node = planner._rebuild(node, kids)
        if not (isinstance(node, outer) and isinstance(node.child, inner)):
            return node
        result = body(node, catalog, lambda sub: planner.infer_scheme(sub, catalog))
        if isinstance(result, str):
            notes.append(result)
        elif result is not None:
            applied += 1
            return result
        return node

    return planner.fold(expr, visit), applied, tuple(notes)


def reference_normalize(expr, catalog) -> tuple:
    """Oracle for the tree and notes of ``planner.normalize_to_join_chain``.

    Whole-tree passes of ``planner.LAWS``, in their order, repeated until a
    pass rewrites nothing; notes deduplicated in first-occurrence order.
    """
    notes = []
    while True:
        changed = 0
        for law in planner.LAWS:
            expr, applied, law_notes = reference_rewrite(law, expr, catalog)
            changed += applied
            notes.extend(law_notes)
        if not changed:
            return expr, tuple(dict.fromkeys(notes))


def reference_top_k(sources, k: int):
    """Oracle for ``topk.top_k``'s items and access counts: TA/HRJN-style
    threshold pulling over every source.

    Each step pulls the source with the lowest last-seen score, ties to the
    smaller source and then the lower index, and completes the new row from
    that starting source; a tuple completed from two starts is kept once.
    The loop stops once the k best score strictly above the least last-seen
    score, or once the pulled source is exhausted.  Since an unpulled source
    keeps the top score, the first source pulled wins every step, so this
    reads the same rows as ``top_k``'s one walk.  Arguments are those of a
    valid call: ``k >= 1`` and sources on one chain.
    """
    chain = sources[0].table.chain
    n = len(sources)
    positions = [0] * n
    last_seen = [chain.top.key] * n
    # pulling order among sources tied on last_seen: the smaller first, then the lower index
    order = sorted(range(n), key=lambda i: (len(sources[i].table), i))
    results: dict[Row, Score] = {}
    best: list = []  # min-heap of the order keys of the k best results
    counters = {"sorted": 0, "random": 0}
    plans: dict[int, list] = {}  # by starting source, made when a row of it is first completed

    def complete(start: int, row: Row, score: Score) -> None:
        # A meet never rises, and k distinct results already score at least
        # the heap's least: a tuple scoring below it cannot rank, nor can a
        # join through it.  Ties are built, as the canonical order may pick them.
        floor = best[0] if len(best) == k else chain.bottom.key
        if score.key < floor:
            return
        if start not in plans:
            plans[start] = _completion_plan(sources, start)
        partial = [(row, score)]
        for lookup, key_of, join in plans[start]:
            counters["random"] += len(partial)
            extended = []
            for accumulated, acc_score in partial:
                for match, match_score in lookup(key_of(accumulated), ()):
                    if match_score.key < floor:
                        continue
                    merged_score = match_score if match_score.key < acc_score.key else acc_score
                    extended.append((join(accumulated, match), merged_score))
            partial = extended
            if not partial:
                return
        for joined, joined_score in partial:
            if joined in results:
                continue  # already completed from another starting source
            results[joined] = joined_score
            if len(best) < k:
                heapq.heappush(best, joined_score.key)
            elif joined_score.key > best[0]:
                heapq.heapreplace(best, joined_score.key)

    while True:
        # Only a pull from the source holding the threshold can lower it.
        i = min(order, key=last_seen.__getitem__)
        pair = sources[i].pull(positions[i])
        if pair is None:
            break  # every row of source i is completed: results hold every join that can rank
        row, score = pair
        positions[i] += 1
        last_seen[i] = score.key
        counters["sorted"] += 1
        complete(i, row, score)
        if len(best) == k and best[0] > min(last_seen):
            break  # the k best are above everything unseen

    candidates = results.items()
    if len(best) == k:  # only results scoring at least the k-th best can rank
        floor = best[0]
        candidates = [pair for pair in candidates if pair[1].key >= floor]
    ordered = rank_sorted(candidates)[:k]
    return TopKResult(tuple(ordered), counters["sorted"], counters["random"])
