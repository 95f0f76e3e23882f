"""Operators grow as their inputs do, measured by counted work, not by a clock.

Each case counts the Python-level calls (``call`` and ``c_call`` profile
events) of building an operator's result at 200, 400 and 800 rows: every
algebra operator, a map applied to a table or to a restriction's condition,
the CSV reader and writer, ordinal inclusion, the rank profile under it and
``equiv``'s two-way comparison, and top-k; the formula, query and expression
parsers count texts of 200, 400 and 800 operands (an ``&`` chain of atoms,
nested joins) or list items (an attribute list, a rename list, atom
arguments, call arguments).  The
``table_of`` cases count formulas over 200, 400 and 800 universe elements
of out-degree 3: a guarded quantifier ranges over its guard's 3 successors,
and the free variables of ``q(x, y) & p(y)`` over q's pairs, where a
variable over the whole universe nears 4x.  For a fixed input the count
is deterministic, so the bound needs no timing margin: a linear operator
stays near 2x per doubling, a per-pair loop nears 4x.  (``RATIONAL`` builds
each value's one score once per process, so the first case to meet a value
also counts that build.)  ``natural_join`` on a one-to-one key and
``restrict`` are the linear baselines.
"""

import sys
from fractions import Fraction

import pytest

from helpers import reference_restrict
from rankrel import algebra
from rankrel.calculus import Structure, parse_formula, table_of
from rankrel.catalog import parse_config
from rankrel.chain import RATIONAL, ScoreChain
from rankrel.conditions import ExprCondition
from rankrel.exprs import parse_expr
from rankrel.maps import AnalyticMap, compose_table
from rankrel.ordinal import _rank_profile, compare, ordinally_included
from rankrel.planner import parse_query
from rankrel.table import INT, RankedTable, Row, Scheme, read_table_csv, write_table_csv
from rankrel.topk import SortedSource, top_k

SIZES = (200, 400, 800)
MAX_GROWTH = 2.3  # per doubling of the input rows


def ranked(names, rows) -> RankedTable:
    """A rational table on int attributes ``names``, one row per value tuple of ``rows``."""
    scheme = Scheme((name, INT) for name in names)
    return RankedTable(scheme, RATIONAL, {
        Row.of(dict(zip(names, values))): RATIONAL.score(Fraction(i % 97 + 1, 97))
        for i, values in enumerate(rows)})


def left(n: int) -> RankedTable:
    """n rows on (id, key): the key takes 12 values."""
    return ranked(("id", "key"), ((i, i % 12) for i in range(n)))


def shifted(n: int) -> RankedTable:
    """n rows on left's scheme, half of them left(n)'s rows."""
    return ranked(("id", "key"), ((i, i % 12) for i in range(n // 2, n + n // 2)))


#: One ``Score`` object per level, so ranking the stored scores meets no tie between two objects.
LEVELS = [RATIONAL.score(Fraction(level, 4)) for level in range(1, 5)]


def out_degree_3(n: int) -> Structure:
    """n elements; q links each to its next 3, p holds every other one."""
    universe = tuple(f"e{i}" for i in range(n))
    q = {(universe[i], universe[(i + step) % n]): LEVELS[(i + step) % 4]
         for i in range(n) for step in (1, 2, 3)}
    p = {(universe[i],): LEVELS[i % 4] for i in range(0, n, 2)}
    return Structure(RATIONAL, universe, {"p": 1, "q": 2}, {"p": p, "q": q})


def prices(n: int) -> RankedTable:
    """n rows on (id, price), prices 400 up: ``PRICED`` scores them 0.4 up, 1 from 1000."""
    return ranked(("id", "price"), ((i, 400 + i) for i in range(n)))


PRICED = ExprCondition.parse("0.001*price")


MAPS = parse_config(
    "map g = piecewise{ 0 -> 0, (0, 0.5] -> 0.25, (0.5, 1] -> 1 }\n"
    "map f = expr{ x <= 0.5 ? sqrt(x)/sqrt(2) : 2*(x-0.5)^2 + 0.5 }\n"
).maps


CASES = {
    "semijoin-disjoint": lambda n: (algebra.semijoin, left(n),
                                    ranked(("x", "y"), ((i, i % 5) for i in range(n)))),
    "semijoin-12-value-key": lambda n: (algebra.semijoin, left(n),
                                        ranked(("key", "z"), ((i % 12, i) for i in range(n)))),
    "semijoin-1-to-1-key": lambda n: (algebra.semijoin, left(n),
                                      ranked(("id", "z"), ((i, -i) for i in range(n)))),
    "natural_join-1-to-1-key": lambda n: (algebra.natural_join, left(n),
                                          ranked(("id", "z"), ((i, -i) for i in range(n)))),
    "restrict": lambda n: (algebra.restrict, left(n), ExprCondition.parse("id <= 100 ? 0.5 : 1")),
    "restrict-composed-expr": lambda n: (algebra.restrict, prices(n), PRICED.compose(MAPS["f"])),
    "project-12-value-key": lambda n: (algebra.project, left(n), ["key"]),
    "union_tables": lambda n: (algebra.union_tables, left(n), shifted(n)),
    "difference": lambda n: (algebra.difference, left(n), shifted(n)),
    "residuum_tables": lambda n: (algebra.residuum_tables, left(n), shifted(n),
                                  ranked(("id", "key"), ((i, i % 12) for i in range(0, 2 * n, 2)))),
    "rename": lambda n: (algebra.rename, left(n), {"key": "k"}),
    "divide": lambda n: (algebra.divide, ranked(("id",), ((i,) for i in range(n))),
                         ranked(("id", "s"), ((i, s) for i in range(n) for s in range(3))),
                         ranked(("s",), ((s,) for s in range(4)))),
    "compose_table-piecewise": lambda n: (compose_table, left(n), MAPS["g"]),
    "compose_table-expr": lambda n: (compose_table, left(n), MAPS["f"]),
    "read_table_csv": lambda n: (read_table_csv, write_table_csv(left(n))),
    "write_table_csv": lambda n: (write_table_csv, left(n)),
    "ordinally_included": lambda n: (ordinally_included, left(n), shifted(n)),
    "_rank_profile": lambda n: (lambda d1, d2: next(_rank_profile(d1, d2)), left(n), shifted(n)),
    "compare-both-ways": lambda n: (compare, left(n), shifted(n)),
    "top_k-10": lambda n: (top_k, [SortedSource(left(n)), SortedSource(shifted(n))], 10),
    "table_of-exists-guarded": lambda n: (table_of, out_degree_3(n),
                                          parse_formula("exists z. (q(x, z) & p(z))")),
    "table_of-forall-guarded": lambda n: (table_of, out_degree_3(n),
                                          parse_formula("forall z. (q(x, z) -> p(z))")),
    "table_of-free-guarded": lambda n: (table_of, out_degree_3(n), parse_formula("q(x, y) & p(y)")),
    "parse_formula-and-chain": lambda n: (parse_formula, " & ".join(f"r{i}(x{i}, x{i + 1})"
                                                                   for i in range(n))),
    "parse_query-nested-joins": lambda n: (parse_query, "join(" * n + "t" + ", t)" * n),
    "parse_query-project-list": lambda n: (parse_query, "project(t, [" + ", ".join(
        f"a{i}" for i in range(n)) + "])"),
    "parse_query-rename-list": lambda n: (parse_query, "rename(t, [" + ", ".join(
        f"a{i} -> b{i}" for i in range(n)) + "])"),
    "parse_formula-atom-arguments": lambda n: (parse_formula, "r(" + ", ".join(
        f"x{i}" for i in range(n)) + ")"),
    "parse_expr-call-arguments": lambda n: (parse_expr, "max(" + ", ".join(
        str(i) for i in range(1, n + 1)) + ")"),
}


def counted_calls(operator, *args) -> int:
    """Python-level calls made by ``operator(*args)``, building a table result's entries."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    sys.setprofile(profile)
    try:
        result = operator(*args)
        if isinstance(result, RankedTable):
            result.entries()
    finally:
        sys.setprofile(None)
    return count


@pytest.mark.parametrize("case", sorted(CASES))
def test_counted_work_grows_linearly(case):
    counts = [counted_calls(*CASES[case](n)) for n in SIZES]
    growth = [larger / smaller for smaller, larger in zip(counts, counts[1:])]
    assert max(growth) <= MAX_GROWTH, f"{case}: calls {counts} at {SIZES} rows"


def keyed(n: int) -> RankedTable:
    """n rows on (key, z), the key's 12 values as in :func:`left`: joined, n²/12 rows."""
    return ranked(("key", "z"), ((i % 12, i) for i in range(n)))


def apart(n: int) -> RankedTable:
    """n rows on (x, y), disjoint from :func:`left`'s scheme: joined, n² rows."""
    return ranked(("x", "y"), ((i, i % 5) for i in range(n)))


def project_join(names):
    return lambda d1, d2: algebra.project(algebra.natural_join(d1, d2), names)


#: Joins whose output outgrows their input: each case's operator and its right
#: input, the left one being :func:`left`.
MULTIPLYING = {
    "natural_join-12-value-key": (algebra.natural_join, keyed),
    "natural_join-disjoint": (algebra.natural_join, apart),
    "project-join-12-value-key": (project_join(["id", "z"]), keyed),
    "project-join-disjoint": (project_join(["key", "y"]), apart),
}
MULTIPLYING_SIZES = (50, 100, 200)
MAX_GROWTH_PER_ROW = 1.3  # per doubling of the input rows, in calls per row read or built


@pytest.mark.parametrize("case", sorted(MULTIPLYING))
def test_counted_work_per_row_in_and_out(case):
    """Linear in the rows in and out: a join re-walking an input per output row nears 2x."""
    operator, other = MULTIPLYING[case]
    per_row = []
    for n in MULTIPLYING_SIZES:
        d1, d2 = left(n), other(n)
        joined = algebra.natural_join(d1, d2)
        rows = len(d1) + len(d2) + len(joined)
        if operator is not algebra.natural_join:
            rows += len(operator(d1, d2))
        per_row.append(counted_calls(operator, left(n), other(n)) / rows)
    growth = [larger / smaller for smaller, larger in zip(per_row, per_row[1:])]
    assert max(growth) <= MAX_GROWTH_PER_ROW, (
        f"{case}: calls per row {[round(c, 2) for c in per_row]} at {MULTIPLYING_SIZES} rows")


def _chain_scores(monkeypatch) -> list:
    """The raw values given to ``ScoreChain.score`` from now on, in call order."""
    calls = []
    score = ScoreChain.score
    monkeypatch.setattr(ScoreChain, "score",
                        lambda chain, raw: calls.append(raw) or score(chain, raw))
    return calls


def test_a_literal_branch_is_scored_once(monkeypatch):
    prices = ranked(("id", "price"), ((i, 899_600 + i) for i in range(800)))
    calls = _chain_scores(monkeypatch)
    algebra.restrict(prices, ExprCondition.parse("price <= 900000 ? 1 : 0.5")).entries()
    assert calls == [1, Fraction(1, 2)]


def test_arithmetic_results_are_each_scored(monkeypatch):
    prices = ranked(("id", "price"), ((i, 400 + i) for i in range(800)))
    theta = ExprCondition.parse("0.001*price")
    calls = _chain_scores(monkeypatch)
    restricted = algebra.restrict(prices, theta)
    restricted.entries()
    assert len(calls) == 800  # a fresh Fraction per price
    assert restricted == reference_restrict(prices, theta)


def _batches(monkeypatch) -> list:
    """The batches given to an ``AnalyticMap.batch``'s ``apply_all`` from now on, each as a list."""
    batches = []
    batch = AnalyticMap.batch

    def counted(f):
        apply, apply_all = batch(f)

        def counting(scores):
            scores = list(scores)
            batches.append(scores)
            return apply_all(scores)
        return apply, counting

    monkeypatch.setattr(AnalyticMap, "batch", counted)
    return batches


def test_an_expr_map_runs_once_per_value(monkeypatch):
    batches = _batches(monkeypatch)
    compose_table(left(800), MAPS["f"]).entries()
    assert [len(batch) for batch in batches] == [97]


@pytest.mark.parametrize("n", SIZES)
def test_a_composed_condition_maps_its_key_scores_in_one_batch(monkeypatch, n):
    batches = _batches(monkeypatch)
    algebra.restrict(prices(n), PRICED.compose(MAPS["f"])).entries()
    [batch] = batches  # each distinct nonzero key score once
    assert sorted(s.value for s in batch) == sorted({min(Fraction(400 + i, 1000), 1)
                                                     for i in range(n)})
