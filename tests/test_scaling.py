"""Operators grow as their inputs do, measured by counted work, not by a clock.

Each case counts the Python-level calls (``call`` and ``c_call`` profile
events) of building an operator's result at 200, 400 and 800 rows: every
algebra operator, a map applied to a table, and the CSV reader.  For a
fixed input the count is deterministic, so the bound needs no timing margin:
a linear operator stays near 2x per doubling, a per-pair loop nears 4x.
``natural_join`` on a one-to-one key and ``restrict`` are the linear
baselines.  The rank sort's readers (``write_table_csv``,
``ordinally_included``, ``top_k``) are not cases yet: on these tables, where
every row holds its own ``Score`` object, ties in the sort compare exact
``Fraction`` values and grow by up to 2.5x per doubling.
"""

import sys
from fractions import Fraction

import pytest

from rankrel import algebra
from rankrel.catalog import parse_config
from rankrel.chain import RATIONAL
from rankrel.conditions import ExprCondition
from rankrel.maps import compose_table
from rankrel.table import INT, RankedTable, Row, Scheme, read_table_csv, write_table_csv

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
}


def counted_calls(operator, *args) -> int:
    """Python-level calls made by ``operator(*args).entries()``."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    sys.setprofile(profile)
    try:
        operator(*args).entries()
    finally:
        sys.setprofile(None)
    return count


@pytest.mark.parametrize("case", sorted(CASES))
def test_counted_work_grows_linearly(case):
    counts = [counted_calls(*CASES[case](n)) for n in SIZES]
    growth = [larger / smaller for smaller, larger in zip(counts, counts[1:])]
    assert max(growth) <= MAX_GROWTH, f"{case}: calls {counts} at {SIZES} rows"
