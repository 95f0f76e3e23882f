"""Relational operations on ranked tables, with minimum as the aggregation.

Every operation is defined pointwise over all tuples of the scheme but is
evaluated by a finite scan: suprema ignore absent tuples (score bottom is
absorbed), infima over residua reduce to the divisor's answer set, and the
score of a tuple absent from every operand is bottom throughout.

Restricted to tables and conditions with scores in {0, 1}, each operation
coincides with its classic counterpart.

Result rows are operand rows or built from their values by plans, so results are
built by ``RankedTable._trusted`` with no per-row check; bottom is filtered
wherever a connective can yield it.  A restriction's and a semijoin's
results are built only when read (``RankedTable._capped``).

Each operation computes its result scheme by one rule over the operand
schemes and its parameter (``Scheme.union``, ``project``, ``rename`` or a
rule below), before any chain check.  The planner's operator table points at
the same rules, so scheme inference rejects what evaluation rejects.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .chain import Score, abjunction, meet, min_score, residuum
from .conditions import Condition
from .errors import IncompatibleChainError, SchemeError, UnsupportedOperationError
from .table import RankedTable, Row, Scheme, joiner, renamer, values_of


# --- scheme rules ---------------------------------------------------------------


def same_scheme(scheme: Scheme, *others: Scheme) -> Scheme:
    """Union, difference and residuum: every operand on one shared scheme."""
    for other in others:
        if other != scheme:
            raise SchemeError(f"schemes differ: {scheme!r} vs {other!r}")
    return scheme


def restrict_scheme(scheme: Scheme, theta: Condition) -> Scheme:
    theta.check_scheme(scheme)
    return scheme


def divide_scheme(dividend: Scheme, mediator: Scheme, divisor: Scheme) -> Scheme:
    """Division: dividend R and divisor S disjoint, mediator on R+S."""
    if dividend.name_set & divisor.name_set:
        raise SchemeError("dividend and divisor schemes must be disjoint")
    if mediator != dividend.union(divisor):
        raise SchemeError("mediator scheme must be the union of dividend and divisor schemes")
    return dividend


def semijoin_scheme(left: Scheme, right: Scheme) -> Scheme:
    """The left scheme; conflicting shared types fail as in the join."""
    left.union(right)
    return left


def _require_same_chain(*tables: RankedTable) -> None:
    chain = tables[0].chain
    for t in tables[1:]:
        if t.chain != chain:
            raise IncompatibleChainError("tables live on different score chains")


def _matched_pairs(d1: RankedTable, d2: RankedTable) -> Iterator[tuple[Row, Score, Row, Score]]:
    """Hash join: every d1 row and d2 row agreeing on the shared attributes.

    The hash key of a row is its shared values, in name order; d1's are read
    by a plan and looked up in d2's index, which d2 builds once.
    """
    shared = tuple(sorted(d1.scheme.name_set & d2.scheme.name_set))
    key_of_d1, index = values_of(d1.scheme, shared), d2.index(shared)
    for row, score in d1:
        for other, other_score in index.get(key_of_d1(row), ()):
            yield row, score, other, other_score


def natural_join(d1: RankedTable, d2: RankedTable) -> RankedTable:
    """Join on shared attributes; the joined tuple scores the minimum."""
    scheme = d1.scheme.union(d2.scheme)
    _require_same_chain(d1, d2)
    join = joiner(d1.scheme, d2.scheme)
    entries = {  # the meet, inline: chains are checked, and a table's scores lie on its chain
        join(row, other): score if score.key <= other_score.key else other_score
        for row, score, other, other_score in _matched_pairs(d1, d2)
    }
    return RankedTable._trusted(scheme, d1.chain, entries)


def restrict(d: RankedTable, theta: Condition) -> RankedTable:
    """Pointwise minimum of the table with a restriction condition.

    The condition is scored here, once per value tuple of its free
    attributes, so its errors are raised here.  The result caps each row of
    ``d`` at its condition score as the result is read
    (``RankedTable._capped``): top-k's sorted and random access reach only
    the rows they read.
    """
    restrict_scheme(d.scheme, theta)
    return RankedTable._capped(d, *theta.scores_by_key(d))


def project(d: RankedTable, names: Iterable[str]) -> RankedTable:
    """Project onto a sub-scheme; a projected tuple takes the best extension."""
    scheme = d.scheme.project(names)
    shorten, make = values_of(d.scheme, scheme.sorted_names), scheme.row
    best: dict[tuple, Score] = {}  # projected row values -> best score so far
    for row, score in d:
        shorter = shorten(row)
        current = best.get(shorter)
        if current is None or score.key > current.key:
            best[shorter] = score
    return RankedTable._trusted(scheme, d.chain, {make(v): s for v, s in best.items()})


def union_tables(d1: RankedTable, d2: RankedTable) -> RankedTable:
    """Pointwise supremum of two tables on the same scheme."""
    same_scheme(d1.scheme, d2.scheme)
    _require_same_chain(d1, d2)
    entries = d1.entries()
    for row, score in d2:
        current = entries.get(row)
        if current is None or score.key > current.key:
            entries[row] = score
    return RankedTable._trusted(d1.scheme, d1.chain, entries)


def difference(d1: RankedTable, d2: RankedTable) -> RankedTable:
    """Pointwise abjunction: keep d1's score where it exceeds d2's, else drop."""
    same_scheme(d1.scheme, d2.scheme)
    _require_same_chain(d1, d2)
    entries: dict[Row, Score] = {}
    for row, score in d1:
        value = abjunction(score, d2._entries.get(row, d2.chain.bottom))
        if not value.is_bottom:
            entries[row] = value
    return RankedTable._trusted(d1.scheme, d1.chain, entries)


def intersection(d1: RankedTable, d2: RankedTable) -> RankedTable:
    """Pointwise minimum; the equal-scheme special case of the join."""
    same_scheme(d1.scheme, d2.scheme)
    return natural_join(d1, d2)


def divide(dividend: RankedTable, mediator: RankedTable, divisor: RankedTable) -> RankedTable:
    """Graded division: how well every divisor tuple relates to each row.

    With dividend on R, mediator on R+S and divisor on S (R, S disjoint),
    row r scores the infimum of ``divisor(s) -> mediator(rs)`` over all s,
    bounded by ``dividend(r)``.  Tuples outside the dividend's answer set
    score bottom, and divisor tuples outside its answer set contribute a
    vacuous top, so both scans are finite.
    """
    divide_scheme(dividend.scheme, mediator.scheme, divisor.scheme)
    _require_same_chain(dividend, mediator, divisor)
    join = joiner(dividend.scheme, divisor.scheme)
    entries: dict[Row, Score] = {}
    divisor_rows = list(divisor)
    for row, bound in dividend:
        value = bound
        for s_row, s_score in divisor_rows:
            med = mediator._entries.get(join(row, s_row), mediator.chain.bottom)
            value = meet(value, residuum(s_score, med))
            if value.is_bottom:
                break
        if not value.is_bottom:
            entries[row] = value
    return RankedTable._trusted(dividend.scheme, dividend.chain, entries)


def residuum_tables(d3: RankedTable, d1: RankedTable, d2: RankedTable) -> RankedTable:
    """Pointwise ``min(d3(r), d1(r) -> d2(r))`` over one shared scheme."""
    same_scheme(d3.scheme, d1.scheme, d2.scheme)
    _require_same_chain(d3, d1, d2)
    bottom = d1.chain.bottom
    entries: dict[Row, Score] = {}
    for row, bound in d3:
        value = meet(bound, residuum(d1._entries.get(row, bottom), d2._entries.get(row, bottom)))
        if not value.is_bottom:
            entries[row] = value
    return RankedTable._trusted(d3.scheme, d3.chain, entries)


def subsethood(d1: RankedTable, d2: RankedTable) -> Score:
    """Score of graded containment: infimum of d2's scores over violating rows.

    A row violates when its d1-score exceeds its d2-score; with no violation
    the empty infimum is top, so equal tables are fully contained either way.
    """
    same_scheme(d1.scheme, d2.scheme)
    _require_same_chain(d1, d2)
    violations = []
    for row, score in d1:
        other = d2._entries.get(row, d2.chain.bottom)
        if score.key > other.key:
            violations.append(other)
    return min_score(violations, d1.chain.top)


def similarity(d1: RankedTable, d2: RankedTable) -> Score:
    """Symmetrized subsethood: the meet of both containment scores."""
    return meet(subsethood(d1, d2), subsethood(d2, d1))


def semijoin(d1: RankedTable, d2: RankedTable) -> RankedTable:
    """Join then project back onto the first scheme: d1 restricted by d2's projection.

    On a chain min distributes over max, so a d1 row's best minimum with the d2 rows
    it matches is its score capped at the best d2 score on its shared attributes,
    which ``project(d2, shared)`` keeps.  Rows with no match drop (``RankedTable._capped``).
    """
    semijoin_scheme(d1.scheme, d2.scheme)
    _require_same_chain(d1, d2)
    shared = tuple(sorted(d1.scheme.name_set & d2.scheme.name_set))
    return RankedTable._capped(d1, shared, project(d2, shared)._entries)


def rename(d: RankedTable, mapping: Mapping[str, str] | Iterable[tuple[str, str]]) -> RankedTable:
    """Rename attributes as ``Scheme.rename`` does; entries are unchanged."""
    scheme = d.scheme.rename(mapping)
    renamed = renamer(d.scheme, scheme)
    return RankedTable._trusted(scheme, d.chain, {renamed(row): score for row, score in d})


def product_join(d1: RankedTable, d2: RankedTable) -> RankedTable:
    """Join scored by the arithmetic product instead of the minimum.

    Kept as a contrast oracle: unlike the minimum-based join it is not
    invariant under order-preserving transformations of the scores.
    Rational carrier only.
    """
    scheme = d1.scheme.union(d2.scheme)
    _require_same_chain(d1, d2)
    if not d1.chain.is_rational:
        raise UnsupportedOperationError("product-scored join needs the rational carrier")
    join = joiner(d1.scheme, d2.scheme)
    # stored scores are nonzero, so each product lies in (0, 1]
    entries = {
        join(row, other): d1.chain.score(score.value * other_score.value)
        for row, score, other, other_score in _matched_pairs(d1, d2)
    }
    return RankedTable._trusted(scheme, d1.chain, entries)
