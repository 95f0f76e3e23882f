"""Relational operations on ranked tables, with minimum as the aggregation.

Every operation is defined pointwise over all tuples of the scheme but is
evaluated by a finite scan: suprema ignore absent tuples (score bottom is
absorbed), infima over residua reduce to the divisor's answer set, and the
score of a tuple absent from every operand is bottom throughout.

Restricted to tables and conditions with scores in {0, 1}, each operation
coincides with its classic counterpart.

Result rows are operand rows or gathered from them by plans, so results are
built by ``RankedTable._trusted`` with no per-row check; bottom is filtered
wherever a connective can yield it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .chain import Score, abjunction, meet, min_score, residuum
from .conditions import Condition
from .errors import IncompatibleChainError, SchemeError, UnsupportedOperationError
from .table import RankedTable, Row, gather, joiner


def _require_same_chain(*tables: RankedTable) -> None:
    chain = tables[0].chain
    for t in tables[1:]:
        if t.chain != chain:
            raise IncompatibleChainError("tables live on different score chains")


def _require_same_scheme(*tables: RankedTable) -> None:
    _require_same_chain(*tables)
    scheme = tables[0].scheme
    for t in tables[1:]:
        if t.scheme != scheme:
            raise SchemeError(f"schemes differ: {scheme!r} vs {t.scheme!r}")


def _matched_pairs(d1: RankedTable, d2: RankedTable) -> Iterator[tuple[Row, Score, Row, Score]]:
    """Hash join: every d1 row and d2 row agreeing on the shared attributes.

    The hash key of a row is its shared pairs, in name order, read by one
    gather plan per side.
    """
    shared = sorted(d1.scheme.name_set & d2.scheme.name_set)
    key_of_d1, key_of_d2 = gather(d1.scheme, shared), gather(d2.scheme, shared)
    index: dict[tuple, list[tuple[Row, Score]]] = {}
    for row, score in d2:
        index.setdefault(key_of_d2(row), []).append((row, score))
    for row, score in d1:
        for other, other_score in index.get(key_of_d1(row), ()):
            yield row, score, other, other_score


def natural_join(d1: RankedTable, d2: RankedTable) -> RankedTable:
    """Join on shared attributes; the joined tuple scores the minimum."""
    _require_same_chain(d1, d2)
    scheme = d1.scheme.union(d2.scheme)
    join = joiner(d1.scheme, d2.scheme)
    entries = {
        join(row, other): meet(score, other_score)
        for row, score, other, other_score in _matched_pairs(d1, d2)
    }
    return RankedTable._trusted(scheme, d1.chain, entries)


def restrict(d: RankedTable, theta: Condition) -> RankedTable:
    """Pointwise minimum of the table with a restriction condition."""
    theta.check_scheme(d.scheme)
    score_of = theta.scorer(d.scheme, d.chain)
    entries: dict[Row, Score] = {}
    for row, score in d:
        value = meet(score, score_of(row))
        if not value.is_bottom:
            entries[row] = value
    return RankedTable._trusted(d.scheme, d.chain, entries)


def project(d: RankedTable, names: Iterable[str]) -> RankedTable:
    """Project onto a sub-scheme; a projected tuple takes the best extension."""
    scheme = d.scheme.project(names)
    shorten = gather(d.scheme, scheme.sorted_names)
    best: dict[tuple, Score] = {}  # projected row pairs -> best score so far
    for row, score in d:
        shorter = shorten(row)
        current = best.get(shorter)
        if current is None or score.value > current.value:
            best[shorter] = score
    return RankedTable._trusted(scheme, d.chain, {Row(p): s for p, s in best.items()})


def union_tables(d1: RankedTable, d2: RankedTable) -> RankedTable:
    """Pointwise supremum of two tables on the same scheme."""
    _require_same_scheme(d1, d2)
    entries = d1.entries()
    for row, score in d2:
        current = entries.get(row)
        if current is None or score.value > current.value:
            entries[row] = score
    return RankedTable._trusted(d1.scheme, d1.chain, entries)


def difference(d1: RankedTable, d2: RankedTable) -> RankedTable:
    """Pointwise abjunction: keep d1's score where it exceeds d2's, else drop."""
    _require_same_scheme(d1, d2)
    entries: dict[Row, Score] = {}
    for row, score in d1:
        value = abjunction(score, d2._entries.get(row, d2.chain.bottom))
        if not value.is_bottom:
            entries[row] = value
    return RankedTable._trusted(d1.scheme, d1.chain, entries)


def intersection(d1: RankedTable, d2: RankedTable) -> RankedTable:
    """Pointwise minimum; the equal-scheme special case of the join."""
    _require_same_scheme(d1, d2)
    return natural_join(d1, d2)


def divide(dividend: RankedTable, mediator: RankedTable, divisor: RankedTable) -> RankedTable:
    """Graded division: how well every divisor tuple relates to each row.

    With dividend on R, mediator on R+S and divisor on S (R, S disjoint),
    row r scores the infimum of ``divisor(s) -> mediator(rs)`` over all s,
    bounded by ``dividend(r)``.  Tuples outside the dividend's answer set
    score bottom, and divisor tuples outside its answer set contribute a
    vacuous top, so both scans are finite.
    """
    _require_same_chain(dividend, mediator, divisor)
    r_names = dividend.scheme.name_set
    s_names = divisor.scheme.name_set
    if r_names & s_names:
        raise SchemeError("dividend and divisor schemes must be disjoint")
    if mediator.scheme != dividend.scheme.union(divisor.scheme):
        raise SchemeError("mediator scheme must be the union of dividend and divisor schemes")
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
    _require_same_scheme(d3, d1, d2)
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
    _require_same_scheme(d1, d2)
    violations = []
    for row, score in d1:
        other = d2._entries.get(row, d2.chain.bottom)
        if score.value > other.value:
            violations.append(other)
    return min_score(violations, d1.chain.top)


def similarity(d1: RankedTable, d2: RankedTable) -> Score:
    """Symmetrized subsethood: the meet of both containment scores."""
    return meet(subsethood(d1, d2), subsethood(d2, d1))


def semijoin(d1: RankedTable, d2: RankedTable) -> RankedTable:
    """Join then project back onto the first scheme.

    Evaluated without building joined rows: each d1 row keeps the best
    minimum over the d2 rows it matches.
    """
    _require_same_chain(d1, d2)
    d1.scheme.union(d2.scheme)  # conflicting shared types fail as in the join
    entries: dict[Row, Score] = {}
    for row, score, _, other_score in _matched_pairs(d1, d2):
        value = meet(score, other_score)
        best = entries.get(row)
        if best is None or value.value > best.value:
            entries[row] = value
    return RankedTable._trusted(d1.scheme, d1.chain, entries)


def rename(d: RankedTable, mapping: Mapping[str, str]) -> RankedTable:
    """Rename attributes (injective, collision-free); entries are unchanged."""
    scheme = d.scheme.rename(mapping)
    lowered = {old.lower(): new.lower() for old, new in mapping.items()}
    old_name = {lowered.get(name, name): name for name in d.scheme.sorted_names}
    reorder = gather(d.scheme, [old_name[name] for name in scheme.sorted_names])
    names = scheme.sorted_names
    entries = {Row(zip(names, [value for _, value in reorder(row)])): score for row, score in d}
    return RankedTable._trusted(scheme, d.chain, entries)


def product_join(d1: RankedTable, d2: RankedTable) -> RankedTable:
    """Join scored by the arithmetic product instead of the minimum.

    Kept as a contrast oracle: unlike the minimum-based join it is not
    invariant under order-preserving transformations of the scores.
    Rational carrier only.
    """
    _require_same_chain(d1, d2)
    if not d1.chain.is_rational:
        raise UnsupportedOperationError("product-scored join needs the rational carrier")
    scheme = d1.scheme.union(d2.scheme)
    join = joiner(d1.scheme, d2.scheme)
    entries: dict[Row, Score] = {}
    for row, score, other, other_score in _matched_pairs(d1, d2):
        value = d1.chain.score(score.value * other_score.value)
        if not value.is_bottom:
            entries[join(row, other)] = value
    return RankedTable._trusted(scheme, d1.chain, entries)
