"""Threshold-style top-k evaluation of a minimum-scored join chain.

Each source offers sorted access (its answer set in descending score order,
ties broken canonically) and random access (tuples matching a partial join
key).  Round-robin sorted access feeds a threshold equal to the minimum of
the per-source last-seen scores; because every join involving a newly seen
tuple is completed immediately through random access, any join still
unmaterialized is built entirely from unseen tuples and therefore cannot
score above the threshold.  We halt once k materialized results score
strictly above it, which also pins the canonical tie order to match the
brute-force oracle exactly.

The stop test is O(log k) per access: a min-heap holds the scores of the k
best distinct results seen so far, so "k results above the threshold" is
just "the heap is full and its least score beats the threshold".  A join
tuple reached again from another starting source is not pushed twice.

Completion from a starting source visits the other sources in a keyed
order, fixed once per start: next comes the remaining source sharing the
most attributes with those bound so far (ties to the lower index).  Looking
up keyed sources first keeps the partial joins small; a source sharing
nothing with the bound attributes is crossed in only when no keyed one is
left.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from . import algebra
from .chain import Score
from .errors import IncompatibleChainError, RankrelError
from .table import RankedTable, Row, Scheme, gather, joiner, rank_sorted


class TopKError(RankrelError):
    pass


@dataclass
class SortedSource:
    """A materialized table wrapped with sorted and random access paths."""

    table: RankedTable
    ranked: list[tuple[Row, Score]] = field(default_factory=list)
    _indexes: dict = field(default_factory=dict)

    @classmethod
    def from_table(cls, table: RankedTable) -> "SortedSource":
        return cls(table, table.rows_by_rank())

    @property
    def names(self) -> frozenset[str]:
        return self.table.scheme.name_set

    def lookup(self, key_names: tuple[str, ...], key: tuple) -> list[tuple[Row, Score]]:
        """Random access: all tuples whose projection onto key_names matches.

        ``key_names`` are in name order and ``key`` holds their
        ``(name, value)`` pairs, as ``gather`` reads them from a row.
        """
        index = self._indexes.get(key_names)
        if index is None:
            index = {}
            key_of = gather(self.table.scheme, key_names)
            for row, score in self.ranked:
                index.setdefault(key_of(row), []).append((row, score))
            self._indexes[key_names] = index
        return index.get(key, [])


@dataclass(frozen=True)
class TopKResult:
    items: tuple[tuple[Row, Score], ...]
    sorted_accesses: int = 0
    random_accesses: int = 0


def _rank_order(items: Iterable[tuple[Row, Score]]) -> list[tuple[Row, Score]]:
    return rank_sorted(items)


def brute_force_top_k(sources: Sequence[SortedSource], k: int) -> TopKResult:
    """Oracle: materialize the whole join, sort, truncate."""
    if k < 1:
        raise TopKError("k must be at least 1")
    joined: Optional[RankedTable] = None
    for source in sources:
        joined = source.table if joined is None else algebra.natural_join(joined, source.table)
    if joined is None:
        raise TopKError("need at least one source")
    return TopKResult(tuple(_rank_order(list(joined))[:k]))


def _completion_plan(sources: Sequence[SortedSource], start: int) -> list[tuple]:
    """Keyed completion order from ``start``: one step per other source.

    Greedy: the next source is the remaining one sharing the most attributes
    with the names bound so far, ties going to the lower index.  A step is
    (source index, join-key names, key plan, join plan); its plans read the
    key from a partial join's items and join the partial with a match.
    """
    bound: Scheme = sources[start].table.scheme
    remaining = [i for i in range(len(sources)) if i != start]
    plan = []
    while remaining:
        other = max(remaining, key=lambda i: len(bound.name_set & sources[i].names))
        remaining.remove(other)
        scheme = sources[other].table.scheme
        key_names = tuple(sorted(bound.name_set & scheme.name_set))
        plan.append((other, key_names, gather(bound, key_names), joiner(bound, scheme)))
        bound = bound.union(scheme)
    return plan


def top_k(sources: Sequence[SortedSource], k: int) -> TopKResult:
    """The k best tuples of the full join, scored by the minimum.

    Exactly equals the brute-force oracle's list under the canonical tie
    order, but typically touches only a prefix of each source.  After each
    sorted access the new row is completed into every join tuple containing
    it, visiting the other sources in keyed order (most shared attributes
    with those already bound first); the loop stops as soon as the k best
    distinct results, kept in a min-heap, all score strictly above the
    threshold.
    """
    if k < 1:
        raise TopKError("k must be at least 1")
    if not sources:
        raise TopKError("need at least one source")
    chain = sources[0].table.chain
    for source in sources[1:]:
        if source.table.chain != chain:
            raise IncompatibleChainError("sources live on different score chains")

    n = len(sources)
    positions = [0] * n
    last_seen = [chain.top.value] * n
    results: dict[Row, Score] = {}
    best: list = []  # min-heap of the k best result score values
    counters = {"sorted": 0, "random": 0}
    # Completion orders and join-key attribute tuples are fixed per starting
    # source, so random-access indexes can be reused across accesses.
    plans = [_completion_plan(sources, start) for start in range(n)]

    def complete(start: int, row: Row, score: Score) -> None:
        partial = [(row, score)]
        for other, key_names, key_of, join in plans[start]:
            counters["random"] += len(partial)
            extended = []
            for accumulated, acc_score in partial:
                key = key_of(accumulated)
                for match, match_score in sources[other].lookup(key_names, key):
                    merged_score = match_score if match_score.value < acc_score.value else acc_score
                    extended.append((join(accumulated, match), merged_score))
            partial = extended
            if not partial:
                return
        for joined, joined_score in partial:
            if joined in results:
                continue  # already completed from another starting source
            results[joined] = joined_score
            if len(best) < k:
                heapq.heappush(best, joined_score.value)
            elif joined_score.value > best[0]:
                heapq.heapreplace(best, joined_score.value)

    while True:
        progressed = False
        for i in range(n):
            ranked = sources[i].ranked
            if positions[i] >= len(ranked):
                if positions[i] == len(ranked):
                    positions[i] += 1
                    last_seen[i] = chain.bottom.value  # exhausted: no unseen tuple remains
                continue
            row, score = ranked[positions[i]]
            positions[i] += 1
            last_seen[i] = score.value
            counters["sorted"] += 1
            progressed = True
            complete(i, row, score)
            if len(best) == k and best[0] > min(last_seen):
                ordered = _rank_order(results.items())[:k]
                return TopKResult(tuple(ordered), counters["sorted"], counters["random"])
        if not progressed:
            break  # every source exhausted: results hold the entire join

    ordered = _rank_order(results.items())[:k]
    return TopKResult(tuple(ordered), counters["sorted"], counters["random"])
