"""Threshold-style top-k evaluation of a minimum-scored join chain.

Each source offers sorted access (its answer set by non-increasing score;
ties carry no order) and random access (tuples matching a partial join
key).  Sorted access feeds a threshold equal to the minimum of the
per-source last-seen scores; because every join involving a newly seen
tuple is completed immediately through random access, any join still
unmaterialized is built entirely from unseen tuples and therefore cannot
score above the threshold.  We halt once k materialized results score
strictly above it; every result tying with the k-th best is then built,
so the final sort (``table.rank_sorted``) matches the brute-force oracle's
canonical order exactly, whatever the order of ties in each source.

Only a pull from the source holding the threshold can lower it, so each
step pulls the source with the lowest last-seen score (the adaptive
pulling of HRJN, read for the meet); ties go to the smaller source, then
to the lower index, so the smallest source is pulled first.  Once the
pulled source is exhausted, every join tuple has been completed from one
of its rows, and the loop stops.  Once the stop test's heap holds k
scores, completion skips a pulled row or a match scoring strictly below
the heap's least: a meet never rises, so no join through it can rank.

The stop test is O(log k) per access: a min-heap holds the scores of the k
best distinct results seen so far, so "k results above the threshold" is
just "the heap is full and its least score beats the threshold".  A join
tuple reached again from another starting source is not pushed twice.

Completion from a starting source visits the other sources in a keyed
order, fixed once per start when a row of it is first completed: next
comes the remaining source sharing the most attributes with those bound so
far (ties to the lower index).  Looking up keyed sources first keeps the
partial joins small; a source sharing nothing with the bound attributes is
crossed in only when no keyed one is left.

Both access paths live on the immutable table: ``RankedTable.rows_by_rank``
sorts once and ``RankedTable.index`` hashes once per join key, and every
later source over the same table object reuses them.  A restriction is not
built for its source: its sorted access walks its input's kept rank
order, capping rows as it reads them, and its random access restricts its
input's kept index buckets (``RankedTable.sorted_access`` and ``lookup``).
So a session that queries one catalog repeatedly sorts and hashes each
catalog table once, restricted or not, and each request reads only the
rows it reaches.  Once the heap holds k scores, only results scoring at
least its least one enter the final sort.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from . import algebra, planner
from .catalog import Catalog
from .chain import Score
from .errors import IncompatibleChainError, RankrelError
from .table import RankedTable, Row, Scheme, gather, joiner, rank_sorted


class TopKError(RankrelError):
    pass


@dataclass
class SortedSource:
    """A table offering its sorted and random access paths.

    Both paths live on the table, which builds each once and keeps it, so
    sources over one table share them; a restriction not yet built serves
    them from its input's (``RankedTable.sorted_access``).  Sorted access
    promises non-increasing scores; only a built table's ties are canonical.
    """

    table: RankedTable
    #: the table's rows by non-increasing score, as far as known: all of them once it is built
    ranked: list[tuple[Row, Score]] = field(init=False)
    _rest: Iterator[tuple[Row, Score]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.ranked, self._rest = self.table.sorted_access()

    @classmethod
    def from_table(cls, table: RankedTable) -> "SortedSource":
        return cls(table)

    def pull(self, position: int) -> Optional[tuple[Row, Score]]:
        """Sorted access: the row at ``position`` of the rank order, or None past its end.

        Positions are pulled in order, so one past the rows known is the next.
        """
        if position < len(self.ranked):
            return self.ranked[position]
        pair = next(self._rest, None)
        if pair is not None:
            self.ranked.append(pair)
        return pair

    @property
    def names(self) -> frozenset[str]:
        return self.table.scheme.name_set


@dataclass(frozen=True)
class TopKResult:
    items: tuple[tuple[Row, Score], ...]
    sorted_accesses: int = 0
    random_accesses: int = 0


def sources(expr: planner.QueryExpr, catalog: Catalog) -> list[SortedSource]:
    """The sources that ``rankrel topk`` ranks for the parsed query ``expr``.

    The leaves of the normalized join chain, each evaluated on its own.  If
    typing the query as written, normalizing it or evaluating a leaf raises a
    ``RankrelError``, the query as written, evaluated as ``eval`` does, is
    the one source.
    """
    try:
        # The laws assume a well-typed query: the projection cascade drops an
        # inner list unchecked, which would make an ill-typed query valid.
        planner.infer_scheme(expr, catalog)
        leaves = planner.join_chain_leaves(planner.normalize_to_join_chain(expr, catalog).expr)
        tables = [planner.evaluate(leaf, catalog) for leaf in leaves]
    except RankrelError:
        # A rewrite may score a condition on rows the query never reaches, and
        # a leaf's error names a path in the leaf: rank the query as written,
        # so that top-k fails or answers exactly as eval does.
        tables = [planner.evaluate(expr, catalog)]
    return [SortedSource.from_table(table) for table in tables]


def brute_force_top_k(sources: Sequence[SortedSource], k: int) -> TopKResult:
    """Oracle: materialize the whole join, sort, truncate."""
    if k < 1:
        raise TopKError("k must be at least 1")
    joined: Optional[RankedTable] = None
    for source in sources:
        joined = source.table if joined is None else algebra.natural_join(joined, source.table)
    if joined is None:
        raise TopKError("need at least one source")
    return TopKResult(tuple(joined.rows_by_rank()[:k]))


def _completion_plan(sources: Sequence[SortedSource], start: int) -> list[tuple]:
    """Keyed completion order from ``start``: one step per other source.

    Greedy: the next source is the remaining one sharing the most attributes
    with the names bound so far, ties going to the lower index.  A step is
    (the source table's lookup on the join key, key plan, join plan); its
    plans read the key from a partial join's items and join the partial
    with a match, which random access finds by the lookup.
    """
    bound: Scheme = sources[start].table.scheme
    remaining = [i for i in range(len(sources)) if i != start]
    plan = []
    while remaining:
        other = max(remaining, key=lambda i: len(bound.name_set & sources[i].names))
        remaining.remove(other)
        scheme = sources[other].table.scheme
        key_names = tuple(sorted(bound.name_set & scheme.name_set))
        lookup = sources[other].table.lookup(key_names)
        plan.append((lookup, gather(bound, key_names), joiner(bound, scheme)))
        bound = bound.union(scheme)
    return plan


def top_k(sources: Sequence[SortedSource], k: int) -> TopKResult:
    """The k best tuples of the full join, scored by the minimum.

    Exactly equals the brute-force oracle's list under the canonical tie
    order, but typically touches only a prefix of each source.  Each step
    pulls the source with the lowest last-seen score (ties to the smaller
    source, then the lower index) and completes the new row into every join
    tuple containing it that can still rank, visiting the other sources in
    keyed order (most shared attributes with those already bound first).
    The loop stops as soon as the k best distinct results, kept in a
    min-heap, all score strictly above the threshold, or once the pulled
    source is exhausted.
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
