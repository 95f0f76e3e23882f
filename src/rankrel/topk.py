"""Threshold-style top-k evaluation of a minimum-scored join chain.

Each source offers sorted access (its answer set by non-increasing score;
ties carry no order) and random access (tuples matching a partial join
key).  ``top_k`` walks the smallest source by sorted access and completes
each row it reads into every join tuple holding it, looking the other
sources up in keyed order (``_completion_plan``): sources sharing the most
attributes with those bound so far come first, which keeps the partial
joins small.  A join tuple holds exactly one row of the walked source, so
each is built once, and a tuple not yet built holds a row not yet read.
That row scores at most the row just read, and a meet never rises, so the
walk stops once k built results score strictly above the row just read.
Every result tying with the k-th best is then built, so the final sort
(``table.rank_sorted``) matches the brute-force oracle's canonical order
exactly, whatever the order of ties in each source.

The stop test is O(log k) per row: a min-heap holds the scores of the k
best results built so far.  Once it is full, a row or a match scoring
strictly below its least is not completed, as no join through it can
rank, and only results scoring at least its least enter the final sort.

Both access paths live on the immutable table: ``RankedTable.rows_by_rank``
sorts once and ``RankedTable.index`` hashes once per join key, and every
later source over the same table object reuses them.  Building a source
reads nothing, and only the walked source is read in order, so only its
table is ever sorted.  A restriction or semijoin that is walked is not
built: its sorted access walks its input's kept rank order, capping rows
as they are read (``RankedTable.sorted_access``).  One that is looked up
is built once, at its first lookup, through its own index.  So a session
that queries one catalog repeatedly sorts and hashes each catalog table at
most once, and each request reads only the rows it reaches.
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
    sources over one table share them; a restriction not yet built streams
    its input's rank order (``RankedTable.sorted_access``).  Sorted access
    promises non-increasing scores; only a built table's ties are canonical.
    Nothing is read until the first pull.
    """

    table: RankedTable
    #: the rows pulled so far, by non-increasing score
    ranked: list[tuple[Row, Score]] = field(init=False, default_factory=list)
    _rest: Iterator[tuple[Row, Score]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._rest = self.table.sorted_access()

    @classmethod
    def from_table(cls, table: RankedTable) -> "SortedSource":
        return cls(table)

    def pull(self, position: int) -> Optional[tuple[Row, Score]]:
        """Sorted access: the row at ``position`` of the rank order, or None past its end.

        Positions are pulled in order, so one past the rows pulled is the next.
        """
        if position < len(self.ranked):
            return self.ranked[position]
        pair = next(self._rest, None)
        if pair is not None:
            self.ranked.append(pair)
        return pair


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
    (the lookup in the source table's index on the join key, key plan, join
    plan); its plans read the key from a partial join's items and join the
    partial with a match, which random access finds by the lookup.
    """
    bound: Scheme = sources[start].table.scheme
    remaining = [i for i in range(len(sources)) if i != start]
    plan = []
    while remaining:
        other = max(remaining,
                    key=lambda i: len(bound.name_set & sources[i].table.scheme.name_set))
        remaining.remove(other)
        scheme = sources[other].table.scheme
        key_names = tuple(sorted(bound.name_set & scheme.name_set))
        lookup = sources[other].table.index(key_names).get
        plan.append((lookup, gather(bound, key_names), joiner(bound, scheme)))
        bound = bound.union(scheme)
    return plan


def top_k(sources: Sequence[SortedSource], k: int) -> TopKResult:
    """The k best tuples of the full join, scored by the minimum.

    Exactly equals the brute-force oracle's list under the canonical tie
    order, but typically reads only a prefix of one source: the smallest
    (ties to the lower index), walked in rank order.  Each row is completed
    into every join tuple holding it that can still rank.  The walk stops
    once the k best results, kept in a min-heap, all score strictly above
    the row just read, or once the walked source is exhausted.
    """
    if k < 1:
        raise TopKError("k must be at least 1")
    if not sources:
        raise TopKError("need at least one source")
    chain = sources[0].table.chain
    for source in sources[1:]:
        if source.table.chain != chain:
            raise IncompatibleChainError("sources live on different score chains")

    start = min(range(len(sources)), key=lambda i: (len(sources[i].table), i))
    plan: Optional[list] = None  # made at the first row: an empty walk builds no index
    results: list[tuple[Row, Score]] = []
    best: list = []  # min-heap of the order keys of the k best results
    sorted_accesses = random_accesses = 0
    # the walk's next position is the number of rows read
    while (pair := sources[start].pull(sorted_accesses)) is not None:
        sorted_accesses += 1
        bound = pair[1].key  # no tuple not yet built scores above the row just read
        # A meet never rises, and k results already score at least the heap's
        # least: a tuple below it cannot rank, nor can a join through it.
        # Ties are built, as the canonical order may pick them.
        floor = best[0] if len(best) == k else chain.bottom.key
        if bound < floor:
            break  # nor can a later row
        if plan is None:
            plan = _completion_plan(sources, start)
        partial = [pair]
        for lookup, key_of, join in plan:
            random_accesses += len(partial)
            extended = []
            for accumulated, acc_score in partial:
                for match, match_score in lookup(key_of(accumulated), ()):
                    if match_score.key < floor:
                        continue
                    merged_score = match_score if match_score.key < acc_score.key else acc_score
                    extended.append((join(accumulated, match), merged_score))
            partial = extended
            if not partial:
                break
        for _, joined_score in partial:
            if len(best) < k:
                heapq.heappush(best, joined_score.key)
            elif joined_score.key > best[0]:
                heapq.heapreplace(best, joined_score.key)
        results += partial
        if len(best) == k and best[0] > bound:
            break  # the k best are above every tuple not yet built

    if len(best) == k:  # only results scoring at least the k-th best can rank
        results = [pair for pair in results if pair[1].key >= best[0]]
    return TopKResult(tuple(rank_sorted(results)[:k]), sorted_accesses, random_accesses)
