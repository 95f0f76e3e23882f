"""Monotone self-maps of the score chain and their application to tables.

An :class:`OrderMap` transforms scores; composing a table with one transforms
every stored score pointwise.  Three representations are provided:

* piecewise-constant over half-open pieces ``(lo, hi] -> value`` plus an
  explicit value at bottom (finitely checkable; also the shape produced by
  the canonical-map construction);
* analytic expressions over the rational carrier, quantized onto a fixed
  6-decimal grid (with an order-injectivity check on the values actually
  produced, so the grid can never silently collapse distinct scores);
* explicit finite graphs of (input, output) pairs.

Order-theoretic properties (preserving / reflecting / embedding /
isomorphism-on-range) are verified on the finite score sets a map is applied
to, which is all the algebra ever needs and keeps verification decidable.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from . import exprs
from .chain import Score, ScoreChain, clamp01, quantize
from .errors import (
    IncompatibleChainError,
    MapDomainError,
    MapPropertyError,
    NotEquivalentError,
    NotIncludedError,
    QuantizationError,
    UnsupportedOperationError,
)
from .ordinal import _rank_profile, ordinally_equivalent
from .table import RankedTable

PROPERTIES = (
    "preserving", "reflecting", "embedding", "isomorphism",
    "fixed-bottom", "fixed-top",
)


class OrderMap:
    """Base interface; concrete maps implement :meth:`apply`."""

    #: properties the map claims; verified on the scores it is applied to
    declared: frozenset = frozenset()

    def apply(self, score: Score) -> Score:
        raise NotImplementedError

    def apply_all(self, scores: Iterable[Score]) -> dict[Score, Score]:
        """Apply to a batch; single hook for per-batch consistency checks."""
        return {s: self.apply(s) for s in scores}

    def fixes_bottom(self, chain: ScoreChain) -> bool:
        try:
            return self.apply(chain.bottom).is_bottom
        except MapDomainError:
            return False

    def fixes_top(self, chain: ScoreChain) -> bool:
        try:
            return self.apply(chain.top).is_top
        except MapDomainError:
            return False


def _image_values(images: Mapping[Score, Score]) -> list:
    """Raw image values of a finite map graph, in ascending input order."""
    return [images[s].value for s in sorted(images, key=lambda s: s.value)]


def _preserves(values: list) -> bool:
    return all(a <= b for a, b in zip(values, values[1:]))


def _reflects(values: list) -> bool:
    # On a chain with a <= b already established, reflection fails exactly
    # when two distinct inputs collapse or swap.
    return all(a < b for a, b in zip(values, values[1:]))


def is_order_preserving_on(f: OrderMap, scores: Sequence[Score]) -> bool:
    """a <= b implies f(a) <= f(b), over every pair in ``scores``."""
    return _preserves(_image_values({s: f.apply(s) for s in scores}))


def is_order_reflecting_on(f: OrderMap, scores: Sequence[Score]) -> bool:
    """f(a) <= f(b) implies a <= b, over every pair in ``scores``."""
    return _reflects(_image_values({s: f.apply(s) for s in scores}))


def is_order_embedding_on(f: OrderMap, scores: Sequence[Score]) -> bool:
    values = _image_values({s: f.apply(s) for s in scores})
    return _preserves(values) and _reflects(values)


def verify_declared(f: OrderMap, images: Mapping[Score, Score], chain: ScoreChain) -> None:
    """Check every declared property of ``f`` on a finite set, given its images there."""
    values = _image_values(images)
    preserving, reflecting = _preserves(values), _reflects(values)
    for name in f.declared:
        if name == "preserving" and not preserving:
            raise MapPropertyError("map declared order preserving but is not on these scores")
        if name == "reflecting" and not reflecting:
            raise MapPropertyError("map declared order reflecting but is not on these scores")
        if name in ("embedding", "isomorphism") and not (preserving and reflecting):
            raise MapPropertyError(f"map declared {name} but does not embed these scores")
        if name == "fixed-bottom" and not f.fixes_bottom(chain):
            raise MapPropertyError("map declared fixed-bottom but moves bottom")
        if name == "fixed-top" and not f.fixes_top(chain):
            raise MapPropertyError("map declared fixed-top but moves top")


@dataclass(frozen=True)
class Piece:
    """Half-open piece (lo, hi] carrying a constant output value."""

    lo: Score
    hi: Score
    value: Score


@dataclass(frozen=True)
class PiecewiseConstantMap(OrderMap):
    """Piecewise-constant map with an explicit output at bottom."""

    chain: ScoreChain
    bottom_value: Score
    pieces: tuple[Piece, ...]
    declared: frozenset = frozenset()
    #: the pieces' upper bounds as raw chain values, ascending, for bisection
    _bounds: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        previous = None
        for piece in self.pieces:
            if piece.hi.chain != self.chain:
                raise IncompatibleChainError(f"piece {piece!r} is not on this map's chain")
            if not piece.lo < piece.hi:
                raise MapPropertyError(f"empty piece ({piece.lo!r}, {piece.hi!r}]")
            if previous is not None and piece.lo < previous:
                raise MapPropertyError("pieces overlap; they must be sorted and disjoint")
            previous = piece.hi
        object.__setattr__(self, "_bounds", tuple(piece.hi.value for piece in self.pieces))

    def apply(self, score: Score) -> Score:
        if score.chain != self.chain:
            raise IncompatibleChainError(f"{score!r} is not on this map's chain")
        if score.is_bottom:
            return self.bottom_value
        # The only piece that can hold the score is the first one reaching it.
        i = bisect_left(self._bounds, score.value)
        if i < len(self.pieces) and self.pieces[i].lo.value < score.value:
            return self.pieces[i].value
        raise MapDomainError(f"score {score!r} outside every declared piece")


#: Decimal places of the grid that analytic map outputs are quantized onto.
GRID_PLACES = 6


@dataclass(frozen=True)
class AnalyticMap(OrderMap):
    """Map given by an expression in ``x`` over the rational carrier.

    Results are clamped into [0, 1] and quantized onto the 6-decimal grid
    before becoming chain elements.  Batch application refuses to proceed if
    quantization collapses two distinct inputs, since that would silently
    destroy the embedding property.
    """

    expr: exprs.Expr
    declared: frozenset = frozenset()

    @classmethod
    def parse(cls, text: str, declared: Iterable[str] = ()) -> "AnalyticMap":
        return cls(exprs.parse_expr(text), declared=frozenset(declared))

    def apply(self, score: Score) -> Score:
        return self._compiled()(score)

    def _compiled(self) -> Callable[[Score], Score]:
        """:meth:`apply` with the expression compiled once, for one batch.

        Returned, never stored on the map, so the map still pickles.
        """
        run = exprs.compile_expr(self.expr)

        def apply(score: Score) -> Score:
            if not score.chain.is_rational:
                raise UnsupportedOperationError("analytic maps require the rational carrier")
            return score.chain.score(clamp01(quantize(run({"x": score.value}), GRID_PLACES)))
        return apply

    def apply_all(self, scores: Iterable[Score]) -> dict[Score, Score]:
        apply = self._compiled()
        out = {s: apply(s) for s in set(scores)}
        if len({img.value for img in out.values()}) != len(out):
            raise QuantizationError(
                f"quantization to {GRID_PLACES} decimals is not injective on "
                f"the {len(out)} scores produced; refusing to transform"
            )
        return out

    def __repr__(self) -> str:
        return f"AnalyticMap({exprs.format_expr(self.expr)})"


@dataclass(frozen=True)
class GraphMap(OrderMap):
    """Map given by an explicit finite graph of (input, output) pairs."""

    graph: tuple[tuple[Score, Score], ...]
    declared: frozenset = frozenset()
    _images: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Reversed, so that the first pair for an input wins, as in a scan.
        object.__setattr__(self, "_images", dict(reversed(self.graph)))

    @classmethod
    def of(cls, pairs: Mapping[Score, Score] | Iterable[tuple[Score, Score]],
           declared: Iterable[str] = ()) -> "GraphMap":
        items = pairs.items() if isinstance(pairs, Mapping) else pairs
        ordered = tuple(sorted(items, key=lambda kv: kv[0].value))
        return cls(ordered, declared=frozenset(declared))

    def apply(self, score: Score) -> Score:
        try:
            return self._images[score]  # scores hash by (chain, value)
        except KeyError:
            raise MapDomainError(f"score {score!r} outside the map's finite graph") from None

    def inverse(self) -> "GraphMap":
        images = [dst.value for _, dst in self.graph]
        if len(set(images)) != len(images):
            raise MapPropertyError("graph map is not injective; no inverse exists")
        return GraphMap.of({dst: src for src, dst in self.graph}, declared=self.declared)


@dataclass(frozen=True)
class IdentityMap(OrderMap):
    """Total identity on any chain; exact, never quantized."""

    declared: frozenset = frozenset(PROPERTIES)

    def apply(self, score: Score) -> Score:
        return score


IDENTITY = IdentityMap()


def apply_checked(f: OrderMap, scores: Iterable[Score],
                  chain: ScoreChain) -> dict[Score, Score]:
    """Images of a finite set of stored scores under f, after checking f there.

    Requires f(bottom) = bottom, otherwise every absent tuple (possibly
    infinitely many) would move off bottom.  Batch application runs the
    map's own consistency checks, and declared map properties are verified
    on the scores given, plus bottom and top.
    """
    if not f.fixes_bottom(chain):
        raise MapPropertyError(
            "order map does not send bottom to bottom; absent tuples would "
            "stop scoring bottom"
        )
    images = f.apply_all(scores)
    if f.declared:
        graph = {**images, chain.bottom: chain.bottom}  # f fixes bottom, checked above
        try:
            graph[chain.top] = f.apply(chain.top)
        except MapDomainError:
            pass
        verify_declared(f, graph, chain)
    return images


def compose_table(table: RankedTable, f: OrderMap) -> RankedTable:
    """Pointwise transform of a table's scores: row r scores f(old score).

    The map is checked by :func:`apply_checked` on the table's range; rows
    whose image is bottom drop out.

    Each distinct ``Score`` object is looked up, and its image checked to be
    on the table's chain, once; rows then go through an ``id`` table of the
    images that are not bottom, so no score is hashed per row.  The table
    keeps the objects alive for the whole call, so their ids are stable.
    """
    chain = table.chain
    scores = {id(score): score for _, score in table}
    images = apply_checked(f, set(scores.values()), chain)
    kept = {key: image for key, score in scores.items() if not (image := images[score]).is_bottom}
    if any(image.chain != chain for image in kept.values()):
        raise IncompatibleChainError("the map sends scores off the table's chain")
    entries = {row: image for row, score in table
               if (image := kept.get(id(score))) is not None}
    return RankedTable._trusted(table.scheme, chain, entries)


def canonical_map(d1: RankedTable, d2: RankedTable) -> PiecewiseConstantMap:
    """The canonical order-preserving witness of ordinal inclusion.

    For d1 ordinally included in d2 it returns the map fixing bottom and
    sending each other score ``a`` to the least d2-score among rows whose
    d1-score reaches ``a`` (empty set of such rows: top): the
    :func:`extend_piecewise` of that map on d1's levels.  It agrees with d2
    on d1's answer set, so ``compose_table(d1, f) == d2`` holds exactly when
    every tuple d1 leaves out also scores bottom in d2.  That is always so
    over an unbounded attribute type, but not on an explicitly finite domain
    that d2 covers beyond d1.
    """
    if d1.scheme != d2.scheme:
        raise NotIncludedError("tables on different schemes are never ordinally included")
    floors, escaping = _rank_profile(d1, d2)
    if escaping:
        raise NotIncludedError("first table is not ordinally included in the second")
    chain = d1.chain
    graph = {Score(chain, level): Score(chain, floor) for level, floor in floors.items()}
    graph[chain.bottom] = chain.bottom
    return extend_piecewise(GraphMap.of(graph, declared=("preserving",)), chain)


def witness_isomorphism(d1: RankedTable, d2: RankedTable) -> GraphMap:
    """An order isomorphism between the two ranges carrying d1 onto d2.

    Only exists when the tables are ordinally equivalent.  Both ranges are
    finite chains of equal length then, so matching them rank by rank gives
    the unique order isomorphism between them.
    """
    if d1.scheme != d2.scheme or not ordinally_equivalent(d1, d2):
        raise NotEquivalentError("tables are not ordinally equivalent")
    range1 = d1.range_of()
    range2 = d2.range_of()
    if len(range1) != len(range2):  # cannot happen under equivalence
        raise NotEquivalentError("ranges have different sizes")
    return GraphMap.of(zip(range1, range2), declared=frozenset(("embedding", "isomorphism")))


def extend_piecewise(f: GraphMap, chain: ScoreChain) -> PiecewiseConstantMap:
    """Total extension of a finite-graph map by upper infima.

    Sends ``a`` to the least f-image over graph inputs >= a (top when no
    input reaches ``a``); agrees with ``f`` on its domain and is order
    preserving whenever ``f`` is.
    """
    graph = sorted(f.graph, key=lambda kv: kv[0].value)
    if not graph:
        raise MapPropertyError("cannot extend an empty graph")
    suffix_min: list[Score] = [None] * len(graph)  # least image from i onward
    best = None
    for i in range(len(graph) - 1, -1, -1):
        img = graph[i][1]
        best = img if best is None or img.value < best.value else best
        suffix_min[i] = best

    bottom_value = suffix_min[0]
    if graph[0][0].is_bottom:
        bottom_value = graph[0][1]
    pieces: list[Piece] = []
    lo = chain.bottom
    for i, (src, _) in enumerate(graph):
        if src.is_bottom:
            continue
        pieces.append(Piece(lo, src, suffix_min[i]))
        lo = src
    if lo < chain.top:
        pieces.append(Piece(lo, chain.top, chain.top))
    merged: list[Piece] = []
    for piece in pieces:
        if merged and merged[-1].value == piece.value:
            merged[-1] = Piece(merged[-1].lo, piece.hi, piece.value)
        else:
            merged.append(piece)
    return PiecewiseConstantMap(chain, bottom_value, tuple(merged), declared=f.declared
                                & frozenset(("preserving",)))
