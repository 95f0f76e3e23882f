"""Monotone self-maps of the score chain and their application to tables.

An :class:`OrderMap` transforms scores; composing a table with one transforms
every stored score pointwise.  Three representations are provided:

* piecewise-constant over half-open pieces ``(lo, hi] -> value`` plus an
  explicit value at bottom (finitely checkable; also the shape produced by
  the canonical-map construction);
* analytic expressions over the rational carrier, quantized onto a fixed
  6-decimal grid (with an injectivity check on the exact images actually
  produced, so the grid can never silently merge two of them);
* explicit finite graphs of (input, output) pairs.

Order-theoretic properties (preserving / reflecting / embedding /
isomorphism-on-range) are verified on the finite score sets a map is applied
to, which is all the algebra ever needs and keeps verification decidable.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterable, Mapping

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
from .ordinal import _rank_profile, ordinally_included
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
    """Image order keys of a finite map graph, in ascending input order."""
    return [images[s].key for s in sorted(images, key=attrgetter("key"))]


def _preserves(values: list) -> bool:
    return all(a <= b for a, b in zip(values, values[1:]))


def _reflects(values: list) -> bool:
    # On a chain with a <= b already established, reflection fails exactly
    # when two distinct inputs collapse or swap.
    return all(a < b for a, b in zip(values, values[1:]))


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
    #: the order keys of the pieces' upper bounds, ascending, for bisection
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
        object.__setattr__(self, "_bounds", tuple(piece.hi.key for piece in self.pieces))

    def apply(self, score: Score) -> Score:
        if score.chain != self.chain:
            raise IncompatibleChainError(f"{score!r} is not on this map's chain")
        if score.is_bottom:
            return self.bottom_value
        # The only piece that can hold the score is the first one reaching it.
        i = bisect_left(self._bounds, score.key)
        if i < len(self.pieces) and self.pieces[i].lo.key < score.key:
            return self.pieces[i].value
        raise MapDomainError(f"score {score!r} outside every declared piece")


#: Decimal places of the grid that analytic map outputs are quantized onto.
GRID_PLACES = 6


@dataclass(frozen=True)
class AnalyticMap(OrderMap):
    """Map given by an expression in ``x`` over the rational carrier.

    Results are clamped into [0, 1] and quantized onto the 6-decimal grid
    before becoming chain elements.  Batch application refuses to proceed if
    rounding merges two distinct exact images, since that would silently
    destroy the embedding property; a map that merges scores by itself is
    left to its declared properties.
    """

    expr: exprs.Expr
    declared: frozenset = frozenset()

    @classmethod
    def parse(cls, text: str, declared: Iterable[str] = ()) -> "AnalyticMap":
        return cls(exprs.parse_expr(text), declared=frozenset(declared))

    def apply(self, score: Score) -> Score:
        return score.chain.score(quantize(self._exact()(score), GRID_PLACES))

    def _exact(self) -> Callable[[Score], exprs.Number]:
        """A score's image clamped into [0, 1], not rounded; compiled once, for one batch.

        Returned, never stored on the map, so the map still pickles.
        """
        run = exprs.compile_expr(self.expr)

        def exact(score: Score) -> exprs.Number:
            if not score.chain.is_rational:
                raise UnsupportedOperationError("analytic maps require the rational carrier")
            return clamp01(run({"x": score.value}))
        return exact

    def apply_all(self, scores: Iterable[Score]) -> dict[Score, Score]:
        exact = self._exact()
        unrounded = {s: exact(s) for s in set(scores)}
        out = {s: s.chain.score(quantize(v, GRID_PLACES)) for s, v in unrounded.items()}
        rounded = len({img.value for img in out.values()})
        # Exact images are hashed only on a collision: big Fractions hash slowly.
        if rounded < len(out) and rounded < len(set(unrounded.values())):
            raise QuantizationError(
                f"quantization to {GRID_PLACES} decimals merges distinct images of "
                f"the {len(out)} scores given; refusing to transform"
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
        ordered = tuple(sorted(items, key=lambda kv: kv[0].key))
        return cls(ordered, declared=frozenset(declared))

    def apply(self, score: Score) -> Score:
        try:
            return self._images[score]  # scores hash by (chain, value)
        except KeyError:
            raise MapDomainError(f"score {score!r} outside the map's finite graph") from None


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
    d1-score reaches ``a`` (empty set of such rows: top).  Floors never
    decrease with the level, so each piece ``(previous level, level]`` takes
    that level's floor, and ``(last level, top]`` takes top.  It agrees with
    d2 on d1's answer set, so ``compose_table(d1, f) == d2`` holds exactly
    when every tuple d1 leaves out also scores bottom in d2.  That is always
    so over an unbounded attribute type, but not on an explicitly finite
    domain that d2 covers beyond d1.
    """
    if d1.scheme != d2.scheme:
        raise NotIncludedError("tables on different schemes are never ordinally included")
    floors, decode, escaping = _rank_profile(d1, d2)
    if escaping:
        raise NotIncludedError("first table is not ordinally included in the second")
    chain = d1.chain
    ends = [(decode[level], decode[floor]) for level, floor in sorted(floors.items()) if level]
    if not ends or not ends[-1][0].is_top:
        ends.append((chain.top, chain.top))  # past every level: top
    pieces: list[Piece] = []
    lo = chain.bottom
    for hi, value in ends:
        if pieces and pieces[-1].value == value:
            pieces[-1] = Piece(pieces[-1].lo, hi, value)
        else:
            pieces.append(Piece(lo, hi, value))
        lo = hi
    return PiecewiseConstantMap(chain, chain.bottom, tuple(pieces),
                                declared=frozenset(("preserving",)))


def witness_isomorphism(d1: RankedTable, d2: RankedTable) -> GraphMap:
    """An order isomorphism between the two ranges carrying d1 onto d2.

    Only exists when the tables are ordinally equivalent.  Then each d1
    level's floor is the d2 value at that level, and bottom is a level exactly
    when some tuple lies outside d1, so the floors match the ranges rank by rank.
    """
    if d1.scheme != d2.scheme:
        raise NotEquivalentError("tables are not ordinally equivalent")
    floors, decode, escaping = _rank_profile(d1, d2)
    if escaping or not ordinally_included(d2, d1):
        raise NotEquivalentError("tables are not ordinally equivalent")
    graph = {decode[level]: decode[floor] for level, floor in floors.items()}
    return GraphMap.of(graph, declared=("embedding", "isomorphism"))

