"""Monotone self-maps of the score chain and their application to tables.

An :class:`OrderMap` transforms scores; composing a table with one transforms
every stored score pointwise.  Three representations are provided:

* piecewise-constant over half-open pieces ``(lo, hi] -> value`` plus an
  explicit value at bottom (finitely checkable; also the shape of
  :func:`ordinal.canonical_map`);
* analytic expressions over the rational carrier, quantized onto the
  ``chain.GRID_PLACES``-decimal grid (with an injectivity check on the exact
  images actually produced, so the grid can never silently merge two of them);
* explicit finite graphs of (input, output) pairs.

Order-theoretic properties (preserving / reflecting / embedding /
isomorphism-on-range) are verified on the finite score sets a map is applied
to, which is all the algebra ever needs and keeps verification decidable.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable, Iterable, Mapping

from . import exprs
from .chain import GRID_PLACES, Score, ScoreChain, clamp01, quantize
from .errors import (
    IncompatibleChainError,
    MapDomainError,
    MapPropertyError,
    QuantizationError,
    UnsupportedOperationError,
)
from .table import RankedTable

PROPERTIES = (
    "preserving", "reflecting", "embedding", "isomorphism",
    "fixed-bottom", "fixed-top",
)


class OrderMap:
    """Base interface; concrete maps implement :meth:`apply`."""

    #: properties the map claims, each in PROPERTIES; verified on the scores it is applied to
    declared: frozenset = frozenset()

    def __post_init__(self) -> None:
        if unknown := sorted(set(self.declared) - set(PROPERTIES)):
            raise MapPropertyError(f"unknown map property {unknown[0]!r}; known: {PROPERTIES}")

    def apply(self, score: Score) -> Score:
        raise NotImplementedError

    def apply_all(self, scores: Iterable[Score]) -> list[Score]:
        """Images of a batch, in its order; single hook for per-batch consistency checks."""
        return [self.apply(s) for s in scores]


def _input_key(pair: tuple[Score, Score]) -> tuple:
    return pair[0].key


def verify_declared(f: OrderMap, graph: Iterable[tuple[Score, Score]]) -> None:
    """Check every declared property of ``f`` on a finite graph of (input, image) pairs.

    Pairs with equal inputs collapse to one first, so distinct objects of one
    score never fail reflection.  ``fixed-top`` holds when the greatest input
    is top and its image is top; ``fixed-bottom`` always holds, since
    :func:`apply_checked` refuses a map that moves bottom before it gets here.
    """
    pairs = [next(equal) for _, equal in groupby(sorted(graph, key=_input_key), _input_key)]
    values = [image.key for _, image in pairs]
    preserving = all(a <= b for a, b in zip(values, values[1:]))
    # On a chain with a <= b already established, reflection fails exactly
    # when two distinct inputs collapse or swap.
    reflecting = all(a < b for a, b in zip(values, values[1:]))
    greatest, image = pairs[-1]
    for name in f.declared:
        if name == "preserving" and not preserving:
            raise MapPropertyError("map declared order preserving but is not on these scores")
        if name == "reflecting" and not reflecting:
            raise MapPropertyError("map declared order reflecting but is not on these scores")
        if name in ("embedding", "isomorphism") and not (preserving and reflecting):
            raise MapPropertyError(f"map declared {name} but does not embed these scores")
        if name == "fixed-top" and not (greatest.is_top and image.is_top):
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
        super().__post_init__()
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


@dataclass(frozen=True)
class AnalyticMap(OrderMap):
    """Map given by an expression in ``x`` over the rational carrier.

    Results are clamped into [0, 1] and quantized onto the score grid
    (``chain.GRID_PLACES`` decimals) before becoming chain elements.  Batch
    application refuses to proceed if rounding merges two distinct exact
    images, since that would silently destroy the embedding property; a map
    that merges scores by itself is left to its declared properties.
    """

    expr: exprs.Expr
    declared: frozenset = frozenset()

    @classmethod
    def parse(cls, text: str, declared: Iterable[str] = ()) -> "AnalyticMap":
        return cls(exprs.parse_expr(text), declared=frozenset(declared))

    def apply(self, score: Score) -> Score:
        return score.chain.score(quantize(self._exact()(score)))

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

    def apply_all(self, scores: Iterable[Score]) -> list[Score]:
        scores = list(scores)
        exact = self._exact()
        unrounded = [exact(s) for s in scores]
        # one chain builds every image, one object per value: merged images share an id
        chain = scores[0].chain if scores else None
        out = [chain.score(quantize(v)) for v in unrounded]
        rounded = len(set(map(id, out)))
        # Exact images are hashed only on a collision: big Fractions hash slowly.
        if rounded < len(out) and rounded < len(set(unrounded)):
            raise QuantizationError(
                f"quantization to {GRID_PLACES} decimals merges distinct images of "
                f"the {len({s.value for s in scores})} scores given; refusing to transform"
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
        super().__post_init__()
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
                  chain: ScoreChain) -> dict[int, Score]:
    """Images of stored scores under f, keyed by the ``id`` of each score object.

    Requires f(bottom) = bottom, otherwise every absent tuple (possibly
    infinitely many) would move off bottom.  The distinct objects given go
    through one batch application, which runs the map's own consistency
    checks; every image must lie on ``chain``; declared map properties are
    verified on the graph of the scores given, plus bottom and top.  No
    score is hashed here.  A chain keeps one object per value, so scores
    built by chain methods reach the map once per value; distinct objects
    of one value, built by ``Score`` itself, are each mapped, to equal
    images.  The ids stay valid while the objects live: the caller's table
    or interpretations hold them while it reads the images.
    """
    try:
        keeps_bottom = f.apply(chain.bottom).is_bottom
    except MapDomainError:
        keeps_bottom = False
    if not keeps_bottom:
        raise MapPropertyError(
            "order map does not send bottom to bottom; absent tuples would "
            "stop scoring bottom"
        )
    distinct = {id(score): score for score in scores}
    images = f.apply_all(distinct.values())
    if any(image.chain != chain for image in images):
        raise IncompatibleChainError("the map sends scores off the table's chain")
    if f.declared:
        graph = [*zip(distinct.values(), images), (chain.bottom, chain.bottom)]
        try:
            graph.append((chain.top, f.apply(chain.top)))
        except MapDomainError:
            pass
        verify_declared(f, graph)
    return dict(zip(distinct, images))


def compose_table(table: RankedTable, f: OrderMap) -> RankedTable:
    """Pointwise transform of a table's scores: row r scores f(old score).

    The map is checked by :func:`apply_checked` on the table's range, and
    rows whose image is bottom drop out.  Each row reads its image by the
    ``id`` of its score, so no score is hashed per row.
    """
    images = apply_checked(f, (score for _, score in table), table.chain)
    entries = {row: image for row, score in table
               if not (image := images[id(score)]).is_bottom}
    return RankedTable._trusted(table.scheme, table.chain, entries)
