"""Restriction conditions: total score-valued maps over the tuples of a scheme.

Two concrete flavors:

* :class:`ExprCondition` — an arithmetic/comparison expression over attribute
  values, clamped into [0, 1].  Scheme-flexible: it evaluates on any scheme
  that can resolve its attribute references (rational chains only).
* :class:`TableCondition` — an explicit finite score table; tuples outside
  the stored association score bottom.

Either flavor can be composed with an order map, giving the transformed
condition used by the invariance laws.

A restriction scores a table by :meth:`Condition.scores_by_key`: one row per
distinct value tuple of the free attributes, which alone decide the score,
through the condition's :meth:`Condition.scorer`, set up once per call.  A
composed condition maps its base's key scores as ``maps.compose_table`` maps
a table's: one ``maps.apply_checked`` batch of the distinct nonzero scores,
keys whose image is bottom dropped.  So a scorer keeps no memo of rows: the
expression scorer runs its compiled closures once per row it is given, and
turns each distinct result object into a score once.  Nothing compiled is
kept on a condition, which therefore still pickles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from . import exprs
from .chain import Score, ScoreChain, clamp01
from .errors import IncompatibleChainError, SchemeError, UnsupportedOperationError
from .maps import OrderMap, apply_checked
from .table import RankedTable, Row, Scheme, values_of


class Condition:
    """Base interface for restriction conditions."""

    def score_of(self, row: Row, chain: ScoreChain) -> Score:
        raise NotImplementedError

    def scorer(self, scheme: Scheme, chain: ScoreChain) -> Callable[[Row], Score]:
        """:meth:`score_of` for rows over ``scheme``, set up once per operator call.

        It raises what ``score_of`` raises, on the same row, so a condition
        that cannot score on ``chain`` still restricts an empty table.
        """
        raise NotImplementedError

    def scores_by_key(self, table: RankedTable) -> tuple[tuple[str, ...], dict[tuple, Score]]:
        """This condition's score of ``table``'s rows, once per value tuple of its free attributes.

        Returns the free attribute names in name order, and each distinct
        key of ``table.index(names)`` with its score, in first-occurrence
        table order; keys scoring bottom are left out.  The scorer scores
        each key's first row, so scorer calls and their errors come as a
        row-by-row scan in table order would bring them.
        """
        names = tuple(sorted(self.free_attrs() & table.scheme.name_set))
        index = table.index(names)
        score_of = self.scorer(table.scheme, table.chain)
        return names, {key: score for key, bucket in index.items()
                       if not (score := score_of(bucket[0][0])).is_bottom}

    def free_attrs(self) -> frozenset[str]:
        """Attribute names the condition depends on."""
        raise NotImplementedError

    def check_scheme(self, scheme: Scheme) -> None:
        raise NotImplementedError

    def compose(self, order_map: OrderMap) -> "ComposedCondition":
        return ComposedCondition(self, order_map)


@dataclass(frozen=True)
class ExprCondition(Condition):
    expr: exprs.Expr

    @classmethod
    def parse(cls, text: str) -> "ExprCondition":
        return cls(exprs.parse_expr(text))

    def free_attrs(self) -> frozenset[str]:
        return exprs.free_names(self.expr)

    def check_scheme(self, scheme: Scheme) -> None:
        missing = self.free_attrs() - scheme.name_set
        if missing:
            raise SchemeError(
                f"condition references {sorted(missing)} missing from scheme {scheme.names}"
            )

    def score_of(self, row: Row, chain: ScoreChain) -> Score:
        return self._compiled(chain)(dict(row))

    def scorer(self, scheme: Scheme, chain: ScoreChain) -> Callable[[Row], Score]:
        score, free = self._compiled(chain), sorted(self.free_attrs() & scheme.name_set)
        values = values_of(scheme, free)
        return lambda row: score(dict(zip(free, values(row))))

    def _compiled(self, chain: ScoreChain) -> Callable[[Mapping[str, object]], Score]:
        """The expression's scorer; each distinct result object becomes a score once.

        ``scored`` keeps ``id(result) -> (result, score)``, the result pinned
        so that its id is not reused.  A literal branch, or an argument passed
        through ``min``/``max``, is one object on every row; arithmetic makes
        a fresh one.  A result that fails is not kept, so it fails again.
        """
        run = exprs.compile_expr(self.expr)
        scored: dict[int, tuple[object, Score]] = {}

        def score(env: Mapping[str, object]) -> Score:
            if not chain.is_rational:
                raise UnsupportedOperationError(
                    "expression conditions require the rational chain; "
                    "use an explicit score table on symbolic chains"
                )
            raw = run(env)
            hit = scored.get(id(raw))
            if hit is not None:
                return hit[1]
            value = clamp01(raw)
            result = chain.on_grid(value) if isinstance(value, float) else chain.score(value)
            scored[id(raw)] = (raw, result)
            return result
        return score

    def __repr__(self) -> str:
        return f"ExprCondition({exprs.format_expr(self.expr)})"

    def __str__(self) -> str:
        return exprs.format_expr(self.expr)


@dataclass(frozen=True)
class TableCondition(Condition):
    """Condition backed by a ranked table; absent rows score bottom."""

    table: RankedTable

    def free_attrs(self) -> frozenset[str]:
        return self.table.scheme.name_set

    def check_scheme(self, scheme: Scheme) -> None:
        if scheme != self.table.scheme:
            raise SchemeError(
                f"condition scheme {self.table.scheme!r} differs from table scheme {scheme!r}"
            )

    def score_of(self, row: Row, chain: ScoreChain) -> Score:
        if chain != self.table.chain:
            raise IncompatibleChainError("condition table lives on a different chain")
        return self.table.score_of(row)

    def scorer(self, scheme: Scheme, chain: ScoreChain) -> Callable[[Row], Score]:
        if chain != self.table.chain:
            return lambda row: self.score_of(row, chain)  # raises on the first row
        return self.table.score_of


@dataclass(frozen=True)
class ComposedCondition(Condition):
    """Pointwise composition f(theta(r)) of a condition with an order map."""

    base: Condition
    order_map: OrderMap

    def free_attrs(self) -> frozenset[str]:
        return self.base.free_attrs()

    def check_scheme(self, scheme: Scheme) -> None:
        self.base.check_scheme(scheme)

    def score_of(self, row: Row, chain: ScoreChain) -> Score:
        score = self.base.score_of(row, chain)
        images = apply_checked(self.order_map, () if score.is_bottom else (score,), chain)
        return images.get(id(score), chain.bottom)

    def scores_by_key(self, table: RankedTable) -> tuple[tuple[str, ...], dict[tuple, Score]]:
        """The base's key scores through one checked batch of the map; keys sent to bottom drop."""
        names, scores = self.base.scores_by_key(table)
        if not len(table):  # no rows, no map: one that moves bottom restricts an empty table
            return names, scores
        images = apply_checked(self.order_map, scores.values(), table.chain)
        return names, {key: image for key, score in scores.items()
                       if not (image := images[id(score)]).is_bottom}
