"""Restriction conditions: total score-valued maps over the tuples of a scheme.

Two concrete flavors:

* :class:`ExprCondition` — an arithmetic/comparison expression over attribute
  values, clamped into [0, 1].  Scheme-flexible: it evaluates on any scheme
  that can resolve its attribute references (rational chains only).
* :class:`TableCondition` — an explicit finite score table; tuples outside
  the stored association score bottom.

Either flavor can be composed with an order map, giving the transformed
condition used by the invariance laws.

An operator scores rows through the :meth:`Condition.scorer` of the
condition under every composed map (:meth:`Condition.innermost`), set up once
per call, then passes the list of scores to :meth:`Condition.mapped`, which
makes one ``maps.apply_checked`` call per composed map, innermost first.  A
restriction scores a table by :meth:`Condition.scores_by_key`: one row per
distinct value tuple of the free attributes, which alone decide the score;
the calculus scores each distinct valuation of them once.  So a scorer
keeps no memo: the expression scorer runs its compiled closures once per
row it is given.  Nothing compiled is kept on a condition, which therefore
still pickles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from . import exprs
from .chain import Score, ScoreChain, clamp01, quantize
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

    def innermost(self) -> "Condition":
        """The condition under every composed map: the one that scores rows."""
        return self

    def mapped(self, scores: list[Score], chain: ScoreChain) -> list[Score]:
        """This condition's scores, in order, from its innermost condition's ``scores``."""
        return scores

    def scores_by_key(self, table: RankedTable) -> tuple[tuple[str, ...], dict[tuple, Score]]:
        """This condition's score of ``table``'s rows, once per value tuple of its free attributes.

        Returns the free attribute names in name order, and each distinct
        key of ``table.index(names)`` with its score, in first-occurrence
        table order; keys scoring bottom are left out.  The innermost
        condition scores each key's first row, so scorer calls and their
        errors come as a row-by-row scan in table order would bring them.
        """
        names = tuple(sorted(self.free_attrs() & table.scheme.name_set))
        index = table.index(names)
        score_of = self.innermost().scorer(table.scheme, table.chain)
        scores = self.mapped([score_of(bucket[0][0]) for bucket in index.values()], table.chain)
        return names, {key: score for key, score in zip(index, scores) if not score.is_bottom}

    def free_attrs(self):
        """Attribute names the condition depends on, or None when unknown."""
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
        run = exprs.compile_expr(self.expr)

        def score(env: Mapping[str, object]) -> Score:
            if not chain.is_rational:
                raise UnsupportedOperationError(
                    "expression conditions require the rational chain; "
                    "use an explicit score table on symbolic chains"
                )
            value = clamp01(run(env))
            return chain.score(quantize(value) if isinstance(value, float) else value)
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

    def free_attrs(self):
        return self.base.free_attrs()

    def check_scheme(self, scheme: Scheme) -> None:
        self.base.check_scheme(scheme)

    def score_of(self, row: Row, chain: ScoreChain) -> Score:
        return self.mapped([self.innermost().score_of(row, chain)], chain)[0]

    def innermost(self) -> Condition:
        return self.base.innermost()

    def mapped(self, scores: list[Score], chain: ScoreChain) -> list[Score]:
        scores = self.base.mapped(scores, chain)
        images = apply_checked(self.order_map, scores, chain) if scores else {}  # no rows, no map
        return [images[id(score)] for score in scores]

