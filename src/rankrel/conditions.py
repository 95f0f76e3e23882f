"""Restriction conditions: total score-valued maps over the tuples of a scheme.

Two concrete flavors:

* :class:`ExprCondition` — an arithmetic/comparison expression over attribute
  values, clamped into [0, 1].  Scheme-flexible: it evaluates on any scheme
  that can resolve its attribute references (rational chains only).
* :class:`TableCondition` — an explicit finite score table; tuples outside
  the stored association score bottom.

Either flavor can be composed with an order map, giving the transformed
condition used by the invariance laws.

An operator scores a whole table through :meth:`Condition.scorer`, set up
once per call.  A condition's score is a function of the values of its free
attributes alone, so the expression and composed scorers memoise it on those
values and run once per distinct value tuple.  The memo is exact: stored
values are never floats or bools, and an int scores as the ``Fraction`` equal
to it, so values equal as keys score alike.  It lives only as long as the
operator call, and nothing compiled is kept on a condition, which therefore
still pickles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import exprs
from .chain import Score, ScoreChain, clamp01, quantize
from .errors import IncompatibleChainError, SchemeError, UnsupportedOperationError
from .table import RankedTable, Row, Scheme


class Condition:
    """Base interface for restriction conditions."""

    def score_of(self, row: Row, chain: ScoreChain) -> Score:
        raise NotImplementedError

    def scorer(self, scheme: Scheme, chain: ScoreChain) -> Callable[[Row], Score]:
        """:meth:`score_of` for rows over ``scheme``, set up once per operator call.

        It raises what ``score_of`` raises, on the same row, so a condition
        that cannot score on ``chain`` still restricts an empty table.
        """
        return lambda row: self.score_of(row, chain)

    def free_attrs(self):
        """Attribute names the condition depends on, or None when unknown."""
        raise NotImplementedError

    def check_scheme(self, scheme: Scheme) -> None:
        raise NotImplementedError

    def compose(self, order_map) -> "ComposedCondition":
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
        return self._compiled(chain)(row)

    def scorer(self, scheme: Scheme, chain: ScoreChain) -> Callable[[Row], Score]:
        return _memoised(scheme, self.free_attrs(), self._compiled(chain))

    def _compiled(self, chain: ScoreChain) -> Callable[[Row], Score]:
        run = exprs.compile_expr(self.expr)

        def score(row: Row) -> Score:
            if not chain.is_rational:
                raise UnsupportedOperationError(
                    "expression conditions require the rational chain; "
                    "use an explicit score table on symbolic chains"
                )
            value = run(row.as_dict())
            if isinstance(value, float):
                value = quantize(value)
            return chain.score(clamp01(Fraction(value)))
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
            return super().scorer(scheme, chain)  # score_of raises on the first row
        return self.table.score_of


@dataclass(frozen=True)
class ComposedCondition(Condition):
    """Pointwise composition f(theta(r)) of a condition with an order map."""

    base: Condition
    order_map: object  # OrderMap; typed loosely to avoid an import cycle

    def free_attrs(self):
        return self.base.free_attrs()

    def check_scheme(self, scheme: Scheme) -> None:
        self.base.check_scheme(scheme)

    def score_of(self, row: Row, chain: ScoreChain) -> Score:
        return self.order_map.apply(self.base.score_of(row, chain))

    def scorer(self, scheme: Scheme, chain: ScoreChain) -> Callable[[Row], Score]:
        base = self.base.scorer(scheme, chain)
        return _memoised(scheme, self.free_attrs(),
                         lambda row: self.order_map.apply(base(row)))


def _memoised(scheme: Scheme, names, score: Callable[[Row], Score]) -> Callable[[Row], Score]:
    """``score`` run once per distinct values of ``names`` (every attribute when None).

    Rows must be over ``scheme``.  Errors are not memoised: each row that
    raises, raises as ``score`` would.
    """
    positions = [i for i, name in enumerate(scheme.sorted_names) if names is None or name in names]
    memo: dict[tuple, Score] = {}

    def memoised(row: Row) -> Score:
        key = tuple([row[i][1] for i in positions])
        try:
            return memo[key]
        except KeyError:
            value = memo[key] = score(row)
            return value
    return memoised


def constant_condition(value) -> ExprCondition:
    """theta(r) = value for every tuple (value given as text or Fraction)."""
    if isinstance(value, Fraction):
        value = f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value)
    return ExprCondition.parse(str(value))


#: theta(r) = 1 everywhere; neutral for restriction on the rational chain.
ALWAYS = constant_condition(1)

#: theta(r) = 0 everywhere; restriction by it empties any table.
NEVER = constant_condition(0)
