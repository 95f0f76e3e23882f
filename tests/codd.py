"""The reverse Codd translation: a query expression as a formula and structure.

A reference implementation that cross-checks the calculus against the
algebra, after Bělohlávek and Vychodil's Codd theorem for Gödel logic: a
query evaluated by ``planner`` and its translation evaluated by
``calculus.table_of`` give the same ranked table.  No command calls it; its
two callers are criterion 09 in ``tests/test_acceptance.py`` and
``TestAlgebraToFormula`` in ``tests/test_calculus.py``.
"""

from __future__ import annotations

import itertools
from typing import Mapping

from rankrel import planner
from rankrel.calculus import (
    And, Atom, Exists, Falsum, ForAll, Formula, Implies, Or, Structure,
    _check_valuations, _variables, structure_from_tables,
)
from rankrel.chain import Score
from rankrel.conditions import ComposedCondition
from rankrel.errors import EvalError, SchemeError, UnknownNameError, UnsupportedOperationError
from rankrel.maps import apply_checked
from rankrel.table import RankedTable, Row, Scheme, column_plan, row_cells, values_of


def _all_vars(phi: Formula) -> set[str]:
    return {var for var, _ in _variables(phi)}


def algebra_to_formula(expr, tables: Mapping[str, RankedTable], conditions=None):
    """Translate a query over named base tables into a formula and structure.

    Supports join, restriction, projection, union, division, and renaming
    (semijoin unfolds into its defining projection of a join); difference
    and the residuum have no counterpart in this fragment and are rejected.

    Attribute names become variables.  The structure's universe collects
    every value appearing in the referenced base tables, as its CSV text; the
    returned formula then satisfies
    ``table_of(structure, formula) == evaluate(expr over stringified tables)``.
    Each restriction condition becomes a relation symbol tabulated over the
    universe; one needing more than ``VALUATION_CAP`` combinations is refused.
    """
    conditions = conditions or {}
    translatable = (planner.Join, planner.Restrict, planner.Project, planner.Union,
                    planner.Divide, planner.Rename, planner.Semijoin)
    used: dict[str, RankedTable] = {}
    pending: list[tuple] = []  # (symbol, condition, scheme scored), tabulated after the fold

    def exists_out(phi: Formula, scheme: Scheme, kept: Scheme) -> Formula:
        for var in sorted(scheme.name_set - kept.name_set):
            phi = Exists(var, phi)
        return phi

    @planner.located
    def translate(node, kids, path) -> tuple[Formula, Scheme]:
        if isinstance(node, planner.Base):
            if node.name not in tables:
                raise UnknownNameError(f"unknown table {node.name!r}")
            table = used[node.name] = tables[node.name]
            return Atom(node.name, table.scheme.names), table.scheme
        if not isinstance(node, translatable):
            raise UnsupportedOperationError(
                f"{type(node).__name__} has no formula counterpart in this fragment"
            )
        formulas, schemes = zip(*kids)
        args = planner.with_param(node, list(schemes), conditions)
        scheme = planner.OPERATORS[type(node)].scheme(*args)
        if isinstance(node, planner.Join):
            return And(*formulas), scheme
        if isinstance(node, planner.Restrict):
            cond = args[-1]
            scored = scheme.project(cond.free_attrs())
            symbol = f"__cond_{len(pending) + 1}"
            pending.append((symbol, cond, scored))
            return And(formulas[0], Atom(symbol, scored.names)), scheme
        if isinstance(node, planner.Project):
            return exists_out(formulas[0], schemes[0], scheme), scheme
        if isinstance(node, planner.Union):
            return Or(*formulas), scheme
        if isinstance(node, planner.Divide):
            dividend, mediator, divisor = formulas
            body: Formula = Implies(divisor, mediator)
            for var in sorted(schemes[2].name_set, reverse=True):
                body = ForAll(var, body)
            return And(dividend, body), scheme
        if isinstance(node, planner.Rename):
            # the scheme rule above has checked the pairs: no name is renamed twice
            renaming = {old.lower(): new.lower() for old, new in args[-1]}
            return _rename_free(formulas[0], renaming), scheme
        # Semijoin: the projection of the join onto the left scheme.
        return exists_out(And(*formulas), schemes[0].union(schemes[1]), scheme), scheme

    formula, _ = planner.fold(expr, translate)
    base = structure_from_tables(used)
    # Condition symbols are scored on typed values, so no two values may
    # share a text; the placeholder of an empty universe stays a string.
    typed: dict[str, object] = {}
    for table in used.values():
        plan = column_plan(table.scheme, table.scheme.names)
        values = values_of(table.scheme, table.scheme.names)
        for row, _ in table:
            for value, text in zip(values(row), row_cells(row, plan)):
                if typed.setdefault(text, value) != value:
                    raise UnsupportedOperationError(
                        f"values {typed[text]!r} and {value!r} collide as {text!r}"
                    )
    arities, interps = dict(base.arities), dict(base.interps)
    for symbol, cond, scored in pending:
        variables = scored.names
        _check_valuations("condition", len(base.universe), len(base.universe) ** len(variables))
        order_maps = []  # outermost first
        while isinstance(cond, ComposedCondition):
            order_maps.append(cond.order_map)
            cond = cond.base
        score_of = cond.scorer(scored, base.chain)
        entries: dict[tuple[str, ...], Score] = {}
        for vector in itertools.product(base.universe, repeat=len(variables)):
            try:
                score = score_of(Row.of({var: typed.get(text, text)
                                         for var, text in zip(variables, vector)}))
            except (EvalError, SchemeError):
                continue  # type-mismatched combination: only reachable at score 0
            if not score.is_bottom:
                entries[vector] = score
        arities[symbol] = len(variables)
        for order_map in reversed(order_maps):  # innermost first; each map fixes bottom
            images = apply_checked(order_map, entries.values(), base.chain)
            entries = {vector: image for vector, score in entries.items()
                       if not (image := images[id(score)]).is_bottom}
        interps[symbol] = entries
    return formula, Structure(base.chain, base.universe, arities, interps)


def _rename_free(phi: Formula, mapping: Mapping[str, str]) -> Formula:
    """Rename free variables, alpha-renaming binders to avoid capture."""
    if not mapping or isinstance(phi, Falsum):
        return phi
    if isinstance(phi, Atom):
        return Atom(phi.symbol, tuple(mapping.get(a, a) for a in phi.args))
    if isinstance(phi, (And, Or, Implies)):
        return type(phi)(_rename_free(phi.left, mapping), _rename_free(phi.right, mapping))
    if isinstance(phi, (ForAll, Exists)):
        var, body = phi.var, phi.body
        inner = {old: new for old, new in mapping.items() if old != var}
        if var in inner.values():
            taken = _all_vars(body) | set(inner) | set(inner.values())
            fresh = var
            while fresh in taken:
                fresh += "_"
            body = _rename_free(body, {var: fresh})
            var = fresh
        rebuilt = _rename_free(body, inner)
        return ForAll(var, rebuilt) if isinstance(phi, ForAll) else Exists(var, rebuilt)
    raise EvalError(f"unknown formula node {phi!r}")
