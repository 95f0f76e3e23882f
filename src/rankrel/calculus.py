"""Many-valued first-order evaluation over finite structures, and the two
translations between formulas and relational expressions.

Formulas are built from falsum, atoms, conjunction, implication, and the two
quantifiers; disjunction, negation, and biconditional are expanded into that
core at construction time.  A structure interprets every relation symbol as
a finite score assignment over vectors of a finite universe, so quantifier
infima and suprema always exist and every formula with free variables
denotes a ranked table (free variables double as attribute names; types are
deliberately ignored, values travel as strings).

Formula syntax accepted by :func:`parse_formula` (names and keywords are
case-insensitive, read in lower case as in queries)::

    forall x. (r(x, y) -> s(y))
    exists x. (p(x) & ~q(x, x)) | false
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Union

from .chain import RATIONAL, Score, ScoreChain, max_score, meet, min_score, residuum
from .errors import EvalError, ParseError, SchemeError, UnsupportedOperationError
from .exprs import TokenCursor
from .maps import OrderMap, apply_checked
from .table import STR, RankedTable, Row, Scheme, from_classic


# --- formulas ---------------------------------------------------------------


@dataclass(frozen=True)
class Falsum:
    def __str__(self) -> str:
        return "false"


@dataclass(frozen=True)
class Atom:
    symbol: str
    args: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.symbol}({', '.join(self.args)})"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return f"({self.left} & {self.right})"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return f"({self.left} -> {self.right})"


@dataclass(frozen=True)
class ForAll:
    var: str
    body: "Formula"

    def __str__(self) -> str:
        return f"forall {self.var}. {self.body}"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"

    def __str__(self) -> str:
        return f"exists {self.var}. {self.body}"


Formula = Union[Falsum, Atom, And, Implies, ForAll, Exists]


def Not(phi: Formula) -> Formula:
    return Implies(phi, Falsum())


def Iff(phi: Formula, psi: Formula) -> Formula:
    return And(Implies(phi, psi), Implies(psi, phi))


def Or(phi: Formula, psi: Formula) -> Formula:
    # ((phi -> psi) -> psi) & ((psi -> phi) -> phi): evaluates to the
    # supremum on any chain.
    return And(Implies(Implies(phi, psi), psi), Implies(Implies(psi, phi), phi))


def _variables(phi: Formula, bound: frozenset[str] = frozenset()):
    """Every variable occurrence with whether it is free; binders count as bound."""
    if isinstance(phi, Atom):
        for var in phi.args:
            yield var, var not in bound
    elif isinstance(phi, (And, Implies)):
        yield from _variables(phi.left, bound)
        yield from _variables(phi.right, bound)
    elif isinstance(phi, (ForAll, Exists)):
        yield phi.var, False
        yield from _variables(phi.body, bound | {phi.var})


def free_vars(phi: Formula) -> tuple[str, ...]:
    """Free variables in order of first appearance."""
    return tuple(dict.fromkeys(var for var, free in _variables(phi) if free))


def _all_vars(phi: Formula) -> set[str]:
    return {var for var, _ in _variables(phi)}


# --- structures -------------------------------------------------------------


@dataclass(frozen=True)
class Structure:
    """A finite interpretation: universe plus per-symbol score assignments.

    Interpretations are finite-support (absent vectors score bottom), hence
    the structure is safe: quantifier infima and suprema always exist.
    Universe elements are plain strings.
    """

    chain: ScoreChain
    universe: tuple[str, ...]
    arities: Mapping[str, int]
    interps: Mapping[str, Mapping[tuple[str, ...], Score]]

    def __post_init__(self) -> None:
        if not self.universe:
            raise EvalError("structure universe must be non-empty")
        for symbol, interp in self.interps.items():
            arity = self.arities.get(symbol)
            if arity is None:
                raise EvalError(f"interpretation for undeclared symbol {symbol!r}")
            for vector, score in interp.items():
                if len(vector) != arity:
                    raise EvalError(f"vector {vector!r} does not match arity of {symbol!r}")
                if score.chain != self.chain:
                    raise EvalError(f"score {score!r} is off the structure's chain")

    def lookup(self, symbol: str, vector: tuple[str, ...]) -> Score:
        if symbol not in self.arities:
            raise EvalError(f"unknown relation symbol {symbol!r}")
        if len(vector) != self.arities[symbol]:
            raise EvalError(f"arity mismatch for {symbol!r}")
        return self.interps.get(symbol, {}).get(vector, self.chain.bottom)

    def compose(self, f: OrderMap) -> "Structure":
        """Transform every interpretation pointwise; entries sent to bottom drop.

        The map is checked as :func:`maps.compose_table` checks it, on every
        score the interpretations hold.
        """
        images = apply_checked(
            f, {score for interp in self.interps.values() for score in interp.values()},
            self.chain,
        )
        interps = {
            symbol: {v: images[s] for v, s in interp.items() if not images[s].is_bottom}
            for symbol, interp in self.interps.items()
        }
        return Structure(self.chain, self.universe, dict(self.arities), interps)


def evaluate(phi: Formula, m: Structure, valuation: Mapping[str, str]) -> Score:
    """Value of a formula under a valuation of its free variables."""
    if isinstance(phi, Falsum):
        return m.chain.bottom
    if isinstance(phi, Atom):
        vector = []
        for var in phi.args:
            if var not in valuation:
                raise EvalError(f"unbound variable {var!r}")
            vector.append(valuation[var])
        return m.lookup(phi.symbol, tuple(vector))
    if isinstance(phi, And):
        return meet(evaluate(phi.left, m, valuation), evaluate(phi.right, m, valuation))
    if isinstance(phi, Implies):
        return residuum(evaluate(phi.left, m, valuation), evaluate(phi.right, m, valuation))
    if isinstance(phi, (ForAll, Exists)):
        values = []
        scoped = dict(valuation)
        for element in m.universe:
            scoped[phi.var] = element
            values.append(evaluate(phi.body, m, scoped))
        if isinstance(phi, ForAll):
            return min_score(values, m.chain.top)
        return max_score(values, m.chain.bottom)
    raise EvalError(f"unknown formula node {phi!r}")


#: Most valuations ``table_of`` may visit: the universe size raised to the
#: number of distinct variables, free and bound.
VALUATION_CAP = 1_000_000


def table_of(m: Structure, phi: Formula) -> RankedTable:
    """The ranked table a formula denotes: free variables become attributes.

    Raises ``UnsupportedOperationError`` before any work when the formula
    would visit more than ``VALUATION_CAP`` valuations.
    """
    count = len(m.universe) ** len(_all_vars(phi))
    if count > VALUATION_CAP:
        raise UnsupportedOperationError(
            f"formula needs {count:,} valuations over a {len(m.universe)}-element "
            f"universe, above the cap of {VALUATION_CAP:,}"
        )
    variables = free_vars(phi)
    entries = {}
    for values in itertools.product(m.universe, repeat=len(variables)):
        valuation = dict(zip(variables, values))
        score = evaluate(phi, m, valuation)
        if not score.is_bottom:
            entries[Row.of(valuation)] = score
    return RankedTable(Scheme((var, STR) for var in variables), m.chain, entries)


# --- formula -> relational expression ---------------------------------------


def formula_to_algebra(phi: Formula, m: Structure):
    """Compile a formula into a query expression plus the base tables it needs.

    Returns ``(expr, tables)``; evaluating ``expr`` over ``tables`` yields
    exactly ``table_of(m, phi)``.  Universal quantification compiles to the
    division, with active-domain tables (every universe element at score
    top) supplying the dividend and divisor; implication compiles to the
    bounded residuum after aligning both sides on a common scheme through
    joins with those same active-domain tables.
    """
    from . import planner

    tables: dict[str, RankedTable] = {}
    counter = [0]

    def fresh(prefix: str) -> str:
        counter[0] += 1
        return f"__{prefix}_{counter[0]}"

    def universe_expr(var: str) -> planner.QueryExpr:
        name = fresh(f"dom_{var}")
        rows = (Row.of({var: element}) for element in m.universe)
        tables[name] = from_classic(rows, Scheme(((var, STR),)), m.chain)
        return planner.Base(name)

    def all_of(variables) -> planner.QueryExpr:
        if not variables:
            name = fresh("unit")
            tables[name] = from_classic([Row.of({})], Scheme(()), m.chain)
            return planner.Base(name)
        expr = universe_expr(variables[0])
        for var in variables[1:]:
            expr = planner.Join(expr, universe_expr(var))
        return expr

    def pad(expr: planner.QueryExpr, have: tuple[str, ...], want: tuple[str, ...]):
        for var in want:
            if var not in have:
                expr = planner.Join(expr, universe_expr(var))
        return expr

    def compile_node(node: Formula) -> planner.QueryExpr:
        if isinstance(node, Falsum):
            name = fresh("empty")
            tables[name] = RankedTable.empty(Scheme(()), m.chain)
            return planner.Base(name)
        if isinstance(node, Atom):
            name = fresh(f"atom_{node.symbol}")
            tables[name] = _atom_table(m, node)
            return planner.Base(name)
        if isinstance(node, And):
            return planner.Join(compile_node(node.left), compile_node(node.right))
        if isinstance(node, Implies):
            joint = free_vars(node)
            left = pad(compile_node(node.left), free_vars(node.left), joint)
            right = pad(compile_node(node.right), free_vars(node.right), joint)
            return planner.Residuum(all_of(joint), left, right)
        if isinstance(node, Exists):
            inner = compile_node(node.body)
            body_vars = free_vars(node.body)
            if node.var not in body_vars:
                return inner
            keep = tuple(v for v in body_vars if v != node.var)
            return planner.Project(inner, keep)
        if isinstance(node, ForAll):
            body_vars = free_vars(node.body)
            mediator = compile_node(node.body)
            if node.var not in body_vars:
                mediator = planner.Join(mediator, universe_expr(node.var))
            keep = tuple(v for v in body_vars if v != node.var)
            return planner.Divide(all_of(keep), mediator, universe_expr(node.var))
        raise EvalError(f"unknown formula node {node!r}")

    return compile_node(phi), tables


def _atom_table(m: Structure, atom: Atom) -> RankedTable:
    """Interpretation of a relation symbol as a table on the atom's variables.

    Repeated variables keep only the diagonal vectors whose positions agree.
    """
    distinct = list(dict.fromkeys(atom.args))
    scheme = Scheme((var, STR) for var in distinct)
    entries: dict[Row, Score] = {}
    for vector, score in m.interps.get(atom.symbol, {}).items():
        if len(vector) != len(atom.args):
            raise EvalError(f"arity mismatch for {atom.symbol!r}")
        assignment: dict[str, str] = {}
        consistent = True
        for var, value in zip(atom.args, vector):
            if assignment.setdefault(var, value) != value:
                consistent = False
                break
        if consistent:
            entries[Row.of(assignment)] = score
    return RankedTable(scheme, m.chain, entries)


# --- relational expression -> formula ---------------------------------------


def algebra_to_formula(expr, tables: Mapping[str, RankedTable], conditions=None):
    """Translate a query over named base tables into a formula and structure.

    Supports join, restriction, projection, union, division, and renaming
    (semijoin unfolds into its defining projection of a join); difference
    and the residuum have no counterpart in this fragment and are rejected.

    Attribute names become variables.  The structure's universe collects
    every value appearing in the referenced base tables, as strings; the
    returned formula then satisfies
    ``table_of(structure, formula) == evaluate(expr over stringified tables)``.
    """
    from . import planner

    conditions = conditions or {}
    used: dict[str, RankedTable] = {}

    def collect_tables(node) -> None:
        if isinstance(node, planner.Base):
            if node.name not in tables:
                raise SchemeError(f"unknown base table {node.name!r}")
            used[node.name] = tables[node.name]
        for child in planner.children(node):
            collect_tables(child)

    collect_tables(expr)
    base = structure_from_tables(used)
    # Condition symbols are scored on typed values, so no two values may
    # share a string form; the placeholder of an empty universe stays a string.
    typed: dict[str, object] = {}
    for table in used.values():
        for row, _ in table:
            for _, value in row.items:
                if typed.setdefault(str(value), value) != value:
                    raise UnsupportedOperationError(
                        f"values {typed[str(value)]!r} and {value!r} collide as {str(value)!r}"
                    )
    values = [typed.get(text, text) for text in base.universe]
    arities, interps = dict(base.arities), dict(base.interps)
    counter = [0]

    def condition_formula(cond, scheme: Scheme) -> Formula:
        counter[0] += 1
        symbol = f"__cond_{counter[0]}"
        variables = scheme.names
        entries: dict[tuple[str, ...], Score] = {}
        for combo in itertools.product(values, repeat=len(variables)):
            try:
                row = Row.of(dict(zip(variables, combo)))
                score = cond.score_of(row, base.chain)
            except (EvalError, SchemeError):
                continue  # type-mismatched combination: only reachable at score 0
            if not score.is_bottom:
                entries[tuple(str(v) for v in combo)] = score
        arities[symbol] = len(variables)
        interps[symbol] = entries
        return Atom(symbol, variables)

    def translate(node) -> Formula:
        if isinstance(node, planner.Base):
            return Atom(node.name, tables[node.name].scheme.names)
        if isinstance(node, planner.Join):
            return And(translate(node.left), translate(node.right))
        if isinstance(node, planner.Restrict):
            child = translate(node.child)
            cond = planner.resolve_condition(node.condition, conditions)
            scheme = planner.infer_scheme_over(node.child, tables, conditions)
            deps = cond.free_attrs()
            cond_scheme = scheme if deps is None else scheme.project(
                tuple(deps & scheme.name_set)
            )
            return And(child, condition_formula(cond, cond_scheme))
        if isinstance(node, planner.Project):
            child = translate(node.child)
            child_scheme = planner.infer_scheme_over(node.child, tables, conditions)
            dropped = sorted(child_scheme.name_set - {a.lower() for a in node.attrs})
            for var in dropped:
                child = Exists(var, child)
            return child
        if isinstance(node, planner.Union):
            return Or(translate(node.left), translate(node.right))
        if isinstance(node, planner.Divide):
            dividend = translate(node.dividend)
            mediator = translate(node.mediator)
            divisor = translate(node.divisor)
            shared = sorted(planner.infer_scheme_over(node.divisor, tables, conditions).name_set)
            body: Formula = Implies(divisor, mediator)
            for var in reversed(shared):
                body = ForAll(var, body)
            return And(dividend, body)
        if isinstance(node, planner.Rename):
            child = translate(node.child)
            return _rename_free(child, {old: new for old, new in node.mapping})
        if isinstance(node, planner.Semijoin):
            unfolded = planner.Project(
                planner.Join(node.left, node.right),
                planner.infer_scheme_over(node.left, tables, conditions).names,
            )
            return translate(unfolded)
        raise UnsupportedOperationError(
            f"{type(node).__name__} has no formula counterpart in this fragment"
        )

    formula = translate(expr)
    return formula, Structure(base.chain, base.universe, arities, interps)


def _rename_free(phi: Formula, mapping: Mapping[str, str]) -> Formula:
    """Rename free variables, alpha-renaming binders to avoid capture."""
    if not mapping or isinstance(phi, Falsum):
        return phi
    if isinstance(phi, Atom):
        return Atom(phi.symbol, tuple(mapping.get(a, a) for a in phi.args))
    if isinstance(phi, And):
        return And(_rename_free(phi.left, mapping), _rename_free(phi.right, mapping))
    if isinstance(phi, Implies):
        return Implies(_rename_free(phi.left, mapping), _rename_free(phi.right, mapping))
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


def structure_from_tables(tables: Mapping[str, RankedTable]) -> Structure:
    """Treat each named table as a relation symbol; vectors follow column order."""
    chain = None
    universe: set[str] = set()
    arities: dict[str, int] = {}
    interps: dict[str, dict[tuple[str, ...], Score]] = {}
    for name, table in tables.items():
        if chain is None:
            chain = table.chain
        elif chain != table.chain:
            raise UnsupportedOperationError("structure tables must share one chain")
        columns = table.scheme.names
        arities[name] = len(columns)
        entries = {}
        for row, score in table:
            vector = tuple(str(row.value(c)) for c in columns)
            universe.update(vector)
            entries[vector] = score
        interps[name] = entries
    if chain is None:
        chain = RATIONAL
    if not universe:
        universe.add("__nil__")
    return Structure(chain, tuple(sorted(universe)), arities, interps)


def stringified(table: RankedTable) -> RankedTable:
    """The same table with every value replaced by its string form."""
    scheme = Scheme((name, STR) for name in table.scheme.names)
    entries = {
        Row.of({name: str(row.value(name)) for name in table.scheme.names}): score
        for row, score in table
    }
    return RankedTable(scheme, table.chain, entries)


# --- formula parser ---------------------------------------------------------


class _FormulaParser(TokenCursor):
    def phrase(self) -> Formula:
        return self.implication()

    def implication(self) -> Formula:
        left = self.disjunction()
        op = self.peek().text
        if op == "->":
            self.advance()
            return Implies(left, self.implication())
        if op == "<->":
            self.advance()
            return Iff(left, self.implication())
        return left

    def disjunction(self) -> Formula:
        phi = self.conjunction()
        while self.peek().text == "|":
            self.advance()
            phi = Or(phi, self.conjunction())
        return phi

    def conjunction(self) -> Formula:
        phi = self.unary()
        while self.peek().text == "&":
            self.advance()
            phi = And(phi, self.unary())
        return phi

    def unary(self) -> Formula:
        token = self.advance()
        if token.text == "~":
            return Not(self.unary())
        if token.text == "(":
            phi = self.implication()
            self.expect(")")
            return phi
        if token.kind != "name":
            raise ParseError(f"unexpected token {token.text or 'end'!r} in formula",
                             column=token.pos)
        name = token.text.lower()
        if name in ("forall", "exists"):
            var = self.variable("quantifier needs a variable")
            self.expect(".")
            body = self.implication()
            return ForAll(var, body) if name == "forall" else Exists(var, body)
        if name == "false":
            return Falsum()
        if self.peek().text != "(":
            return Atom(name, ())
        self.advance()
        args = []
        if self.peek().text != ")":
            args.append(self.variable("atom arguments must be variables"))
            while self.peek().text == ",":
                self.advance()
                args.append(self.variable("atom arguments must be variables"))
        self.expect(")")
        return Atom(name, tuple(args))

    def variable(self, message: str) -> str:
        token = self.advance()
        if token.kind != "name":
            raise ParseError(message, column=token.pos)
        return token.text.lower()


def parse_formula(text: str) -> Formula:
    return _FormulaParser(text).parse()
