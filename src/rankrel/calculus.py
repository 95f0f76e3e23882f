"""Many-valued first-order evaluation over finite structures, and the
translation of a formula into a relational expression.

Formulas are built from falsum, atoms, conjunction, disjunction, implication,
and the two quantifiers; negation and biconditional are expanded into that
core at construction time.  A structure interprets every relation symbol as
a finite score assignment over vectors of a finite universe, so quantifier
infima and suprema always exist and every formula with free variables
denotes a ranked table (free variables double as attribute names; types are
deliberately ignored, values travel as their CSV text).

Evaluation runs on rank codes: the distinct scores a structure stores, plus
bottom and top, numbered in order from 0.  Every connective (min, max, the
residuum, and the quantifiers' infima and suprema) only compares its
arguments and returns one of them, bottom or top, so a formula's code
decodes to exactly the score it has on the chain itself.

Formula syntax accepted by :func:`parse_formula` (names and keywords are
case-insensitive, read in lower case as in queries)::

    forall x. (r(x, y) -> s(y))
    exists x. (p(x) & ~q(x, x)) | false
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Callable, Mapping, Union

from . import planner
from .chain import RATIONAL, Score, ScoreChain, rank_codes
from .errors import EvalError, IncompatibleChainError, ParseError, UnsupportedOperationError
from .exprs import TokenCursor
from .maps import OrderMap, apply_checked
from .table import STR, RankedTable, Row, Scheme, column_plan, from_classic, row_cells


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
class Or:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return f"({self.left} | {self.right})"


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


Formula = Union[Falsum, Atom, And, Or, Implies, ForAll, Exists]


def Not(phi: Formula) -> Formula:
    return Implies(phi, Falsum())


def Iff(phi: Formula, psi: Formula) -> Formula:
    return And(Implies(phi, psi), Implies(psi, phi))


def _variables(phi: Formula, bound: frozenset[str] = frozenset()):
    """Every variable occurrence with whether it is free; binders count as bound."""
    if isinstance(phi, Atom):
        for var in phi.args:
            yield var, var not in bound
    elif isinstance(phi, (And, Or, Implies)):
        yield from _variables(phi.left, bound)
        yield from _variables(phi.right, bound)
    elif isinstance(phi, (ForAll, Exists)):
        yield phi.var, False
        yield from _variables(phi.body, bound | {phi.var})


def free_vars(phi: Formula) -> tuple[str, ...]:
    """Free variables in order of first appearance."""
    return tuple(dict.fromkeys(var for var, free in _variables(phi) if free))


# --- structures -------------------------------------------------------------


@dataclass(frozen=True)
class Structure:
    """A finite interpretation: universe plus per-symbol score assignments.

    Interpretations are finite-support (absent vectors score bottom), hence
    the structure is safe: quantifier infima and suprema always exist.
    Universe elements and vector entries are plain strings, and every vector
    entry is a universe element, checked here, so the tables built from a
    structure conform by construction and a quantifier may range over the
    vectors an atom stores.
    """

    chain: ScoreChain
    universe: tuple[str, ...]
    arities: Mapping[str, int]
    interps: Mapping[str, Mapping[tuple[str, ...], Score]]

    def __post_init__(self) -> None:
        if not self.universe:
            raise EvalError("structure universe must be non-empty")
        if not all(isinstance(element, str) for element in self.universe):
            raise EvalError("structure universe elements must be strings")
        universe = set(self.universe)
        for symbol, interp in self.interps.items():
            arity = self.arities.get(symbol)
            if arity is None:
                raise EvalError(f"interpretation for undeclared symbol {symbol!r}")
            # One set check per rule; the universe holds strings only, so the
            # first covers two.  The loops run only to name what breaks a rule.
            chains = set(map(id, map(attrgetter("chain"), interp.values())))
            if (universe.issuperset(itertools.chain.from_iterable(interp))
                    and set(map(len, interp)) <= {arity} and chains <= {id(self.chain)}):
                continue
            for element in itertools.chain.from_iterable(interp):
                if not isinstance(element, str):
                    raise EvalError(f"the vectors of {symbol!r} must hold strings only")
                if element not in universe:
                    raise EvalError(f"the vectors of {symbol!r} hold {element!r}, "
                                    "outside the universe")
            for vector, score in interp.items():
                if len(vector) != arity:
                    raise EvalError(f"vector {vector!r} does not match arity of {symbol!r}")
                if score.chain != self.chain:
                    raise IncompatibleChainError(f"score {score!r} is off the structure's chain")

    def check_atom(self, symbol: str, arity: int) -> None:
        """Raise unless ``symbol`` is declared, with ``arity`` arguments."""
        if symbol not in self.arities:
            raise EvalError(f"unknown relation symbol {symbol!r}")
        if arity != self.arities[symbol]:
            raise EvalError(f"arity mismatch for {symbol!r}")

    def compose(self, f: OrderMap) -> "Structure":
        """Transform every interpretation pointwise; entries sent to bottom drop.

        The map is checked as :func:`maps.compose_table` checks it, on every
        score the interpretations hold, and each entry reads its image by
        the ``id`` of its score.
        """
        images = apply_checked(
            f, (score for interp in self.interps.values() for score in interp.values()),
            self.chain,
        )
        interps = {
            symbol: {v: image for v, s in interp.items()
                     if not (image := images[id(s)]).is_bottom}
            for symbol, interp in self.interps.items()
        }
        return Structure(self.chain, self.universe, dict(self.arities), interps)


def evaluate(phi: Formula, m: Structure, valuation: Mapping[str, str]) -> Score:
    """Value of a formula under a valuation of its free variables.

    Compiles ``phi`` against ``m`` and runs it on rank codes.  The last
    compilation is kept, matched by identity on ``phi`` and ``m`` and by the
    valuation's names, so the per-valuation calls of :func:`table_of`, which
    compiles first, compile nothing; a structure whose interpretations are
    changed in place after that must be rebuilt to be seen.
    """
    global _last
    names = tuple(valuation)
    last = _last
    if last is None or last[0] is not phi or last[1] is not m or last[2] != names:
        last = _last = (phi, m, names, _compile(phi, m, names))
    run, decode, binders, _, _ = last[3]
    return decode[run([*valuation.values(), *binders])]


#: ``(phi, m, names, compiled)`` of the last compilation for :func:`evaluate`.
_last = None


def _compile(phi: Formula, m: Structure, names: tuple[str, ...]):
    """Compile a formula against a structure into one closure over rank codes.

    The codes are :func:`chain.rank_codes` of the interpretations' scores,
    plus bottom and top, from 0 to ``top``.  Returns
    ``(run, decode, binders, work, coded)``: ``run(env)`` is the code of the
    formula's value, where ``env`` holds the values of ``names`` followed by
    one slot per binder (``binders`` gives their initial contents), and
    ``decode[code]`` is the score.  ``coded`` maps each symbol's vectors above
    bottom to their codes.  ``work`` bounds the valuations one run visits:
    the largest product of range sizes (below) along a chain of quantifiers,
    one inside the other, and 1 with no quantifier.  Atoms are checked here,
    in evaluation order, so every error is raised before any short-cut could
    skip its branch.

    A quantifier over ``v`` ranges over the intersection of its guards'
    supports (:func:`_range`).  A guard is an atom holding ``v`` among the
    ``&`` conjuncts of an ``exists`` body, or of the antecedent of a
    ``forall`` body ``a -> b`` (``~a`` included).  A guard's other arguments
    are bound outside the quantifier, so its support is indexed here, once,
    by their values.  That is exact: outside one guard's support that guard
    is bottom, so the conjunction is too, which cannot raise a supremum, and
    ``a -> b`` is top, which cannot lower an infimum.  A quantifier with no
    guard ranges over the universe.
    """
    chain = m.chain
    stored = [s for interp in m.interps.values() for s in interp.values()]
    code, decode = rank_codes((chain.bottom, chain.top, *stored))
    top = len(decode) - 1
    coded = {symbol: {vector: c for vector, s in interp.items() if (c := code[id(s)])}
             for symbol, interp in m.interps.items()}
    universe = m.universe
    width = len(names)

    def build(node: Formula, scope: dict[str, int]):
        """``(closure, work)`` of ``node``, its variables read at ``scope``'s slots."""
        nonlocal width
        if isinstance(node, Falsum):
            return (lambda env: 0), 1
        if isinstance(node, Atom):
            slots = []
            for var in node.args:
                if var not in scope:
                    raise EvalError(f"unbound variable {var!r}")
                slots.append(scope[var])
            m.check_atom(node.symbol, len(slots))
            get = coded.get(node.symbol, {}).get
            if not slots:
                constant = get((), 0)
                return (lambda env: constant), 1
            if len(slots) == 1:
                slot = slots[0]
                return (lambda env: get((env[slot],), 0)), 1
            pick = itemgetter(*slots)
            return (lambda env: get(pick(env), 0)), 1
        if isinstance(node, (And, Or, Implies)):
            (left, work), (right, other) = build(node.left, scope), build(node.right, scope)
            work = max(work, other)
            if isinstance(node, And):
                def meet_codes(env):
                    a = left(env)
                    if not a:
                        return 0
                    b = right(env)
                    return a if a <= b else b
                return meet_codes, work
            if isinstance(node, Or):
                def join_codes(env):
                    a = left(env)
                    if a == top:
                        return top
                    b = right(env)
                    return a if a >= b else b
                return join_codes, work

            def residuum_codes(env):
                a = left(env)
                if not a:
                    return top
                b = right(env)
                return top if a <= b else b
            return residuum_codes, work
        if isinstance(node, (ForAll, Exists)):
            slot = width
            width += 1
            body, inner = build(node.body, {**scope, node.var: slot})
            if isinstance(node, Exists):
                guards = _guards(node.body)
            else:
                guards = _guards(node.body.left) if isinstance(node.body, Implies) else {}
            elements, size = _range(guards.get(node.var, []), node.var, scope, coded, universe)
            work = max(1, size * inner)
            if isinstance(node, ForAll):
                def infimum(env):
                    low = top
                    for element in elements(env):
                        env[slot] = element
                        value = body(env)
                        if value < low:
                            if not value:
                                return 0
                            low = value
                    return low
                return infimum, work

            def supremum(env):
                high = 0
                for element in elements(env):
                    env[slot] = element
                    value = body(env)
                    if value > high:
                        if value == top:
                            return top
                        high = value
                return high
            return supremum, work
        raise EvalError(f"unknown formula node {node!r}")

    run, work = build(phi, {name: slot for slot, name in enumerate(names)})
    return run, decode, (None,) * (width - len(names)), work, coded


def _conjuncts(phi: Formula):
    """The ``&`` conjuncts of ``phi``, left to right; ``phi`` itself if it is no conjunction."""
    if isinstance(phi, And):
        yield from _conjuncts(phi.left)
        yield from _conjuncts(phi.right)
    else:
        yield phi


def _guards(phi: Formula) -> dict[str, list[Atom]]:
    """Per variable, the distinct atoms holding it among the ``&`` conjuncts of ``phi``,
    left to right."""
    guards: dict[str, dict[Atom, None]] = {}
    for atom in _conjuncts(phi):
        if isinstance(atom, Atom):
            for var in atom.args:
                guards.setdefault(var, {})[atom] = None
    return {var: list(atoms) for var, atoms in guards.items()}


def _range(guards: list[Atom], var: str, slots: Mapping[str, int], coded, universe):
    """Where ``var`` ranges: ``(elements, size)``, ``elements(env)`` iterable.

    A guard's support is indexed once by the values of its arguments that
    ``slots`` holds, which ``env`` carries at those slots; its other
    arguments are projected out, and a repeated ``var`` keeps only vectors
    that agree on it.  ``elements(env)`` reads the first guard's bucket in
    stored order and keeps the values that every other guard's bucket holds,
    so the order never depends on hashing.  ``size`` bounds its length: the
    largest bucket of the narrowest guard.  With no guard, ``elements`` gives
    the universe and ``size`` is its size.
    """
    supports, sizes = [], []
    for guard in guards:
        at = [i for i, arg in enumerate(guard.args) if arg == var]
        by = [i for i, arg in enumerate(guard.args) if arg != var and arg in slots]
        vectors = coded.get(guard.symbol, {})
        if len(at) > 1:
            vectors = [vector for vector in vectors if len({vector[i] for i in at}) == 1]
        key = itemgetter(*by) if by else lambda vector: ()
        bound = itemgetter(*(slots[guard.args[i]] for i in by)) if by else lambda env: ()
        value = itemgetter(at[0])
        index: dict[object, dict[str, None]] = defaultdict(dict)  # ordered sets
        for vector in vectors:
            index[key(vector)][value(vector)] = None
        supports.append((index.get, bound))
        sizes.append(max(map(len, index.values()), default=0))
    if not supports:
        return (lambda env: universe), len(universe)
    size = min(sizes)
    (get, bound), *rest = supports
    if not rest:
        return (lambda env: get(bound(env), ())), size

    def elements(env):
        values = get(bound(env), ())
        for other, key in rest:
            values = filter(other(key(env), ()).__contains__, values)
        return values
    return elements, size


def _free_ranges(phi: Formula, variables: tuple[str, ...], coded, universe):
    """Where each free variable ranges, and a bound on the count of valuations.

    Where ``phi`` is a conjunction (an atom alone included), or a chain of
    leading ``exists`` over one, a free variable is guarded by the atom
    conjuncts that hold it, each indexed on the free variables before it and
    projected over its other arguments, the leading binders included
    (:func:`_range`).  A level keyed
    on no earlier variable is a list; a keyed one is ``elements(values)``,
    read with the earlier values at their places in ``values``.  The count
    is the product of the levels' sizes.
    """
    body = phi
    while isinstance(body, Exists):
        body = body.body
    guards = _guards(body)
    levels, count, earlier = [], 1, {}
    for place, var in enumerate(variables):
        mine = guards.get(var, [])
        elements, size = _range(mine, var, earlier, coded, universe)
        keyed = any(arg in earlier for atom in mine for arg in atom.args)
        levels.append(elements if keyed else list(elements(())))
        count *= size
        earlier[var] = place
    return levels, count


def _valuations(levels: list):
    """Value tuples of the free variables, one per candidate valuation.

    One ``itertools.product`` runs over the listed levels; the keyed levels
    nest inside it, each read with the values before it.
    """
    keyed = [place for place, level in enumerate(levels) if callable(level)]
    listed = [place for place, level in enumerate(levels) if not callable(level)]
    product = itertools.product(*(levels[place] for place in listed))
    if not keyed:
        return product
    values = [None] * len(levels)

    def nest(depth):
        if depth == len(keyed):
            yield tuple(values)
            return
        place = keyed[depth]
        for value in levels[place](values):
            values[place] = value
            yield from nest(depth + 1)

    def run():
        for combination in product:
            for place, value in zip(listed, combination):
                values[place] = value
            yield from nest(0)
    return run()


#: Most valuations ``table_of`` may visit, counted from the indexes it
#: builds before it evaluates anything: per free variable, the largest
#: bucket of its narrowest guard, or the universe size where it has none,
#: times, over the deepest chain of quantifiers, the same product of each
#: quantifier's range.  The work is bounded by formula size times the cap.
VALUATION_CAP = 1_000_000


def _check_valuations(what: str, size: int, count: int) -> None:
    if count > VALUATION_CAP:
        raise UnsupportedOperationError(
            f"{what} needs {count:,} valuations over a {size}-element "
            f"universe, above the cap of {VALUATION_CAP:,}"
        )


def table_of(m: Structure, phi: Formula) -> RankedTable:
    """The ranked table a formula denotes: free variables become attributes.

    Compiles ``phi`` once, then scores each candidate valuation with
    :func:`evaluate`.  A free variable ranges over the intersected supports
    of its atom conjuncts where ``phi`` is a conjunction, or a chain of
    leading ``exists`` over one, and over the universe otherwise
    (:func:`_free_ranges`).  That is exact: outside one atom conjunct's
    support the conjunction is bottom for every value of the binders, and
    ``exists`` over bottom is bottom.  Raises ``UnsupportedOperationError``
    before evaluating anything when the count of valuations exceeds
    ``VALUATION_CAP``.
    """
    global _last
    variables = free_vars(phi)
    compiled = _compile(phi, m, variables)
    work, coded = compiled[3:]
    levels, count = _free_ranges(phi, variables, coded, m.universe)
    _check_valuations("formula", len(m.universe), count * work)
    _last = (phi, m, variables, compiled)
    order = sorted(range(len(variables)), key=lambda i: variables[i].lower())  # a row's order
    scheme = Scheme((var, STR) for var in variables)
    entries, make = {}, scheme.row
    for values in _valuations(levels):
        score = evaluate(phi, m, dict(zip(variables, values)))
        if not score.is_bottom:
            entries[make(map(values.__getitem__, order))] = score
    return RankedTable._trusted(scheme, m.chain, entries)


# --- formula -> relational expression ---------------------------------------


def formula_to_algebra(phi: Formula, m: Structure):
    """Compile a formula into a query expression plus the base tables it needs.

    Returns ``(expr, tables)``; evaluating ``expr`` over ``tables`` yields
    exactly ``table_of(m, phi)``.  Universal quantification compiles to the
    division, with active-domain tables (every universe element at score
    top) supplying the dividend and divisor; implication compiles to the
    bounded residuum, and disjunction to the union, after aligning both
    sides on a common scheme through joins with those same active-domain
    tables.
    """
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
        if isinstance(node, (Or, Implies)):
            joint = free_vars(node)
            left = pad(compile_node(node.left), free_vars(node.left), joint)
            right = pad(compile_node(node.right), free_vars(node.right), joint)
            if isinstance(node, Or):
                return planner.Union(left, right)
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

    Repeated variables keep only the diagonal vectors whose positions agree;
    a stored bottom is left out, as absence encodes it.  The atom is checked
    as :func:`table_of` checks it, stored vectors or not.
    """
    m.check_atom(atom.symbol, len(atom.args))
    distinct = list(dict.fromkeys(atom.args))
    scheme = Scheme((var, STR) for var in distinct)
    entries: dict[Row, Score] = {}
    for vector, score in m.interps.get(atom.symbol, {}).items():
        assignment: dict[str, str] = {}
        consistent = True
        for var, value in zip(atom.args, vector):
            if assignment.setdefault(var, value) != value:
                consistent = False
                break
        if consistent and not score.is_bottom:
            entries[Row.of(assignment)] = score
    return RankedTable._trusted(scheme, m.chain, entries)


def structure_from_tables(tables: Mapping[str, RankedTable]) -> Structure:
    """Each named table as a relation symbol; vectors hold CSV texts in column order."""
    chain = None
    universe: set[str] = set()
    arities: dict[str, int] = {}
    interps: dict[str, dict[tuple[str, ...], Score]] = {}
    for name, table in tables.items():
        if chain is None:
            chain = table.chain
        elif chain != table.chain:
            raise IncompatibleChainError("structure tables must share one chain")
        plan = column_plan(table.scheme, table.scheme.names)
        arities[name] = len(plan)
        entries = {}
        for row, score in table:
            vector = tuple(row_cells(row, plan))
            universe.update(vector)
            entries[vector] = score
        interps[name] = entries
    if chain is None:
        chain = RATIONAL
    if not universe:
        universe.add("__nil__")
    return Structure(chain, tuple(sorted(universe)), arities, interps)


# --- formula parser ---------------------------------------------------------


class _FormulaParser(TokenCursor):
    def phrase(self) -> Formula:
        return self.implication()

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.accept("->"):
            return Implies(left, self.implication())
        if self.accept("<->"):
            return Iff(left, self.implication())
        return left

    def disjunction(self) -> Formula:
        return self.chain("|", Or, self.conjunction)

    def conjunction(self) -> Formula:
        return self.chain("&", And, self.unary)

    def chain(self, symbol: str, node: type, operand: Callable[[], Formula]) -> Formula:
        """A ``symbol`` chain as a balanced tree of ``node``, operands in reading order.

        The operator is associative, so values, error order and free-variable
        order are the left-deep chain's, and later passes recurse log(n) deep;
        two or three operands give the left-deep tree itself.
        """
        operands = [operand()]
        while self.accept(symbol):
            operands.append(operand())
        while len(operands) > 1:  # join neighbours pairwise
            operands = [node(*operands[i:i + 2]) if i + 1 < len(operands) else operands[i]
                        for i in range(0, len(operands), 2)]
        return operands[0]

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
            var = self.name("quantifier needs a variable")
            self.expect(".")
            body = self.implication()
            return ForAll(var, body) if name == "forall" else Exists(var, body)
        if name == "false":
            return Falsum()
        if self.peek().text != "(":
            return Atom(name, ())
        return Atom(name, self.items(lambda: self.name("atom arguments must be variables"),
                                     "(", ")", allow_empty=True))


def parse_formula(text: str) -> Formula:
    return _FormulaParser(text).parse()
