"""Query expressions: AST, text syntax, scheme inference, and normalization.

Queries are trees over base-table references and the relational operations.
``OPERATORS`` holds one entry per operation node class (keyword, subquery
fields, trailing parameter, scheme rule, algebra function); the parser reads
it, and so does ``fold``, the bottom-up pass behind the renderer, scheme
inference and evaluation.  ``LAWS`` holds the plan laws that join-chain
normalization runs (pushing restrictions into joins, moving restrictions
below projections, collapsing projection cascades) as node-level bodies;
one settling fold, ``_rewrite``, applies them.  Side conditions are checked
syntactically on the attributes a condition mentions, the conservative safe
approximation; an inapplicable law leaves the node alone and records a note
instead of raising.

Text syntax (case-insensitive names)::

    project(restrict(join(houses, offers), 0.1*(4+bdrm)), [id, bdrm, price])
    rename(houses, [id -> house_id])
    divide(people, likes, topics)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import typing
from typing import Callable, Mapping, Optional

from . import algebra, exprs
from .conditions import Condition, ExprCondition
from .errors import ParseError, RankrelError, SchemeError, UnknownNameError
from .table import RankedTable, Scheme


# --- AST --------------------------------------------------------------------


@dataclass(frozen=True)
class Base:
    name: str


@dataclass(frozen=True)
class Join:
    left: "QueryExpr"
    right: "QueryExpr"


@dataclass(frozen=True)
class Restrict:
    child: "QueryExpr"
    condition: typing.Union[Condition, str]  # inline condition or a catalog name


@dataclass(frozen=True)
class Project:
    child: "QueryExpr"
    attrs: tuple[str, ...]


@dataclass(frozen=True)
class Union:
    left: "QueryExpr"
    right: "QueryExpr"


@dataclass(frozen=True)
class Difference:
    left: "QueryExpr"
    right: "QueryExpr"


@dataclass(frozen=True)
class Divide:
    dividend: "QueryExpr"
    mediator: "QueryExpr"
    divisor: "QueryExpr"


@dataclass(frozen=True)
class Residuum:
    bound: "QueryExpr"
    antecedent: "QueryExpr"
    consequent: "QueryExpr"


@dataclass(frozen=True)
class Semijoin:
    left: "QueryExpr"
    right: "QueryExpr"


@dataclass(frozen=True)
class Rename:
    child: "QueryExpr"
    mapping: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class ProductJoin:
    left: "QueryExpr"
    right: "QueryExpr"


QueryExpr = typing.Union[
    Base, Join, Restrict, Project, Union, Difference, Divide, Residuum,
    Semijoin, Rename, ProductJoin,
]


def resolve_condition(spec: typing.Union[Condition, str], conditions: Mapping[str, Condition]):
    if isinstance(spec, str):
        try:
            return conditions[spec]
        except KeyError:
            raise UnknownNameError(f"unknown condition {spec!r}") from None
    return spec


def _as_parsed(value, conditions: Mapping[str, Condition]):  # a parameter needing no catalog
    return value


def _condition_attrs(spec: typing.Union[Condition, str], conditions: Mapping[str, Condition]):
    """Attributes a restriction depends on, or None when not statically known."""
    if isinstance(spec, str):
        spec = conditions.get(spec)
    return None if spec is None else spec.free_attrs()


# --- operator parameters --------------------------------------------------------


def _read_condition(parser) -> typing.Union[Condition, str]:
    # A lone identifier names a catalog condition; anything else is an
    # inline expression over attribute values, read from the same tokens.
    if parser.peek().kind == "name" and parser.peek(1).text in (",", ")"):
        return parser.advance().text.lower()
    return ExprCondition(parser.ternary())


_ATTRIBUTE = "expected an attribute name"


def _read_rename(parser) -> tuple[str, str]:
    old = parser.name(_ATTRIBUTE)
    parser.expect("->")
    return old, parser.name(_ATTRIBUTE)


@dataclass(frozen=True)
class Param:
    """An operator's trailing argument that is not a subquery."""

    field: str
    read: Callable  # parser -> value, after the last subquery's comma
    show: Callable  # value -> the text between the plan label's brackets
    resolve: Callable  # (value, conditions) -> last argument of the algebra and scheme rule


_CONDITION = Param("condition", _read_condition, str, resolve_condition)
_ATTRS = Param("attrs", lambda parser: parser.items(lambda: parser.name(_ATTRIBUTE), "[", "]",
                                                    allow_empty=True), ", ".join, _as_parsed)
_MAPPING = Param("mapping", lambda parser: parser.items(lambda: _read_rename(parser), "[", "]"),
                 lambda pairs: ", ".join(f"{old}->{new}" for old, new in pairs), _as_parsed)


# --- operator table -------------------------------------------------------------


@dataclass(frozen=True)
class Operator:
    """One operator node class: its text form, its scheme rule and its algebra.

    Both take the children's schemes or tables in field order, then the
    resolved parameter; the rule is the one the algebra function calls.
    """

    keyword: str
    kids: tuple[str, ...]  # subquery fields, in argument order
    scheme: Callable
    #: name of the ``algebra`` function, looked up per call so that wrappers
    #: installed on the module (tracing, tests) see every evaluation
    algebra: str
    param: Optional[Param] = None
    #: outside the monotone fragment: normalize_to_join_chain leaves it in place
    blocked: bool = False


_PAIR = ("left", "right")

#: Every operator node class; Base, the table reference, is the only leaf.
OPERATORS: dict[type, Operator] = {
    Join: Operator("join", _PAIR, Scheme.union, "natural_join"),
    Restrict: Operator("restrict", ("child",), algebra.restrict_scheme, "restrict", _CONDITION),
    Project: Operator("project", ("child",), Scheme.project, "project", _ATTRS),
    Union: Operator("union", _PAIR, algebra.same_scheme, "union_tables", blocked=True),
    Difference: Operator("difference", _PAIR, algebra.same_scheme, "difference", blocked=True),
    Divide: Operator("divide", ("dividend", "mediator", "divisor"), algebra.divide_scheme,
                     "divide", blocked=True),
    Residuum: Operator("residuum", ("bound", "antecedent", "consequent"), algebra.same_scheme,
                       "residuum_tables", blocked=True),
    Semijoin: Operator("semijoin", _PAIR, algebra.semijoin_scheme, "semijoin"),
    Rename: Operator("rename", ("child",), Scheme.rename, "rename", _MAPPING),
    ProductJoin: Operator("product", _PAIR, Scheme.union, "product_join", blocked=True),
}

_KEYWORDS = {op.keyword: node_type for node_type, op in OPERATORS.items()}


def fold(expr: QueryExpr, visit: Callable, path: str = "query"):
    """The bottom-up recursion over a query tree that every walk but ``_rewrite`` shares.

    Children go first, in their ``OPERATORS`` field order; then
    ``visit(node, kid_results, path)`` gives the node its result from theirs.
    ``kid_results`` is a fresh list, and a path names the fields taken from
    the root, e.g. ``query.child.right``.
    """
    op = OPERATORS.get(type(expr))
    kids = [fold(getattr(expr, name), visit, f"{path}.{name}") for name in op.kids] if op else []
    return visit(expr, kids, path)


def format_expr(expr: QueryExpr) -> str:
    """Multi-line tree rendering used by the plan subcommand."""

    def lines(node, kids, path):
        op = OPERATORS.get(type(node))
        if op is None:
            return [node.name]
        label = op.keyword
        if op.param is not None:
            label += f"[{op.param.show(getattr(node, op.param.field))}]"
        return [label] + ["  " + line for kid in kids for line in kid]

    return "\n".join(fold(expr, lines))


# --- scheme inference and evaluation --------------------------------------------


def infer_scheme(expr: QueryExpr, catalog) -> Scheme:
    """Result scheme of an expression against a catalog; errors carry paths."""
    return _walk(expr, catalog.tables, catalog.conditions, evaluating=False)


def evaluate(expr: QueryExpr, catalog) -> RankedTable:
    return evaluate_over(expr, catalog.tables, catalog.conditions)


def evaluate_over(expr: QueryExpr, tables: Mapping[str, RankedTable],
                  conditions: Optional[Mapping[str, Condition]] = None) -> RankedTable:
    """Result table of an expression; errors carry paths."""
    return _walk(expr, tables, conditions or {}, evaluating=True)


def _walk(expr, tables, conditions, evaluating: bool):
    """Fold giving every node its table (``evaluating``) or scheme.

    An error raised at a node itself gets that node's path from the root
    appended, e.g. ``at query.child.right``.
    """
    return fold(expr, located(
        lambda node, kids, path: _value(node, kids, tables, conditions, evaluating)))


def _value(node, kids: list, tables, conditions, evaluating: bool):
    """A node's table (``evaluating``) or scheme, from its children's."""
    op = OPERATORS.get(type(node))
    if op is not None:
        args = with_param(node, kids, conditions)
        return getattr(algebra, op.algebra)(*args) if evaluating else op.scheme(*args)
    if not isinstance(node, Base):
        raise SchemeError(f"unknown expression node {node!r}")
    table = tables.get(node.name)
    if table is None:
        raise UnknownNameError(f"unknown table {node.name!r}")
    return table if evaluating else table.scheme


def with_param(node, kids: list, conditions: Mapping[str, Condition]) -> list:
    """``kids`` followed by the node's resolved parameter, if it has one."""
    param = OPERATORS[type(node)].param
    if param is not None:
        kids.append(param.resolve(getattr(node, param.field), conditions))
    return kids


def located(visit: Callable) -> Callable:
    """A fold visit whose own errors end in the node's path, e.g. ``at query.left``.

    Errors from the children pass through unchanged: ``fold`` raises them
    before this node's visit starts, and they already carry their own path.
    """

    def visit_at(node, kids, path):
        try:
            return visit(node, kids, path)
        except RankrelError as exc:
            # Extended in place, not rebuilt: subclasses such as ParseError
            # take other constructor arguments than a message.
            exc.args = (f"{exc} at {path}",)
            raise

    return visit_at


# --- plan laws and join-chain normalization ------------------------------------


def _push_restriction(node, catalog, scheme_of):
    """restrict(join(A, B), theta) -> join(restrict(A, theta), B) when theta
    only mentions attributes of one side."""
    deps = _condition_attrs(node.condition, catalog.conditions)
    if deps is None:
        return "restriction not pushed: condition dependencies unknown"
    if deps <= scheme_of(node.child.left).name_set:
        return Join(Restrict(node.child.left, node.condition), node.child.right)
    if deps <= scheme_of(node.child.right).name_set:
        return Join(node.child.left, Restrict(node.child.right, node.condition))
    return "restriction not pushed: condition spans both join sides"


def _restrict_into_project(node, catalog, scheme_of):
    """restrict(project(A, S), theta) -> project(restrict(A, theta), S).

    The leaf-direction reading of the commutation law: valid because the
    condition can only mention attributes surviving the projection.
    """
    deps = _condition_attrs(node.condition, catalog.conditions)
    if deps is None:
        return "restriction kept above projection: dependencies unknown"
    if deps <= {a.lower() for a in node.child.attrs}:
        return Project(Restrict(node.child.child, node.condition), node.child.attrs)


def _project_cascade(node, catalog, scheme_of):
    """project(project(A, R), S) -> project(A, S); S is a subset of R by typing."""
    if {a.lower() for a in node.attrs} <= {a.lower() for a in node.child.attrs}:
        return Project(node.child.child, node.attrs)
    return "projection cascade kept: outer attributes not nested in inner"


#: The plan laws normalization runs, in the order they are tried at a node:
#: ``(outer, inner, body)`` matches ``outer(inner(...))``, and
#: ``body(node, catalog, scheme_of)`` returns the replacement, a note saying
#: why the law does not apply, or None.
LAWS = (
    (Restrict, Join, _push_restriction),
    (Restrict, Project, _restrict_into_project),
    (Project, Project, _project_cascade),
)


def _rebuild(node, kids):
    if not kids:
        return node
    return replace(node, **dict(zip(OPERATORS[type(node)].kids, kids)))


def _rewrite(expr: QueryExpr, catalog) -> tuple[QueryExpr, list[str]]:
    """The runner of ``LAWS``: a bottom-up fold trying them in order at each node.

    Each node is rebuilt from its rewritten children.  When a law fires, the
    replacement's new children and then the replacement itself are rewritten
    too, so one fold reaches the fixpoint.  Returns the tree and the notes.
    """
    notes = []
    known, settled = {}, {}  # by id: (node, scheme), and settled nodes; held, so ids stay theirs

    def scheme_of(node):
        if id(node) not in known:  # each node's scheme once, from its children's
            op = OPERATORS.get(type(node))
            kids = list(map(scheme_of, [getattr(node, name) for name in op.kids])) if op else []
            known[id(node)] = node, _value(node, kids, catalog.tables, catalog.conditions, False)
        _, scheme = known[id(node)]
        return scheme

    def visit(node):
        if id(node) in settled:
            return node
        op = OPERATORS.get(type(node))
        if op is not None:
            # map, not a comprehension: a comprehension's frame per level would
            # cut the nesting that settling reaches by a third
            node = _rebuild(node, list(map(visit, [getattr(node, name) for name in op.kids])))
        for outer, inner, body in LAWS:
            if isinstance(node, outer) and isinstance(node.child, inner):
                result = body(node, catalog, scheme_of)
                if isinstance(result, str):
                    notes.append(result)
                elif result is not None:
                    return visit(result)
        settled[id(node)] = node
        return node

    return visit(expr), notes


@dataclass(frozen=True)
class NormalizeResult:
    expr: QueryExpr
    blocked: tuple[str, ...]  # non-monotone subtrees left in place
    notes: tuple[str, ...] = ()


def normalize_to_join_chain(expr: QueryExpr, catalog) -> NormalizeResult:
    """Push restrictions and merge projections until a join chain emerges.

    One ``_rewrite`` fold of ``LAWS``.  Operators outside the monotone
    fragment (flagged ``blocked`` in ``OPERATORS``: union, difference,
    division, residuum, the product join) are left in place and reported in
    ``blocked`` by keyword; their own subtrees are still normalized.
    """

    def scan(node, kids, path):
        op = OPERATORS.get(type(node))
        own = [f"{op.keyword} at {path}"] if op is not None and op.blocked else []
        return own + [entry for kid in kids for entry in kid]

    blocked = fold(expr, scan)
    tree, notes = _rewrite(expr, catalog)
    return NormalizeResult(tree, tuple(blocked), tuple(dict.fromkeys(notes)))


def join_chain_leaves(expr: QueryExpr) -> list[QueryExpr]:
    """Split the top-level join spine into its leaf expressions."""
    if isinstance(expr, Join):
        return join_chain_leaves(expr.left) + join_chain_leaves(expr.right)
    return [expr]


# --- parser -------------------------------------------------------------------


def parse_query(text: str) -> QueryExpr:
    """Parse query text into an expression tree; errors carry positions."""
    return _QueryParser(text).parse()


class _QueryParser(exprs.ExprParser):
    """Query grammar; restriction conditions use the inherited expression rules."""

    def phrase(self) -> QueryExpr:
        token = self.advance()
        if token.kind != "name":
            raise ParseError(f"expected a table name or operation, found "
                             f"{token.text or 'end'!r}", column=token.pos)
        name = token.text.lower()
        if not self.accept("("):
            return Base(name)
        node_type = _KEYWORDS.get(name)
        if node_type is None:
            raise ParseError(f"unknown operation {name!r}", column=token.pos)
        op = OPERATORS[node_type]
        fields = {}
        for field in op.kids:
            if fields:
                self.expect(",")
            fields[field] = self.phrase()
        if op.param is not None:
            self.expect(",")
            fields[op.param.field] = op.param.read(self)
        self.expect(")")
        return node_type(**fields)
