"""Query expressions: AST, text syntax, scheme inference, and rewrite laws.

Queries are trees over base-table references and the relational operations.
``OPERATORS`` holds one entry per operation node class (keyword, subquery
fields, trailing parameter, scheme rule, algebra function); the parser, the
renderer, scheme inference, evaluation and the rewrite walk all read it.
The rewrite functions implement the semantics-preserving plan laws (pushing
restrictions into joins, commuting restrictions with projections, splitting
projections over unions, collapsing projection cascades, and folding a
projection of a join into a semijoin).  Side conditions are checked
syntactically on the attributes a condition mentions, the conservative safe
approximation; an inapplicable rule leaves the tree alone and records a note
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


def _condition_attrs(spec: typing.Union[Condition, str],
                     conditions: Optional[Mapping[str, Condition]] = None):
    """Attributes a restriction depends on, or None when not statically known."""
    if isinstance(spec, str):
        if conditions is None or spec not in conditions:
            return None
        spec = conditions[spec]
    return spec.free_attrs()


# --- operator parameters --------------------------------------------------------


def _read_condition(parser) -> typing.Union[Condition, str]:
    # A lone identifier names a catalog condition; anything else is an
    # inline expression over attribute values, read from the same tokens.
    token = parser.peek()
    if token.kind == "name" and parser.tokens[parser.index + 1].text in (",", ")"):
        parser.advance()
        return token.text.lower()
    return ExprCondition(parser.ternary())


def _read_name(parser) -> str:
    token = parser.advance()
    if token.kind != "name":
        raise ParseError("expected an attribute name", column=token.pos)
    return token.text.lower()


def _read_rename(parser) -> tuple[str, str]:
    old = _read_name(parser)
    parser.expect("->")
    return old, _read_name(parser)


def _read_list(parser, read_item, allow_empty: bool) -> tuple:
    """``[item, item, ...]``; only attribute lists may be empty."""
    parser.expect("[")
    items = []
    if not (allow_empty and parser.peek().text == "]"):
        items.append(read_item(parser))
        while parser.peek().text == ",":
            parser.advance()
            items.append(read_item(parser))
    parser.expect("]")
    return tuple(items)


@dataclass(frozen=True)
class Param:
    """An operator's trailing argument that is not a subquery."""

    field: str
    read: Callable  # parser -> value, after the last subquery's comma
    show: Callable  # value -> the text between the plan label's brackets
    resolve: Callable  # (value, conditions) -> the algebra function's last argument


_CONDITION = Param("condition", _read_condition, str, resolve_condition)
_ATTRS = Param("attrs", lambda parser: _read_list(parser, _read_name, True), ", ".join,
               lambda attrs, conditions: attrs)
_MAPPING = Param("mapping", lambda parser: _read_list(parser, _read_rename, False),
                 lambda pairs: ", ".join(f"{old}->{new}" for old, new in pairs),
                 lambda pairs, conditions: dict(pairs))


# --- operator table -------------------------------------------------------------
#
# Scheme rules take (node, conditions, *child schemes), the children in the
# entry's field order.  They raise without a location; the walker below
# appends the failing node's path.


def _joined_scheme(node, conditions, left, right) -> Scheme:
    return left.union(right)


def _equal_operands(node, conditions, left, right) -> Scheme:
    if left != right:
        raise SchemeError(f"operands of {OPERATORS[type(node)].keyword} differ")
    return left


def _restrict_scheme(node, conditions, scheme) -> Scheme:
    deps = _condition_attrs(node.condition, conditions)
    if deps is not None and not deps <= scheme.name_set:
        raise SchemeError(f"condition needs {sorted(deps - scheme.name_set)} absent")
    return scheme


def _divide_scheme(node, conditions, dividend, mediator, divisor) -> Scheme:
    if dividend.name_set & divisor.name_set:
        raise SchemeError("dividend and divisor schemes overlap")
    if mediator != dividend.union(divisor):
        raise SchemeError("mediator scheme must unite dividend and divisor")
    return dividend


def _residuum_scheme(node, conditions, bound, antecedent, consequent) -> Scheme:
    if bound != antecedent or antecedent != consequent:
        raise SchemeError("residuum operands need one shared scheme")
    return bound


@dataclass(frozen=True)
class Operator:
    """One operator node class: its text form, its scheme rule and its algebra."""

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
    Join: Operator("join", _PAIR, _joined_scheme, "natural_join"),
    Restrict: Operator("restrict", ("child",), _restrict_scheme, "restrict", _CONDITION),
    Project: Operator("project", ("child",),
                      lambda node, conditions, scheme: scheme.project(node.attrs),
                      "project", _ATTRS),
    Union: Operator("union", _PAIR, _equal_operands, "union_tables", blocked=True),
    Difference: Operator("difference", _PAIR, _equal_operands, "difference", blocked=True),
    Divide: Operator("divide", ("dividend", "mediator", "divisor"), _divide_scheme,
                     "divide", blocked=True),
    Residuum: Operator("residuum", ("bound", "antecedent", "consequent"), _residuum_scheme,
                       "residuum_tables", blocked=True),
    Semijoin: Operator("semijoin", _PAIR, lambda node, conditions, left, right: left,
                       "semijoin"),
    Rename: Operator("rename", ("child",),
                     lambda node, conditions, scheme: scheme.rename(dict(node.mapping)),
                     "rename", _MAPPING),
    ProductJoin: Operator("product", _PAIR, _joined_scheme, "product_join", blocked=True),
}

_KEYWORDS = {op.keyword: node_type for node_type, op in OPERATORS.items()}


def children(expr: QueryExpr) -> tuple[QueryExpr, ...]:
    op = OPERATORS.get(type(expr))
    return tuple(getattr(expr, name) for name in op.kids) if op else ()


def format_expr(expr: QueryExpr, indent: int = 0) -> str:
    """Multi-line tree rendering used by the plan subcommand."""
    pad = "  " * indent
    op = OPERATORS.get(type(expr))
    if op is None:
        return f"{pad}{expr.name}"
    label = op.keyword
    if op.param is not None:
        label += f"[{op.param.show(getattr(expr, op.param.field))}]"
    return "\n".join([pad + label] + [format_expr(c, indent + 1) for c in children(expr)])


# --- scheme inference and evaluation --------------------------------------------


def infer_scheme(expr: QueryExpr, catalog) -> Scheme:
    """Result scheme of an expression against a catalog; errors carry paths."""
    return _walk(expr, catalog.tables, catalog.conditions, evaluating=False)


def infer_scheme_over(expr: QueryExpr, tables: Mapping[str, RankedTable],
                      conditions: Optional[Mapping[str, Condition]] = None) -> Scheme:
    return _walk(expr, tables, conditions or {}, evaluating=False)


def evaluate(expr: QueryExpr, catalog) -> RankedTable:
    return evaluate_over(expr, catalog.tables, catalog.conditions)


def evaluate_over(expr: QueryExpr, tables: Mapping[str, RankedTable],
                  conditions: Optional[Mapping[str, Condition]] = None) -> RankedTable:
    """Result table of an expression; errors carry paths."""
    return _walk(expr, tables, conditions or {}, evaluating=True)


def _walk(expr, tables, conditions, evaluating: bool):
    """Bottom-up pass giving every node its table (``evaluating``) or scheme.

    Children go first, in field order.  An error raised at a node itself
    gets that node's path from the root appended, e.g. ``at query.child.right``.
    """

    def visit(node, path):
        op = OPERATORS.get(type(node))
        kids = [visit(getattr(node, name), f"{path}.{name}") for name in op.kids] if op else ()
        try:
            if op is not None and evaluating:
                if op.param is not None:
                    kids.append(op.param.resolve(getattr(node, op.param.field), conditions))
                return getattr(algebra, op.algebra)(*kids)
            if op is not None:
                return op.scheme(node, conditions, *kids)
            if not isinstance(node, Base):
                raise SchemeError(f"unknown expression node {node!r}")
            table = tables.get(node.name)
            if table is None:
                raise UnknownNameError(f"unknown table {node.name!r}")
            return table if evaluating else table.scheme
        except RankrelError as exc:
            # Extended in place, not rebuilt: subclasses such as ParseError
            # take other constructor arguments than a message.
            exc.args = (f"{exc} at {path}",)
            raise

    return visit(expr, "query")


# --- rewrite laws -------------------------------------------------------------


@dataclass(frozen=True)
class RewriteOutcome:
    expr: QueryExpr
    applied: int
    notes: tuple[str, ...] = ()


def _rewrite_everywhere(expr, rule) -> tuple[QueryExpr, int, tuple[str, ...]]:
    """One bottom-up pass applying ``rule`` at every node it matches."""
    applied = 0
    notes: list[str] = []

    def walk(node):
        nonlocal applied
        rebuilt = _rebuild(node, tuple(walk(c) for c in children(node)))
        replacement, note = rule(rebuilt)
        if replacement is not None:
            applied += 1
            return replacement
        if note:
            notes.append(note)
        return rebuilt

    return walk(expr), applied, tuple(notes)


def _rebuild(node, kids):
    if not kids:
        return node
    return replace(node, **dict(zip(OPERATORS[type(node)].kids, kids)))


def rewrite_push_restriction(expr: QueryExpr, catalog) -> RewriteOutcome:
    """restrict(join(A, B), theta) -> join(restrict(A, theta), B) when theta
    only mentions attributes of one side."""

    def rule(node):
        if not (isinstance(node, Restrict) and isinstance(node.child, Join)):
            return None, None
        deps = _condition_attrs(node.condition, catalog.conditions)
        if deps is None:
            return None, "restriction not pushed: condition dependencies unknown"
        left = infer_scheme(node.child.left, catalog)
        right = infer_scheme(node.child.right, catalog)
        if deps <= left.name_set:
            return Join(Restrict(node.child.left, node.condition), node.child.right), None
        if deps <= right.name_set:
            return Join(node.child.left, Restrict(node.child.right, node.condition)), None
        return None, "restriction not pushed: condition spans both join sides"

    new, applied, notes = _rewrite_everywhere(expr, rule)
    return RewriteOutcome(new, applied, notes)


def rewrite_commute_project_restrict(expr: QueryExpr, catalog) -> RewriteOutcome:
    """project(restrict(A, theta), S) -> restrict(project(A, S), theta) when
    theta ignores the projected-away attributes."""

    def rule(node):
        if not (isinstance(node, Project) and isinstance(node.child, Restrict)):
            return None, None
        deps = _condition_attrs(node.child.condition, catalog.conditions)
        if deps is None:
            return None, "projection not commuted: condition dependencies unknown"
        kept = {a.lower() for a in node.attrs}
        if deps <= kept:
            return Restrict(Project(node.child.child, node.attrs), node.child.condition), None
        return None, "projection not commuted: condition uses dropped attributes"

    new, applied, notes = _rewrite_everywhere(expr, rule)
    return RewriteOutcome(new, applied, notes)


def rewrite_project_over_union(expr: QueryExpr, catalog) -> RewriteOutcome:
    """project(union(A, B), S) -> union(project(A, S), project(B, S))."""

    def rule(node):
        if isinstance(node, Project) and isinstance(node.child, Union):
            return Union(Project(node.child.left, node.attrs),
                          Project(node.child.right, node.attrs)), None
        return None, None

    new, applied, notes = _rewrite_everywhere(expr, rule)
    return RewriteOutcome(new, applied, notes)


def rewrite_project_cascade(expr: QueryExpr, catalog) -> RewriteOutcome:
    """project(project(A, R), S) -> project(A, S); S is a subset of R by typing."""

    def rule(node):
        if isinstance(node, Project) and isinstance(node.child, Project):
            outer = {a.lower() for a in node.attrs}
            inner = {a.lower() for a in node.child.attrs}
            if outer <= inner:
                return Project(node.child.child, node.attrs), None
            return None, "projection cascade kept: outer attributes not nested in inner"
        return None, None

    new, applied, notes = _rewrite_everywhere(expr, rule)
    return RewriteOutcome(new, applied, notes)


def rewrite_semijoin(expr: QueryExpr, catalog) -> RewriteOutcome:
    """project(join(A, B), scheme-of-A) -> semijoin(A, B)."""

    def rule(node):
        if not (isinstance(node, Project) and isinstance(node.child, Join)):
            return None, None
        left = infer_scheme(node.child.left, catalog)
        if {a.lower() for a in node.attrs} == left.name_set:
            return Semijoin(node.child.left, node.child.right), None
        return None, "semijoin not folded: projection keeps non-left attributes"

    new, applied, notes = _rewrite_everywhere(expr, rule)
    return RewriteOutcome(new, applied, notes)


REWRITE_RULES = (
    ("push-restriction", rewrite_push_restriction),
    ("commute-project-restrict", rewrite_commute_project_restrict),
    ("project-over-union", rewrite_project_over_union),
    ("project-cascade", rewrite_project_cascade),
    ("fold-semijoin", rewrite_semijoin),
)


# --- join-chain normalization --------------------------------------------------


@dataclass(frozen=True)
class NormalizeResult:
    expr: QueryExpr
    blocked: tuple[str, ...]  # non-monotone subtrees left in place
    notes: tuple[str, ...] = ()


def normalize_to_join_chain(expr: QueryExpr, catalog) -> NormalizeResult:
    """Push restrictions and merge projections until a join chain emerges.

    Deterministic bottom-up passes iterated to a fixpoint, restriction
    pushdown running before the projection rules.  Operators outside the
    monotone fragment (flagged ``blocked`` in ``OPERATORS``: union,
    difference, division, residuum, the product join) are left in place and
    reported in ``blocked`` by keyword; their own subtrees are still
    normalized.
    """
    blocked: list[str] = []
    notes: list[str] = []

    def scan(node, path):
        op = OPERATORS.get(type(node))
        if op is None:
            return
        if op.blocked:
            blocked.append(f"{op.keyword} at {path}")
        for name in op.kids:
            scan(getattr(node, name), f"{path}.{name}")

    scan(expr, "query")

    current = expr
    for _ in range(64):  # fixpoint; the tree strictly shrinks or reorders
        changed = 0
        for _, rule in (
            ("push-restriction", rewrite_push_restriction),
            ("restrict-into-project", _rewrite_restrict_into_project),
            ("project-cascade", rewrite_project_cascade),
        ):
            outcome = rule(current, catalog)
            current = outcome.expr
            changed += outcome.applied
            notes.extend(outcome.notes)
        if not changed:
            break
    return NormalizeResult(current, tuple(blocked), tuple(dict.fromkeys(notes)))


def _rewrite_restrict_into_project(expr: QueryExpr, catalog) -> RewriteOutcome:
    """restrict(project(A, S), theta) -> project(restrict(A, theta), S).

    The leaf-direction reading of the commutation law: valid because the
    condition can only mention attributes surviving the projection.
    """

    def rule(node):
        if not (isinstance(node, Restrict) and isinstance(node.child, Project)):
            return None, None
        deps = _condition_attrs(node.condition, catalog.conditions)
        if deps is None:
            return None, "restriction kept above projection: dependencies unknown"
        kept = {a.lower() for a in node.child.attrs}
        if deps <= kept:
            return Project(Restrict(node.child.child, node.condition), node.child.attrs), None
        return None, None

    new, applied, notes = _rewrite_everywhere(expr, rule)
    return RewriteOutcome(new, applied, notes)


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
        if self.peek().text != "(":
            return Base(name)
        node_type = _KEYWORDS.get(name)
        if node_type is None:
            raise ParseError(f"unknown operation {name!r}", column=token.pos)
        op = OPERATORS[node_type]
        self.expect("(")
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
