"""Small arithmetic/comparison expression language over exact rationals.

Used both for restriction conditions (attribute references, e.g.
``bdrm <= 6 ? 0.1*(4+bdrm) : 1``) and for analytic score maps (single
variable ``x``, e.g. ``x <= 0.5 ? sqrt(x)/sqrt(2) : 2*(x-0.5)^2 + 0.5``).

Arithmetic stays exact (``Fraction``) until an irrational function such as
``sqrt`` forces a float; callers quantize float results onto a fixed decimal
grid.  Comparisons yield 0/1.  Names are case-insensitive.

The tokenizer and :class:`TokenCursor` here also serve the query parser in
``planner`` and the formula parser in ``calculus``; the cursor's ``accept``,
``name`` and ``items`` read optional tokens, names and lists for all three.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Union

from .errors import EvalError, ParseError

Number = Union[Fraction, float]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><->|<=|>=|==|!=|->|[-+*/^()<>=?:,\[\]&|~.]))"
)

@dataclass(frozen=True)
class Token:
    kind: str  # 'num' | 'name' | 'op' | 'end'
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    """The one token set of queries, expressions and formulas, ending in an
    ``end`` token; each parser rejects the operators its grammar lacks."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            stray = text[pos:].lstrip()
            if not stray:
                break
            raise ParseError(f"unexpected character {stray[0]!r}", column=len(text) - len(stray))
        kind = match.lastgroup  # the one alternative that matched
        tokens.append(Token(kind, match.group(kind), match.start(kind)))
        pos = match.end()
    tokens.append(Token("end", "", len(text)))
    return tokens


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Ref:
    name: str  # lowercased


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Compare:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Ternary:
    test: "Expr"
    then: "Expr"
    otherwise: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Expr", ...]


Expr = Union[Num, Ref, Unary, Binary, Compare, Ternary, Call]


class TokenCursor:
    """A parser's position in the tokens of one text, and the readers every grammar shares.

    Subclasses supply the grammar: ``phrase`` reads one phrase from the
    current token on, and ``parse`` requires it to span the whole text.
    """

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.index = 0

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.index + offset]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def accept(self, text: str) -> bool:
        """Step past the next token if it reads ``text``."""
        if self.tokens[self.index].text != text:
            return False
        self.index += 1
        return True

    def expect(self, text: str) -> Token:
        token = self.advance()
        if token.text != text:
            raise ParseError(f"expected {text!r}, found {token.text or 'end'!r}", column=token.pos)
        return token

    def name(self, message: str) -> str:
        """The next token as a lowercased name, or ``message`` at its column."""
        token = self.advance()
        if token.kind != "name":
            raise ParseError(message, column=token.pos)
        return token.text.lower()

    def items(self, read: Callable, open: str, close: str, allow_empty: bool = False) -> tuple:
        """``open``, then ``read()`` results separated by commas, then ``close``."""
        self.expect(open)
        if allow_empty and self.accept(close):
            return ()
        items = [read()]
        while self.accept(","):
            items.append(read())
        self.expect(close)
        return tuple(items)

    def parse(self):
        result = self.phrase()
        tail = self.peek()
        if tail.kind != "end":
            raise ParseError(f"trailing input {tail.text!r}", column=tail.pos)
        return result

    def phrase(self):
        raise NotImplementedError


class ExprParser(TokenCursor):
    def phrase(self) -> Expr:
        return self.ternary()

    def ternary(self) -> Expr:
        test = self.comparison()
        if self.accept("?"):
            then = self.ternary()
            self.expect(":")
            otherwise = self.ternary()
            return Ternary(test, then, otherwise)
        return test

    def comparison(self) -> Expr:
        left = self.additive()
        op = self.peek().text
        if op in ("<=", "<", ">=", ">", "=", "==", "!="):
            self.advance()
            right = self.additive()
            return Compare("==" if op == "=" else op, left, right)
        return left

    def additive(self) -> Expr:
        expr = self.multiplicative()
        while self.peek().text in ("+", "-"):
            op = self.advance().text
            expr = Binary(op, expr, self.multiplicative())
        return expr

    def multiplicative(self) -> Expr:
        expr = self.unary()
        while self.peek().text in ("*", "/"):
            op = self.advance().text
            expr = Binary(op, expr, self.unary())
        return expr

    def unary(self) -> Expr:
        if self.accept("-"):
            return Unary("-", self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.accept("^"):
            return Binary("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        token = self.advance()
        if token.kind == "num":
            try:
                return Num(Fraction(token.text))
            except ValueError:  # past Python's cap on the digits of an integer text
                raise ParseError(f"number of {len(token.text)} characters is too long",
                                 column=token.pos) from None
        if token.kind == "name":
            name = token.text.lower()
            if self.peek().text == "(":
                if name not in _CALLS:
                    raise ParseError(f"unknown function {token.text!r}", column=token.pos)
                return Call(name, self.items(self.ternary, "(", ")"))
            return Ref(name)
        if token.text == "(":
            inner = self.ternary()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected token {token.text or 'end'!r}", column=token.pos)


def parse_expr(text: str) -> Expr:
    return ExprParser(text).parse()


def free_names(expr: Expr) -> frozenset[str]:
    """Names referenced by the expression, lowercased."""
    if isinstance(expr, Ref):
        return frozenset((expr.name,))
    if isinstance(expr, Unary):
        return free_names(expr.operand)
    if isinstance(expr, (Binary, Compare)):
        return free_names(expr.left) | free_names(expr.right)
    if isinstance(expr, Ternary):
        return free_names(expr.test) | free_names(expr.then) | free_names(expr.otherwise)
    if isinstance(expr, Call):
        names: frozenset[str] = frozenset()
        for arg in expr.args:
            names |= free_names(arg)
        return names
    return frozenset()


def compile_expr(expr: Expr) -> Callable[[Mapping[str, object]], Number]:
    """Compile once into nested closures, run under lowercased names -> values.

    A run returns an exact ``Fraction`` unless ``sqrt`` forced a float
    somewhere in the computation.  String-valued names may only appear in
    (in)equality comparisons.  Nothing is checked while compiling, and an
    untaken ternary branch is never evaluated.  A float overflow anywhere in
    a run is an ``EvalError``.
    """
    run = _compile(expr)

    def evaluated(env):
        try:
            result = run(env)
        except OverflowError as exc:
            raise EvalError(f"expression overflows: {exc}") from None
        if isinstance(result, str):
            raise EvalError("expression evaluates to a string, not a number")
        return result

    return evaluated


def _compile(expr):
    if isinstance(expr, Num):
        value = expr.value
        return lambda env: value
    if isinstance(expr, Ref):
        name = expr.name

        def ref(env):
            try:
                value = env[name]
            except KeyError:
                raise EvalError(f"unknown name {name!r}") from None
            if isinstance(value, bool) or not isinstance(value, (int, Fraction, float, str)):
                raise EvalError(f"unsupported value {value!r} for {name!r}")
            return Fraction(value) if isinstance(value, int) else value
        return ref
    if isinstance(expr, Unary):
        operand = _compile(expr.operand)
        return lambda env: -_numeric(operand(env))
    if isinstance(expr, Binary):
        left, right = _compile(expr.left), _compile(expr.right)
        arithmetic = _ARITHMETIC.get(expr.op) or _unknown(f"unknown operator {expr.op!r}")

        def binary(env):
            a = _numeric(left(env))
            return arithmetic(a, _numeric(right(env)))
        return binary
    if isinstance(expr, Compare):
        left, right, op = _compile(expr.left), _compile(expr.right), expr.op

        def compare(env):
            a, b = left(env), right(env)
            if isinstance(a, str) or isinstance(b, str):
                if op not in ("==", "!="):
                    raise EvalError("strings only support = and != comparisons")
                outcome = (a == b) if op == "==" else (a != b)
            else:
                outcome = _COMPARISONS[op](a, b)
            return _ONE if outcome else _ZERO
        return compare
    if isinstance(expr, Ternary):
        test, then, otherwise = map(_compile, (expr.test, expr.then, expr.otherwise))

        def ternary(env):
            value = test(env)
            return then(env) if (not isinstance(value, str) and value != 0) else otherwise(env)
        return ternary
    if isinstance(expr, Call):
        args = tuple(_compile(arg) for arg in expr.args)
        function = _CALLS.get(expr.func) or _unknown(f"unknown function {expr.func!r}")
        return lambda env: function([arg(env) for arg in args])
    return _unknown(f"unknown expression node {expr!r}")


def _unknown(message: str):
    """A closure raising ``message`` when run, after its operands are evaluated."""
    def refuse(*operands):
        raise EvalError(message)
    return refuse


def _numeric(value) -> Number:
    if isinstance(value, str):
        raise EvalError(f"string value {value!r} used in arithmetic")
    return value


def _divide(left, right):
    if right == 0:
        raise EvalError("division by zero")
    return left / right


#: Most bits of an exact power, estimated as ``|n|`` times one less than the
#: base's larger numerator or denominator bit length: never above the result's
#: size, at least half of it, and 0 for bases 0, 1 and -1.  A bound on ``n``
#: alone would let nested powers grow.
POWER_BITS_CAP = 10_000


def _power(left, right):
    try:
        if isinstance(right, Fraction) and right.denominator == 1:
            if not isinstance(left, float) and abs(right.numerator) * (max(
                    left.numerator.bit_length(), left.denominator.bit_length()) - 1) > POWER_BITS_CAP:
                raise EvalError(f"exact power above the cap of {POWER_BITS_CAP:,} bits")
            return left ** right.numerator
        base, exponent = float(left), float(right)
        if base < 0 and not exponent.is_integer():
            raise EvalError("power of a negative value with a non-integer exponent")
        return base ** exponent
    except ZeroDivisionError:
        raise EvalError("power of zero with a negative exponent") from None
    except OverflowError:
        raise EvalError("power out of the float range") from None


def _one(func: str, args: list):
    if len(args) != 1:
        raise EvalError(f"{func} takes one argument")
    return args[0]


def _sqrt(args: list) -> float:
    value = float(_numeric(_one("sqrt", args)))
    if value < 0:
        raise EvalError("sqrt of a negative value")
    return math.sqrt(value)


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": _divide, "^": _power}

_COMPARISONS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge,
                ">": operator.gt, "==": operator.eq, "!=": operator.ne}

#: The functions an expression may call, each applied to its evaluated arguments.
_CALLS = {
    "min": lambda args: min([_numeric(a) for a in args]),
    "max": lambda args: max([_numeric(a) for a in args]),
    "abs": lambda args: abs(_numeric(_one("abs", args))),
    "sqrt": _sqrt,
}

_ONE, _ZERO = Fraction(1), Fraction(0)


def format_expr(expr: Expr) -> str:
    if isinstance(expr, Num):
        frac = expr.value
        return str(frac) if frac.denominator == 1 else f"{frac.numerator}/{frac.denominator}"
    if isinstance(expr, Ref):
        return expr.name
    if isinstance(expr, Unary):
        return f"-{format_expr(expr.operand)}"
    if isinstance(expr, Binary):
        return f"({format_expr(expr.left)} {expr.op} {format_expr(expr.right)})"
    if isinstance(expr, Compare):
        return f"({format_expr(expr.left)} {expr.op} {format_expr(expr.right)})"
    if isinstance(expr, Ternary):
        return (
            f"({format_expr(expr.test)} ? {format_expr(expr.then)}"
            f" : {format_expr(expr.otherwise)})"
        )
    if isinstance(expr, Call):
        return f"{expr.func}({', '.join(format_expr(a) for a in expr.args)})"
    return repr(expr)
