"""Small arithmetic/comparison expression language over exact rationals.

Used both for restriction conditions (attribute references, e.g.
``bdrm <= 6 ? 0.1*(4+bdrm) : 1``) and for analytic score maps (single
variable ``x``, e.g. ``x <= 0.5 ? sqrt(x)/sqrt(2) : 2*(x-0.5)^2 + 0.5``).

Arithmetic stays exact until an irrational function such as ``sqrt``, or a
float operand, forces a float.  The one evaluator computes exact values as
integer ratios ``(num, den)``, not ``Fraction``s: :func:`compile_expr` turns
an exact result into one ``Fraction`` at the end of a run, and
:func:`compile_ratio` leaves it a ratio.  A subtree that names nothing is
evaluated once, when compiling.  Callers clamp a result into [0, 1] with
``chain.clamp01``; a condition rounds a float result onto the score grid with
``ScoreChain.on_grid`` and keeps an exact one as it is, and an analytic map
rounds every result, ratios as they are.  Comparisons yield 0/1.  Names are
case-insensitive.

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

from .chain import Ratio
from .errors import EvalError, ParseError

Number = Union[Fraction, float]

#: A name as the query, formula and expression grammars read it.
NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<name>" + NAME_RE.pattern + r")"
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

    A run returns an exact ``Fraction`` unless ``sqrt`` or a float operand
    forced a float somewhere in the computation.  A literal, a referenced
    ``Fraction`` or float, or an argument passed through ``min``/``max`` (or
    a ternary) is returned as the same object on every run, and so is a
    constant subtree's value; an exact result of arithmetic becomes one
    fresh ``Fraction``.  String-valued names may only appear in
    (in)equality comparisons.  The only evaluation while compiling is that
    of constant subtrees, once each; one that fails is left to fail when a
    run reaches it, so an untaken ternary branch never raises.  A float
    overflow anywhere in a run is an ``EvalError``.
    """
    return _runner(expr, _fraction)


def compile_ratio(expr: Expr) -> Callable[[Mapping[str, object]], Union[Ratio, float]]:
    """:func:`compile_expr` with an exact result left as a ``Ratio``, never reduced here."""
    return _runner(expr, _ratio)


def _runner(expr: Expr, exact: Callable[[tuple], object]):
    run, _ = _compile(expr)

    def evaluated(env):
        try:
            result = run(env)
        except OverflowError as exc:
            raise EvalError(f"expression overflows: {exc}") from None
        if result.__class__ is tuple:
            return exact(result)
        if isinstance(result, str):
            raise EvalError("expression evaluates to a string, not a number")
        return result

    return evaluated


def _fraction(value: tuple) -> Fraction:
    return value[2] if len(value) > 2 else Fraction(value[0], value[1])


_ratio = operator.itemgetter(0, 1)

# The kernel.  A closure returns a float, a string, or an exact value as a
# tuple ``(num, den, ...)`` with ``den > 0``, not necessarily reduced: ``+ -
# * /`` cross-multiply, and only the power rules and ``compile_expr``'s
# ``Fraction`` reduce.
# A literal's or a referenced ``Fraction``'s tuple carries that ``Fraction``
# third, so a value passed through unchanged ends the run as itself.  A
# float meets an exact value as ``num / den``, which is ``float(Fraction)``
# (correctly rounded, the same ``OverflowError``), and compares with it as
# ``Fraction`` does: exactly, or as 0.0 against an infinity or a NaN.


def _compile(expr) -> tuple[Callable, bool]:
    """The node's closure, and whether its subtree names nothing (one call per tree level).

    Such a subtree is run here once, through :func:`_folded`.
    """
    if isinstance(expr, Num):
        value = _carrying(expr.value)
        return (lambda env: value), True
    if isinstance(expr, Ref):
        name = expr.name

        def ref(env):
            try:
                value = env[name]
            except KeyError:
                raise EvalError(f"unknown name {name!r}") from None
            if isinstance(value, Fraction):
                return (value.numerator, value.denominator, value)
            if isinstance(value, bool) or not isinstance(value, (int, float, str)):
                raise EvalError(f"unsupported value {value!r} for {name!r}")
            return (int(value), 1) if isinstance(value, int) else value
        return ref, False
    if isinstance(expr, Unary):
        operand, constant = _compile(expr.operand)

        def negate(env):
            value = _numeric(operand(env))
            return (-value[0], value[1]) if value.__class__ is tuple else -value
        return _folded(negate, constant)
    if isinstance(expr, Binary):
        (left, left_constant), (right, right_constant) = _compile(expr.left), _compile(expr.right)
        exact, mixed = _ARITHMETIC.get(expr.op) or (_unknown(f"unknown operator {expr.op!r}"),) * 2

        def binary(env):
            a = left(env)
            if a.__class__ is tuple:
                b = right(env)
                if b.__class__ is tuple:
                    return exact(a, b)
            else:
                _numeric(a)
                b = right(env)
            return mixed(a, _numeric(b))
        return _folded(binary, left_constant and right_constant)
    if isinstance(expr, Compare):
        (left, left_constant), (right, right_constant) = _compile(expr.left), _compile(expr.right)
        op = expr.op

        def compare(env):
            a, b = left(env), right(env)
            if isinstance(a, str) or isinstance(b, str):
                if op not in ("==", "!="):
                    raise EvalError("strings only support = and != comparisons")
                outcome = (a == b) if op == "==" else (a != b)
            elif a.__class__ is tuple and b.__class__ is tuple:
                outcome = _COMPARISONS[op](a[0] * b[1], b[0] * a[1])
            else:
                outcome = _COMPARISONS[op](*_comparable(a, b))
            return _TRUE if outcome else _FALSE
        return _folded(compare, left_constant and right_constant)
    if isinstance(expr, Ternary):
        (test, test_constant), (then, then_constant), (otherwise, otherwise_constant) = map(
            _compile, (expr.test, expr.then, expr.otherwise))

        def ternary(env):
            value = test(env)
            if value.__class__ is tuple:
                taken = value[0] != 0
            else:
                taken = not isinstance(value, str) and value != 0
            return then(env) if taken else otherwise(env)
        return _folded(ternary, test_constant and then_constant and otherwise_constant)
    if isinstance(expr, Call):
        compiled = [_compile(arg) for arg in expr.args]
        args = tuple(run for run, _ in compiled)
        function = _CALLS.get(expr.func) or _unknown(f"unknown function {expr.func!r}")
        return _folded(lambda env: function([arg(env) for arg in args]),
                       all(constant for _, constant in compiled))
    return _unknown(f"unknown expression node {expr!r}"), False


def _folded(run: Callable, constant: bool) -> tuple[Callable, bool]:
    """``run``, or for a subtree naming nothing a closure returning its one value.

    The subtree's own subtrees are folded already, so running it here is
    shallow.  One that raises is left to raise when, and only if, a run
    reaches it.
    """
    if not constant:
        return run, False
    try:
        value = run({})
    except (EvalError, ArithmeticError, ValueError):
        return run, False
    if value.__class__ is tuple and len(value) == 2:
        value = _carrying(Fraction(value[0], value[1]))
    return (lambda env: value), True


def _carrying(value: Fraction) -> tuple:
    """``value`` as the kernel's tuple, carrying itself third."""
    return (value.numerator, value.denominator, value)


def _unknown(message: str):
    """A closure raising ``message`` when run, after its operands are evaluated."""
    def refuse(*operands):
        raise EvalError(message)
    return refuse


def _numeric(value):
    if isinstance(value, str):
        raise EvalError(f"string value {value!r} used in arithmetic")
    return value


def _float(value) -> float:
    return value[0] / value[1] if value.__class__ is tuple else value


def _reduced(value: tuple) -> tuple[int, int]:
    num, den = value[0], value[1]
    common = math.gcd(num, den)
    return num // common, den // common


def _comparable(a, b) -> tuple:
    """Two values that Python compares as ``Fraction`` compares ``a`` with ``b``."""
    if a.__class__ is tuple:
        if b.__class__ is tuple:
            return a[0] * b[1], b[0] * a[1]
        if not math.isfinite(b):
            return 0.0, b
        num, den = b.as_integer_ratio()
        return a[0] * den, num * a[1]
    if b.__class__ is tuple:
        right, left = _comparable(b, a)
        return left, right
    return a, b


def _divide(a, b):
    num = b[0]
    if not num:
        raise EvalError("division by zero")
    if num < 0:
        return (-a[0] * b[1], -num * a[1])
    return (a[0] * b[1], num * a[1])


def _divide_mixed(a, b):
    if (b[0] if b.__class__ is tuple else b) == 0:
        raise EvalError("division by zero")
    return _float(a) / _float(b)


#: Most bits of an exact power, estimated as ``|n|`` times one less than the
#: base's larger numerator or denominator bit length, both reduced: never
#: above the result's size, at least half of it, and 0 for bases 0, 1 and -1.
#: A bound on ``n`` alone would let nested powers grow.
POWER_BITS_CAP = 10_000


def _power(left, right):
    try:
        if right.__class__ is tuple:
            exponent, den = _reduced(right)
            if den == 1:
                if left.__class__ is not tuple:
                    return left ** exponent
                num, den = _reduced(left)
                if abs(exponent) * (max(num.bit_length(), den.bit_length()) - 1) > POWER_BITS_CAP:
                    raise EvalError(f"exact power above the cap of {POWER_BITS_CAP:,} bits")
                if exponent >= 0:
                    return (num ** exponent, den ** exponent)
                if not num:
                    raise ZeroDivisionError
                if num < 0:  # the sign moves to the numerator
                    num, den = -num, -den
                return (den ** -exponent, num ** -exponent)
        base, exponent = _float(left), _float(right)
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
    return _numeric(args[0])


def _abs(args: list):
    value = _one("abs", args)
    return (abs(value[0]), value[1]) if value.__class__ is tuple else abs(value)


def _sqrt(args: list) -> float:
    value = _float(_one("sqrt", args))
    if value < 0:
        raise EvalError("sqrt of a negative value")
    return math.sqrt(value)


def _extreme(func: str, better: Callable):
    """``min`` or ``max``: the first argument that no later one beats, itself."""
    def pick(args: list):
        values = [_numeric(a) for a in args]
        if not values:
            raise ValueError(f"{func}() arg is an empty sequence")
        best = values[0]
        for value in values[1:]:
            if better(*_comparable(value, best)):
                best = value
        return best
    return pick


def _mixed(op: Callable) -> Callable:
    return lambda a, b: op(_float(a), _float(b))


#: Each operator's rule for two exact values, and for any other pair.
_ARITHMETIC = {
    "+": (lambda a, b: (a[0] * b[1] + b[0] * a[1], a[1] * b[1]), _mixed(operator.add)),
    "-": (lambda a, b: (a[0] * b[1] - b[0] * a[1], a[1] * b[1]), _mixed(operator.sub)),
    "*": (lambda a, b: (a[0] * b[0], a[1] * b[1]), _mixed(operator.mul)),
    "/": (_divide, _divide_mixed),
    "^": (_power, _power),
}

_COMPARISONS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge,
                ">": operator.gt, "==": operator.eq, "!=": operator.ne}

#: The functions an expression may call, each applied to its evaluated arguments.
_CALLS = {
    "min": _extreme("min", operator.lt),
    "max": _extreme("max", operator.gt),
    "abs": _abs,
    "sqrt": _sqrt,
}

_TRUE, _FALSE = _carrying(Fraction(1)), _carrying(Fraction(0))


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
