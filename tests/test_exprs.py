"""The expression compiler against the recursive reference evaluator."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from helpers import reference_evaluate_expr, replay_hint, stable_seed

from rankrel import exprs
from rankrel.errors import EvalError
from rankrel.exprs import Binary, Call, Compare, Num, Ref, Ternary, Unary

NAMES = ("a", "b", "c", "s")


def outcome(evaluate, expr, env):
    """The value with its type, or the error's type and message.

    A float's ``repr`` is its bits, the sign of zero included; every NaN
    reads ``nan``.
    """
    try:
        value = evaluate(expr, env)
    except (EvalError, ArithmeticError, TypeError, ValueError) as exc:
        return ("raises", type(exc), str(exc))
    return ("value", type(value), repr(value))


def compiled(expr, env):
    return exprs.compile_expr(expr)(env)


def rnd_env(rng: random.Random) -> dict:
    values = [rng.randint(-3, 3), Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
              rng.choice(("x", "y", ""))]
    env = {name: rng.choice(values) for name in NAMES if rng.random() < 0.9}
    env["s"] = rng.choice(("x", "y"))  # one name is always a string
    return env


#: Operands at the edges of both kinds: special and extreme floats, and
#: ``Fraction``s with denominators up to 10**40 (and past the float range).
EXTREMES = (
    math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1 - 2**-53, 0.5, -2.5, 1e308,
    Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-7, 3), 3, -2,
    Fraction(1, 10**40), Fraction(-(10**40) + 1, 10**40), Fraction(10**40 + 3, 7),
    Fraction(7, 10**400), Fraction(-(10**400), 7),
)


def rnd_extreme_env(rng: random.Random) -> dict:
    env = {name: rng.choice(EXTREMES) for name in NAMES}
    env["s"] = rng.choice(("x", "y"))
    return env


def rnd_expr(rng: random.Random, depth: int):
    """Every node kind, with a small share of unknown operators and functions."""
    if depth <= 0 or rng.random() < 0.2:
        if rng.random() < 0.5:
            return Num(Fraction(rng.randint(0, 6), rng.choice((1, 1, 2, 3))))
        return Ref(rng.choice(NAMES + ("missing",)))
    roll = rng.random()

    def sub():
        return rnd_expr(rng, depth - 1)

    if roll < 0.1:
        return Unary("-", sub())
    if roll < 0.4:
        op = rng.choice(("+", "-", "*", "/", "/", "^", "^", "%"))
        if op == "^":  # small exponents keep the powers small
            return Binary(op, sub(), rnd_expr(rng, 0))
        return Binary(op, sub(), sub())
    if roll < 0.6:
        return Compare(rng.choice(("<=", "<", ">=", ">", "==", "!=")), sub(), sub())
    if roll < 0.8:
        return Ternary(sub(), sub(), sub())
    func = rng.choice(("min", "max", "abs", "sqrt", "sqrt", "log"))
    count = rng.choice((1, 1, 1, 2)) if func in ("abs", "sqrt") else rng.randint(1, 3)
    return Call(func, tuple(sub() for _ in range(count)))


class TestCompileExpr:
    @pytest.mark.parametrize("text, env, message", [
        ("1 / (a - a)", {"a": 2}, "division by zero"),
        ("sqrt(a)", {"a": -1}, "sqrt of a negative value"),
        ("s + 1", {"s": "x"}, "string value 'x' used in arithmetic"),
        ("s", {"s": "x"}, "expression evaluates to a string, not a number"),
        ("s < 1", {"s": "x"}, "strings only support = and != comparisons"),
        ("nope + 1", {}, "unknown name 'nope'"),
        ("a", {"a": True}, "unsupported value True for 'a'"),
        ("abs(a, a)", {"a": 1}, "abs takes one argument"),
    ])
    def test_errors_match_the_reference(self, text, env, message):
        expr = exprs.parse_expr(text)
        for evaluate in (lambda e, env: exprs.compile_expr(e)(env), reference_evaluate_expr):
            with pytest.raises(EvalError) as err:
                evaluate(expr, env)
            assert str(err.value) == message

    @pytest.mark.parametrize("text, env", [
        ("a ^ 0.5", {"a": 4}),
        ("2 ^ (1/3)", {}),
        ("(0 - a) ^ 0.5 == 1", {"a": 4}),  # a negative base with a non-integer exponent
        ("a ^ b", {"a": Fraction(2, 3), "b": -2}),
        ("1 ? a : 1/0", {"a": 3}),
        ("0 ? sqrt(0 - 1) : s == s", {"s": "y"}),
        ("a <= 6 ? 0.1 * (4 + a) : nope", {"a": 5}),
        ("min(a, b) + max(a, 1/2) - abs(0 - b)", {"a": 1, "b": Fraction(-3, 4)}),
    ])
    def test_values_match_the_reference(self, text, env):
        expr = exprs.parse_expr(text)
        assert outcome(compiled, expr, env) == outcome(reference_evaluate_expr, expr, env)

    def test_untaken_branch_is_never_evaluated(self):
        expr = exprs.parse_expr("a > 0 ? a : 1/0 + sqrt(0 - 1) + s * 2 + nope")
        assert compiled(expr, {"a": 2, "s": "x"}) == 2
        with pytest.raises(EvalError, match="division by zero"):
            compiled(expr, {"a": 0, "s": "x"})

    def test_unknown_nodes_raise_when_reached(self):
        bad_op = Binary("%", Num(Fraction(1)), Ref("nope"))
        bad_call = Call("log", (Num(Fraction(2)),))
        for expr in (bad_op, bad_call, object()):
            run = exprs.compile_expr(Ternary(Ref("a"), expr, Num(Fraction(7))))
            assert run({"a": 0}) == 7
            assert outcome(compiled, expr, {}) == outcome(reference_evaluate_expr, expr, {})
        # the operands are evaluated first, as in the reference
        assert "unknown name 'nope'" in outcome(compiled, bad_op, {})[2]

    def test_random_expressions_match_the_reference(self):
        seed = stable_seed("compile_expr")
        rng = random.Random(seed)
        kinds, messages = set(), set()
        with replay_hint(seed):
            for _ in range(3000):
                expr = rnd_expr(rng, depth=4)
                run = exprs.compile_expr(expr)
                for _ in range(3):
                    env = rnd_env(rng)
                    expected = outcome(reference_evaluate_expr, expr, env)
                    assert outcome(lambda e, v: run(v), expr, env) == expected, (expr, env)
                    kinds.add(expected[1])
                    if expected[1] is EvalError:
                        messages.add(expected[2].split(" ")[0])
        assert {Fraction, float, EvalError} <= kinds
        assert {"division", "sqrt", "string", "strings", "unknown", "expression",
                "power"} <= messages

    @pytest.mark.parametrize("text", [
        "a + b", "a - b", "a * b", "a / b", "a ^ b", "-a", "abs(a)", "sqrt(a)",
        "a <= b", "a < b", "a >= b", "a > b", "a == b", "a != b", "a ? 1 : 2",
        "min(a, b)", "max(a, b)", "min(b, a, b)", "max(b, a, a)", "a ^ 0", "a ^ (0 - 1)",
        "a ^ (0 - 2)", "a ^ 3", "a ^ (1/2)", "a * 1.0", "a / 3 * 3",
    ])
    def test_every_pair_of_extreme_operands_matches_the_reference(self, text):
        expr = exprs.parse_expr(text)
        run = exprs.compile_expr(expr)
        for a, b in itertools.product(EXTREMES, repeat=2):
            env = {"a": a, "b": b}
            assert outcome(lambda e, v: run(v), expr, env) == outcome(
                reference_evaluate_expr, expr, env), env

    def test_random_expressions_over_extreme_operands_match_the_reference(self):
        seed = stable_seed("compile_expr extremes")
        rng = random.Random(seed)
        kinds = set()
        with replay_hint(seed):
            for _ in range(1500):
                expr = rnd_expr(rng, depth=4)
                run, ratio = exprs.compile_expr(expr), exprs.compile_ratio(expr)
                for _ in range(3):
                    env = rnd_extreme_env(rng)
                    expected = outcome(reference_evaluate_expr, expr, env)
                    assert outcome(lambda e, v: run(v), expr, env) == expected, (expr, env)
                    kinds.add(expected[1])
                    if expected[0] == "value":  # the ratio is the same value, or the same float
                        value = ratio(env)
                        value = Fraction(*value) if isinstance(value, tuple) else value
                        assert (type(value), repr(value)) == expected[1:], (expr, env)
        assert {Fraction, float, EvalError, ZeroDivisionError} <= kinds

    def test_a_value_passed_through_is_the_same_object_on_every_run(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        literal = exprs.parse_expr("a > 0 ? 0.5 : a")
        run = exprs.compile_expr(literal)
        assert run({"a": 1}) is run({"a": 2}) is literal.then.value
        run = exprs.compile_expr(exprs.parse_expr("a > 0 ? a : 0"))
        assert run({"a": half}) is half and run({"a": 0.25}) == 0.25
        run = exprs.compile_expr(exprs.parse_expr("min(a, b)"))
        assert run({"a": half, "b": 0.5}) is half  # a tie keeps the first, as builtin min
        assert run({"a": third, "b": half}) is third
        run = exprs.compile_expr(exprs.parse_expr("max(a, b)"))
        assert run({"a": 0.5, "b": half}).__class__ is float
        assert run({"a": third, "b": half}) is half

    def test_a_constant_subtree_is_one_object_across_runs(self):
        run = exprs.compile_expr(exprs.parse_expr("a > 0 ? sqrt(2) / 2 : 1/3 + 1/6"))
        assert run({"a": 1}) is run({"a": 2}) == math.sqrt(2) / 2
        assert run({"a": 0}) is run({"a": -1}) == Fraction(1, 2)
        # arithmetic on a name makes a fresh Fraction each run
        run = exprs.compile_expr(exprs.parse_expr("a + 1/2"))
        assert run({"a": 1}) == run({"a": 1}) and run({"a": 1}) is not run({"a": 1})

    def test_a_long_sum_compiles_and_runs_one_call_deep_per_level(self):
        # a fold that nested a second call per level would hit the recursion limit here
        for lead in ("x", "1"):
            run = exprs.compile_expr(exprs.parse_expr(lead + " + 1" * 700))
            assert run({"x": 1}) == 701

    @pytest.mark.parametrize("text, env, value", [
        ("x ^ 2", {"x": Fraction(3, 7)}, Fraction(9, 49)),
        ("(1/2) ^ 10", {}, Fraction(1, 1024)),
        ("x ^ (0 - 3)", {"x": Fraction(2, 3)}, Fraction(27, 8)),
        ("2 ^ 10000", {}, Fraction(2) ** 10000),  # 1 bit times 10,000: at the cap
        ("1 ^ 20000", {}, Fraction(1)),  # bases 0, 1 and -1 cost nothing
        ("0 ^ 20000", {}, Fraction(0)),
        ("(0 - 1) ^ 20001", {}, Fraction(-1)),
        ("(1/2) ^ (0 - 10000)", {}, Fraction(2) ** 10000),
        # the base (42, 21) and the exponent (30, 15) are reduced first, as Fractions are
        ("(2 * x / x) ^ 10000", {"x": Fraction(3, 7)}, Fraction(2) ** 10000),
        ("x ^ (2 * y / y)", {"x": Fraction(3, 7), "y": Fraction(5, 3)}, Fraction(9, 49)),
    ])
    def test_exact_powers_under_the_cap(self, text, env, value):
        expr = exprs.parse_expr(text)
        assert compiled(expr, env) == reference_evaluate_expr(expr, env) == value

    @pytest.mark.parametrize("text", [
        "3 ^ (10 ^ 7)", "(1 + x) ^ (10 ^ 7)", "2 ^ 10001", "(1/2) ^ (0 - 10001)", "x ^ (0 - 10 ^ 7)",
        "((10 ^ 9) ^ 300) ^ 300",  # each step is under the cap, the nested one is not
    ])
    def test_exact_powers_over_the_cap(self, text):
        expr = exprs.parse_expr(text)
        for evaluate in (compiled, reference_evaluate_expr):
            with pytest.raises(EvalError) as err:
                evaluate(expr, {"x": Fraction(3, 7)})
            assert str(err.value) == (
                f"exact power above the cap of {exprs.POWER_BITS_CAP:,} bits"
            )

    def test_compiling_does_not_evaluate(self):
        exprs.compile_expr(exprs.parse_expr("1/0 + sqrt(0 - 1) + nope"))
