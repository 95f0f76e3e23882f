"""Formula evaluation, induced tables, and the two translation directions
(the reverse one is the oracle in ``codd``)."""

import itertools
import pickle
import random
import re
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

from codd import algebra_to_formula
from helpers import (
    ANY_ARITIES,
    reference_evaluate,
    replay_hint,
    reference_table_of,
    rnd_any_structure,
    rnd_formula,
    rnd_grid_isomorphism,
    rnd_structure,
    stable_seed,
    stringified,
)

from rankrel import algebra, calculus, demo, planner
from rankrel.calculus import (
    And,
    Atom,
    Exists,
    Falsum,
    ForAll,
    Iff,
    Implies,
    Not,
    Or,
    Structure,
    evaluate,
    formula_to_algebra,
    free_vars,
    parse_formula,
    structure_from_tables,
    table_of,
)
from rankrel.chain import RATIONAL, ScoreChain
from rankrel.conditions import ExprCondition
from rankrel.errors import (
    EvalError,
    MapPropertyError,
    ParseError,
    QuantizationError,
    SchemeError,
    UnknownNameError,
    UnsupportedOperationError,
)
from rankrel.maps import AnalyticMap, compose_table
from rankrel.table import INT, RankedTable, Row, Scheme, read_table_csv

fr = RATIONAL.parse


@pytest.fixture
def structure():
    return Structure(
        RATIONAL,
        universe=("m1", "m2", "m3"),
        arities={"r": 1, "s": 2},
        interps={
            "r": {("m1",): fr("0.7"), ("m2",): fr("0.2"), ("m3",): fr("0.9")},
            "s": {("m1", "m2"): fr("0.5"), ("m2", "m2"): fr("1")},
        },
    )


class TestEvaluate:
    def test_atom_lookup(self, structure):
        phi = Atom("r", ("x",))
        assert evaluate(phi, structure, {"x": "m1"}) == fr("0.7")
        assert evaluate(phi, structure, {"x": "m2"}) == fr("0.2")

    def test_self_implication_is_top(self):
        rng = random.Random(3)
        for _ in range(20):
            m = rnd_structure(rng)
            phi = rnd_formula(rng, depth=1)
            valuation = {v: m.universe[0] for v in free_vars(phi)}
            assert evaluate(Implies(phi, phi), m, valuation).is_top

    def test_exists_takes_best(self, structure):
        phi = Exists("x", Atom("r", ("x",)))
        assert evaluate(phi, structure, {}) == fr("0.9")

    def test_forall_takes_worst(self, structure):
        phi = ForAll("x", Atom("r", ("x",)))
        assert evaluate(phi, structure, {}) == fr("0.2")

    def test_falsum_and_negation(self, structure):
        assert evaluate(Falsum(), structure, {}).is_bottom
        assert evaluate(Not(Atom("r", ("x",))), structure, {"x": "m1"}).is_bottom
        assert evaluate(Not(Falsum()), structure, {}).is_top

    def test_disjunction_is_supremum(self, structure):
        phi = Or(Atom("r", ("x",)), Atom("r", ("y",)))
        value = evaluate(phi, structure, {"x": "m1", "y": "m2"})
        assert value == fr("0.7")

    def test_biconditional(self, structure):
        phi = Iff(Atom("r", ("x",)), Atom("r", ("y",)))
        assert evaluate(phi, structure, {"x": "m1", "y": "m1"}).is_top
        assert evaluate(phi, structure, {"x": "m1", "y": "m2"}) == fr("0.2")

    def test_unbound_variable(self, structure):
        with pytest.raises(EvalError):
            evaluate(Atom("r", ("x",)), structure, {})

    def test_arity_mismatch(self, structure):
        with pytest.raises(EvalError):
            evaluate(Atom("s", ("x",)), structure, {"x": "m1"})

    def test_crisp_degeneration_matches_classic_logic(self):
        rng = random.Random(5)
        universe = ("m1", "m2")
        for _ in range(60):
            interps = {
                "p": {(el,): RATIONAL.top for el in universe if rng.random() < 0.5},
                "q": {
                    (a, b): RATIONAL.top
                    for a in universe
                    for b in universe
                    if rng.random() < 0.5
                },
                "r": {
                    (a, b): RATIONAL.top
                    for a in universe
                    for b in universe
                    if rng.random() < 0.5
                },
            }
            m = Structure(RATIONAL, universe, {"p": 1, "q": 2, "r": 2}, interps)
            phi = rnd_formula(rng, depth=2)
            valuation = {v: rng.choice(universe) for v in free_vars(phi)}

            def classic(node, val):
                if isinstance(node, Falsum):
                    return False
                if isinstance(node, Atom):
                    return tuple(val[a] for a in node.args) in interps[node.symbol]
                if isinstance(node, And):
                    return classic(node.left, val) and classic(node.right, val)
                if isinstance(node, Or):
                    return classic(node.left, val) or classic(node.right, val)
                if isinstance(node, Implies):
                    return (not classic(node.left, val)) or classic(node.right, val)
                if isinstance(node, ForAll):
                    return all(classic(node.body, {**val, node.var: el}) for el in universe)
                return any(classic(node.body, {**val, node.var: el}) for el in universe)

            assert evaluate(phi, m, valuation).is_top == classic(phi, valuation)


LEVELS = ScoreChain(("none", "low", "mid", "high", "full"))


def with_ternary(m: Structure, rng: random.Random, density: float) -> Structure:
    """``m`` plus a ternary symbol ``t``, each vector stored with probability ``density``."""
    extra = rnd_any_structure(rng, m.chain, len(m.universe), {"t": 3}, density)
    return Structure(m.chain, m.universe, {**m.arities, **extra.arities},
                     {**m.interps, **extra.interps})


class TestRankCodes:
    """``evaluate`` and ``table_of`` against the recursive evaluator on scores."""

    @pytest.mark.parametrize("chain", [RATIONAL, LEVELS], ids=["rational", "levels"])
    @pytest.mark.parametrize("text", [
        "exists x. (p(x) & forall x. q(x, x))",  # shadowed binder, repeated variable
        "forall y. exists y. r(y, x)",  # inner binder shadows the outer
        "exists x. (q(x, y) -> exists y. r(y, x))",  # free y, bound y beneath
        "o & p(x)",  # arity-0 atom
        "o -> false",
        "false | q(x, x)",
        "forall z. (false & p(z))",
        # guarded quantifiers: each ranges over its guard atom's support
        "exists z. (q(x, z) & p(z))",  # guard on the left
        "exists z. (p(y) & q(z, x))",  # guard on the right, after a conjunct without z
        "exists z. (p(x) & (o & (q(z, y) & p(z))))",  # guard inside a nested conjunction
        "forall z. (q(x, z) -> p(z))",
        "forall z. ((p(z) & q(x, z)) -> r(z, x))",  # a conjunction as antecedent
        "forall z. ~q(z, z)",  # repeated variable
        "exists z. q(z, z)",
        "exists x. exists z. (q(x, z) & r(z, x))",  # x bound by an outer quantifier
        "exists z. (q(x, z) & exists z. r(z, x))",  # inner binder shadows the guard's variable
        "forall z. (q(z, x) -> exists x. q(x, z))",  # and the guard's other argument
        # a quantifier ranges over the intersection of all its guards
        "exists z. (q(x, z) & r(z, y))",  # two guards, keyed on different free variables
        "exists z. (q(x, z) & (p(z) & r(y, z)))",  # three, one in a nested conjunction
        "forall z. ((q(x, z) & r(z, y)) -> p(z))",  # two in a forall antecedent
        "forall z. ~(q(x, z) & r(y, z))",  # and in ~a
        "exists z. (t(x, z, z) & r(z, x))",  # a repeated binder in one of them
        # free variables range over their atom conjuncts' supports
        "q(x, y) & p(y)",
        "exists z. exists w. (q(x, z) & (r(z, w) & t(w, y, x)))",  # through leading binders
        "q(x, x) & r(x, y)",  # a repeated free variable
        "exists z. (t(z, z, x) & q(x, y))",  # a repeated binder beside a free variable
        "p(x) & (q(x, y) | false)",  # y is guarded only inside |: it keeps the universe
        "p(x) & (q(y, x) -> p(y))",  # and only inside ->
        "exists x. (q(x, y) & exists y. r(y, x))",  # a binder shadows the free guard argument
        "exists z. (q(z, x) & forall x. (r(x, z) -> p(x)))",  # and a forall's binder
        "exists z. (t(x, z, y) & t(x, w, v))",  # the demo formula's shape
    ])
    def test_fixed_formulas(self, chain, text):
        rng, ternary = random.Random(41), random.Random(42)
        phi = parse_formula(text)
        for _ in range(20):
            m = with_ternary(rnd_any_structure(rng, chain), ternary, 0.5)
            assert table_of(m, phi) == reference_table_of(m, phi)
        # sparse supports, so that guards leave values out
        for _ in range(20):
            m = with_ternary(rnd_any_structure(rng, chain, 4, density=0.3), ternary, 0.1)
            assert table_of(m, phi) == reference_table_of(m, phi)

    @pytest.mark.parametrize("chain", [RATIONAL, LEVELS], ids=["rational", "levels"])
    def test_random_formulas(self, chain):
        rng = random.Random(43)
        for _ in range(300):
            m = rnd_any_structure(rng, chain)
            phi = rnd_formula(rng, depth=3, arities=ANY_ARITIES)
            assert table_of(m, phi) == reference_table_of(m, phi), str(phi)
            # every variable bound, in a shuffled order, plus one the formula never reads
            names = ["x", "y", "z", "unused"]
            rng.shuffle(names)
            valuation = {name: rng.choice(m.universe) for name in names}
            assert evaluate(phi, m, valuation) == reference_evaluate(phi, m, valuation)

    def test_stored_bottom_reads_as_absent(self):
        m = Structure(LEVELS, ("m1", "m2"), {"p": 1}, {"p": {("m1",): LEVELS.bottom}})
        assert evaluate(Exists("x", Atom("p", ("x",))), m, {}).is_bottom
        assert evaluate(Not(Atom("p", ("x",))), m, {"x": "m1"}).is_top
        assert len(table_of(m, Atom("p", ("x",)))) == 0

    def test_one_table_of_compiles_once_and_never_looks_up(self, monkeypatch):
        universe = tuple(f"e{i}" for i in range(30))
        rng = random.Random(47)
        interps = {
            symbol: {pair: RATIONAL.score(Fraction(rng.randint(1, 4), 4))
                     for pair in itertools.product(universe, repeat=2)
                     if rng.random() < 0.1}
            for symbol in ("r", "s")
        }
        m = Structure(RATIONAL, universe, {"r": 2, "s": 2}, interps)
        phi = parse_formula("exists z. (r(x, z) & s(z, y))")
        compiled, evaluated = [], []
        compile_, evaluate_ = calculus._compile, calculus.evaluate

        def counting_compile(*args):
            compiled.append(args)
            return compile_(*args)

        def counting_evaluate(*args):
            evaluated.append(args)
            return evaluate_(*args)

        monkeypatch.setattr(calculus, "_compile", counting_compile)
        monkeypatch.setattr(calculus, "evaluate", counting_evaluate)
        table = table_of(m, phi)
        # x ranges over r's first column and y over s's second, z projected out
        candidates = len({x for x, _ in interps["r"]}) * len({y for _, y in interps["s"]})
        assert len(evaluated) == candidates < 900 and len(compiled) == 1
        monkeypatch.undo()
        assert table == reference_table_of(m, phi)

    def test_a_quantifier_visits_its_guards_intersection_in_stored_order(self):
        universe = tuple(f"e{i}" for i in range(30))
        rng = random.Random(59)
        scores = [RATIONAL.score(Fraction(level, 4)) for level in range(1, 5)]
        r, s = ({pair: rng.choice(scores) for pair in itertools.product(universe, repeat=2)
                 if rng.random() < 0.1} for _ in range(2))
        m = Structure(RATIONAL, universe, {"r": 2, "s": 2}, {"r": r, "s": s})
        _, _, ran = counted_run(m, parse_formula("exists z. (r(x, z) & s(z, y))"))
        # z runs over r's successors of x in stored order, kept where s(z, y)
        # holds, up to the first top; any other order changes the early exits
        expected = 0
        xs, ys = dict.fromkeys(a for a, _ in r), dict.fromkeys(b for _, b in s)
        for x, y in itertools.product(xs, ys):
            for z in (b for a, b in r if a == x and (b, y) in s):
                expected += 1
                if min(r[x, z], s[z, y]).is_top:
                    break
        assert list(ran.values()) == [expected]


class TestErrors:
    """Messages and their order match the recursive evaluator's, short-cuts or not."""

    @pytest.mark.parametrize("phi, valuation, message", [
        (parse_formula("false & nosuch(x)"), {"x": "m1"}, "unknown relation symbol 'nosuch'"),
        (parse_formula("false -> nosuch(x)"), {"x": "m1"}, "unknown relation symbol 'nosuch'"),
        (parse_formula("forall x. (false & s(x))"), {}, "arity mismatch for 's'"),
        (parse_formula("exists x. (~false | r(y))"), {}, "unbound variable 'y'"),
        (parse_formula("nosuch(y)"), {}, "unbound variable 'y'"),
        (parse_formula("nosuch(x)"), {"x": "m1"}, "unknown relation symbol 'nosuch'"),
        (parse_formula("false & rain"), {}, "unknown relation symbol 'rain'"),
        (parse_formula("s(x) & nosuch(x)"), {"x": "m1"}, "arity mismatch for 's'"),
        (parse_formula("r(x) -> (nosuch(x) & s(x))"), {"x": "m1"},
         "unknown relation symbol 'nosuch'"),
        (And(Falsum(), "bogus"), {}, "unknown formula node 'bogus'"),
    ])
    def test_messages_and_order(self, structure, phi, valuation, message):
        with pytest.raises(EvalError) as reference:
            reference_evaluate(phi, structure, valuation)
        with pytest.raises(EvalError) as compiled:
            evaluate(phi, structure, valuation)
        assert str(compiled.value) == str(reference.value) == message


class TestTableOf:
    def test_sentence_gives_empty_scheme(self, structure):
        sentence = Exists("x", Atom("r", ("x",)))
        table = table_of(structure, sentence)
        assert len(table.scheme) == 0
        assert table.score_of(Row.of({})) == fr("0.9")

    def test_atom_table_is_interpretation(self, structure):
        table = table_of(structure, Atom("s", ("x", "y")))
        assert table.score_of(Row.of({"x": "m1", "y": "m2"})) == fr("0.5")
        assert len(table) == 2

    def test_conjunction_matches_join_of_atoms(self):
        rng = random.Random(7)
        for _ in range(40):
            m = rnd_structure(rng)
            phi = And(Atom("p", ("x",)), Atom("q", ("x", "y")))
            direct = table_of(m, phi)
            joined = algebra.natural_join(
                table_of(m, Atom("p", ("x",))), table_of(m, Atom("q", ("x", "y")))
            )
            assert direct == joined

    def test_repeated_variable_takes_diagonal(self, structure):
        table = table_of(structure, Atom("s", ("x", "x")))
        assert len(table) == 1
        assert table.score_of(Row.of({"x": "m2"})).is_top


    def test_valuation_cap_counts_free_and_bound_variables(self, structure, monkeypatch):
        monkeypatch.setattr(calculus, "VALUATION_CAP", 27)
        # x ranges over s's 2 first values, y over 1 successor each, z over r's 3 values
        assert valuation_count(structure, parse_formula("exists z. (s(x, y) & r(z))")) == 6
        # 2 * 1 free valuations, z unguarded over 3, w over z's 1 successor: 6
        assert valuation_count(structure, parse_formula(
            "exists z. exists w. (s(x, y) & s(z, w))")) == 6
        table_of(structure, parse_formula("exists z. exists w. (s(x, y) & s(z, w))"))
        # no conjunction guards x or y, and no atom guards z or w: 3^4 valuations
        with pytest.raises(UnsupportedOperationError, match=r"81 valuations .* cap of 27$"):
            table_of(structure, parse_formula("exists z. exists w. (s(x, y) | s(z, w))"))

    @pytest.mark.parametrize("text, count", [
        # id over houses' 6 ids, sqft 1 per id, agent 2 at most, price 1 per agent; x 1
        ("exists x. (houses(id, x, sqft) & offers(id, a, p))", 12),
        # a, b, c through houses' 6 rows; three unguarded binders over 26 elements
        ("exists x. exists x. exists x. houses(a, b, c)", 6 * 26 ** 3),
        # an implication guards no free variable
        ("houses(a, b, c) -> offers(d, e, f)", 26 ** 6),
    ])
    def test_cap_counts_what_runs(self, text, count):
        m = structure_from_tables(demo.demo_catalog().tables)
        phi = parse_formula(text)
        assert valuation_count(m, phi) == count
        if count > calculus.VALUATION_CAP:
            with pytest.raises(UnsupportedOperationError,
                               match=rf"^formula needs {count:,} valuations over a 26-element "
                                     r"universe, above the cap of 1,000,000$"):
                table_of(m, phi)
        else:
            table_of(m, phi)

    def test_formula_over_the_cap_refused_before_evaluating(self, monkeypatch):
        m = structure_from_tables(demo.demo_catalog().tables)
        phi = parse_formula("houses(a, b, c) -> offers(d, e, f)")

        def refuse(*args):
            raise AssertionError("evaluated a formula over the valuation cap")

        monkeypatch.setattr(calculus, "evaluate", refuse)
        with pytest.raises(UnsupportedOperationError,
                           match=r"308,915,776 valuations .* cap of 1,000,000$"):
            table_of(m, phi)

    def test_demo_join_formula_gives_the_algebras_six_rows(self):
        m = structure_from_tables(demo.demo_catalog().tables)
        phi = parse_formula("exists x. (houses(id, x, sqft) & offers(id, a, p))")
        table = table_of(m, phi)
        assert len(table) == 6
        assert table == planner.evaluate_over(*formula_to_algebra(phi, m))

    @pytest.mark.parametrize("chain", [RATIONAL, LEVELS], ids=["rational", "levels"])
    def test_count_bounds_a_counted_run(self, chain):
        rng = random.Random(53)
        for trial in range(120):
            if trial % 2:
                m = rnd_any_structure(rng, chain)
            else:
                m = rnd_any_structure(rng, chain, 4, density=0.3)
            phi = rnd_formula(rng, depth=3, arities=ANY_ARITIES)
            count = valuation_count(m, phi)
            evaluated, entered, ran = counted_run(m, phi)
            assert evaluated <= count, str(phi)
            for slot in entered:
                assert entered[slot] <= count and ran[slot] <= count, str(phi)


def valuation_count(m: Structure, phi) -> int:
    """The count of valuations ``table_of`` caps, read from its refusal under a cap of -1."""
    cap = calculus.VALUATION_CAP
    calculus.VALUATION_CAP = -1
    try:
        table_of(m, phi)
    except UnsupportedOperationError as exc:
        return int(re.search(r"needs ([\d,]+) valuations", str(exc))[1].replace(",", ""))
    finally:
        calculus.VALUATION_CAP = cap
    raise AssertionError("a formula was not refused under a cap of -1")


def counted_run(m: Structure, phi):
    """``(evaluated, entered, ran)`` of one ``table_of``: its ``evaluate`` calls,
    and per quantifier (by its slot) the valuations that entered it and that
    its body ran under.

    Each entry calls ``elements`` once and then the body once per element,
    and both are Python functions, so the body's runs are the calls made in
    the quantifier's frame less its entries.
    """
    evaluated = 0
    entered, called = Counter(), Counter()
    quantifiers = {"infimum", "supremum"}

    def is_quantifier(frame) -> bool:
        return frame.f_code.co_name in quantifiers and frame.f_code.co_filename == calculus.__file__

    def profile(frame, event, arg):
        if event != "call":
            return
        if is_quantifier(frame):
            entered[frame.f_locals["slot"]] += 1
        if frame.f_back is not None and is_quantifier(frame.f_back):
            called[frame.f_back.f_locals["slot"]] += 1

    evaluate_ = calculus.evaluate

    def counting_evaluate(*args):
        nonlocal evaluated
        evaluated += 1
        return evaluate_(*args)

    calculus.evaluate = counting_evaluate
    sys.setprofile(profile)
    try:
        table_of(m, phi)
    finally:
        sys.setprofile(None)
        calculus.evaluate = evaluate_
    return evaluated, entered, {slot: called[slot] - entered[slot] for slot in entered}


class TestFormulaToAlgebra:
    def test_falsum_compiles_to_empty(self, structure):
        expr, tables = formula_to_algebra(Falsum(), structure)
        result = planner.evaluate_over(expr, tables)
        assert len(result) == 0 and len(result.scheme) == 0

    def test_atom_compiles_to_its_table(self, structure):
        expr, tables = formula_to_algebra(Atom("r", ("x",)), structure)
        assert planner.evaluate_over(expr, tables) == table_of(structure, Atom("r", ("x",)))

    def test_universal_compiles_to_division(self, structure):
        phi = ForAll("x", Atom("s", ("x", "y")))
        expr, tables = formula_to_algebra(phi, structure)
        assert isinstance(expr, planner.Divide)
        assert planner.evaluate_over(expr, tables) == table_of(structure, phi)

    def test_disjunction_compiles_to_union(self, structure):
        phi = Or(Atom("r", ("x",)), Atom("s", ("x", "y")))
        expr, tables = formula_to_algebra(phi, structure)
        assert isinstance(expr, planner.Union)
        assert planner.evaluate_over(expr, tables) == table_of(structure, phi)

    def test_random_round_trips(self):
        rng = random.Random(11)
        for _ in range(200):
            m = rnd_structure(rng)
            phi = rnd_formula(rng, depth=2)
            expr, tables = formula_to_algebra(phi, m)
            assert planner.evaluate_over(expr, tables) == table_of(m, phi)

    @pytest.mark.parametrize("text, message", [
        ("exists x. nosuch(x)", "unknown relation symbol 'nosuch'"),
        ("e(x)", "arity mismatch for 'e'"),
        ("r(x) & s(x)", "arity mismatch for 's'"),
    ])
    def test_atoms_checked_as_table_of_checks_them(self, structure, text, message):
        # "e" is declared binary but stores no vectors
        m = Structure(RATIONAL, structure.universe, {**structure.arities, "e": 2},
                      structure.interps)
        phi = parse_formula(text)
        for run in (lambda: table_of(m, phi), lambda: formula_to_algebra(phi, m)):
            with pytest.raises(EvalError) as err:
                run()
            assert str(err.value) == message


class TestAlgebraToFormula:
    @pytest.mark.parametrize("text, where", [
        ("union(houses, offers)", "query"),
        ("join(houses, union(houses, offers))", "query.right"),
    ])
    def test_scheme_errors_carry_the_query_path(self, text, where):
        catalog = demo.demo_catalog()
        expr = planner.parse_query(text)
        with pytest.raises(SchemeError) as inferred:
            planner.infer_scheme(expr, catalog)
        with pytest.raises(SchemeError) as evaluated:
            planner.evaluate(expr, catalog)
        with pytest.raises(SchemeError) as translated:
            algebra_to_formula(expr, catalog.tables)
        assert str(translated.value) == str(inferred.value) == str(evaluated.value) == (
            "schemes differ: Scheme(id:int, bdrm:int, sqft:int) vs "
            f"Scheme(id:int, agent:str, price:int) at {where}"
        )

    def test_unknown_table_fails_as_in_the_planner(self):
        catalog = demo.demo_catalog()
        expr = planner.parse_query("join(houses, nosuch)")
        runs = (lambda: planner.infer_scheme(expr, catalog),
                lambda: planner.evaluate(expr, catalog),
                lambda: algebra_to_formula(expr, catalog.tables))
        for run in runs:
            with pytest.raises(UnknownNameError) as err:
                run()
            assert str(err.value) == "unknown table 'nosuch' at query.right"

    def _tables(self, rng):
        from helpers import rnd_scheme, rnd_table

        return {
            "t1": rnd_table(rng, rnd_scheme(rng, names=("a", "b")), max_rows=5),
            "t2": rnd_table(rng, rnd_scheme(rng, names=("b", "c")), max_rows=5),
        }

    def test_projection_becomes_exists_prefix(self):
        rng = random.Random(13)
        tables = self._tables(rng)
        expr = planner.Project(planner.Base("t1"), ("a",))
        phi, m = algebra_to_formula(expr, tables)
        assert isinstance(phi, Exists)
        assert table_of(m, phi) == stringified(planner.evaluate_over(expr, tables))

    def test_join_becomes_conjunction(self):
        rng = random.Random(17)
        tables = self._tables(rng)
        expr = planner.Join(planner.Base("t1"), planner.Base("t2"))
        phi, m = algebra_to_formula(expr, tables)
        assert isinstance(phi, And)
        assert table_of(m, phi) == stringified(planner.evaluate_over(expr, tables))

    def test_division_round_trip(self):
        rng = random.Random(19)
        from helpers import rnd_scheme, rnd_table

        for _ in range(30):
            dividend = rnd_table(rng, rnd_scheme(rng, names=("a",)), max_rows=4)
            divisor = rnd_table(rng, rnd_scheme(rng, names=("c",)), max_rows=4)
            mediator = rnd_table(rng, dividend.scheme.union(divisor.scheme), max_rows=6)
            tables = {"dd": dividend, "m": mediator, "dv": divisor}
            expr = planner.Divide(planner.Base("dd"), planner.Base("m"), planner.Base("dv"))
            phi, m = algebra_to_formula(expr, tables)
            assert table_of(m, phi) == stringified(planner.evaluate_over(expr, tables))

    def test_restriction_and_union_and_rename(self):
        rng = random.Random(23)
        for _ in range(30):
            tables = self._tables(rng)
            tables["t3"] = tables["t1"]
            theta = ExprCondition.parse("a <= 1 ? 0.5 : 1")
            candidates = [
                planner.Restrict(planner.Base("t1"), theta),
                planner.Union(planner.Base("t1"), planner.Base("t3")),
                planner.Rename(planner.Base("t1"), (("a", "z"),)),
                planner.Semijoin(planner.Base("t1"), planner.Base("t2")),
            ]
            for expr in candidates:
                phi, m = algebra_to_formula(expr, tables)
                assert table_of(m, phi) == stringified(
                    planner.evaluate_over(expr, tables)
                )

    def test_a_lawful_composed_condition_round_trips(self):
        tables = {"houses": demo.houses()}
        theta_f = demo.bedrooms_condition().compose(demo.demo_map())
        expr = planner.Restrict(planner.Base("houses"), theta_f)
        phi, m = algebra_to_formula(expr, tables)
        expected = stringified(planner.evaluate_over(expr, tables))
        assert table_of(m, phi) == expected and len(expected) == len(tables["houses"])
        assert expected != stringified(algebra.restrict(tables["houses"], theta_f.base))

    def test_difference_rejected(self):
        rng = random.Random(29)
        tables = self._tables(rng)
        expr = planner.Difference(planner.Base("t1"), planner.Base("t1"))
        with pytest.raises(UnsupportedOperationError):
            algebra_to_formula(expr, tables)

    @staticmethod
    def _fixed_tables():
        t1 = RankedTable.from_entries(Scheme((("a", INT), ("b", INT))), [
            ({"a": 1, "b": 2}, fr("0.5")), ({"a": 2, "b": 2}, fr("0.75")),
            ({"a": 3, "b": 1}, fr("1")),
        ])
        t2 = RankedTable.from_entries(Scheme((("b", INT), ("c", INT))), [
            ({"b": 2, "c": 5}, fr("0.6")), ({"b": 1, "c": 6}, fr("0.25")),
        ])
        return {"t1": t1, "t2": t2}

    @pytest.mark.parametrize("expr, text", [
        (planner.Project(planner.Join(planner.Base("t1"), planner.Base("t2")), ("a", "c")),
         "exists b. (t1(a, b) & t2(b, c))"),
        (planner.Restrict(planner.Base("t1"), ExprCondition.parse("a <= 1 ? 0.5 : 1")),
         "(t1(a, b) & __cond_1(a))"),
        (planner.Union(planner.Base("t1"), planner.Base("t1")),
         "(t1(a, b) | t1(a, b))"),
        (planner.Rename(planner.Base("t2"), (("c", "z"),)), "t2(b, z)"),
        (planner.Semijoin(planner.Base("t1"), planner.Base("t2")),
         "exists c. (t1(a, b) & t2(b, c))"),
        (planner.Divide(planner.Project(planner.Base("t1"), ("a",)),
                        planner.Join(planner.Base("t1"), planner.Base("t2")),
                        planner.Project(planner.Base("t2"), ("b", "c"))),
         "(exists b. t1(a, b) & forall b. forall c. (t2(b, c) -> (t1(a, b) & t2(b, c))))"),
    ])
    def test_schemes_come_from_the_translation_itself(self, expr, text, monkeypatch):
        tables = self._fixed_tables()

        def refuse(*args, **kwargs):
            raise AssertionError("inferred a subtree's scheme in a second walk")

        monkeypatch.setattr(planner, "_walk", refuse)
        phi, m = algebra_to_formula(expr, tables)
        monkeypatch.undo()
        assert str(phi) == text
        assert table_of(m, phi) == stringified(planner.evaluate_over(expr, tables))

    def test_dec_restriction_scores_the_values_written_as_csv(self):
        # The universe and the condition's vectors both write 2.25, not 9/4, so
        # the condition finds each typed value and no row is skipped.
        tables = {"t": read_table_csv("#,a:dec,b:str\n0.5,0.5,x\n1,2.25,y\n")}
        expr = planner.Restrict(planner.Base("t"), ExprCondition.parse("2*a"))
        phi, m = algebra_to_formula(expr, tables)
        assert {"0.5", "2.25"} <= set(m.universe)
        result = table_of(m, phi)
        assert len(result) == 2
        assert result == stringified(planner.evaluate_over(expr, tables))

    def test_semijoin_translates_as_its_defining_projection(self):
        tables = self._fixed_tables()
        t1, t2 = planner.Base("t1"), planner.Base("t2")
        assert algebra_to_formula(planner.Semijoin(t1, t2), tables) == algebra_to_formula(
            planner.Project(planner.Join(t1, t2), ("a", "b")), tables
        )

    def test_condition_over_valuation_cap_refused_before_scoring(self, monkeypatch):
        names = ("a", "b", "c", "d", "e", "f")
        scheme = Scheme((name, INT) for name in names)
        # two rows holding 0..5 and 5..10: an 11-element universe, 11**6 combinations
        rows = [({name: start + i for i, name in enumerate(names)}, fr("1")) for start in (0, 5)]
        tables = {"t": RankedTable.from_entries(scheme, rows)}

        def refuse(*args):
            raise AssertionError("scored a condition over the valuation cap")

        # every way of scoring an expression condition compiles it first
        monkeypatch.setattr(ExprCondition, "_compiled", refuse)
        expr = planner.Restrict(planner.Base("t"), ExprCondition.parse("a + b + c + d + e + f"))
        with pytest.raises(UnsupportedOperationError,
                           match=r"^condition needs 1,771,561 valuations over a 11-element "
                                 r"universe, above the cap of 1,000,000$"):
            algebra_to_formula(expr, tables)


class TestLogicalIdentities:
    def test_exists_conjunction_pullout(self):
        # (exists x)(phi & psi) == phi & (exists x) psi   when x not free in phi
        rng = random.Random(31)
        for _ in range(60):
            m = rnd_structure(rng)
            phi = rnd_formula(rng, depth=1, variables=("y", "z"))
            psi = rnd_formula(rng, depth=1, variables=("x", "y", "z"))
            lhs = Exists("x", And(phi, psi))
            rhs = And(phi, Exists("x", psi))
            assert table_of(m, lhs) == table_of(m, rhs)

    @pytest.mark.parametrize("text, error", [
        ("x/2 + 1/4", MapPropertyError),  # moves bottom
        ("x/1000000", QuantizationError),  # collapses distinct scores on the grid
    ])
    def test_structure_compose_refuses_what_compose_table_refuses(self, structure, text,
                                                                  error):
        f = AnalyticMap.parse(text)
        with pytest.raises(error):
            compose_table(table_of(structure, Atom("r", ("x",))), f)
        with pytest.raises(error):
            structure.compose(f)

    def test_transform_commutes_with_table_of(self):
        rng = random.Random(37)
        for _ in range(60):
            m = rnd_structure(rng)
            phi = rnd_formula(rng, depth=2)
            f = rnd_grid_isomorphism(rng)
            assert compose_table(table_of(m, phi), f) == table_of(m.compose(f), phi)


class TestDisjunction:
    @pytest.mark.parametrize("chain", [RATIONAL, LEVELS], ids=["rational", "levels"])
    def test_core_or_equals_the_derived_encoding(self, chain):
        # ((phi -> psi) -> psi) & ((psi -> phi) -> phi) is the supremum on any chain
        seed = stable_seed(f"core disjunction {chain.levels}")
        rng = random.Random(seed)
        with replay_hint(seed):
            for _ in range(150):
                m = rnd_any_structure(rng, chain)
                phi, psi = (rnd_formula(rng, depth=2, arities=ANY_ARITIES) for _ in range(2))
                derived = And(Implies(Implies(phi, psi), psi), Implies(Implies(psi, phi), phi))
                assert table_of(m, Or(phi, psi)) == table_of(m, derived), (phi, psi)

    def test_a_long_chain_runs_in_linear_time(self):
        m = structure_from_tables(demo.demo_catalog().tables)
        phi = parse_formula(" | ".join(["houses(a, b, c)"] * 40))
        assert isinstance(phi, Or)
        start = time.perf_counter()
        table = table_of(m, phi)
        assert time.perf_counter() - start < 2
        assert table == table_of(m, Atom("houses", ("a", "b", "c")))


class TestFormulaParser:
    def test_quantified_implication(self):
        phi = parse_formula("forall x. (r(x, y) -> s(y))")
        assert phi == ForAll("x", Implies(Atom("r", ("x", "y")), Atom("s", ("y",))))

    def test_connective_sugar(self):
        assert parse_formula("~p(x)") == Not(Atom("p", ("x",)))
        assert parse_formula("p(x) | q(x)") == Or(Atom("p", ("x",)), Atom("q", ("x",)))
        assert parse_formula("p(x) <-> q(x)") == Iff(Atom("p", ("x",)), Atom("q", ("x",)))
        assert parse_formula("false") == Falsum()

    def test_names_and_keywords_are_read_in_lower_case(self):
        assert parse_formula("Exists X. (R(X, y) -> FALSE)") == parse_formula(
            "exists x. (r(x, y) -> false)"
        )
        assert parse_formula("FORALL x. S(x)") == ForAll("x", Atom("s", ("x",)))

    def test_propositional_symbol(self):
        assert parse_formula("rain") == Atom("rain", ())

    def test_errors_carry_position(self):
        with pytest.raises(ParseError):
            parse_formula("forall . p(x)")
        with pytest.raises(ParseError):
            parse_formula("p(x")


def test_structure_pickles_after_table_of(structure):
    phi = parse_formula("exists y. s(x, y)")
    table = table_of(structure, phi)
    copy = pickle.loads(pickle.dumps(structure))
    assert copy == structure
    assert table_of(copy, phi) == table


def test_structure_from_tables_uses_column_order():
    scheme = Scheme((("b", INT), ("a", INT)))
    table = RankedTable.from_entries(scheme, [({"b": 1, "a": 2}, fr("0.5"))])
    m = structure_from_tables({"t": table})
    assert m.interps["t"] == {("1", "2"): fr("0.5")}  # declared order: b then a
