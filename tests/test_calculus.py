"""Formula evaluation, induced tables, and the two translation directions."""

import random

import pytest

from helpers import rnd_formula, rnd_grid_isomorphism, rnd_structure

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
    algebra_to_formula,
    evaluate,
    formula_to_algebra,
    free_vars,
    parse_formula,
    stringified,
    structure_from_tables,
    table_of,
)
from rankrel.chain import RATIONAL
from rankrel.conditions import ExprCondition
from rankrel.errors import (
    EvalError,
    MapPropertyError,
    ParseError,
    QuantizationError,
    UnsupportedOperationError,
)
from rankrel.maps import AnalyticMap, compose_table
from rankrel.table import INT, RankedTable, Row, Scheme

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
                if isinstance(node, Implies):
                    return (not classic(node.left, val)) or classic(node.right, val)
                if isinstance(node, ForAll):
                    return all(classic(node.body, {**val, node.var: el}) for el in universe)
                return any(classic(node.body, {**val, node.var: el}) for el in universe)

            assert evaluate(phi, m, valuation).is_top == classic(phi, valuation)


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
        # three free or bound variables over three elements: 27 valuations
        monkeypatch.setattr(calculus, "VALUATION_CAP", 27)
        table_of(structure, parse_formula("exists z. (s(x, y) & r(z))"))
        with pytest.raises(UnsupportedOperationError, match=r"81 valuations .* cap of 27$"):
            table_of(structure, parse_formula("exists z. exists w. (s(x, y) & s(z, w))"))

    def test_demo_join_formula_refused_before_evaluating(self, monkeypatch):
        m = structure_from_tables(demo.demo_catalog().tables)
        phi = parse_formula("exists x. (houses(id, x, sqft) & offers(id, a, p))")

        def refuse(*args):
            raise AssertionError("evaluated a formula over the valuation cap")

        monkeypatch.setattr(calculus, "evaluate", refuse)
        with pytest.raises(UnsupportedOperationError,
                           match=r"11,881,376 valuations .* cap of 1,000,000$"):
            table_of(m, phi)


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

    def test_random_round_trips(self):
        rng = random.Random(11)
        for _ in range(200):
            m = rnd_structure(rng)
            phi = rnd_formula(rng, depth=2)
            expr, tables = formula_to_algebra(phi, m)
            assert planner.evaluate_over(expr, tables) == table_of(m, phi)


class TestAlgebraToFormula:
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

    def test_difference_rejected(self):
        rng = random.Random(29)
        tables = self._tables(rng)
        expr = planner.Difference(planner.Base("t1"), planner.Base("t1"))
        with pytest.raises(UnsupportedOperationError):
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


def test_structure_from_tables_uses_column_order():
    scheme = Scheme((("b", INT), ("a", INT)))
    table = RankedTable.from_entries(scheme, [({"b": 1, "a": 2}, fr("0.5"))])
    m = structure_from_tables({"t": table})
    assert m.lookup("t", ("1", "2")) == fr("0.5")  # declared order: b then a
