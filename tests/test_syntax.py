"""The text syntax shared by queries, expressions and formulas."""

import re
from pathlib import Path

import pytest

from rankrel import calculus, demo, exprs, planner
from rankrel.catalog import parse_config
from rankrel.errors import ParseError

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize(
    "parse, text, message, column",
    [
        # trailing token
        (planner.parse_query, "join(houses, offers) x", "trailing input 'x'", 21),
        (exprs.parse_expr, "x 1", "trailing input '1'", 2),
        (calculus.parse_formula, "p(x) q(x)", "trailing input 'q'", 5),
        # a formula operator in an expression or a query condition
        (exprs.parse_expr, "a & b", "trailing input '&'", 2),
        (exprs.parse_expr, "~x", "unexpected token '~'", 0),
        (planner.parse_query, "restrict(houses, bdrm | 1)", "expected ')', found '|'", 22),
        # an expression operator in a formula
        (calculus.parse_formula, "p(x) + q(x)", "trailing input '+'", 5),
        # a digit as an atom argument
        (calculus.parse_formula, "p(1)", "atom arguments must be variables", 2),
        (calculus.parse_formula, "p(x, 0.5)", "atom arguments must be variables", 5),
        # missing ')'
        (planner.parse_query, "join(houses, offers", "expected ')', found 'end'", 19),
        (exprs.parse_expr, "(a + b", "expected ')', found 'end'", 6),
        (calculus.parse_formula, "p(x", "expected ')', found 'end'", 3),
        # a character outside the token set, after spaces
        (calculus.parse_formula, "p(x) &  @", "unexpected character '@'", 8),
        # an inline condition's column counts from the start of the query
        (planner.parse_query, "restrict(houses, 1 + )", "unexpected token ')'", 21),
        # names and comma-separated lists: only an attribute list or atom arguments may be empty
        (planner.parse_query, "rename(houses, [])", "expected an attribute name", 16),
        (planner.parse_query, "project(houses, [id,])", "expected an attribute name", 20),
        (planner.parse_query, "project(houses, [id id])", "expected ']', found 'id'", 20),
        (planner.parse_query, "rename(houses, [id x])", "expected '->', found 'x'", 19),
        (exprs.parse_expr, "min()", "unexpected token ')'", 4),
        (exprs.parse_expr, "min(1,)", "unexpected token ')'", 6),
        (exprs.parse_expr, "min(1 2)", "expected ')', found '2'", 6),
        (calculus.parse_formula, "p(x,)", "atom arguments must be variables", 4),
        (calculus.parse_formula, "p(x y)", "expected ')', found 'y'", 4),
        (calculus.parse_formula, "exists 1. p(x)", "quantifier needs a variable", 7),
    ],
)
def test_malformed_input_reports_column(parse, text, message, column):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"{message} (line 1, column {column})"
    assert err.value.column == column


def test_an_attribute_list_and_atom_arguments_may_be_empty():
    assert planner.parse_query("project(houses, [])") == planner.Project(planner.Base("houses"), ())
    assert calculus.parse_formula("p()") == calculus.Atom("p", ())


def _readme_block(heading: str, fence: str) -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index(f"```{fence}\n", text.index(heading)) + len(fence) + 4
    return text[start:text.index("\n```", start)]


def test_readme_command_line_examples_run_on_the_demo():
    commands = re.findall(r'^rankrel (eval|plan|topk \d+|calc) "([^"]*)"',
                          _readme_block("## Command line", "sh"), re.MULTILINE)
    assert {command.split()[0] for command, _ in commands} == {"eval", "plan", "topk", "calc"}
    catalog = demo.demo_catalog()
    structure = calculus.structure_from_tables(catalog.tables)
    for command, text in commands:
        if command == "calc":
            calculus.table_of(structure, calculus.parse_formula(text))
        else:
            planner.evaluate(planner.parse_query(text), catalog)


def test_readme_config_block_parses():
    config = parse_config(_readme_block("### Config file", "text"))
    assert set(config.maps) == {"f", "g", "h"}
    assert set(config.conditions) == {"theta", "theta_f"}


def test_readme_library_example_runs():
    exec(compile(_readme_block("## Library example", "python"), "README.md", "exec"), {})
