"""End-to-end command-line behaviour."""

import csv
import io
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import reference_compose_table, reference_rank_profile, replay_hint, stable_seed

import rankrel
from rankrel import algebra, demo, ordinal
from rankrel.catalog import parse_config
from rankrel.chain import RATIONAL, exact_decimal_str
from rankrel.cli import main
from rankrel.maps import compose_table
from rankrel.table import INT, RankedTable, Row, Scheme, read_table_csv, write_table_csv


@pytest.fixture
def catalog_dir(tmp_path):
    write_table_csv(demo.houses(), tmp_path / "houses.csv")
    write_table_csv(demo.offers(), tmp_path / "offers.csv")
    (tmp_path / "catalog.cfg").write_text(
        "chain rational01\n"
        f"map f = expr{{ {demo.DEMO_MAP_TEXT} }}\n"
        f"cond theta = expr{{ {demo.BEDROOMS_CONDITION_TEXT} }}\n"
        "cond theta_f = compose(theta, f)\n",
        encoding="utf-8",
    )
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_join_prints_six_rows_sorted(self, capsys, catalog_dir):
        code, out, _ = run(
            capsys, "eval", "join(houses, offers)", "--catalog", str(catalog_dir)
        )
        assert code == 0
        lines = [line for line in out.splitlines() if line and not line.startswith("-")]
        assert len(lines) == 7  # header + six rows
        assert lines[1].startswith("0.937") and "Adams" in lines[1]
        assert lines[2].startswith("0.937") and "Black" in lines[2]
        assert lines[-1].startswith("0.148")

    def test_exact_output_reingests_equal(self, capsys, catalog_dir, tmp_path):
        out_path = tmp_path / "result.csv"
        code, _, _ = run(
            capsys,
            "eval",
            "join(houses, offers)",
            "--catalog",
            str(catalog_dir),
            "--exact",
            "-o",
            str(out_path),
        )
        assert code == 0
        joined = algebra.natural_join(demo.houses(), demo.offers())
        assert read_table_csv(out_path) == joined

    def test_negative_decs_and_a_spaced_header_round_trip(self, capsys, tmp_path):
        catalog = tmp_path / "catalog"
        catalog.mkdir()
        (catalog / "t.csv").write_text(
            "#,id :int,w:dec\n1,1,-0.0075\n0.5,2,-1/20\n0.25,3,-0.25\n", encoding="utf-8")
        (catalog / "u.csv").write_text("#,id:int\n1,1\n1,3\n", encoding="utf-8")
        out_path = tmp_path / "out.csv"
        code, _, err = run(capsys, "eval", "t", "--catalog", str(catalog), "--exact",
                           "-o", str(out_path))
        assert (code, err) == (0, "")
        assert out_path.read_text(encoding="utf-8") == (
            "#,id:int,w:dec\n1,1,-0.0075\n0.5,2,-0.05\n0.25,3,-0.25\n")
        code, out, _ = run(capsys, "equiv", str(out_path), str(catalog / "t.csv"))
        assert (code, out) == (0, "EQUIVALENT\n")
        code, out, _ = run(capsys, "eval", "join(t, u)", "--catalog", str(catalog), "--exact")
        assert (code, out) == (0, "#,id:int,w:dec\n1,1,-0.0075\n0.25,3,-0.25\n")
        code, out, _ = run(capsys, "eval", "project(t, [id])", "--catalog", str(catalog),
                           "--exact")
        assert (code, out) == (0, "#,id:int\n1,1\n0.5,2\n0.25,3\n")

    def test_named_condition_from_config(self, capsys, catalog_dir):
        code, out, _ = run(
            capsys,
            "eval",
            "project(restrict(join(houses, offers), theta), [id, bdrm, price])",
            "--catalog",
            str(catalog_dir),
        )
        assert code == 0
        assert out.splitlines()[2].startswith("0.778")
        assert out.splitlines()[3].startswith("0.700")

    def test_syntax_error_sets_status(self, capsys, catalog_dir):
        code, _, err = run(capsys, "eval", "join(houses", "--catalog", str(catalog_dir))
        assert code == 1 and "error" in err

    def test_unknown_table_sets_status(self, capsys, catalog_dir):
        code, _, err = run(capsys, "eval", "missing", "--catalog", str(catalog_dir))
        assert code == 1 and "unknown table" in err

    def test_unknown_table_error_names_query_path(self, capsys, catalog_dir):
        code, _, err = run(
            capsys, "eval", "project(join(houses, nosuch), [id])", "--catalog", str(catalog_dir)
        )
        assert code == 1
        assert err.strip() == "error: unknown table 'nosuch' at query.child.right"

    def test_a_compose_whose_map_moves_bottom_fails_when_the_catalog_loads(self, capsys,
                                                                            catalog_dir):
        (catalog_dir / "catalog.cfg").write_text(
            "map up = expr{ 0.5 + x/2 }\ncond big = expr{ bdrm > 100 ? 1 : 0 }\n"
            "cond big_up = compose(big, up)\n", encoding="utf-8")
        code, out, err = run(capsys, "eval", "restrict(houses, big_up)",
                             "--catalog", str(catalog_dir))
        assert code == 1 and out == ""
        assert err.startswith("error: compose(big, up): order map does not send bottom to bottom")
        assert err.endswith("(line 3, column 0)\n") and err.count("\n") == 1

    def test_unknown_condition_error_names_query_path(self, capsys, catalog_dir):
        code, _, err = run(
            capsys, "eval", "join(offers, restrict(houses, nosuch))", "--catalog", str(catalog_dir)
        )
        assert code == 1
        assert err.strip() == "error: unknown condition 'nosuch' at query.right"

    @pytest.mark.parametrize("query", [
        "restrict(houses, (0-bdrm)^0.5)",
        "restrict(houses, (0-bdrm)^0.5 < 1)",
    ])
    def test_negative_base_fractional_power_is_a_user_error(self, capsys, query):
        code, out, err = run(capsys, "eval", query)  # over the demo catalog
        assert code == 1 and out == ""
        assert err.strip() == (
            "error: power of a negative value with a non-integer exponent at query"
        )

    @pytest.mark.parametrize("query", [
        "restrict(houses, (1+bdrm)^(10^7))",
        "restrict(houses, 3^(10^7))",
    ])
    def test_huge_exact_powers_fail_fast(self, capsys, query):
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", query)  # over the demo catalog
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert err.strip() == "error: exact power above the cap of 10,000 bits at query"

    @pytest.mark.parametrize("query, message", [
        ("restrict(houses, (bdrm-bdrm)^(0-1))", "power of zero with a negative exponent"),
        ("restrict(houses, (bdrm^0.5)^100000)", "power out of the float range"),
        ("restrict(houses, sqrt(bdrm)*10^308*10 - sqrt(bdrm)*10^308*10)",
         "expression evaluates to NaN"),
    ])
    def test_power_arithmetic_errors_are_user_errors(self, capsys, query, message):
        code, out, err = run(capsys, "eval", query)  # over the demo catalog
        assert code == 1 and out == ""
        assert err.strip() == f"error: {message} at query"

    def test_an_infinite_condition_clamps_like_any_large_value(self, capsys):
        code, out, err = run(capsys, "eval", "restrict(houses, sqrt(bdrm)*10^308*10)", "--exact")
        assert code == 0 and err == ""
        assert out == run(capsys, "eval", "restrict(houses, 2)", "--exact")[1]

    def test_corrupt_catalog_file_named_in_error(self, capsys, catalog_dir):
        (catalog_dir / "stray.csv").write_text("", encoding="utf-8")
        code, _, err = run(capsys, "eval", "houses", "--catalog", str(catalog_dir))
        assert code == 1 and "stray.csv" in err

    def test_table_names_differing_in_case_only_fail(self, capsys, tmp_path):
        write_table_csv(demo.houses(), tmp_path / "Houses.csv")
        write_table_csv(demo.offers(), tmp_path / "houses.csv")
        code, out, err = run(capsys, "eval", "houses", "--catalog", str(tmp_path))
        lines = err.splitlines()
        assert code == 1 and out == ""
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "Houses.csv" in lines[0] and "houses.csv" in lines[0]

    def test_missing_input_file_reported_cleanly(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "equiv", str(tmp_path / "no.csv"), str(tmp_path / "nope.csv")
        )
        assert code == 1 and "error" in err


#: Malformed queries over the demo catalog, one per kind of scheme error.
SCHEME_ERROR_PROBES = (
    "semijoin(houses, rename(offers, [agent->bdrm]))",
    "restrict(houses, nosuch)",
    "restrict(houses, price)",
    "union(houses, offers)",
    "difference(houses, offers)",
    "residuum(houses, houses, offers)",
    "divide(houses, offers, offers)",
    "divide(project(houses,[id]), houses, project(houses,[bdrm]))",
    "project(houses, [price])",
    "rename(houses, [id->bdrm])",
    "product(houses, rename(offers, [agent->bdrm]))",
)


@pytest.mark.parametrize("query", SCHEME_ERROR_PROBES)
def test_plan_and_eval_reject_alike(capsys, query):
    planned = run(capsys, "plan", query)
    evaluated = run(capsys, "eval", query)
    code, out, err = evaluated
    assert planned == evaluated
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.endswith(" at query\n") and err.count("\n") == 1


@pytest.mark.parametrize("text, message", [
    ("#,id:int,name:str\n0.4,x,b\n", "line 2: cannot parse 'x' as int (attribute id)"),
    ("#,id:int,name:str\n0.4,1,a\nabc,2,b\n", "line 3: cannot parse rational score from 'abc'"),
    ("#,name:str,w:dec\n0.4,a,1/2\n0.5,b,1/0\n", "line 3: cannot parse '1/0' as dec (attribute w)"),
], ids=["int-cell", "score-cell", "dec-cell"])
def test_a_cell_that_fails_to_parse_names_its_line(capsys, tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    for argv in (["eval", "t", "--catalog", str(tmp_path)], ["equiv", str(path), str(path)]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"error: cannot load table from {path}: {message}\n"


def test_equiv_names_the_file_whose_csv_fails(capsys, tmp_path):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("#,item:int\n0.5,1\n", encoding="utf-8")
    bad.write_text("#,item:int\nx,2\n", encoding="utf-8")
    code, out, err = run(capsys, "equiv", str(good), str(bad))
    assert (code, out) == (1, "")
    assert err == (f"error: cannot load table from {bad}: "
                   "line 2: cannot parse rational score from 'x'\n")


def test_a_chain_line_after_a_map_line_is_refused_by_name(capsys, tmp_path):
    (tmp_path / "catalog.cfg").write_text(
        "map h = graph{ 0 -> 0, 1 -> 1 }\nchain symbolic(0 < 1)\n", encoding="utf-8")
    (tmp_path / "t.csv").write_text("#,item:str\n1,apple\n", encoding="utf-8")
    code, out, err = run(capsys, "transform", "--map", "h", "--catalog", str(tmp_path), "t")
    assert (code, out) == (1, "")
    assert err == ("error: chain on line 2 follows map 'h' on line 1; the one chain line "
                   "comes first (line 2, column 0)\n")


@pytest.mark.parametrize("query, where", [
    ("join(houses, nosuch)", "unknown table 'nosuch' at query.right"),
    ("join(houses, restrict(offers, nocond))", "unknown condition 'nocond' at query.right"),
    ("join(project(houses, [nosuch]), offers)", "at query.left"),
    # the projection cascade would drop the inner list and make the query valid
    ("project(project(houses, [id, nosuch]), [id])", "('id', 'bdrm', 'sqft') at query.child"),
], ids=["table", "condition", "projection", "cascaded-projection"])
def test_topk_plan_and_eval_name_a_nested_error_alike(capsys, query, where):
    results = [run(capsys, "topk", "2", query), run(capsys, "plan", query),
               run(capsys, "eval", query)]
    assert results[0] == results[1] == results[2]
    code, out, err = results[0]
    assert (code, out) == (1, "") and err.count("\n") == 1
    assert err.startswith("error: ") and err.endswith(f"{where}\n")


NEGATIVE_ROOT = "error: power of a negative value with a non-integer exponent"
OVER_CAP = "error: exact power above the cap of 10,000 bits"


@pytest.mark.parametrize("query, line", [
    ("join(offers, restrict(houses, (0-1)^0.5))", f"{NEGATIVE_ROOT} at query.right"),
    # bdrm - 3 is negative only for the worst house, which top-1 never reaches
    ("join(offers, restrict(houses, (bdrm-3)^0.5))", f"{NEGATIVE_ROOT} at query.right"),
    ("restrict(join(houses, offers), (bdrm-3)^0.5)", f"{NEGATIVE_ROOT} at query"),
    ("project(restrict(project(join(offers, houses), [id, bdrm, price]), (bdrm-3)^0.5), "
     "[id, bdrm])", f"{NEGATIVE_ROOT} at query.child"),
    ("join(offers, restrict(join(houses, offers), (bdrm-3)^0.5))",
     f"{NEGATIVE_ROOT} at query.right"),
    ("join(offers, restrict(houses, bdrm >= 4 ? 2^(10^7) : 1))", f"{OVER_CAP} at query.right"),
    ("restrict(join(houses, offers), bdrm <= 2 ? 2^(10^7) : 1)", f"{OVER_CAP} at query"),
    # the first error in table order: the first house has 5 bedrooms, the last 2
    ("restrict(houses, bdrm <= 2 ? (0-1)^0.5 : (bdrm >= 5 ? 2^(10^7) : 1))",
     f"{OVER_CAP} at query"),
], ids=["constant", "some-rows", "pushed", "pushed-through-projections", "pushed-below-a-join",
        "over-cap", "over-cap-pushed", "first-in-table-order"])
def test_an_erroring_condition_fails_in_topk_as_in_eval(capsys, query, line):
    # The condition is scored whole when its restriction is evaluated, so top-k
    # fails even where it would read no erroring row.  An error on the
    # join-chain path sends top-k to the query as written, so it names the
    # restriction's path as written, also when normalization pushed it down.
    # plan scores no condition.
    assert run(capsys, "eval", query) == (1, "", line + "\n")
    assert run(capsys, "topk", "1", query) == (1, "", line + "\n")
    assert run(capsys, "plan", query)[0] == 0


def test_topk_names_eval_s_first_error_before_a_later_scheme_error(capsys):
    # Typing the query as written is part of the join-chain path, so its
    # scheme error falls back to eval too, which fails first on the left leaf.
    query = "join(restrict(houses, (0-1)^0.5), project(offers, [nosuch]))"
    line = f"{NEGATIVE_ROOT} at query.left\n"
    assert run(capsys, "eval", query) == run(capsys, "topk", "1", query) == (1, "", line)
    assert run(capsys, "plan", query)[2].endswith("('id', 'agent', 'price') at query.right\n")


def _topk_as_eval(capsys, k: int, query: str, *catalog: str) -> str:
    """Run topk, check that it prints eval's first k rows, and return its access line."""
    code, out, err = run(capsys, "eval", query, *catalog)
    assert (code, err) == (0, "")
    expected = [line.split() for line in out.splitlines()[2:2 + k]]
    code, out, err = run(capsys, "topk", str(k), query, *catalog)
    assert (code, err) == (0, "")
    *rows, accesses = out.splitlines()
    assert list(csv.reader(rows[1:])) == expected
    return accesses


@pytest.mark.parametrize("query, by_k", [
    ("join(houses, offers)", {1: "4 sorted / 3", 2: "4 sorted / 3"}),
    ("restrict(join(houses, offers), theta)", {1: "2 sorted / 1", 2: "4 sorted / 3"}),
    ("join(offers, restrict(houses, 0.1*(4+bdrm)))", {1: "2 sorted / 1", 2: "4 sorted / 3"}),
], ids=["join", "pushed", "restricted-leaf"])
@pytest.mark.parametrize("k", [1, 2])
def test_topk_ranks_a_join_chain_over_its_leaves(capsys, query, by_k, k):
    # Pinned so that the query-as-written path cannot take over a chain query.
    assert _topk_as_eval(capsys, k, query) == f"-- 2 sources, {by_k[k]} random accesses"


@pytest.mark.parametrize("joins", [10, 70, 400])
def test_plan_normalizes_a_restriction_over_deeply_nested_joins(capsys, joins):
    # Pushing the restriction down takes one step per join: the normal form
    # is reached however deep the nesting, with no note.
    query = "houses"
    for _ in range(joins):
        query = f"join({query}, offers)"
    query = f"restrict({query}, bdrm > 3)"
    code, out, err = run(capsys, "plan", query)
    assert (code, err) == (0, "")
    assert not [line for line in out.splitlines() if line.startswith("note:")]
    assert _topk_as_eval(capsys, 1, query).split()[1] == str(joins + 1)


def test_a_restriction_pushed_onto_rows_the_query_never_reaches_answers_as_eval(capsys,
                                                                                tmp_path):
    # House 2 divides by zero, but no offer joins it: pushed below the join,
    # the restriction would score it; the query as written never does.
    (tmp_path / "offers.csv").write_text("#,id:int,price:int\n0.5,1,100\n", encoding="utf-8")
    (tmp_path / "houses.csv").write_text("#,id:int,bdrm:int\n1,1,3\n1,2,2\n", encoding="utf-8")
    query = "restrict(join(offers, houses), 1/(bdrm-2))"
    assert _topk_as_eval(capsys, 1, query, "--catalog", str(tmp_path)) == (
        "-- 1 sources, 1 sorted / 0 random accesses")


def test_a_blocked_leaf_names_its_error_at_its_path_in_the_query(capsys, tmp_path):
    (tmp_path / "catalog.cfg").write_text("chain symbolic(no < mid < yes)\n", encoding="utf-8")
    (tmp_path / "t.csv").write_text("#,a:int\nyes,1\n", encoding="utf-8")
    (tmp_path / "u.csv").write_text("#,b:int\nmid,1\n", encoding="utf-8")
    line = "error: product-scored join needs the rational carrier at query.left\n"
    for command in (("eval",), ("topk", "1")):
        assert run(capsys, *command, "join(product(t, t), u)", "--catalog", str(tmp_path)) == (
            1, "", line)


class TestEquiv:
    def test_one_directional_pair(self, capsys, tmp_path):
        joined = algebra.natural_join(demo.houses(), demo.offers())
        write_table_csv(joined, tmp_path / "joined.csv")
        write_table_csv(demo.similar_join(), tmp_path / "similar.csv")

        code, out, _ = run(
            capsys, "equiv", str(tmp_path / "joined.csv"), str(tmp_path / "similar.csv")
        )
        assert code == 0
        assert out.splitlines()[0] == "NEITHER"
        assert "price=798000" in out

        code, out, _ = run(
            capsys, "equiv", str(tmp_path / "similar.csv"), str(tmp_path / "joined.csv")
        )
        assert out.splitlines()[0] == "INCLUDED"

    def test_neither_sorts_each_direction_once(self, capsys, tmp_path, monkeypatch):
        joined = algebra.natural_join(demo.houses(), demo.offers())
        write_table_csv(joined, tmp_path / "joined.csv")
        write_table_csv(demo.similar_join(), tmp_path / "similar.csv")
        calls = []
        profile = ordinal._rank_profile

        def counted(d1, d2):
            calls.append(1)
            return profile(d1, d2)

        monkeypatch.setattr(ordinal, "_rank_profile", counted)
        code, out, _ = run(
            capsys, "equiv", str(tmp_path / "joined.csv"), str(tmp_path / "similar.csv")
        )
        assert code == 0 and out.splitlines()[0] == "NEITHER"
        assert "evidence: first table's cone fails at" in out
        assert len(calls) == 2

    def test_scheme_mismatch_names_both_schemes(self, capsys, tmp_path):
        write_table_csv(demo.houses(), tmp_path / "houses.csv")
        write_table_csv(demo.offers(), tmp_path / "offers.csv")
        code, out, err = run(capsys, "equiv", str(tmp_path / "houses.csv"),
                             str(tmp_path / "offers.csv"))
        assert code == 1 and out == ""
        assert err == ("error: ordinal comparison needs equal schemes: "
                       "Scheme(id:int, bdrm:int, sqft:int) vs Scheme(id:int, agent:str, price:int)\n")

    def test_both_files_share_one_score_per_text(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "a.csv").write_text("#,id:int\n0.5,1\n0.25,2\n", encoding="utf-8")
        (tmp_path / "b.csv").write_text("#,id:int\n0.5,1\n0.75,2\n", encoding="utf-8")
        seen = []
        violation = ordinal.first_inclusion_violation

        def captured(d1, d2):
            seen.append((d1, d2))
            return violation(d1, d2)

        monkeypatch.setattr(ordinal, "first_inclusion_violation", captured)
        code, out, err = run(capsys, "equiv", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"))
        assert (code, out, err) == (
            0, "NEITHER\nevidence: first table's cone fails at (id=2)\n", "")
        [(first, second)] = seen
        one = Row.of({"id": 1})
        assert first.score_of(one) is second.score_of(one)

    def test_evidence_writes_dec_values_as_eval_does(self, capsys, tmp_path):
        (tmp_path / "a.csv").write_text("#,b:str,a:dec\n0.5,x,1\n0.25,y,2.25\n", encoding="utf-8")
        (tmp_path / "b.csv").write_text("#,b:str,a:dec\n0.5,x,1\n0.75,y,2.25\n", encoding="utf-8")
        code, out, err = run(capsys, "equiv", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"))
        assert (code, out, err) == (
            0, "NEITHER\nevidence: first table's cone fails at (a=2.25, b=y)\n", "")

    def test_equivalent_pair(self, capsys, tmp_path):
        first, second = demo.single_column_pair()
        write_table_csv(first, tmp_path / "a.csv")
        write_table_csv(second, tmp_path / "b.csv")
        code, out, _ = run(capsys, "equiv", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"))
        assert code == 0 and out.splitlines()[0] == "EQUIVALENT"


class TestTransform:
    def test_transform_then_reingest(self, capsys, catalog_dir, tmp_path):
        code, out, _ = run(
            capsys, "transform", "--map", "f", "--catalog", str(catalog_dir), "houses"
        )
        assert code == 0
        table = read_table_csv(out)
        from rankrel.maps import compose_table

        assert table == compose_table(demo.houses(), demo.demo_map())

    def test_a_malformed_map_fails_only_the_command_using_it(self, capsys, catalog_dir):
        config = catalog_dir / "catalog.cfg"
        config.write_text(config.read_text(encoding="utf-8") + "map bad = piecewise{ 1 }\n",
                          encoding="utf-8")
        code, out, _ = run(capsys, "transform", "--map", "f", "--catalog", str(catalog_dir),
                           "houses")
        assert code == 0 and read_table_csv(out) == compose_table(demo.houses(), demo.demo_map())
        code, out, err = run(capsys, "transform", "--map", "bad", "--catalog", str(catalog_dir),
                             "houses")
        assert code == 1 and out == ""
        assert err.strip() == "error: malformed piecewise entry '1' (line 5, column 0)"

    def test_an_error_inside_a_map_body_names_its_config_line(self, capsys, catalog_dir):
        config = catalog_dir / "catalog.cfg"
        config.write_text(config.read_text(encoding="utf-8") + "map bad = expr{ x @ 2 }\n",
                          encoding="utf-8")
        code, out, err = run(capsys, "transform", "--map", "bad", "--catalog", str(catalog_dir),
                             "houses")
        assert code == 1 and out == ""
        assert err == "error: unexpected character '@' (line 5, column 18)\n"

    def test_an_analytic_map_may_merge_scores_itself(self, capsys, catalog_dir):
        config = catalog_dir / "catalog.cfg"
        config.write_text(config.read_text(encoding="utf-8") + "map k = expr{ min(x, 0.5) }\n",
                          encoding="utf-8")
        code, out, err = run(capsys, "transform", "--map", "k", "--catalog", str(catalog_dir),
                             "houses")
        assert code == 0 and err == ""
        assert out == ("#,id:int,bdrm:int,sqft:int\n0.5,56,3,3400\n0.5,71,3,3280\n"
                       "0.5,82,4,2350\n0.5,85,5,4580\n0.426,58,4,1760\n0.148,93,2,1130\n")

    def test_a_graph_map_with_a_repeated_input_fails(self, capsys, catalog_dir):
        config = catalog_dir / "catalog.cfg"
        config.write_text(config.read_text(encoding="utf-8")
                          + "map g = graph{ 0 -> 0, 0.5 -> 0.3, 0.5 -> 0.4 }\n", encoding="utf-8")
        code, out, err = run(capsys, "transform", "--map", "g", "--catalog", str(catalog_dir),
                             "houses")
        assert code == 1 and out == ""
        assert err == "error: graph input '0.5' appears twice (line 5, column 0)\n"

    def test_a_nan_analytic_map_fails(self, capsys, catalog_dir):
        config = catalog_dir / "catalog.cfg"
        config.write_text(config.read_text(encoding="utf-8")
                          + "map k = expr{ sqrt(x)*10^308*10 - sqrt(x)*10^308*10 }\n",
                          encoding="utf-8")
        code, out, err = run(capsys, "transform", "--map", "k", "--catalog", str(catalog_dir),
                             "houses")
        assert code == 1 and out == ""
        assert err == "error: expression evaluates to NaN\n"

    def test_eval_over_transformed_tables_matches_library(self, capsys, catalog_dir, tmp_path):
        for name in ("houses", "offers"):
            code, out, _ = run(
                capsys, "transform", "--map", "f", "--catalog", str(catalog_dir), name
            )
            assert code == 0
            (tmp_path / f"{name}.csv").write_text(out, encoding="utf-8")
        code, out, _ = run(
            capsys,
            "eval",
            "project(join(houses, offers), [id, price])",
            "--catalog",
            str(tmp_path),
        )
        assert code == 0
        assert out.splitlines()[2].startswith("0.882")
        assert out.splitlines()[-1].startswith("0.272")


class TestRescaleRoundTrip:
    """``transform`` through analytic, piecewise and graph maps, then ``equiv``."""

    def test_outputs_match_the_per_row_oracles(self, capsys, tmp_path):
        seed = stable_seed("cli rescale round trip")
        rng = random.Random(seed)
        levels = [Fraction(k, 100) for k in range(1, 101)]
        scheme = Scheme((("id", INT), ("bdrm", INT)))
        original = RankedTable(scheme, RATIONAL, {
            Row.of({"id": ident, "bdrm": rng.randint(1, 8)}): RATIONAL.score(rng.choice(levels))
            for ident in rng.sample(range(3000), 300)
        })
        images = sorted(rng.sample(range(1, 10**6), len(levels) - 1)) + [10**6]
        text = exact_decimal_str
        graph = ", ".join(f"{text(level)} -> {text(Fraction(image, 10**6))}"
                          for level, image in zip(levels, images))
        config = (
            "chain rational01\n"
            "map f = expr{ x <= 0.5 ? sqrt(x)/sqrt(2) : 2*(x-0.5)^2 + 0.5 }\n"
            "map g = piecewise{ 0 -> 0, (0, 0.5] -> 0.25, (0.5, 1] -> 1 }\n"
            f"map h = graph{{ 0 -> 0, {graph} }}\n"
        )
        catalog = tmp_path / "catalog"
        catalog.mkdir()
        write_table_csv(original, catalog / "houses.csv")
        (catalog / "catalog.cfg").write_text(config, encoding="utf-8")
        houses = read_table_csv(catalog / "houses.csv")
        maps = parse_config(config).maps
        with replay_hint(seed):
            for name, verdict in (("f", "EQUIVALENT"), ("g", "INCLUDED"), ("h", "EQUIVALENT")):
                code, out, _ = run(capsys, "transform", "--map", name, "--catalog",
                                   str(catalog), "houses")
                expected = reference_compose_table(houses, maps[name])
                assert code == 0 and read_table_csv(out) == expected
                result = tmp_path / f"result_{name}.csv"
                result.write_text(out, encoding="utf-8")
                assert not reference_rank_profile(houses, expected)[1]
                assert bool(reference_rank_profile(expected, houses)[1]) == (verdict == "INCLUDED")
                code, out, _ = run(capsys, "equiv", str(catalog / "houses.csv"), str(result))
                assert code == 0 and out == f"{verdict}\n"

            raised = dict(houses.entries())
            for row in rng.sample(sorted(raised), 5):
                raised[row] = RATIONAL.top
            perturbed = RankedTable(scheme, RATIONAL, raised)
            write_table_csv(perturbed, tmp_path / "raised.csv")
            first = min(reference_rank_profile(houses, perturbed)[1])
            code, out, _ = run(capsys, "equiv", str(catalog / "houses.csv"),
                               str(tmp_path / "raised.csv"))
            pairs = ", ".join(f"{k}={v}" for k, v in first.items)
            assert code == 0 and out.splitlines()[:2] == [
                "NEITHER", f"evidence: first table's cone fails at ({pairs})"
            ]


class TestTopkPlanCalc:
    def test_topk_demo(self, capsys, catalog_dir):
        code, out, _ = run(
            capsys, "topk", "2", "join(houses, offers)", "--catalog", str(catalog_dir)
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1].startswith("0.937,71") and "Adams" in lines[1]
        assert lines[2].startswith("0.937,71") and "Black" in lines[2]
        assert "sorted" in lines[-1]

    def test_plan_shows_pushdown(self, capsys, catalog_dir):
        code, out, _ = run(
            capsys,
            "plan",
            "restrict(join(houses, offers), 0.1*(4+bdrm))",
            "--catalog",
            str(catalog_dir),
        )
        assert code == 0
        before, after = out.split("-- normalized")
        assert before.index("restrict") < before.index("join")
        assert after.index("join") < after.index("restrict")

    def test_plan_labels_reparse(self, capsys, catalog_dir):
        code, out, _ = run(
            capsys, "plan", "product(houses, offers)", "--catalog", str(catalog_dir)
        )
        assert code == 0
        assert out.splitlines()[1] == "product"
        assert "blocked: product at query" in out.splitlines()

    def test_calc_formula(self, capsys, catalog_dir):
        code, out, _ = run(
            capsys,
            "calc",
            "exists x. (houses(id, x, sqft))",
            "--catalog",
            str(catalog_dir),
        )
        assert code == 0
        assert out.splitlines()[2].startswith("1.000")

    @pytest.mark.parametrize("exact", [(), ("--exact",)])
    def test_calc_writes_values_as_eval_does(self, capsys, tmp_path, exact):
        (tmp_path / "t.csv").write_text("#,a:dec,b:str\n0.5,0.5,x\n1,2.25,y\n", encoding="utf-8")
        outputs = [run(capsys, *command, "--catalog", str(tmp_path), *exact)
                   for command in (("eval", "t"), ("calc", "t(a, b)"))]
        cells = []
        for code, out, err in outputs:
            assert code == 0 and not err
            lines = out.splitlines()
            rows = csv.reader(lines[1:]) if exact else (line.split() for line in lines[2:])
            cells.append([row[1] for row in rows])
        assert cells[0] == cells[1] == ["2.25", "0.5"]

    def test_calc_names_are_case_insensitive(self, capsys, catalog_dir):
        lower = run(capsys, "calc", "exists x. (houses(id, x, sqft))", "--catalog",
                    str(catalog_dir))
        for text in ("EXISTS X. (HOUSES(ID, X, SQFT))", "Exists x. houses(Id, x, Sqft)"):
            assert run(capsys, "calc", text, "--catalog", str(catalog_dir)) == lower
        assert lower[0] == 0 and lower[1]

    def test_topk_quotes_cells_holding_commas(self, capsys, catalog_dir):
        offers = (catalog_dir / "offers.csv").read_text(encoding="utf-8")
        (catalog_dir / "offers.csv").write_text(offers.replace("Black", '"Smith, J"'),
                                                encoding="utf-8")
        code, out, _ = run(
            capsys, "topk", "2", "join(houses, offers)", "--catalog", str(catalog_dir)
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[-1].startswith("-- 2 sources")
        header, *rows = csv.reader(lines[:-1])
        assert header == ["#", "id", "bdrm", "sqft", "agent", "price"]
        assert [row[:2] for row in rows] == [["0.937", "71"], ["0.937", "71"]]
        assert sorted(row[4] for row in rows) == ["Adams", "Smith, J"]
        assert all(len(row) == len(header) for row in rows)

    def test_topk_writes_dec_values_as_eval_does(self, capsys, tmp_path):
        (tmp_path / "t.csv").write_text("#,id:int,rate:dec\n0.9,1,1.5\n", encoding="utf-8")
        code, out, _ = run(capsys, "topk", "1", "t", "--catalog", str(tmp_path))
        assert code == 0 and out.splitlines()[1] == "0.900,1,1.5"
        assert run(capsys, "eval", "t", "--catalog", str(tmp_path))[1].splitlines()[2] == (
            "0.900  1   1.5"
        )

    def test_topk_prints_eval_s_cells_of_text_values(self, capsys, tmp_path):
        # Scores of three decimals read the same in eval --exact and in topk.
        (tmp_path / "t.csv").write_bytes(
            b'#,id:int,name:str\n0.875,1,"a,b"\n0.625,2,"q""t"\n0.375,3,"c\rr"\n0.125,4,x\n')
        code, out, err = run(capsys, "eval", "t", "--exact", "--catalog", str(tmp_path))
        assert (code, err) == (0, "")
        expected = list(csv.reader(io.StringIO(out)))[1:]
        assert [row[2] for row in expected] == ["a,b", 'q"t', "c\rr", "x"]
        code, out, err = run(capsys, "topk", "4", "t", "--catalog", str(tmp_path))
        assert (code, err) == (0, "")
        rows, _ = out.rsplit("-- ", 1)
        header, *cells = csv.reader(io.StringIO(rows))
        assert header == ["#", "id", "name"]
        assert cells == expected

    def test_calc_over_valuation_cap_fails_fast(self, capsys):
        code, out, err = run(
            capsys, "calc", "exists x. (houses(id, x, sqft) & offers(id, a, p))"
        )
        assert code == 1
        assert out == ""
        assert "11,881,376 valuations" in err and "cap of 1,000,000" in err

    def test_calc_cap_counts_repeated_binders(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "calc", "exists x. exists x. exists x. houses(a, b, c)")
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert "308,915,776 valuations" in err and "cap of 1,000,000" in err


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "10/10 checks passed" in out
    assert out.count("PASS") == 10


def test_verify_counts_the_canonical_pieces(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "PASS  canonical-map: all 6 pieces match and compose correctly\n" in out


def _overflow_catalog(tmp_path):
    write_table_csv(demo.houses(), tmp_path / "houses.csv")
    (tmp_path / "catalog.cfg").write_text("map k = expr{ sqrt(x)*10^400 }\n", encoding="utf-8")
    return ["transform", "--map", "k", "--catalog", str(tmp_path), "houses"]


def _bad_byte_csv(tmp_path):
    (tmp_path / "a.csv").write_bytes(b"#,name:str\n0.5,caf\xff\n")
    return tmp_path / "a.csv"


def _bad_byte_config(tmp_path):
    write_table_csv(demo.houses(), tmp_path / "houses.csv")
    (tmp_path / "catalog.cfg").write_bytes(b"# \xff\nchain rational01\n")
    return ["eval", "houses", "--catalog", str(tmp_path)]


def _restrict(condition: str) -> list[str]:
    return ["eval", f"restrict(houses, {condition})"]


def _long_number_config(tmp_path):
    write_table_csv(demo.houses(), tmp_path / "houses.csv")
    (tmp_path / "catalog.cfg").write_text("cond theta = expr{ " + "1" * 5000 + " }\n",
                                          encoding="utf-8")
    return ["eval", "houses", "--catalog", str(tmp_path)]


#: CSV files the reader rejects: a cell over its field limit, a quote left open
MALFORMED_CSV = {
    "overlong-cell": "#,id:int,name:str\n0.5,1," + "x" * 140_000 + "\n",
    "open-quote": '#,id:int,name:str\n0.5,1,"abc\n0.7,2,def\n',
}


def _malformed_csv(kind: str, command: str):
    def build(tmp_path):
        (tmp_path / "a.csv").write_text(MALFORMED_CSV[kind], encoding="utf-8")
        if command == "eval":
            return ["eval", "a", "--catalog", str(tmp_path)]
        return ["equiv", str(tmp_path / "a.csv"), str(tmp_path / "a.csv")]
    return build


HEADER = "#,id:int,name:str\n"
#: A record whose quoted cell spans two lines
TWO_LINE_RECORD = '0.5,1,"two\nlines"\n'


def _catalog_csv(text: str):
    def build(tmp_path):
        (tmp_path / "a.csv").write_text(text, encoding="utf-8")
        return ["eval", "a", "--catalog", str(tmp_path)]
    return build


#: (id, argv builder over a scratch directory, text the error line must hold)
UNCAUGHT_BEFORE = [
    ("nested-project", lambda tmp: ["eval", "project(" * 2000 + "houses" + ", [id])" * 2000],
     "nests too deeply"),
    ("nested-union", lambda tmp: ["eval", "union(" * 500 + "houses" + ", houses)" * 500],
     "nests too deeply"),
    ("parenthesised-condition", lambda tmp: _restrict("(" * 3000 + "1" + ")" * 3000),
     "nests too deeply"),
    ("long-sum", lambda tmp: _restrict("+".join(["0"] * 3000)), "nests too deeply"),
    ("prefix-minus", lambda tmp: _restrict("-" * 2000 + "1"), "nests too deeply"),
    ("chained-ternary", lambda tmp: _restrict("1 ? 1 : " * 1500 + "1"), "nests too deeply"),
    ("negations", lambda tmp: ["calc", "~" * 2000 + "houses(a, b, c)"], "nests too deeply"),
    ("implications", lambda tmp: ["calc", " -> ".join(["houses(a, b, c)"] * 2000)],
     "nests too deeply"),
    ("quantifiers", lambda tmp: ["calc", "exists x. " * 1500 + "houses(x, b, c)"],
     "nests too deeply"),
    ("sqrt-overflow", lambda tmp: _restrict("sqrt(10^400)"), "too large"),
    ("product-overflow", lambda tmp: _restrict("sqrt(2)*10^400"), "too large"),
    ("sum-overflow", lambda tmp: _restrict("sqrt(2)+10^400"), "too large"),
    ("quotient-overflow", lambda tmp: _restrict("10^400/sqrt(2)"), "too large"),
    ("map-overflow", _overflow_catalog, "too large"),
    ("equiv-bad-byte", lambda tmp: ["equiv", str(_bad_byte_csv(tmp)), str(_bad_byte_csv(tmp))],
     "a.csv"),
    ("catalog-bad-byte", lambda tmp: ["eval", "a", "--catalog", str(_bad_byte_csv(tmp).parent)],
     "a.csv"),
    ("config-bad-byte", _bad_byte_config, "catalog.cfg"),
    ("catalog-is-a-file", lambda tmp: ["eval", "a", "--catalog", str(_bad_byte_csv(tmp))],
     "a.csv is not a directory"),
    ("long-number", lambda tmp: _restrict("1" * 5000),
     "number of 5000 characters is too long (line 1, column 17)"),
    ("config-long-number", _long_number_config, "number of 5000 characters is too long"),
    ("rename-twice", lambda tmp: ["eval", "rename(houses, [id -> a, id -> b])"],
     "attribute 'id' is renamed twice at query"),
    # errors after a record that spans lines name the line the reader reached
    ("two-line-record-bad-int", _catalog_csv(HEADER + TWO_LINE_RECORD + "0.7,x,def\n"),
     "line 4: cannot parse 'x' as int"),
    ("two-line-record-duplicate", _catalog_csv(HEADER + TWO_LINE_RECORD * 2),
     "line 5: duplicate tuple"),
] + [
    (f"{command}-{kind}", _malformed_csv(kind, command), needle)
    for kind, needle in [
        ("overlong-cell", "malformed CSV: field larger than field limit (131072) (line 2,"),
        ("open-quote", "malformed CSV: unexpected end of data (line 3,"),
    ]
    for command in ("eval", "equiv")
]


def test_a_leading_byte_order_mark_is_dropped(capsys, tmp_path):
    # Spreadsheet programs save UTF-8 with a byte-order mark.
    (tmp_path / "t.csv").write_bytes(b"\xef\xbb\xbf#,id:int\nyes,5\n")
    (tmp_path / "catalog.cfg").write_bytes(b"\xef\xbb\xbfchain symbolic(no < yes)\n")
    assert run(capsys, "eval", "t", "--catalog", str(tmp_path)) == (
        0, "#    id\n-------\nyes  5\n", "")
    assert read_table_csv("\ufeff#,id:int\n0.5,1\n") == read_table_csv("#,id:int\n0.5,1\n")


def test_a_file_that_is_not_utf8_is_named_once(capsys, tmp_path):
    bad = _bad_byte_csv(tmp_path)
    message = f"{bad} is not UTF-8: cannot decode byte 0xff (line 2, column 7)"
    assert run(capsys, "equiv", str(bad), str(bad)) == (1, "", f"error: {message}\n")
    assert run(capsys, "eval", "a", "--catalog", str(tmp_path)) == (1, "", f"error: {message}\n")
    config = tmp_path / "catalog.cfg"
    config.write_bytes(b"# \xff\nchain rational01\n")
    message = f"{config} is not UTF-8: cannot decode byte 0xff (line 1, column 2)"
    assert run(capsys, *_bad_byte_config(tmp_path)) == (1, "", f"error: {message}\n")
    assert run(capsys, "equiv", str(bad), str(bad), "--config", str(config)) == (
        1, "", f"error: {message}\n")
    # a column counts characters after the byte-order mark
    bad.write_bytes(b"\xef\xbb\xbf#,id:int\xff\n")
    message = f"{bad} is not UTF-8: cannot decode byte 0xff (line 1, column 8)"
    assert run(capsys, "equiv", str(bad), str(bad)) == (1, "", f"error: {message}\n")


def test_a_closed_output_pipe_ends_eval_quietly(tmp_path):
    # 20,000 rows print far more than a pipe holds, so eval is still writing
    # when the reader closes the pipe after one line, as `| head -1` does.
    write_table_csv(RankedTable.from_entries(
        Scheme((("id", INT),)),
        [({"id": i}, RATIONAL.score(Fraction(i, 20_000))) for i in range(1, 20_001)]),
        tmp_path / "t.csv")
    env = dict(os.environ, PYTHONPATH=str(Path(rankrel.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "rankrel.cli", "eval", "t", "--catalog", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()


@pytest.mark.parametrize("build, needle", [case[1:] for case in UNCAUGHT_BEFORE],
                         ids=[case[0] for case in UNCAUGHT_BEFORE])
def test_input_errors_print_one_error_line(capsys, tmp_path, build, needle):
    code, out, err = run(capsys, *build(tmp_path))
    lines = err.splitlines()
    assert code == 1 and out == ""
    assert len(lines) == 1 and lines[0].startswith("error:"), err[-500:]
    assert needle in lines[0]


def test_long_flat_chains_evaluate_like_one_atom(capsys, tmp_path):
    atom = "houses(a, b, c)"
    single = run(capsys, "calc", atom)
    assert single[0] == 0
    assert run(capsys, "calc", " & ".join([atom] * 5000)) == single
    (tmp_path / "t.csv").write_text("#,a:int\n0.5,1\n", encoding="utf-8")
    one_row = run(capsys, "calc", "t(a)", "--catalog", str(tmp_path))
    assert one_row[0] == 0
    assert run(capsys, "calc", " | ".join(["t(a)"] * 5000), "--catalog", str(tmp_path)) == one_row
