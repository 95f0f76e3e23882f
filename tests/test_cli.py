"""End-to-end command-line behaviour."""

import csv

import pytest

from rankrel import algebra, demo
from rankrel.cli import main
from rankrel.table import read_table_csv, write_table_csv


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

    def test_unknown_condition_error_names_query_path(self, capsys, catalog_dir):
        code, _, err = run(
            capsys, "eval", "join(offers, restrict(houses, nosuch))", "--catalog", str(catalog_dir)
        )
        assert code == 1
        assert err.strip() == "error: unknown condition 'nosuch' at query.right"

    def test_corrupt_catalog_file_named_in_error(self, capsys, catalog_dir):
        (catalog_dir / "stray.csv").write_text("", encoding="utf-8")
        code, _, err = run(capsys, "eval", "houses", "--catalog", str(catalog_dir))
        assert code == 1 and "stray.csv" in err

    def test_missing_input_file_reported_cleanly(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "equiv", str(tmp_path / "no.csv"), str(tmp_path / "nope.csv")
        )
        assert code == 1 and "error" in err


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

    def test_calc_over_valuation_cap_fails_fast(self, capsys):
        code, out, err = run(
            capsys, "calc", "exists x. (houses(id, x, sqft) & offers(id, a, p))"
        )
        assert code == 1
        assert out == ""
        assert "11,881,376 valuations" in err and "cap of 1,000,000" in err


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "9/9 checks passed" in out
    assert out.count("PASS") == 9
