"""End-to-end command-line behaviour."""

import csv
import random
import time
from fractions import Fraction

import pytest

from helpers import reference_compose_table, reference_rank_profile, replay_hint, stable_seed

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
    ])
    def test_power_arithmetic_errors_are_user_errors(self, capsys, query, message):
        code, out, err = run(capsys, "eval", query)  # over the demo catalog
        assert code == 1 and out == ""
        assert err.strip() == f"error: {message} at query"

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
            for row in rng.sample(sorted(raised, key=Row.key), 5):
                raised[row] = RATIONAL.top
            perturbed = RankedTable(scheme, RATIONAL, raised)
            write_table_csv(perturbed, tmp_path / "raised.csv")
            first = min(reference_rank_profile(houses, perturbed)[1], key=Row.key)
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
    assert "10/10 checks passed" in out
    assert out.count("PASS") == 10
