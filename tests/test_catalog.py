"""Config parsing, catalog loading, and the symbolic carrier end to end."""

import pytest

from rankrel import algebra, ordinal, planner
from rankrel.catalog import Catalog, parse_config
from rankrel.chain import RATIONAL
from rankrel.errors import (
    IncompatibleChainError,
    MapPropertyError,
    ParseError,
    UnknownNameError,
)
from rankrel.maps import AnalyticMap, GraphMap, IdentityMap, PiecewiseConstantMap
from rankrel.table import Row, read_table_csv, write_table_csv

fr = RATIONAL.parse


CONFIG = """
# demo configuration
chain rational01
map f = expr{ x <= 0.5 ? sqrt(x)/sqrt(2) : 2*(x-0.5)^2 + 0.5 }
map steps = piecewise{ 0 -> 0, (0, 0.5] -> 0.25, (0.5, 1] -> 1 }
map swap = graph{ 0 -> 0, 0.6 -> 0.5, 1 -> 1 }
map same = identity
cond theta = expr{ bdrm <= 6 ? 0.1*(4+bdrm) : 1 }
cond theta_f = compose(theta, f)
"""


class TestConfig:
    def test_parses_every_flavor(self):
        catalog = parse_config(CONFIG)
        assert isinstance(catalog.maps["f"], AnalyticMap)
        assert isinstance(catalog.maps["steps"], PiecewiseConstantMap)
        assert isinstance(catalog.maps["swap"], GraphMap)
        assert isinstance(catalog.maps["same"], IdentityMap)
        assert "theta" in catalog.conditions and "theta_f" in catalog.conditions

    def test_piecewise_semantics(self):
        steps = parse_config(CONFIG).maps["steps"]
        assert steps.apply(fr("0.3")) == fr("0.25")
        assert steps.apply(fr("0.7")) == fr("1")
        assert steps.apply(RATIONAL.bottom).is_bottom

    def test_graph_semantics(self):
        swap = parse_config(CONFIG).maps["swap"]
        assert swap.apply(fr("0.6")) == fr("0.5")

    def test_dense_piecewise_without_spaces(self):
        text = (
            "map f = piecewise{ 0 -> 0, (0,0.148] -> 0.148, (0.148,0.426] -> 0.426,"
            " (0.426,0.643] -> 0.643, (0.643,0.778] -> 0.778,"
            " (0.778,0.939] -> 0.937, (0.939,1] -> 1 }\n"
        )
        f = parse_config(text).maps["f"]
        assert len(f.pieces) == 6
        assert f.apply(fr("0.9")) == fr("0.937")
        assert f.apply(fr("0.95")) == fr("1")

    def test_composed_condition(self):
        catalog = parse_config(CONFIG)
        row = Row.of({"bdrm": 3})
        plain = catalog.conditions["theta"].score_of(row, RATIONAL)
        composed = catalog.conditions["theta_f"].score_of(row, RATIONAL)
        assert plain == fr("0.7") and composed == fr("0.58")

    def test_unknown_line_rejected(self):
        with pytest.raises(ParseError):
            parse_config("frobnicate everything\n")

    def test_compose_of_unknown_names_rejected(self):
        with pytest.raises(ParseError):
            parse_config("cond c = compose(missing, alsomissing)\n")

    def test_declared_fixed_bottom_enforced(self):
        from rankrel.maps import compose_table
        from rankrel import demo

        lifted = AnalyticMap.parse("0.5 + x/2", declared=("fixed-bottom",))
        with pytest.raises(MapPropertyError):
            compose_table(demo.houses(), lifted)


class TestMapsParsedAtFirstUse:
    TEXT = "chain rational01\nmap same = identity\nmap bad = graph{ 0 -> 0, 1 }\n"

    def test_a_malformed_map_fails_where_it_is_looked_up(self):
        catalog = parse_config(self.TEXT)
        assert set(catalog.maps) == {"same", "bad"} and len(catalog.maps) == 2
        assert catalog.maps["same"] is catalog.maps["same"]  # parsed once, then kept
        for lookup in (lambda: catalog.maps["bad"], lambda: catalog.order_map("BAD")):
            with pytest.raises(ParseError) as err:
                lookup()
            assert str(err.value) == "graph entry '1' needs '->' (line 3, column 0)"

    def test_compose_resolves_its_map_while_parsing(self):
        with pytest.raises(ParseError) as err:
            parse_config(self.TEXT + "cond theta = expr{ 1 }\ncond c = compose(theta, bad)\n")
        assert err.value.line == 3
        catalog = parse_config(self.TEXT + "cond theta = expr{ 1 }\ncond c = compose(theta, same)\n")
        assert isinstance(catalog.maps["same"], IdentityMap) and "c" in catalog.conditions


class TestCatalogDir:
    def test_load_and_query(self, tmp_path):
        from rankrel import demo

        write_table_csv(demo.houses(), tmp_path / "houses.csv")
        (tmp_path / "catalog.cfg").write_text("chain rational01\n", encoding="utf-8")
        catalog = Catalog.from_dir(tmp_path)
        assert len(catalog.table("houses")) == 6
        with pytest.raises(UnknownNameError):
            catalog.table("missing")


SYMBOLIC_CFG = "chain symbolic(none < low < high < full)\n"

LEFT_CSV = """#,item:str
full,apple
low,pear
"""

RIGHT_CSV = """#,item:str
high,apple
high,pear
"""


class TestSymbolicCarrier:
    def test_end_to_end(self, tmp_path):
        (tmp_path / "catalog.cfg").write_text(SYMBOLIC_CFG, encoding="utf-8")
        (tmp_path / "left.csv").write_text(LEFT_CSV, encoding="utf-8")
        (tmp_path / "right.csv").write_text(RIGHT_CSV, encoding="utf-8")
        catalog = Catalog.from_dir(tmp_path)
        left, right = catalog.table("left"), catalog.table("right")

        joined = algebra.natural_join(left, right)
        chain = catalog.chain
        assert joined.score_of(Row.of({"item": "apple"})) == chain.score("high")
        assert joined.score_of(Row.of({"item": "pear"})) == chain.score("low")

        # apple violates containment (full > high), so the score is "high"
        assert algebra.subsethood(left, right) == chain.score("high")
        # right collapses left's two ranks into one: a one-way inclusion
        assert ordinal.ordinally_included(left, right)
        assert not ordinal.ordinally_included(right, left)

        expr = planner.parse_query("union(left, right)")
        merged = planner.evaluate(expr, catalog)
        assert merged.score_of(Row.of({"item": "apple"})) == chain.score("full")

    def test_table_on_another_chain_rejected(self):
        from rankrel import demo

        catalog = parse_config(SYMBOLIC_CFG)
        with pytest.raises(IncompatibleChainError):
            catalog.add_table("houses", demo.houses())
        assert "houses" not in catalog.tables

    def test_round_trips_through_csv(self, tmp_path):
        (tmp_path / "catalog.cfg").write_text(SYMBOLIC_CFG, encoding="utf-8")
        (tmp_path / "left.csv").write_text(LEFT_CSV, encoding="utf-8")
        catalog = Catalog.from_dir(tmp_path)
        table = catalog.table("left")
        assert read_table_csv(write_table_csv(table), catalog.chain) == table
