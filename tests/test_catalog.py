"""Config parsing, catalog loading, and the symbolic carrier end to end."""

import gc
import weakref
from fractions import Fraction

import pytest

from rankrel import algebra, ordinal, planner
from rankrel.catalog import Catalog, parse_config
from rankrel.chain import RATIONAL, ScoreChain
from rankrel.errors import (
    ChainError,
    IncompatibleChainError,
    MapPropertyError,
    ParseError,
    RankrelError,
    UnknownNameError,
)
from rankrel.maps import AnalyticMap, GraphMap, IdentityMap, PiecewiseConstantMap, compose_table
from rankrel.table import RankedTable, Row, read_table_csv, write_table_csv

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

    def test_compose_with_a_map_moving_bottom_fails_on_its_line(self):
        text = ("map up = expr{ 0.5 + x/2 }\ncond big = expr{ bdrm > 100 ? 1 : 0 }\n"
                "\ncond big_up = compose(big, up)\n")
        with pytest.raises(ParseError) as err:
            parse_config(text)
        assert err.value.line == 4
        assert "compose(big, up)" in str(err.value) and "bottom to bottom" in str(err.value)

    @pytest.mark.parametrize("kind, first, second", [
        ("map", "map up = identity", "map UP = expr{ x^2 }"),
        ("cond", "cond big = expr{ 1 }", "cond BIG = expr{ 1/2 }"),
    ])
    def test_a_name_declared_twice_fails_naming_both_lines(self, kind, first, second):
        with pytest.raises(ParseError) as err:
            parse_config(f"chain rational01\n{first}\nmap other = identity\n{second}\n")
        assert str(err.value) == (f"{kind} {'up' if kind == 'map' else 'big'!r} is declared on "
                                  "line 2 and again on line 4; names ignore case (line 4, column 0)")

    @pytest.mark.parametrize("line, message", [
        ("cond c = expr{ id <= }", "unexpected token 'end' (line 4, column 21)"),
        # the column counts from the start of the line, indentation included
        ("  cond c = expr{ id @ 1 }", "unexpected character '@' (line 4, column 20)"),
    ])
    def test_an_error_inside_a_condition_body_names_its_config_line(self, line, message):
        with pytest.raises(ParseError) as err:
            parse_config(f"chain rational01\nmap f = identity\n\n{line}\n")
        assert str(err.value) == message

    def test_a_map_and_a_condition_may_share_a_name(self):
        catalog = parse_config("map f = identity\ncond f = expr{ 1 }\ncond g = compose(f, f)\n")
        assert set(catalog.maps) == {"f"} and set(catalog.conditions) == {"f", "g"}


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

    def test_a_graph_with_a_repeated_input_is_refused(self):
        # GraphMap keeps the first pair for an input, a dict the last: neither wins.
        catalog = parse_config("chain rational01\n\nmap g = graph{ 0 -> 0, 0.5 -> 0.3, 1/2 -> 0.4 }\n")
        with pytest.raises(ParseError) as err:
            catalog.maps["g"]
        assert str(err.value) == "graph input '1/2' appears twice (line 3, column 0)"

    @pytest.mark.parametrize("body, message", [
        ("expr{ x @ 2 }", "unexpected character '@' (line 3, column 16)"),
        ("graph{ 0 -> 0, abc -> 1 }", "cannot parse rational score from 'abc' (line 3, column 0)"),
        ("graph{ 0 -> 0, 2 -> 1 }", "score 2 outside [0, 1] (line 3, column 0)"),
        ("piecewise{ (0, abc] -> 1 }", "cannot parse rational score from 'abc' (line 3, column 0)"),
    ], ids=["expr", "graph-text", "graph-range", "piecewise-bound"])
    def test_an_error_inside_a_map_body_names_its_config_line(self, body, message):
        catalog = parse_config(f"chain rational01\n# maps\nmap f = {body}\n")
        for lookup in (lambda: catalog.maps["f"], lambda: catalog.order_map("F")):
            with pytest.raises(ParseError) as err:
                lookup()
            assert str(err.value) == message and err.value.message == message.rsplit(" (", 1)[0]

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


class TestSharedScores:
    """A catalog reads all of its CSVs on one chain, which keeps one score per value."""

    HOUSES = "#,id:int\n0.5,1\n0.25,2\n1/2,3\n"
    OFFERS = "#,id:int,agent:str\n0.25,1,ann\n0.5,2,bob\n0.75,3,cy\n"

    def write(self, directory, **files):
        for name, text in files.items():
            (directory / f"{name}.csv").write_text(text, encoding="utf-8")

    def test_each_csv_is_read_through_the_catalog_binding(self, tmp_path, monkeypatch):
        # a wrapper at catalog.read_table_csv, as the per-layer tracer installs, sees every read
        from rankrel import catalog as catalog_module

        self.write(tmp_path, houses=self.HOUSES, offers=self.OFFERS)
        read, calls = catalog_module.read_table_csv, []

        def counted(*args, **kwargs):
            calls.append(args[0].name)
            return read(*args, **kwargs)

        monkeypatch.setattr(catalog_module, "read_table_csv", counted)
        catalog = Catalog.from_dir(tmp_path)
        assert calls == ["houses.csv", "offers.csv"]
        assert sorted(catalog.tables) == ["houses", "offers"]

    def test_names_differing_in_case_only_are_refused(self, tmp_path):
        self.write(tmp_path, Houses=self.HOUSES, houses=self.HOUSES.replace("0.25", "0.75"))
        with pytest.raises(RankrelError) as err:
            Catalog.from_dir(tmp_path)
        assert str(err.value) == (f"{tmp_path / 'Houses.csv'} and {tmp_path / 'houses.csv'} "
                                  "both hold table 'houses'; table names ignore case")

    def test_equal_score_texts_share_one_object(self, tmp_path):
        self.write(tmp_path, houses=self.HOUSES, offers=self.OFFERS)
        catalog = Catalog.from_dir(tmp_path)
        houses, offers = catalog.table("houses"), catalog.table("offers")
        half = houses.score_of(Row.of({"id": 1}))
        assert offers.score_of(Row.of({"id": 2, "agent": "bob"})) is half
        quarter = houses.score_of(Row.of({"id": 2}))
        assert offers.score_of(Row.of({"id": 1, "agent": "ann"})) is quarter
        # another text of an equal value is the same object
        assert houses.score_of(Row.of({"id": 3})) is half
        for name in ("houses", "offers"):
            assert catalog.table(name) == read_table_csv(tmp_path / f"{name}.csv")

    @pytest.mark.parametrize("bad", ["0", "0.0", "abc", "1.5"])
    def test_a_bad_score_text_fails_as_in_a_lone_read(self, tmp_path, bad):
        # houses is read first, so its texts are in the chain's memo already
        self.write(tmp_path, houses=self.HOUSES,
                   offers=self.OFFERS + f"{bad},4,dee\n0.5,5,eve\n")
        with pytest.raises(ChainError) as alone:
            read_table_csv(tmp_path / "offers.csv")
        with pytest.raises(ChainError) as err:
            Catalog.from_dir(tmp_path)
        assert str(err.value) == str(alone.value)
        assert str(err.value).startswith(f"cannot load table from {tmp_path / 'offers.csv'}: ")

    @pytest.mark.parametrize("bad, message", [
        ("0", "line 4: rows with score 0 are not stored; omit the row"),
        # the id predates the line number in the message
        pytest.param("abc", "line 4: cannot parse rational score from 'abc'",
                     id="abc-cannot parse rational score from 'abc'"),
    ])
    def test_a_failed_text_fails_alike_on_a_chain_that_read_it(self, bad, message):
        chain = ScoreChain()  # an empty memo
        with pytest.raises(ChainError):
            read_table_csv(f"#,id:int\n0.5,1\n{bad},2\n", chain)
        second = f"#,id:int\n0.5,1\n0.25,2\n{bad},3\n"
        with pytest.raises(ChainError) as again:
            read_table_csv(second, chain)
        with pytest.raises(ChainError) as alone:
            read_table_csv(second, ScoreChain())
        assert str(again.value) == str(alone.value) == message


class TestCatalogScoreDict:
    """Config and CSV texts are parsed on the catalog's final chain, one score per value."""

    COMPOSED = "cond one = expr{ 1 }\ncond mapped = compose(one, h)\n"

    def test_a_graph_parsed_while_reading_the_config_keeps_bottom_out(self, tmp_path):
        cfg = "map h = graph{ 0 -> 0, 0.5 -> 0.25, 1 -> 1 }\n" + self.COMPOSED
        catalog = parse_config(cfg)
        zero = catalog.chain.parse("0")  # the graph read this text first
        assert catalog.order_map("h").apply(zero) is zero is catalog.chain.bottom
        (tmp_path / "catalog.cfg").write_text(cfg, encoding="utf-8")
        (tmp_path / "t.csv").write_text("#,id:int\n0.5,1\n0,2\n", encoding="utf-8")
        with pytest.raises(ChainError) as err:
            Catalog.from_dir(tmp_path)
        assert str(err.value) == (f"cannot load table from {tmp_path / 't.csv'}: "
                                  "line 3: rows with score 0 are not stored; omit the row")

    @pytest.mark.parametrize("before, follows", [
        ("map h = graph{ 0 -> 0, 1 -> 1 }\n", "map 'h' on line 1"),
        ("cond one = expr{ 1 }\n", "cond 'one' on line 1"),
        ("chain rational01\n", "chain 'rational01' on line 1"),
    ], ids=["map", "cond", "chain"])
    def test_a_chain_line_after_any_declaration_is_refused(self, before, follows):
        with pytest.raises(ParseError) as err:
            parse_config(before + "\nchain symbolic(0 < 1)\n")
        assert str(err.value) == (f"chain on line 3 follows {follows}; the one chain line "
                                  "comes first (line 3, column 0)")

    @pytest.mark.parametrize("levels, message", [
        ("a < a", "duplicate level names in ('a', 'a')"),
        ("a <  < b", "malformed chain levels: 'a <  < b'"),
    ])
    def test_a_malformed_chain_line_names_its_config_line(self, levels, message):
        with pytest.raises(ParseError) as err:
            parse_config(f"# levels\nchain symbolic({levels})\n")
        assert str(err.value) == f"{message} (line 2, column 0)"

    def test_maps_parse_on_the_chain_of_a_leading_chain_line(self):
        catalog = parse_config("chain symbolic(0 < 1)\nmap h = graph{ 0 -> 0, 1 -> 1 }\n")
        assert catalog.chain.levels == ("0", "1")
        assert catalog.maps["h"].apply(catalog.chain.top) is catalog.chain.parse("1")
        assert catalog.chain.parse("1") is catalog.chain.top

    def test_map_bodies_share_the_objects_of_the_tables(self, tmp_path):
        cfg = ("map h = graph{ 0 -> 0, 0.5 -> 0.25, 1 -> 1 }\n"
               "map g = piecewise{ (0, 0.5] -> 0.25 }\n")
        (tmp_path / "catalog.cfg").write_text(cfg, encoding="utf-8")
        (tmp_path / "t.csv").write_text("#,id:int\n0.5,1\n0.25,2\n", encoding="utf-8")
        catalog = Catalog.from_dir(tmp_path)
        half = catalog.table("t").score_of(Row.of({"id": 1}))
        assert catalog.chain.parse("0.5") is half
        quarter = catalog.table("t").score_of(Row.of({"id": 2}))
        assert catalog.order_map("h").apply(half) is quarter
        assert catalog.order_map("g").apply(half) is quarter

    def test_a_catalog_is_freed_without_the_cycle_collector(self, tmp_path):
        # a reference cycle would keep every table of a loaded catalog until a GC pass
        cfg = "map h = graph{ 0 -> 0, 1 -> 1 }\n" + self.COMPOSED
        (tmp_path / "catalog.cfg").write_text(cfg, encoding="utf-8")
        (tmp_path / "t.csv").write_text("#,id:int\n0.5,1\n", encoding="utf-8")
        gc.disable()
        try:
            catalog = Catalog.from_dir(tmp_path)
            freed = weakref.ref(catalog)
            del catalog
            assert freed() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("second", ["0.50", "0.5"])
    def test_graph_inputs_of_one_value_are_refused(self, second):
        catalog = parse_config(f"map g = graph{{ 0 -> 0, 0.5 -> 0.3, {second} -> 0.4 }}\n")
        with pytest.raises(ParseError) as err:
            catalog.maps["g"]
        assert str(err.value) == f"graph input '{second}' appears twice (line 1, column 0)"


class TestOneScorePerValue:
    """Every route to one value on one chain gives one ``Score`` object."""

    def load(self, directory, cfg: str, first: str, second: str) -> Catalog:
        (directory / "catalog.cfg").write_text(cfg, encoding="utf-8")
        (directory / "first.csv").write_text(f"#,id:int\n{first},1\n", encoding="utf-8")
        (directory / "second.csv").write_text(second, encoding="utf-8")
        return Catalog.from_dir(directory)

    def test_every_route_to_one_half_gives_one_object(self, tmp_path):
        cfg = ("map g = graph{ 0 -> 0, 0.25 -> 0.5, 1 -> 1 }\n"
               "map p = piecewise{ (0, 1] -> 1/2 }\n"
               "map f = expr{ x/2 }\n"
               "cond c = expr{ id <= 1 ? 0.5 : 1 }\n")
        catalog = self.load(tmp_path, cfg, "0.5", "#,id:int\n0.50,1\n1/2,2\n")
        chain = catalog.chain
        second = catalog.table("second")
        tops = RankedTable(second.scheme, chain, {Row.of({"id": 1}): chain.top})
        routes = [
            catalog.table("first").score_of(Row.of({"id": 1})),
            second.score_of(Row.of({"id": 1})),
            second.score_of(Row.of({"id": 2})),
            RATIONAL.score(Fraction(1, 2)),
            catalog.order_map("g").apply(chain.parse("0.25")),
            catalog.order_map("p").apply(chain.top),
            catalog.condition("c").score_of(Row.of({"id": 1}), chain),
            catalog.order_map("f").apply(chain.top),
            compose_table(tops, catalog.order_map("f")).score_of(Row.of({"id": 1})),
        ]
        assert chain is RATIONAL and len({id(s) for s in routes}) == 1, routes

    def test_every_route_to_one_level_gives_one_object(self, tmp_path):
        cfg = (SYMBOLIC_CFG + "map g = graph{ none -> none, high -> low, full -> full }\n"
               "map p = piecewise{ (none, full] -> low }\n")
        catalog = self.load(tmp_path, cfg, "low", "#,id:int\n low ,1\nlow,2\n")
        chain, second = catalog.chain, catalog.table("second")
        routes = [
            catalog.table("first").score_of(Row.of({"id": 1})),
            second.score_of(Row.of({"id": 1})),
            second.score_of(Row.of({"id": 2})),
            chain.score("low"),
            chain.score(1),
            catalog.order_map("g").apply(chain.parse("high")),
            catalog.order_map("p").apply(chain.top),
        ]
        assert chain.levels[1] == "low" and len({id(s) for s in routes}) == 1, routes


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
