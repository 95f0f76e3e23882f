"""Schemes, rows, tables, the classic embedding, and the CSV contract."""

import ast
import copy
import pickle
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (
    enumerate_rows,
    join_rows,
    rank_profile_values,
    reference_row_conforms,
    replay_hint,
    row_value,
    stable_seed,
)

from rankrel import table as table_module
from rankrel.chain import RATIONAL
from rankrel.errors import (
    ChainError,
    NotCrispError,
    SchemeError,
)
from rankrel.table import (
    DEC,
    INT,
    STR,
    AttrType,
    RankedTable,
    Row,
    Scheme,
    _row_conforms,
    from_classic,
    gather,
    make_row,
    read_table_csv,
    to_classic,
    values_of,
    write_table_csv,
)


@pytest.fixture
def people():
    scheme = Scheme((("id", INT), ("name", STR)))
    return RankedTable.from_entries(
        scheme,
        [
            ({"id": 1, "name": "ann"}, RATIONAL.parse("0.9")),
            ({"id": 2, "name": "bob"}, RATIONAL.parse("0.4")),
        ],
    )


class TestScheme:
    def test_set_equality_ignores_order(self):
        first = Scheme((("a", INT), ("b", STR)))
        second = Scheme((("b", STR), ("a", INT)))
        assert first == second

    def test_name_views_are_built_once(self):
        scheme = Scheme((("B", INT), ("a", STR)))
        assert scheme.names is scheme.names and scheme.names == ("b", "a")
        assert scheme.name_set is scheme.name_set and scheme.name_set == {"a", "b"}
        assert scheme.sorted_names == ("a", "b") == tuple(n for n, _ in Row.of({"b": 1, "a": "x"}))
        assert hash(scheme) == hash(Scheme((("a", STR), ("b", INT))))
        assert scheme != Scheme((("a", INT), ("b", INT)))

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemeError):
            Scheme((("a", INT), ("A", STR)))

    def test_names_case_insensitive(self):
        scheme = Scheme((("Price", INT),))
        assert "PRICE" in scheme and scheme.attr("price").name == "price"

    def test_union_type_conflict(self):
        with pytest.raises(SchemeError):
            Scheme((("a", INT),)).union(Scheme((("a", STR),)))

    def test_project_unknown(self):
        with pytest.raises(SchemeError):
            Scheme((("a", INT),)).project(("b",))

    def test_rename_collision(self):
        scheme = Scheme((("a", INT), ("b", INT)))
        with pytest.raises(SchemeError):
            scheme.rename({"a": "b"})

    def test_empty_scheme_has_one_tuple(self):
        assert enumerate_rows(Scheme(())) == [Row.of({})]

    def test_finite_enumeration(self):
        scheme = Scheme((("a", AttrType("int", (0, 1))), ("b", AttrType("int", (0, 1)))))
        assert len(enumerate_rows(scheme)) == 4


class TestRows:
    def test_join_agreeing(self):
        r = Row.of({"id": 71})
        s = Row.of({"id": 71, "price": 798000})
        assert join_rows(r, s) == s

    def test_empty_row_neutral(self):
        r = Row.of({"id": 71})
        assert join_rows(r, Row.of({})) == r

    def test_disagreement_rejected(self):
        with pytest.raises(ValueError):
            join_rows(Row.of({"id": 71}), Row.of({"id": 85}))

    def test_a_row_is_the_tuple_of_its_pairs(self):
        row = Row.of({"B": 2, "a": "x"})
        pairs = (("a", "x"), ("b", 2))
        assert row.items is row and row == pairs and hash(row) == hash(pairs)
        assert {row.items: 1} == {pairs: 1}  # an oracle keyed on plain pairs reads it back
        assert repr(row) == "Row(a='x', b=2)"
        for again in (copy.copy(row), copy.deepcopy(row), pickle.loads(pickle.dumps(row))):
            assert type(again) is Row and again == row
        with pytest.raises(AttributeError):
            row.extra = 1

    def test_names_belong_to_the_scheme(self):
        # a row has no name readers: its values are read through the scheme's plans
        for member in ("names", "value", "as_dict", "project", "key"):
            assert not hasattr(Row, member)
        scheme = Scheme((("id", INT), ("w", DEC)))
        row = make_row(scheme, {"id": 3, "w": 2})
        assert values_of(scheme, ["W", "id"])(row) == (Fraction(2), 3)
        assert gather(scheme, ["W"])(row) == (("w", Fraction(2)),)

    @pytest.mark.parametrize("plan", [gather, values_of])
    def test_a_plan_names_an_unknown_attribute(self, plan):
        scheme = Scheme((("id", INT), ("w", DEC)))
        message = r"unknown attribute 'nosuch'; scheme has \('id', 'w'\)"
        with pytest.raises(SchemeError, match=message):
            plan(scheme, ["id", "nosuch"])

    def test_make_row_type_checked(self):
        scheme = Scheme((("id", INT), ("w", DEC)))
        row = make_row(scheme, {"id": 3, "w": 2})
        assert row_value(scheme, row, "w") == Fraction(2)
        with pytest.raises(SchemeError):
            make_row(scheme, {"id": "three", "w": 2})
        with pytest.raises(SchemeError):
            make_row(scheme, {"id": 3})


def rnd_conformance_case(rng: random.Random):
    """A random scheme, one row conforming to it, and one malformed row of each kind."""
    values = {"str": ["x", "y"], "int": [0, 1, 2], "dec": [Fraction(1, 2), Fraction(3)]}
    attrs = []
    for name in rng.sample("abcde", rng.randint(1, 4)):
        kind = rng.choice(("str", "int", "dec"))
        domain = tuple(values[kind][:2]) if rng.random() < 0.4 else None
        attrs.append((name, AttrType(kind, domain)))
    scheme = Scheme(attrs)
    good = {attr.name: rng.choice(attr.atype.domain or values[attr.atype.kind])
            for attr in scheme.attrs}
    name = rng.choice(scheme.names)
    kind = scheme.attr(name).atype.kind
    bad = {
        "wrong name": {("z" if n == name else n): v for n, v in good.items()},
        "wrong kind": {**good, name: {"str": 1, "int": "1", "dec": 1}[kind]},
        "bool for int": {**good, name: True},
        "outside domain": {**good, name: {"str": "q", "int": 7, "dec": Fraction(9)}[kind]},
        "too short": {n: v for n, v in good.items() if n != name},
        "too long": {**good, "zz": 1},
    }
    return scheme, Row.of(good), {label: Row.of(row) for label, row in bad.items()}


class TestRowConformance:
    def test_verdicts_match_the_name_by_name_check(self):
        seed = stable_seed("row conformance")
        rng = random.Random(seed)
        rejected = set()
        with replay_hint(seed):
            for _ in range(500):
                scheme, good, bad = rnd_conformance_case(rng)
                assert _row_conforms(scheme, good) and reference_row_conforms(scheme, good)
                for label, row in bad.items():
                    verdict = _row_conforms(scheme, row)
                    assert verdict == reference_row_conforms(scheme, row), (label, row)
                    if not verdict:
                        rejected.add(label)
        assert rejected == {"wrong name", "wrong kind", "bool for int", "outside domain",
                            "too short", "too long"}


class TestRankedTable:
    def test_score_of_total_semantics(self, people):
        assert people.score_of(Row.of({"id": 1, "name": "ann"})) == RATIONAL.parse("0.9")
        assert people.score_of(Row.of({"id": 9, "name": "zed"})).is_bottom

    def test_a_table_is_unhashable(self, people):
        with pytest.raises(TypeError, match="unhashable type: 'RankedTable'"):
            hash(people)

    def test_score_of_scheme_mismatch(self, people):
        with pytest.raises(SchemeError):
            people.score_of(Row.of({"id": 1}))

    def test_bottom_entries_dropped_by_from_entries(self, people):
        table = RankedTable.from_entries(
            people.scheme, [({"id": 5, "name": "eve"}, RATIONAL.bottom)]
        )
        assert len(table) == 0

    def test_empty_scheme_entry(self):
        table = RankedTable.from_entries(Scheme(()), [({}, RATIONAL.parse("0.8"))])
        assert table.score_of(Row.of({})) == RATIONAL.parse("0.8")

    # A table's levels, as the ordinal kernel reads them, are its range.
    def test_range_includes_bottom_for_unbounded_types(self, people):
        values = sorted(rank_profile_values(people, people)[0])
        assert values == [0, Fraction(4, 10), Fraction(9, 10)]

    def test_range_excludes_bottom_when_finite_domain_covered(self):
        scheme = Scheme((("a", AttrType("int", (0, 1))),))
        table = RankedTable.from_entries(
            scheme, [({"a": 0}, RATIONAL.top), ({"a": 1}, RATIONAL.top)]
        )
        assert sorted(rank_profile_values(table, table)[0]) == [1]

    def test_range_of_empty_table(self):
        table = RankedTable.empty(Scheme((("a", INT),)))
        assert sorted(rank_profile_values(table, table)[0]) == [0]

    def test_equality_is_pointwise(self, people):
        clone = RankedTable.from_entries(people.scheme, people.entries())
        assert clone == people
        other = RankedTable.from_entries(
            people.scheme,
            [({"id": 1, "name": "ann"}, RATIONAL.parse("0.9"))],
        )
        assert other != people

    def test_rows_by_rank_orders_desc_then_canonically(self, people):
        rows = [row_value(people.scheme, row, "name") for row, _ in people.rows_by_rank()]
        assert rows == ["ann", "bob"]


class TestDemoTables:
    def test_score_lookup(self):
        from rankrel import demo

        houses = demo.houses()
        assert houses.score_of(
            Row.of({"id": 56, "bdrm": 3, "sqft": 3400})
        ) == RATIONAL.parse("0.971")

    def test_range_lists_every_score_plus_bottom(self):
        from rankrel import demo

        values = sorted(rank_profile_values(demo.houses(), demo.houses())[0])
        expected = ["0", "0.148", "0.426", "0.643", "0.937", "0.971", "1.000"]
        assert values == [Fraction(text) for text in expected]


    @pytest.mark.parametrize("round_trip", [
        copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_copy_and_pickle_round_trips(self, round_trip):
        from rankrel import demo

        for value in (Scheme((("a", INT),)), demo.houses(), demo.offers(),
                      demo.similar_join()):
            again = round_trip(value)
            assert again == value and repr(again) == repr(value)

    def test_round_trips_rebuild_through_the_constructors(self):
        from rankrel import demo

        table = demo.houses()
        assert table.scheme.__reduce__() == (Scheme, (table.scheme.attrs,))
        assert table.__reduce__()[0] is RankedTable


class TestClassicEmbedding:
    def test_round_trip(self):
        scheme = Scheme((("a", INT),))
        rows = {Row.of({"a": 1}), Row.of({"a": 2})}
        assert to_classic(from_classic(rows, scheme)) == rows

    def test_from_classic_empty(self):
        assert len(from_classic(set(), Scheme((("a", INT),)))) == 0

    def test_to_classic_rejects_intermediate(self, people):
        with pytest.raises(NotCrispError):
            to_classic(people)


CSV_TEXT = """#,id:int,agent:str,price:int
0.997,71,Black,798000
0.940,71,Adams,849000
"""


class TestCsv:
    def test_read(self):
        table = read_table_csv(CSV_TEXT)
        assert len(table) == 2
        row = Row.of({"id": 71, "agent": "Black", "price": 798000})
        assert table.score_of(row) == RATIONAL.parse("0.997")

    def test_write_read_round_trip(self, people):
        text = write_table_csv(people)
        assert read_table_csv(text) == people

    def test_score_zero_rejected(self):
        with pytest.raises(ChainError):
            read_table_csv("#,a:int\n0,1\n")

    def test_duplicate_tuple_rejected(self):
        with pytest.raises(SchemeError):
            read_table_csv("#,a:int\n0.5,1\n0.7,1\n")

    def test_header_must_start_with_score_column(self):
        with pytest.raises(SchemeError):
            read_table_csv("a:int,b:int\n1,2\n")

    def test_untyped_header_rejected(self):
        with pytest.raises(SchemeError):
            read_table_csv("#,a\n0.5,1\n")

    def test_blanks_around_a_header_colon_are_not_part_of_the_name_or_kind(self):
        table = read_table_csv("#,id :int, w: dec \n0.5,1,-0.0075\n")
        assert table.scheme == Scheme((("id", INT), ("w", DEC)))
        assert write_table_csv(table) == "#,id:int,w:dec\n0.5,1,-0.0075\n"

    def test_fraction_scores_round_trip(self):
        scheme = Scheme((("a", INT),))
        table = RankedTable.from_entries(scheme, [({"a": 1}, Fraction(1, 3))])
        assert read_table_csv(write_table_csv(table)) == table

    def test_a_header_name_holding_a_comma_is_quoted_and_refused_on_read(self):
        table = RankedTable.from_entries(Scheme((("a,b", INT),)), [({"a,b": 1}, Fraction(1, 2))])
        text = write_table_csv(table)
        assert text.splitlines()[0] == '#,"a,b:int"'
        # no query can name the column, so reading it back is refused
        with pytest.raises(SchemeError, match=r"^line 1: attribute name 'a,b' is not a name "
                                              r"that queries can read$"):
            read_table_csv(text)

    @pytest.mark.parametrize("name", ["my id", "a-b", "1st", "id.x", "naïve"])
    def test_a_header_name_no_query_can_read_is_refused(self, name):
        with pytest.raises(SchemeError, match=rf"^line 1: attribute name '{re.escape(name)}'"):
            read_table_csv(f"#,{name}:int\n0.5,1\n")
        assert read_table_csv("#, _My_id2 :int\n0.5,1\n").scheme.names == ("_my_id2",)

    def test_file_round_trip(self, people, tmp_path):
        path = tmp_path / "people.csv"
        write_table_csv(people, path)
        assert read_table_csv(path) == people


def _reads_a_rows_pairs(node) -> bool:
    """``row[i][1]``, or ``dict(x)`` of a bare name ``x``."""
    if isinstance(node, ast.Subscript):
        return (isinstance(node.value, ast.Subscript) and isinstance(node.slice, ast.Constant)
                and node.slice.value == 1)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "dict" and len(node.args) == 1
            and isinstance(node.args[0], ast.Name))


def test_only_table_reads_a_rows_pairs():
    """Outside ``table``, rows are read through its plans, so the row layout is
    ``table.py``'s alone.  ``ExprCondition.score_of``, which asks a bare row
    for its names, is the one exception."""
    package = Path(table_module.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "table.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = {id(node)
                  for cls in tree.body
                  if isinstance(cls, ast.ClassDef) and cls.name == "ExprCondition"
                  for method in cls.body
                  if isinstance(method, ast.FunctionDef) and method.name == "score_of"
                  for node in ast.walk(method)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if id(node) not in exempt and _reads_a_rows_pairs(node)]
    assert not found, f"rows read outside table.py at {found}"
