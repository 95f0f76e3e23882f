"""Schemes, rows, tables, the classic embedding, and the CSV contract."""

from fractions import Fraction

import pytest

from helpers import enumerate_rows

from rankrel.chain import RATIONAL
from rankrel.errors import (
    ChainError,
    DisjointTupleError,
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
    from_classic,
    join_rows,
    make_row,
    read_table_csv,
    to_classic,
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
        with pytest.raises(DisjointTupleError):
            join_rows(Row.of({"id": 71}), Row.of({"id": 85}))

    def test_make_row_type_checked(self):
        scheme = Scheme((("id", INT), ("w", DEC)))
        row = make_row(scheme, {"id": 3, "w": 2})
        assert row.value("w") == Fraction(2)
        with pytest.raises(SchemeError):
            make_row(scheme, {"id": "three", "w": 2})
        with pytest.raises(SchemeError):
            make_row(scheme, {"id": 3})


class TestRankedTable:
    def test_score_of_total_semantics(self, people):
        assert people.score_of(Row.of({"id": 1, "name": "ann"})) == RATIONAL.parse("0.9")
        assert people.score_of(Row.of({"id": 9, "name": "zed"})).is_bottom

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

    def test_range_includes_bottom_for_unbounded_types(self, people):
        values = [s.value for s in people.range_of()]
        assert values == [0, Fraction(4, 10), Fraction(9, 10)]

    def test_range_excludes_bottom_when_finite_domain_covered(self):
        scheme = Scheme((("a", AttrType("int", (0, 1))),))
        table = RankedTable.from_entries(
            scheme, [({"a": 0}, RATIONAL.top), ({"a": 1}, RATIONAL.top)]
        )
        assert [s.value for s in table.range_of()] == [1]

    def test_range_of_empty_table(self):
        table = RankedTable.empty(Scheme((("a", INT),)))
        assert [s.value for s in table.range_of()] == [0]

    def test_equality_is_pointwise(self, people):
        clone = RankedTable.from_entries(people.scheme, people.entries())
        assert clone == people
        other = RankedTable.from_entries(
            people.scheme,
            [({"id": 1, "name": "ann"}, RATIONAL.parse("0.9"))],
        )
        assert other != people

    def test_rows_by_rank_orders_desc_then_canonically(self, people):
        rows = [row.value("name") for row, _ in people.rows_by_rank()]
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

        values = [s.value for s in demo.houses().range_of()]
        expected = ["0", "0.148", "0.426", "0.643", "0.937", "0.971", "1.000"]
        assert values == [Fraction(text) for text in expected]


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

    def test_fraction_scores_round_trip(self):
        scheme = Scheme((("a", INT),))
        table = RankedTable.from_entries(scheme, [({"a": 1}, Fraction(1, 3))])
        assert read_table_csv(write_table_csv(table)) == table

    def test_file_round_trip(self, people, tmp_path):
        path = tmp_path / "people.csv"
        write_table_csv(people, path)
        assert read_table_csv(path) == people
