"""Ranked tables: schemes, typed rows, finite score assignments, CSV I/O.

A ranked table is a finite association of rows to nonzero scores over a
relation scheme; any row not stored scores bottom.  Tables are immutable
after construction and compare equal exactly when they are equal as maps
(same scheme, same chain, identical row/score associations).

CSV contract: the first header column is literally ``#`` (the score), every
other header is ``name:str|int|dec``.  Scores are exact (decimal or ``p/q``
on the rational chain, a level name on a symbolic chain); rows with score 0
are rejected because absence already encodes 0.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .chain import RATIONAL, Score, ScoreChain, exact_decimal_str
from .errors import (
    ChainError,
    IncompatibleChainError,
    NotCrispError,
    SchemeError,
)

_KINDS = ("str", "int", "dec")
#: The exact carrier type of each kind: the common case of a conformance check.
_EXACT_TYPES = {"str": str, "int": int, "dec": Fraction}


@dataclass(frozen=True)
class AttrType:
    """Attribute type; ``domain`` optionally pins an explicit finite domain."""

    kind: str
    domain: Optional[tuple] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise SchemeError(f"unknown attribute kind {self.kind!r}")
        if self.domain is not None:
            for value in self.domain:
                if not _conforms(value, self.kind):
                    raise SchemeError(f"domain value {value!r} is not of kind {self.kind}")

    @property
    def is_finite(self) -> bool:
        return self.domain is not None


STR = AttrType("str")
INT = AttrType("int")
DEC = AttrType("dec")


def _conforms(value, kind: str) -> bool:
    if kind == "str":
        return isinstance(value, str)
    if kind == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, Fraction)


def _coerce(value, kind: str):
    if kind == "dec" and isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    return value


@dataclass(frozen=True)
class Attribute:
    name: str  # stored lowercased; attribute names are case-insensitive
    atype: AttrType


class Scheme:
    """A finite set of typed attributes.  The empty scheme is legal.

    Declaration order is remembered for display; equality and all relational
    semantics treat the scheme as a set.  Its name views are computed once;
    ``positions`` maps each name to its index in ``sorted_names``, which is
    where a conforming row stores that attribute's pair.
    """

    __slots__ = ("attrs", "names", "name_set", "sorted_names", "positions", "_conformance",
                 "_by_name", "_key")

    def __init__(self, attrs: Iterable[tuple[str, AttrType] | Attribute]):
        normalized = []
        by_name: dict[str, Attribute] = {}
        for item in attrs:
            attr = item if isinstance(item, Attribute) else Attribute(item[0], item[1])
            name = attr.name.lower()
            if not name:
                raise SchemeError("attribute names must be non-empty")
            if name in by_name:
                raise SchemeError(f"duplicate attribute {name!r}")
            attr = Attribute(name, attr.atype)
            normalized.append(attr)
            by_name[name] = attr
        object.__setattr__(self, "attrs", tuple(normalized))
        object.__setattr__(self, "names", tuple(by_name))
        object.__setattr__(self, "name_set", frozenset(by_name))
        object.__setattr__(self, "sorted_names", tuple(sorted(by_name)))  # as Row.names
        object.__setattr__(self, "positions", {n: i for i, n in enumerate(self.sorted_names)})
        # (name, kind, exact type, domain) per attribute in Row order, for _row_conforms
        object.__setattr__(self, "_conformance", tuple(
            (name, atype.kind, _EXACT_TYPES[atype.kind], atype.domain)
            for name, atype in ((n, by_name[n].atype) for n in self.sorted_names)
        ))
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_key", frozenset(normalized))

    def __setattr__(self, *args) -> None:
        raise AttributeError("Scheme is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the validating constructor
        return Scheme, (self.attrs,)

    def attr(self, name: str) -> Attribute:
        try:
            return self._by_name[name.lower()]
        except KeyError:
            raise SchemeError(f"unknown attribute {name!r}; scheme has {self.names}") from None

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._by_name

    def __len__(self) -> int:
        return len(self.attrs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Scheme) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        inner = ", ".join(f"{a.name}:{a.atype.kind}" for a in self.attrs)
        return f"Scheme({inner})"

    def union(self, other: "Scheme") -> "Scheme":
        merged = list(self.attrs)
        for attr in other.attrs:
            if attr.name in self._by_name:
                if self._by_name[attr.name].atype != attr.atype:
                    raise SchemeError(f"attribute {attr.name!r} has conflicting types")
            else:
                merged.append(attr)
        return Scheme(merged)

    def shared_names(self, other: "Scheme") -> tuple[str, ...]:
        return tuple(a.name for a in self.attrs if a.name in other._by_name)

    def project(self, names: Iterable[str]) -> "Scheme":
        """Sub-scheme on ``names`` (must all exist), in this scheme's order."""
        wanted = {n.lower() for n in names}
        missing = wanted - set(self._by_name)
        if missing:
            raise SchemeError(f"attributes {sorted(missing)} not in scheme {self.names}")
        return Scheme(a for a in self.attrs if a.name in wanted)

    def rename(self, mapping: Mapping[str, str]) -> "Scheme":
        """Rename attributes; injective, targets must not collide."""
        lowered = {old.lower(): new.lower() for old, new in mapping.items()}
        for old in lowered:
            if old not in self._by_name:
                raise SchemeError(f"cannot rename unknown attribute {old!r}")
        if len(set(lowered.values())) != len(lowered):
            raise SchemeError("renaming targets collide with each other")
        renamed = []
        for attr in self.attrs:
            name = lowered.get(attr.name, attr.name)
            renamed.append(Attribute(name, attr.atype))
        if len({a.name for a in renamed}) != len(renamed):
            raise SchemeError("renaming target collides with an unrenamed attribute")
        return Scheme(renamed)

    @property
    def is_finite(self) -> bool:
        return all(attr.atype.is_finite for attr in self.attrs)

    def domain_size(self) -> Optional[int]:
        if not self.is_finite:
            return None
        size = 1
        for attr in self.attrs:
            size *= len(attr.atype.domain)
        return size


class Row(tuple):
    """A tuple on some scheme: a total attribute -> value assignment.

    A tuple of its name-sorted ``(name, value)`` pairs, so equal assignments
    are equal rows, hashing and equality run in C, and the pairs double as
    the canonical sort key among rows of one scheme.
    """

    __slots__ = ()

    @classmethod
    def of(cls, mapping: Mapping[str, object]) -> "Row":
        return cls(sorted((name.lower(), value) for name, value in mapping.items()))

    @property
    def items(self) -> tuple[tuple[str, object], ...]:
        return self  # the pairs themselves, not a copy

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self)

    def value(self, name: str):
        name = name.lower()
        for key, val in self:
            if key == name:
                return val
        raise SchemeError(f"row has no attribute {name!r}")

    def as_dict(self) -> dict[str, object]:
        return dict(self)

    def project(self, names: Iterable[str]) -> "Row":
        wanted = {n.lower() for n in names}
        return Row(pair for pair in self if pair[0] in wanted)

    def key(self) -> tuple:
        """Canonical comparison key: values in attribute-name order."""
        return tuple(value for _, value in self)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self)
        return f"Row({inner})"


# --- per-call row plans -----------------------------------------------------
#
# A conforming row is its pairs in name order, so on one scheme each
# attribute sits at a fixed index of the row.  An operator builds these
# plans once per call and then assembles every result row by indexing.


def _selector(indexes: Sequence[int]) -> Callable[[Sequence], tuple]:
    """Map a sequence to the tuple of its elements at ``indexes``."""
    if not indexes:
        return lambda seq: ()
    if len(indexes) == 1:
        (index,) = indexes
        return lambda seq: (seq[index],)
    return itemgetter(*indexes)


def gather(scheme: Scheme, names: Iterable[str]) -> Callable[[tuple], tuple]:
    """Plan mapping a row on ``scheme`` to its pairs of ``names``.

    The pairs come out in the order of ``names``; given them in name order,
    the result holds the pairs of the row's projection.
    """
    return _selector([scheme.positions[name.lower()] for name in names])


def joiner(left: Scheme, right: Scheme) -> Callable[[tuple, tuple], Row]:
    """Plan mapping a left and a right row to their joined ``Row``.

    Each pair of the joined row, in name order, is picked from the two rows'
    concatenated pairs; a shared attribute is read from the right row.  The
    plan does not compare shared values: callers pair only rows that agree
    on them.
    """
    offset = len(left.sorted_names)
    select = _selector([
        offset + right.positions[name] if name in right.positions else left.positions[name]
        for name in sorted(left.name_set | right.name_set)
    ])
    return lambda left_row, right_row: Row(select(left_row + right_row))


def _score_float_first(pair: tuple[Row, Score]) -> tuple:
    value = pair[1].value
    return (float(value), value)


def rank_sorted(pairs: Iterable[tuple[Row, Score]]) -> list[tuple[Row, Score]]:
    """(row, score) pairs of one scheme by descending score, ties by ``row.key()``.

    Two stable sorts: first by the row's pairs, which orders rows of one
    scheme as ``row.key()`` does, since every row has the same names at the
    same places; then descending by ``(float(value), value)``: ``float()`` is
    correctly rounded, hence monotone, and equal floats fall through to the
    exact value.
    """
    ordered = sorted(pairs, key=itemgetter(0))
    ordered.sort(key=_score_float_first, reverse=True)
    return ordered


def make_row(scheme: Scheme, values: Mapping[str, object]) -> Row:
    """Build a row conforming to ``scheme``, coercing ints into dec attributes."""
    assignment = {}
    lowered = {name.lower(): value for name, value in values.items()}
    for attr in scheme.attrs:
        if attr.name not in lowered:
            raise SchemeError(f"missing value for attribute {attr.name!r}")
        value = _coerce(lowered.pop(attr.name), attr.atype.kind)
        if not _conforms(value, attr.atype.kind):
            raise SchemeError(
                f"value {value!r} does not conform to {attr.name}:{attr.atype.kind}"
            )
        if attr.atype.domain is not None and value not in attr.atype.domain:
            raise SchemeError(f"value {value!r} outside finite domain of {attr.name!r}")
        assignment[attr.name] = value
    if lowered:
        raise SchemeError(f"values for unknown attributes {sorted(lowered)}")
    return Row.of(assignment)


def _row_conforms(scheme: Scheme, row: Row) -> bool:
    if len(row) != len(scheme._conformance):
        return False
    for (name, value), (want, kind, exact, domain) in zip(row, scheme._conformance):
        if name != want or (type(value) is not exact and not _conforms(value, kind)):
            return False
        if domain is not None and value not in domain:
            return False
    return True


class RankedTable:
    """Immutable finite map from rows to nonzero scores over one scheme.

    The constructor checks every row and score; results that conform by
    construction are built by :meth:`_trusted`.
    """

    __slots__ = ("scheme", "chain", "_entries")

    def __init__(self, scheme: Scheme, chain: ScoreChain, entries: Mapping[Row, Score]):
        for row, score in entries.items():
            if not _row_conforms(scheme, row):
                raise SchemeError(f"row {row!r} does not conform to scheme {scheme!r}")
            if score.chain is not chain and score.chain != chain:
                raise IncompatibleChainError(f"score {score!r} is not on the table's chain")
            if score.is_bottom:
                raise ChainError("stored scores must be nonzero; absence encodes bottom")
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "chain", chain)
        object.__setattr__(self, "_entries", dict(entries))

    @classmethod
    def _trusted(cls, scheme: Scheme, chain: ScoreChain, entries: dict) -> "RankedTable":
        """Adopt ``entries`` as they are, with no copy and no per-row check.

        Only for rows conforming to ``scheme`` by construction and nonzero
        scores on ``chain``; the caller must not change ``entries`` afterwards.
        """
        table = object.__new__(cls)
        object.__setattr__(table, "scheme", scheme)
        object.__setattr__(table, "chain", chain)
        object.__setattr__(table, "_entries", entries)
        return table

    def __setattr__(self, *args) -> None:
        raise AttributeError("RankedTable is immutable")

    def __reduce__(self):
        return RankedTable, (self.scheme, self.chain, self._entries)

    @classmethod
    def from_entries(
        cls,
        scheme: Scheme,
        entries: Mapping[Row, Score] | Iterable[tuple[Mapping[str, object], object]],
        chain: ScoreChain = RATIONAL,
    ) -> "RankedTable":
        """Friendly constructor: builds rows, parses raw scores, drops bottoms."""
        cleaned: dict[Row, Score] = {}
        pairs = entries.items() if isinstance(entries, Mapping) else entries
        for key, raw in pairs:
            row = key if isinstance(key, Row) else make_row(scheme, key)
            score = raw if isinstance(raw, Score) else chain.score(raw)
            if score.is_bottom:
                continue
            if row in cleaned:
                raise SchemeError(f"duplicate row {row!r}")
            cleaned[row] = score
        return cls(scheme, chain, cleaned)

    @classmethod
    def empty(cls, scheme: Scheme, chain: ScoreChain = RATIONAL) -> "RankedTable":
        return cls(scheme, chain, {})

    def score_of(self, row: Row) -> Score:
        """Total-map semantics: the stored score, or bottom if absent."""
        if not _row_conforms(self.scheme, row):
            raise SchemeError(f"row {row!r} does not conform to scheme {self.scheme!r}")
        return self._entries.get(row, self.chain.bottom)

    def entries(self) -> dict[Row, Score]:
        return dict(self._entries)

    @property
    def answer_set(self) -> frozenset[Row]:
        return frozenset(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries.items())

    def rows_by_rank(self) -> list[tuple[Row, Score]]:
        """Answer set in display order: descending score, canonical row ties."""
        return rank_sorted(self._entries.items())

    def range_of(self) -> list[Score]:
        """All scores appearing in the table, ascending.

        Bottom is included whenever some tuple over the scheme lies outside
        the answer set; with unbounded attribute types that is always the
        case.  Only a fully covered explicitly finite domain omits it.
        """
        values = {score.value for score in self._entries.values()}
        size = self.scheme.domain_size()
        if size is None or size > len(self._entries):
            values.add(self.chain.bottom.value)
        return [Score(self.chain, v) for v in sorted(values)]

    @property
    def is_crisp(self) -> bool:
        return all(score.is_top for score in self._entries.values())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RankedTable)
            and self.scheme == other.scheme
            and self.chain == other.chain
            and self._entries == other._entries
        )

    def __hash__(self):
        raise TypeError("RankedTable is not hashable")

    def __repr__(self) -> str:
        return f"RankedTable({self.scheme!r}, {len(self)} rows)"


def from_classic(rows: Iterable[Row], scheme: Scheme, chain: ScoreChain = RATIONAL) -> RankedTable:
    """Embed a classic relation: every member scores top."""
    return RankedTable(scheme, chain, {row: chain.top for row in rows})


def to_classic(table: RankedTable) -> frozenset[Row]:
    """Inverse embedding; requires every stored score to be top."""
    for row, score in table:
        if not score.is_top:
            raise NotCrispError(
                f"row {row!r} has intermediate score {score!r}; table is not crisp"
            )
    return table.answer_set


# --- CSV ------------------------------------------------------------------


def parse_header(header: Sequence[str]) -> Scheme:
    if not header or header[0].strip() != "#":
        raise SchemeError("first CSV column must be the score column '#'")
    attrs = []
    for cell in header[1:]:
        name, sep, kind = cell.strip().partition(":")
        if not sep or kind not in _KINDS:
            raise SchemeError(f"malformed attribute header {cell!r}; expected name:str|int|dec")
        attrs.append((name, AttrType(kind)))
    return Scheme(attrs)


def _number_parser(number_type, kind: str) -> Callable[[str], object]:
    def parse(text: str):
        text = text.strip()
        try:
            return number_type(text)
        except (ValueError, ZeroDivisionError):
            raise SchemeError(f"cannot parse {text!r} as {kind}") from None
    return parse


#: Cell text -> attribute value, per kind.
_PARSERS = {"str": str.strip, "int": _number_parser(int, "int"),
            "dec": _number_parser(Fraction, "dec")}


def read_table_csv(source, chain: ScoreChain = RATIONAL) -> RankedTable:
    """Read a ranked table from a CSV file object, path, or text."""
    if isinstance(source, str) and "\n" in source:
        return _read_rows(csv.reader(io.StringIO(source)), chain)
    if hasattr(source, "read"):
        return _read_rows(csv.reader(source), chain)
    with open(source, newline="", encoding="utf-8") as handle:
        return _read_rows(csv.reader(handle), chain)


def _read_rows(reader, chain: ScoreChain) -> RankedTable:
    """Parse cells in header order, then place them in name order by one plan.

    The parsers type every cell, so rows conform by construction; rows are
    checked for duplicates here.  Each distinct score text is parsed, and
    checked to be nonzero, once: at its first line, where an error is raised
    as a per-row check would.  A text that fails to parse is not remembered.
    """
    try:
        header = next(reader)
    except StopIteration:
        raise SchemeError("empty CSV: missing header") from None
    scheme = parse_header(header)
    width = len(scheme) + 1
    parsers = [_PARSERS[attr.atype.kind] for attr in scheme.attrs]
    in_name_order = _selector([scheme.names.index(name) for name in scheme.sorted_names])
    names = scheme.sorted_names
    scores: dict[str, Score] = {}
    entries: dict[Row, Score] = {}
    for lineno, cells in enumerate(reader, start=2):
        if not cells or not any(map(str.strip, cells)):
            continue
        if len(cells) != width:
            raise SchemeError(f"line {lineno}: expected {width} cells, got {len(cells)}")
        score = scores.get(cells[0])
        if score is None:
            score = scores[cells[0]] = chain.parse(cells[0])
            if score.is_bottom:
                raise ChainError(f"line {lineno}: rows with score 0 are not stored; omit the row")
        values = [parse(cell) for parse, cell in zip(parsers, cells[1:])]
        row = Row(zip(names, in_name_order(values)))
        if row in entries:
            raise SchemeError(f"line {lineno}: duplicate tuple {row!r}")
        entries[row] = score
    return RankedTable._trusted(scheme, chain, entries)


#: Attribute value -> cell text, per kind: exact decimal (or ``p/q``) for dec.
_FORMATTERS = {"str": str, "int": str, "dec": exact_decimal_str}


def column_plan(scheme: Scheme, names: Iterable[str]) -> list[tuple[int, Callable]]:
    """(position in a row, formatter) for each of ``names``, built once per call."""
    return [
        (scheme.positions[attr.name], _FORMATTERS[attr.atype.kind])
        for attr in map(scheme.attr, names)
    ]


def ranked_cells(
    pairs: Iterable[tuple[Row, Score]],
    chain: ScoreChain,
    plan: Sequence[tuple[int, Callable]],
    places: Optional[int] = 3,
) -> Iterator[list[str]]:
    """Display cells of (row, score) pairs in rank order: the score, then the plan's columns.

    Equal scores are adjacent in rank order, so each distinct score is
    formatted once per run of rows that share it.
    """
    last: Optional[Score] = None
    text = ""
    for row, score in pairs:
        if score is not last:
            if last is None or score.value != last.value:
                text = chain.format(score, places)
            last = score
        yield [text] + [fmt(row[position][1]) for position, fmt in plan]


def write_table_csv(table: RankedTable, target=None) -> str:
    """Write a table as CSV with exact scores; returns the text."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["#"] + [f"{a.name}:{a.atype.kind}" for a in table.scheme.attrs])
    plan = column_plan(table.scheme, table.scheme.names)
    writer.writerows(ranked_cells(table.rows_by_rank(), table.chain, plan, places=None))
    text = buffer.getvalue()
    if target is not None:
        if hasattr(target, "write"):
            target.write(text)
        else:
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(text)
    return text


def render_table(table: RankedTable) -> str:
    """Human-readable table: score column first (three decimals), descending by score."""
    header = ["#"] + list(table.scheme.names)
    plan = column_plan(table.scheme, table.scheme.names)
    rows = list(ranked_cells(table.rows_by_rank(), table.chain, plan))
    widths = [max(len(line[i]) for line in [header] + rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
             for line in [header] + rows]
    lines.insert(1, "-" * max(len(line) for line in lines))
    return "\n".join(lines)
