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
from typing import Iterable, Mapping, Optional, Sequence

from .chain import RATIONAL, Score, ScoreChain, exact_decimal_str
from .errors import (
    ChainError,
    DisjointTupleError,
    IncompatibleChainError,
    NotCrispError,
    SchemeError,
)

_KINDS = ("str", "int", "dec")


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
    semantics treat the scheme as a set.
    """

    __slots__ = ("attrs", "_by_name")

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
        object.__setattr__(self, "_by_name", by_name)

    def __setattr__(self, *args) -> None:
        raise AttributeError("Scheme is immutable")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(attr.name for attr in self.attrs)

    @property
    def name_set(self) -> frozenset[str]:
        return frozenset(self._by_name)

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
        return isinstance(other, Scheme) and frozenset(self.attrs) == frozenset(other.attrs)

    def __hash__(self) -> int:
        return hash(frozenset(self.attrs))

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


@dataclass(frozen=True)
class Row:
    """A tuple on some scheme: a total attribute -> value assignment.

    Stored as name-sorted pairs, so equal assignments are equal rows and the
    value tuple doubles as the canonical sort key among rows of one scheme.
    """

    items: tuple[tuple[str, object], ...]

    @classmethod
    def of(cls, mapping: Mapping[str, object]) -> "Row":
        return cls(tuple(sorted((name.lower(), value) for name, value in mapping.items())))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.items)

    def value(self, name: str):
        name = name.lower()
        for key, val in self.items:
            if key == name:
                return val
        raise SchemeError(f"row has no attribute {name!r}")

    def as_dict(self) -> dict[str, object]:
        return dict(self.items)

    def project(self, names: Iterable[str]) -> "Row":
        wanted = {n.lower() for n in names}
        return Row(tuple(pair for pair in self.items if pair[0] in wanted))

    def key(self) -> tuple:
        """Canonical comparison key: values in attribute-name order."""
        return tuple(value for _, value in self.items)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.items)
        return f"Row({inner})"


def rank_key(item: tuple[Row, Score]) -> tuple:
    """Display-order key for a (row, score) pair: descending score, then row.

    The float of the score is compared first and the exact value only where
    two floats tie.  This gives exactly the order of ``(-value, row.key())``:
    ``float()`` of a rational (and of a level index) is correctly rounded and
    hence monotone, so ``a <= b`` implies ``float(a) <= float(b)``.  Unequal
    floats therefore order the exact values the same way, and equal floats
    fall through to the exact comparison.
    """
    row, score = item
    value = score.value
    return (-float(value), -value, row.key())


def join_rows(r: Row, s: Row) -> Row:
    """Join two tuples agreeing on shared attributes (the empty row is neutral)."""
    merged = dict(r.items)
    for name, value in s.items:
        if name in merged and merged[name] != value:
            raise DisjointTupleError(
                f"tuples disagree on {name!r}: {merged[name]!r} vs {value!r}"
            )
        merged[name] = value
    return Row.of(merged)


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
    if row.names != tuple(sorted(scheme.names)):
        return False
    for name, value in row.items:
        attr = scheme.attr(name)
        if not _conforms(value, attr.atype.kind):
            return False
        if attr.atype.domain is not None and value not in attr.atype.domain:
            return False
    return True


class RankedTable:
    """Immutable finite map from rows to nonzero scores over one scheme."""

    __slots__ = ("scheme", "chain", "_entries")

    def __init__(self, scheme: Scheme, chain: ScoreChain, entries: Mapping[Row, Score]):
        for row, score in entries.items():
            if not _row_conforms(scheme, row):
                raise SchemeError(f"row {row!r} does not conform to scheme {scheme!r}")
            if score.chain != chain:
                raise IncompatibleChainError(f"score {score!r} is not on the table's chain")
            if score.is_bottom:
                raise ChainError("stored scores must be nonzero; absence encodes bottom")
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "chain", chain)
        object.__setattr__(self, "_entries", dict(entries))

    def __setattr__(self, *args) -> None:
        raise AttributeError("RankedTable is immutable")

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
        return sorted(self._entries.items(), key=rank_key)

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


def _parse_value(text: str, kind: str):
    if kind == "str":
        return text
    try:
        if kind == "int":
            return int(text)
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SchemeError(f"cannot parse {text!r} as {kind}") from None


def read_table_csv(source, chain: ScoreChain = RATIONAL) -> RankedTable:
    """Read a ranked table from a CSV file object, path, or text."""
    if isinstance(source, str) and "\n" in source:
        return _read_rows(csv.reader(io.StringIO(source)), chain)
    if hasattr(source, "read"):
        return _read_rows(csv.reader(source), chain)
    with open(source, newline="", encoding="utf-8") as handle:
        return _read_rows(csv.reader(handle), chain)


def _read_rows(reader, chain: ScoreChain) -> RankedTable:
    try:
        header = next(reader)
    except StopIteration:
        raise SchemeError("empty CSV: missing header") from None
    scheme = parse_header(header)
    entries: dict[Row, Score] = {}
    for lineno, cells in enumerate(reader, start=2):
        if not cells or all(not cell.strip() for cell in cells):
            continue
        if len(cells) != len(scheme) + 1:
            raise SchemeError(f"line {lineno}: expected {len(scheme) + 1} cells, got {len(cells)}")
        score = chain.parse(cells[0])
        if score.is_bottom:
            raise ChainError(f"line {lineno}: rows with score 0 are not stored; omit the row")
        row = Row.of({
            attr.name: _parse_value(cell.strip(), attr.atype.kind)
            for attr, cell in zip(scheme.attrs, cells[1:])
        })
        if row in entries:
            raise SchemeError(f"line {lineno}: duplicate tuple {row!r}")
        entries[row] = score
    return RankedTable(scheme, chain, entries)


def format_value(value) -> str:
    if isinstance(value, Fraction):
        return exact_decimal_str(value)
    return str(value)


def write_table_csv(table: RankedTable, target=None) -> str:
    """Write a table as CSV with exact scores; returns the text."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["#"] + [f"{a.name}:{a.atype.kind}" for a in table.scheme.attrs])
    for row, score in table.rows_by_rank():
        cells = [table.chain.format(score, places=None)]
        cells += [format_value(row.value(a.name)) for a in table.scheme.attrs]
        writer.writerow(cells)
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
    rows = [
        [table.chain.format(score)]
        + [format_value(row.value(name)) for name in table.scheme.names]
        for row, score in table.rows_by_rank()
    ]
    widths = [max(len(line[i]) for line in [header] + rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
             for line in [header] + rows]
    lines.insert(1, "-" * max(len(line) for line in lines))
    return "\n".join(lines)
