"""Ranked tables: schemes, typed rows, finite score assignments, CSV I/O.

A ranked table is a finite association of rows to nonzero scores over a
relation scheme; any row not stored scores bottom.  Tables are immutable
after construction and compare equal exactly when they are equal as maps
(same scheme, same chain, identical row/score associations).

CSV contract: the first header column is literally ``#`` (the score), every
other header is ``name:str|int|dec``.  Scores are exact (decimal or ``p/q``
on the rational chain, a level name on a symbolic chain); rows with score 0
are rejected because absence already encodes 0.  A cell holding a comma,
quote or line break is quoted.
"""

from __future__ import annotations

import codecs
import csv
import io
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import call, itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .chain import RATIONAL, Score, ScoreChain, exact_decimal_str, meet, rank_codes
from .errors import (
    ChainError,
    IncompatibleChainError,
    NotCrispError,
    ParseError,
    RankrelError,
    SchemeError,
)
from .exprs import NAME_RE

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
    semantics treat the scheme as a set.  Its name views are computed once;
    ``positions`` maps each name to its index in ``sorted_names``, which is
    where a conforming row stores that attribute's pair.
    """

    __slots__ = ("attrs", "names", "name_set", "sorted_names", "positions", "_by_name", "_key")

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
        object.__setattr__(self, "sorted_names", tuple(sorted(by_name)))  # a row's pair order
        object.__setattr__(self, "positions", {n: i for i, n in enumerate(self.sorted_names)})
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

    def project(self, names: Iterable[str]) -> "Scheme":
        """Sub-scheme on ``names`` (must all exist), in this scheme's order."""
        wanted = {n.lower() for n in names}
        missing = wanted - set(self._by_name)
        if missing:
            raise SchemeError(f"attributes {sorted(missing)} not in scheme {self.names}")
        return Scheme(a for a in self.attrs if a.name in wanted)

    def rename(self, mapping: Mapping[str, str] | Iterable[tuple[str, str]]) -> "Scheme":
        """Rename attributes by a mapping or its ``(old, new)`` pairs; injective,
        targets must not collide, and no name may be renamed twice."""
        lowered = {}
        for old, new in mapping.items() if isinstance(mapping, Mapping) else mapping:
            if old.lower() in lowered:
                raise SchemeError(f"attribute {old.lower()!r} is renamed twice")
            lowered[old.lower()] = new.lower()
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
    are equal rows, hashing and equality run in C, and rows of one scheme
    order by their values in name order.  Names belong to the scheme: a
    caller reads values through the scheme's plans (:func:`values_of`).
    """

    __slots__ = ()

    @classmethod
    def of(cls, mapping: Mapping[str, object]) -> "Row":
        return cls(sorted((name.lower(), value) for name, value in mapping.items()))

    @property
    def items(self) -> tuple[tuple[str, object], ...]:
        return self  # the pairs themselves, not a copy

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
    return _selector([scheme.positions[scheme.attr(name).name] for name in names])


def values_of(scheme: Scheme, names: Iterable[str]) -> Callable[[Row], tuple]:
    """Plan mapping a row on ``scheme`` to its values of ``names``, in that order."""
    positions = [scheme.positions[scheme.attr(name).name] for name in names]
    return lambda row: tuple([row[position][1] for position in positions])


def renamer(scheme: Scheme, renamed: Scheme) -> Callable[[Row], Row]:
    """Plan mapping a row on ``scheme`` to the row of its values on ``renamed``, a renaming."""
    old_name = dict(zip(renamed.names, scheme.names))  # renaming keeps the attribute order
    values = values_of(scheme, [old_name[name] for name in renamed.sorted_names])
    return lambda row: Row(zip(renamed.sorted_names, values(row)))


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


def rank_sorted(pairs: Iterable[tuple[Row, Score]]) -> list[tuple[Row, Score]]:
    """(row, score) pairs of one scheme by descending score, ties by the row.

    Two stable sorts: first by the row's pairs, which orders rows of one
    scheme by their values in name order, since every row has the same names
    at the same places; then descending by the score's exact order key,
    ``Score.key``.
    """
    ordered = sorted(pairs, key=itemgetter(0))
    ordered.sort(key=lambda pair: pair[1].key, reverse=True)
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
    """Each pair checked as ``make_row`` checks a value: name, kind and domain."""
    if len(row) != len(scheme):
        return False
    for (name, value), want in zip(row, scheme.sorted_names):
        atype = scheme._by_name[want].atype
        if name != want or not _conforms(value, atype.kind):
            return False
        if atype.domain is not None and value not in atype.domain:
            return False
    return True


class RankedTable:
    """Immutable finite map from rows to nonzero scores over one scheme.

    The constructor checks every row and score; results that conform by
    construction are built by :meth:`_trusted`.  Each table builds its access
    paths (the rank order and one hash index per key) at first use and keeps
    them; copies and pickles start without them.  A table made by
    :meth:`_capped` holds its input and the caps in ``_capping`` until its
    entries are first read; only ``len()`` and :meth:`sorted_access` read
    it without building them.
    """

    __slots__ = ("scheme", "chain", "_entries", "_ranked", "_indexes", "_capping")

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
        object.__setattr__(self, "_ranked", None)
        object.__setattr__(self, "_indexes", {})
        object.__setattr__(self, "_capping", None)

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
        object.__setattr__(table, "_ranked", None)
        object.__setattr__(table, "_indexes", {})
        object.__setattr__(table, "_capping", None)
        return table

    @classmethod
    def _capped(cls, table: "RankedTable", names: tuple[str, ...],
                caps: dict[tuple, Score]) -> "RankedTable":
        """``table`` with each row's score capped at its cap; rows with no cap drop out.

        A row's cap is ``caps`` of its pairs of ``names``, the key that
        ``table.index(names)`` files it under; a key with no entry in ``caps``
        drops its rows, and every stored cap is nonzero, on ``table``'s chain.
        Nothing is computed here.  Two reads build nothing: ``len()`` counts
        ``table``'s kept index buckets, and :meth:`sorted_access` caps the
        rows of ``table``'s rank order as they are read, promising
        non-increasing scores only.  Any other read, a lookup in
        :meth:`index` too, builds the entries once, in ``table``'s order, and
        the table is then like any other.
        """
        capped = object.__new__(cls)
        object.__setattr__(capped, "scheme", table.scheme)
        object.__setattr__(capped, "chain", table.chain)
        object.__setattr__(capped, "_ranked", None)
        object.__setattr__(capped, "_indexes", {})
        object.__setattr__(capped, "_capping", (table, names, caps))
        return capped

    def __getattr__(self, name: str):
        # Reached only for an unset slot: the entries of a capped table, not yet built.
        if name != "_entries" or self._capping is None:
            raise AttributeError(name)
        table, names, caps = self._capping
        key_of = gather(table.scheme, names)
        entries = {row: meet(score, cap) for row, score in table._entries.items()
                   if (cap := caps.get(key_of(row))) is not None}
        object.__setattr__(self, "_entries", entries)
        object.__setattr__(self, "_capping", None)
        return entries

    def __setattr__(self, *args) -> None:
        raise AttributeError("RankedTable is immutable")

    def __reduce__(self):
        # rebuilt through the validating constructor, without the access paths
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
        """The number of rows; a capped table not yet built counts them and builds nothing.

        Its input's kept index files each row under its cap's key, and a row
        drops out exactly when its key has no cap: O(distinct keys).
        """
        if self._capping is None:
            return len(self._entries)
        table, names, caps = self._capping
        return sum(len(bucket) for key, bucket in table.index(names).items() if key in caps)

    def __iter__(self):
        return iter(self._entries.items())

    def rows_by_rank(self) -> list[tuple[Row, Score]]:
        """Answer set in display order: descending score, canonical row ties.

        Sorted at the first call and kept; each call returns a fresh list.
        """
        ranked = self._ranked
        if ranked is None:
            ranked = rank_sorted(self._entries.items())
            object.__setattr__(self, "_ranked", ranked)
        return list(ranked)

    def sorted_access(self) -> Iterator[tuple[Row, Score]]:
        """Pairs by non-increasing score, each read only when the caller asks for it.

        A built table yields its rank order, ties canonical
        (:meth:`rows_by_rank`), sorting it at the first pull.  A capped table
        not yet built yields its pairs from its input's rank order
        (:func:`_capped_by_rank`), ties in no order, and builds nothing.
        """
        if self._capping is None:
            yield from self.rows_by_rank()
        else:
            table, names, caps = self._capping
            yield from _capped_by_rank(table, gather(table.scheme, names), caps)

    def index(self, key_names: tuple[str, ...]) -> dict[tuple, list[tuple[Row, Score]]]:
        """Hash index on ``key_names``, given in name order: the table's random access.

        A key holds a row's ``(name, value)`` pairs of ``key_names``, as
        ``gather`` reads them; its bucket holds the ``(row, score)`` pairs
        with that key, in table order.  Built at the first call per key and
        kept, so callers must not change it.
        """
        index = self._indexes.get(key_names)
        if index is None:
            index = self._indexes[key_names] = {}
            key_of = gather(self.scheme, key_names)
            for pair in self._entries.items():
                index.setdefault(key_of(pair[0]), []).append(pair)
        return index

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RankedTable)
            and self.scheme == other.scheme
            and self.chain == other.chain
            and self._entries == other._entries
        )

    def __repr__(self) -> str:
        return f"RankedTable({self.scheme!r}, {len(self)} rows)"


def _capped_by_rank(table: RankedTable, key_of: Callable[[Row], tuple],
                    caps: dict[tuple, Score]) -> Iterator[tuple[Row, Score]]:
    """The capped pairs of ``table`` by non-increasing score, read while walking its rank order.

    A row with no cap drops out, and capping lowers a score, never raises
    it.  So once the walk reaches a row scoring s, no row still unread
    scores above s.  A row keeping its own score goes out at once.  A capped
    row waits in the group of its cap's level until the walk passes below
    that level, and the groups left at the end go out from the highest
    level down.  Ties come out in no particular order.
    """
    code, levels = rank_codes(caps.values())  # each cap's level; levels by ascending key
    held: list[list] = [[] for _ in levels]
    level = len(levels) - 1  # the highest level not yet released
    for row, score in table.rows_by_rank():
        while level >= 0 and levels[level].key > score.key:
            yield from held[level]
            level -= 1
        cap = caps.get(key_of(row))
        if cap is None:
            continue
        value = meet(score, cap)
        if value is score:
            yield row, score
        else:
            held[code[id(cap)]].append((row, value))
    for group in reversed(held[:level + 1]):
        yield from group


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


def parse_header(header: Sequence[str], line: int = 1) -> Scheme:
    """The scheme a CSV header names; ``line`` is the header's line, for errors."""
    if not header or header[0].strip() != "#":
        raise SchemeError("first CSV column must be the score column '#'")
    attrs = []
    for cell in header[1:]:
        name, sep, kind = (part.strip() for part in cell.partition(":"))
        if not sep or kind not in _KINDS:
            raise SchemeError(f"malformed attribute header {cell!r}; expected name:str|int|dec")
        if not NAME_RE.fullmatch(name):
            raise SchemeError(f"line {line}: attribute name {name!r} is not a name "
                              "that queries can read")
        attrs.append((name, AttrType(kind)))
    return Scheme(attrs)


#: Cell text -> attribute value, per kind.  Each strips blanks itself, and a
#: text it cannot read raises ``ValueError`` (``ZeroDivisionError`` for ``1/0``).
_PARSERS = {"str": str.strip, "int": int, "dec": Fraction}


def read_table_csv(source, chain: ScoreChain = RATIONAL) -> RankedTable:
    """Read a ranked table from CSV text (it holds a line break) or a file path,
    without a leading byte-order mark.

    Score texts are parsed by ``chain.parse``, so equal values in any file
    read on one chain are one ``Score`` object.  An error reading a path
    names the path once: a decoding error from :func:`read_text` names it
    itself, and every later error is prefixed with it.
    """
    if isinstance(source, str) and "\n" in source:
        text = source.removeprefix("\ufeff")
        return _read_rows(csv.reader(io.StringIO(text), strict=True), chain)
    reader = csv.reader(io.StringIO(read_text(source), newline=""), strict=True)
    try:
        return _read_rows(reader, chain)
    except RankrelError as exc:
        exc.args = (f"cannot load table from {source}: {exc}",)  # keeps line, column
        raise


def read_text(path) -> str:
    """A UTF-8 file's text, line ends as stored, without a leading byte-order mark;
    other bytes are a ``ParseError`` that names the file, and a column counted
    after the mark."""
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path} is not UTF-8: cannot decode byte 0x{data[exc.start]:02x}",
                         line=data.count(b"\n", 0, exc.start) + 1,
                         column=exc.start - line_start) from None


def _read_rows(reader, chain: ScoreChain) -> RankedTable:
    """Pick each line's value cells in name order by one plan, then parse them.

    The parsers type every cell, so rows conform by construction; rows are
    checked for duplicates here.  A score text the chain has parsed before
    is a lookup in its memo, and a score 0 is the chain's one bottom object.
    Only a line whose cells fail is parsed again, cell by cell, to name the
    cell in its error.
    """
    records = _records(reader)
    try:
        header = next(records)
    except StopIteration:
        raise SchemeError("empty CSV: missing header") from None
    scheme = parse_header(header, reader.line_num)
    width = len(scheme) + 1
    names = scheme.sorted_names
    parsers = [_PARSERS[scheme.attr(name).atype.kind] for name in names]
    value_cells = _selector([scheme.names.index(name) + 1 for name in names])  # in name order
    entries: dict[Row, Score] = {}
    parse, bottom = chain.parse, chain.bottom
    for cells in records:
        if len(cells) != width or not cells[0].strip():
            if not any(map(str.strip, cells)):
                continue
            if len(cells) != width:
                raise SchemeError(f"line {reader.line_num}: expected {width} cells, "
                                  f"got {len(cells)}")
        try:
            score = parse(cells[0])
        except ChainError as exc:
            raise ChainError(f"line {reader.line_num}: {exc}") from None
        if score is bottom:
            raise ChainError(f"line {reader.line_num}: rows with score 0 are not stored; "
                             "omit the row")
        try:
            row = Row(zip(names, map(call, parsers, value_cells(cells))))
        except (ValueError, ZeroDivisionError):
            raise _cell_error(scheme, cells[1:], reader.line_num) from None
        if row in entries:
            raise SchemeError(f"line {reader.line_num}: duplicate tuple {row!r}")
        entries[row] = score
    return RankedTable._trusted(scheme, chain, entries)


def _records(reader):
    """``reader``'s records; a malformed one, such as a quote left open or an
    overlong cell, is a ``ParseError`` at the line the reader reached."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", line=reader.line_num) from None


def _cell_error(scheme: Scheme, cells: Sequence[str], lineno: int) -> SchemeError:
    """The error of a line's first value cell that its kind's parser refuses."""
    for attr, cell in zip(scheme.attrs, cells):
        try:
            _PARSERS[attr.atype.kind](cell)
        except (ValueError, ZeroDivisionError):
            return SchemeError(f"line {lineno}: cannot parse {cell.strip()!r} as "
                               f"{attr.atype.kind} (attribute {attr.name})")
    raise AssertionError("no cell of the line fails to parse")


#: Attribute value -> cell text, per kind: exact decimal (or ``p/q``) for dec.
_FORMATTERS = {"str": str, "int": str, "dec": exact_decimal_str}


def column_plan(scheme: Scheme, names: Iterable[str]) -> list[tuple[int, Callable]]:
    """(position in a row, formatter) for each of ``names``, built once per call."""
    return [
        (scheme.positions[attr.name], _FORMATTERS[attr.atype.kind])
        for attr in map(scheme.attr, names)
    ]


def row_cells(row: Row, plan: Sequence[tuple[int, Callable]]) -> list[str]:
    """A row's cell texts, one per column of ``plan``."""
    return [fmt(row[position][1]) for position, fmt in plan]


_NEEDS_QUOTES = re.compile(r'[,"\r\n]').search


def csv_cell(text: str) -> str:
    """``text`` as one CSV cell: a text holding ``,``, ``"``, ``\\r`` or ``\\n`` is
    wrapped in quotes, each ``"`` doubled; any other text is the cell itself."""
    if _NEEDS_QUOTES(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def ranked_columns(
    pairs: Sequence[tuple[Row, Score]],
    chain: ScoreChain,
    scheme: Scheme,
    places: Optional[int] = 3,
    quoted: bool = False,
) -> list[Iterator[str]]:
    """Display columns of (row, score) pairs: the score, then one per name of ``scheme.names``.

    Each column is a lazy pass over ``pairs``, read in their order.  Each
    distinct score object is formatted once, its text found by its ``id``
    while the columns hold ``pairs``.  With ``quoted``, every cell is a CSV
    cell (:func:`csv_cell`); only a ``str`` value or a symbolic chain's level
    name can need quotes, so no other cell is checked.
    """
    scores = {id(score): score for score in map(itemgetter(1), pairs)}
    texts = {key: chain.format(score, places) for key, score in scores.items()}
    if quoted and not chain.is_rational:
        texts = {key: csv_cell(text) for key, text in texts.items()}
    columns = [map(texts.__getitem__, map(id, map(itemgetter(1), pairs)))]
    for attr in map(scheme.attr, scheme.names):
        values = map(itemgetter(1), map(itemgetter(scheme.positions[attr.name]),
                                        map(itemgetter(0), pairs)))
        if attr.atype.kind == "str":
            columns.append(map(csv_cell, values) if quoted else values)
        else:
            columns.append(map(_FORMATTERS[attr.atype.kind], values))
    return columns


def csv_lines(header: Iterable[str], columns: Sequence[Iterable[str]]) -> str:
    """CSV text: the ``header`` cells, quoted here, then one line per row of
    ``columns``, whose cells come quoted; every line ends in ``\\n``."""
    return "\n".join([",".join(map(csv_cell, header)), *map(",".join, zip(*columns)), ""])


def write_table_csv(table: RankedTable, target=None) -> str:
    """A table as CSV text with exact scores, also written to the path ``target`` if given."""
    header = ["#"] + [f"{a.name}:{a.atype.kind}" for a in table.scheme.attrs]
    columns = ranked_columns(table.rows_by_rank(), table.chain, table.scheme, None, quoted=True)
    text = csv_lines(header, columns)
    if target is not None:
        Path(target).write_text(text, encoding="utf-8")
    return text


def render_table(table: RankedTable) -> str:
    """Human-readable table: score column first (three decimals), descending by score."""
    header = ["#"] + list(table.scheme.names)
    rows = list(zip(*ranked_columns(table.rows_by_rank(), table.chain, table.scheme)))
    widths = [max(len(line[i]) for line in [header] + rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
             for line in [header] + rows]
    lines.insert(1, "-" * max(len(line) for line in lines))
    return "\n".join(lines)
