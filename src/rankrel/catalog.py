"""Catalogs: named tables, conditions, and order maps sharing one chain.

A catalog directory holds one CSV per table (the file stem is the table
name) and an optional ``catalog.cfg`` declaring the chain (first, if at
all), order maps, and named restriction conditions::

    chain rational01
    # chain symbolic(none < low < high < full)
    map f = expr{ x <= 0.5 ? sqrt(x)/sqrt(2) : 2*(x-0.5)^2 + 0.5 }
    map g = piecewise{ 0 -> 0, (0, 0.5] -> 0.25, (0.5, 1] -> 1 }
    map h = graph{ 0 -> 0, 0.6 -> 0.5, 1 -> 1 }
    cond theta = expr{ bdrm <= 6 ? 0.1*(4+bdrm) : 1 }
    cond theta_f = compose(theta, f)
"""

from __future__ import annotations

import re
from collections import UserDict
from dataclasses import dataclass, field
from pathlib import Path

from .chain import RATIONAL, Score, ScoreChain, symbolic_chain
from .conditions import Condition, ExprCondition
from .errors import IncompatibleChainError, ParseError, RankrelError, UnknownNameError
from .maps import (
    AnalyticMap, GraphMap, IdentityMap, OrderMap, Piece, PiecewiseConstantMap, apply_checked,
)
from .table import RankedTable, parse_score, read_table_csv, read_text


class OrderMaps(UserDict):
    """Order maps by name; a map declared by a config line is parsed at first lookup.

    It parses on its catalog's ``chain``, through its ``scores``, and is kept.  A body
    that fails to parse is not: every lookup raises its ``ParseError``, with its line.
    """

    def declare(self, name: str, body: str, lineno: int) -> None:
        self.data[name] = (body, lineno)

    def __getitem__(self, name: str) -> OrderMap:
        found = self.data[name]
        if isinstance(found, tuple):
            found = self.data[name] = _parse_map(*found, self.chain, self.scores)
        return found


@dataclass
class Catalog:
    """Tables, conditions and maps on one chain.

    ``scores`` maps each score text parsed so far to its ``Score``: every CSV
    and every ``graph`` or ``piecewise`` map body is parsed through it by
    ``parse_score``, so one text is one object across the catalog.  It holds
    nonzero scores on ``chain``, which a config fixes before any map.
    """

    chain: ScoreChain = RATIONAL
    tables: dict[str, RankedTable] = field(default_factory=dict)
    conditions: dict[str, Condition] = field(default_factory=dict)
    maps: OrderMaps = field(default_factory=OrderMaps)
    scores: dict[str, Score] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        # not the catalog itself: that cycle would keep its tables alive until a GC pass
        self.maps.chain, self.maps.scores = self.chain, self.scores

    def table(self, name: str) -> RankedTable:
        try:
            return self.tables[name.lower()]
        except KeyError:
            raise UnknownNameError(
                f"unknown table {name!r}; catalog has {sorted(self.tables)}"
            ) from None

    def condition(self, name: str) -> Condition:
        try:
            return self.conditions[name.lower()]
        except KeyError:
            raise UnknownNameError(f"unknown condition {name!r}") from None

    def order_map(self, name: str) -> OrderMap:
        try:
            return self.maps[name.lower()]
        except KeyError:
            raise UnknownNameError(f"unknown map {name!r}") from None

    def add_table(self, name: str, table: RankedTable) -> None:
        if table.chain != self.chain:
            raise IncompatibleChainError(f"table {name!r} is not on the catalog chain")
        self.tables[name.lower()] = table

    @classmethod
    def from_dir(cls, directory) -> "Catalog":
        directory = Path(directory)
        if not directory.is_dir():
            raise UnknownNameError(f"catalog directory {directory} does not exist")
        config_path = directory / "catalog.cfg"
        catalog = parse_config(read_text(config_path)) if config_path.exists() else cls()
        paths: dict = {}
        for csv_path in sorted(directory.glob("*.csv")):
            name = csv_path.stem.lower()
            first = paths.setdefault(name, csv_path)
            if first is not csv_path:
                raise RankrelError(f"{first} and {csv_path} both hold table {name!r}; "
                                   "table names ignore case")
            catalog.add_table(name, read_table_csv(csv_path, catalog.chain, catalog.scores))
        return catalog


_CHAIN_RE = re.compile(r"chain\s+(rational01|symbolic\((?P<levels>[^)]*)\))\s*$")
_MAP_RE = re.compile(r"map\s+(?P<name>\w+)\s*=\s*(?P<body>.+)$")
_COND_RE = re.compile(r"cond\s+(?P<name>\w+)\s*=\s*(?P<body>.+)$")
_BRACED_RE = re.compile(r"(?P<kind>piecewise|expr|graph)\s*\{(?P<inner>.*)\}\s*$")
_COMPOSE_RE = re.compile(r"compose\(\s*(?P<base>\w+)\s*,\s*(?P<map>\w+)\s*\)\s*$")
_PIECE_RE = re.compile(r"\(\s*(?P<lo>[^,]+?)\s*,\s*(?P<hi>[^\]]+?)\s*\]\s*->\s*(?P<val>.+)$")


def parse_config(text: str) -> Catalog:
    """Read a config, whose one ``chain`` line comes first; each ``map`` body is
    parsed when first looked up."""
    catalog = Catalog()
    declared: dict[tuple[str, str], int] = {}  # (kind, name) -> line; a chain's name: its spec
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        match = _CHAIN_RE.match(line)
        if match:
            if declared:
                (kind, name), first = next(iter(declared.items()))
                raise ParseError(f"chain on line {lineno} follows {kind} {name!r} on line "
                                 f"{first}; the one chain line comes first", line=lineno)
            declared["chain", match.group(1)] = lineno
            if match.group("levels") is not None:  # nothing is declared yet
                catalog = Catalog(symbolic_chain(match.group("levels")))
            continue
        match = _MAP_RE.match(line) or _COND_RE.match(line)
        if match:
            kind, name = line.split()[0], match.group("name").lower()
            body = match.group("body").strip()
            first = declared.setdefault((kind, name), lineno)
            if first != lineno:
                raise ParseError(f"{kind} {name!r} is declared on line {first} and again on "
                                 f"line {lineno}; names ignore case", line=lineno)
            if kind == "map":
                catalog.maps.declare(name, body, lineno)
            else:
                catalog.conditions[name] = _parse_condition(body, catalog, lineno)
            continue
        raise ParseError(f"unrecognized config line {raw.strip()!r}", line=lineno)
    return catalog


def _parse_map(body: str, lineno: int, chain: ScoreChain, scores: dict[str, Score]) -> OrderMap:
    """Parse a map body on ``chain``, its score texts through ``scores``."""

    def parse(text: str) -> Score:
        return parse_score(text.strip(), chain, scores)

    if body == "identity":
        return IdentityMap()
    match = _BRACED_RE.match(body)
    if not match:
        raise ParseError(f"malformed map body {body!r}", line=lineno)
    kind, inner = match.group("kind"), match.group("inner").strip()
    if kind == "expr":
        return AnalyticMap.parse(inner)
    entries = [piece.strip() for piece in inner.split(",") if piece.strip()] if inner else []
    if kind == "graph":
        pairs = {}
        for entry in entries:
            left, sep, right = entry.partition("->")
            if not sep:
                raise ParseError(f"graph entry {entry!r} needs '->'", line=lineno)
            source = parse(left)
            if source in pairs:
                raise ParseError(f"graph input {left.strip()!r} appears twice", line=lineno)
            pairs[source] = parse(right)
        return GraphMap.of(pairs)
    # piecewise: an optional bare `a -> b` entry fixes the value at bottom,
    # every other entry is `(lo, hi] -> value`.
    bottom_value = chain.bottom
    pieces = []
    for entry in _split_pieces(inner):
        entry = entry.strip()
        if not entry:
            continue
        piece = _PIECE_RE.match(entry)
        if piece:
            pieces.append(
                Piece(
                    parse(piece.group("lo")),
                    parse(piece.group("hi")),
                    parse(piece.group("val")),
                )
            )
            continue
        left, sep, right = entry.partition("->")
        if not sep or parse(left) != chain.bottom:
            raise ParseError(f"malformed piecewise entry {entry!r}", line=lineno)
        bottom_value = parse(right)
    pieces.sort(key=lambda p: p.lo.key)
    return PiecewiseConstantMap(chain, bottom_value, tuple(pieces))


def _split_pieces(inner: str) -> list[str]:
    """Split on commas not nested inside a piece's ``( ... ]`` bounds."""
    parts = []
    depth = 0
    current = []
    for char in inner:
        if char == "(":
            depth += 1
        elif char in ")]":
            depth = max(0, depth - 1)
        if char == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    parts.append("".join(current))
    return parts


def _parse_condition(body: str, catalog: Catalog, lineno: int) -> Condition:
    match = _COMPOSE_RE.match(body)
    if match:
        try:
            base = catalog.condition(match.group("base"))
            order_map = catalog.order_map(match.group("map"))
        except UnknownNameError as exc:
            raise ParseError(str(exc), line=lineno) from None
        try:
            apply_checked(order_map, (), catalog.chain)  # f(bottom) = bottom, before any score
        except RankrelError as exc:
            raise ParseError(f"compose({match.group('base')}, {match.group('map')}): {exc}",
                             line=lineno) from None
        return base.compose(order_map)
    match = _BRACED_RE.match(body)
    if not match or match.group("kind") != "expr":
        raise ParseError(f"malformed condition body {body!r}", line=lineno)
    return ExprCondition.parse(match.group("inner").strip())
