"""Catalogs: named tables, conditions, and order maps sharing one chain.

A catalog directory holds one CSV per table (the file stem is the table
name) and an optional ``catalog.cfg`` declaring the chain, order maps, and
named restriction conditions::

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
from typing import Mapping, Optional

from .chain import RATIONAL, ScoreChain, symbolic_chain
from .conditions import Condition, ExprCondition
from .errors import IncompatibleChainError, ParseError, RankrelError, UnknownNameError
from .maps import AnalyticMap, GraphMap, IdentityMap, OrderMap, Piece, PiecewiseConstantMap
from .table import RankedTable, read_table_csv


class OrderMaps(UserDict):
    """Order maps by name; a map declared by a config line is parsed at first lookup.

    The parsed map is kept.  A body that fails to parse is not, so every
    lookup of it raises its ``ParseError``, with its config line number.
    """

    def declare(self, name: str, body: str, chain: ScoreChain, lineno: int) -> None:
        self.data[name] = (body, chain, lineno)

    def __getitem__(self, name: str) -> OrderMap:
        found = self.data[name]
        if isinstance(found, tuple):
            found = self.data[name] = _parse_map(*found)
        return found


@dataclass
class Catalog:
    chain: ScoreChain = RATIONAL
    tables: dict[str, RankedTable] = field(default_factory=dict)
    conditions: dict[str, Condition] = field(default_factory=dict)
    maps: OrderMaps = field(default_factory=OrderMaps)

    @classmethod
    def from_tables(cls, tables: Mapping[str, RankedTable],
                    conditions: Optional[Mapping[str, Condition]] = None,
                    chain: ScoreChain = RATIONAL) -> "Catalog":
        return cls(chain, dict(tables), dict(conditions or {}))

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
        catalog = (
            parse_config(config_path.read_text(encoding="utf-8"))
            if config_path.exists()
            else cls()
        )
        for csv_path in sorted(directory.glob("*.csv")):
            try:
                catalog.add_table(csv_path.stem, read_table_csv(csv_path, catalog.chain))
            except RankrelError as exc:
                raise type(exc)(f"cannot load table from {csv_path}: {exc}") from None
        return catalog


_CHAIN_RE = re.compile(r"chain\s+(rational01|symbolic\((?P<levels>[^)]*)\))\s*$")
_MAP_RE = re.compile(r"map\s+(?P<name>\w+)\s*=\s*(?P<body>.+)$")
_COND_RE = re.compile(r"cond\s+(?P<name>\w+)\s*=\s*(?P<body>.+)$")
_BRACED_RE = re.compile(r"(?P<kind>piecewise|expr|graph)\s*\{(?P<inner>.*)\}\s*$")
_COMPOSE_RE = re.compile(r"compose\(\s*(?P<base>\w+)\s*,\s*(?P<map>\w+)\s*\)\s*$")
_PIECE_RE = re.compile(r"\(\s*(?P<lo>[^,]+?)\s*,\s*(?P<hi>[^\]]+?)\s*\]\s*->\s*(?P<val>.+)$")


def parse_config(text: str) -> Catalog:
    """Read a config; each ``map`` body is parsed when first looked up."""
    catalog = Catalog()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        match = _CHAIN_RE.match(line)
        if match:
            if match.group("levels") is not None:
                catalog.chain = symbolic_chain(match.group("levels"))
            else:
                catalog.chain = RATIONAL
            continue
        match = _MAP_RE.match(line)
        if match:
            catalog.maps.declare(match.group("name").lower(), match.group("body").strip(),
                                 catalog.chain, lineno)
            continue
        match = _COND_RE.match(line)
        if match:
            catalog.conditions[match.group("name").lower()] = _parse_condition(
                match.group("body").strip(), catalog, lineno
            )
            continue
        raise ParseError(f"unrecognized config line {raw.strip()!r}", line=lineno)
    return catalog


def _parse_map(body: str, chain: ScoreChain, lineno: int) -> OrderMap:
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
            pairs[chain.parse(left)] = chain.parse(right)
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
                    chain.parse(piece.group("lo")),
                    chain.parse(piece.group("hi")),
                    chain.parse(piece.group("val")),
                )
            )
            continue
        left, sep, right = entry.partition("->")
        if not sep or chain.parse(left) != chain.bottom:
            raise ParseError(f"malformed piecewise entry {entry!r}", line=lineno)
        bottom_value = chain.parse(right)
    pieces.sort(key=lambda p: p.lo.value)
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
        return base.compose(order_map)
    match = _BRACED_RE.match(body)
    if not match or match.group("kind") != "expr":
        raise ParseError(f"malformed condition body {body!r}", line=lineno)
    return ExprCondition.parse(match.group("inner").strip())
