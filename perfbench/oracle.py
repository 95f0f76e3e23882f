"""Plain-dict reference evaluator for the ``query`` workload's shapes.

A relation is ``(names, rows)`` where ``rows`` maps a row, written as the
tuple of its ``(attribute, value)`` pairs sorted by attribute name, to its
``Fraction`` score; absent rows score 0.  Join and restriction take the
minimum, projection and union the maximum, difference the abjunction (keep
the left score where it beats the right one).  This shares no code with
rankrel, so agreement is evidence that the engine is right.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable

Relation = tuple[tuple[str, ...], dict[tuple, Fraction]]


def relation(header: list[str], rows: Iterable[list], grid: int) -> Relation:
    """Build from data.py rows: header cells ``name:kind``, first cell a grid level."""
    names = tuple(cell.split(":")[0] for cell in header)
    body = {
        tuple(sorted(zip(names, row[1:]))): Fraction(row[0], grid) for row in rows
    }
    return tuple(sorted(names)), body


def join(left: Relation, right: Relation) -> Relation:
    shared = [name for name in left[0] if name in right[0]]
    index: dict[tuple, list[tuple[dict, Fraction]]] = {}
    for row, score in right[1].items():
        values = dict(row)
        index.setdefault(tuple(values[n] for n in shared), []).append((values, score))
    body = {}
    for row, score in left[1].items():
        values = dict(row)
        for other, other_score in index.get(tuple(values[n] for n in shared), ()):
            merged = tuple(sorted({**values, **other}.items()))
            body[merged] = min(score, other_score)
    return tuple(sorted(set(left[0]) | set(right[0]))), body


def restrict(rel: Relation, condition: Callable[[dict], Fraction]) -> Relation:
    body = {}
    for row, score in rel[1].items():
        value = min(score, min(Fraction(1), max(Fraction(0), condition(dict(row)))))
        if value > 0:
            body[row] = value
    return rel[0], body


def project(rel: Relation, names: Iterable[str]) -> Relation:
    keep = set(names)
    body: dict[tuple, Fraction] = {}
    for row, score in rel[1].items():
        shorter = tuple(pair for pair in row if pair[0] in keep)
        body[shorter] = max(score, body.get(shorter, Fraction(0)))
    return tuple(sorted(keep)), body


def union(left: Relation, right: Relation) -> Relation:
    body = dict(left[1])
    for row, score in right[1].items():
        body[row] = max(score, body.get(row, Fraction(0)))
    return left[0], body


def difference(left: Relation, right: Relation) -> Relation:
    body = {
        row: score
        for row, score in left[1].items()
        if score > right[1].get(row, Fraction(0))
    }
    return left[0], body


def semijoin(left: Relation, right: Relation) -> Relation:
    return project(join(left, right), left[0])


def rename(rel: Relation, mapping: dict[str, str]) -> Relation:
    body = {
        tuple(sorted((mapping.get(name, name), value) for name, value in row)): score
        for row, score in rel[1].items()
    }
    return tuple(sorted(mapping.get(n, n) for n in rel[0])), body
