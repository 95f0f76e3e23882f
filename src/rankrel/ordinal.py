"""Ordinal inclusion and equivalence of ranked tables via score cones.

The upper cone of a row collects every tuple scoring at least as high; a
table is ordinally included in another when every upper cone of the first
is contained in the corresponding cone of the second, and two tables are
ordinally equivalent when inclusion holds both ways (same tuple ordering by
score, regardless of the actual score values).

Cones over unbounded attribute types are infinite as soon as score-0 tuples
enter.  Every tuple outside both answer sets scores bottom in both tables,
so one stand-in represents all of them: inclusion, its evidence and the
canonical map's images are read off a single sort of the answer-set union
(plus that stand-in), exactly for finite and unbounded schemes alike.  That
sort runs on integer rank codes, one per distinct score: by the invariance
theorem, only the order of the scores decides inclusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from .errors import IncompatibleChainError, SchemeError
from .table import RankedTable, Row


@dataclass(frozen=True)
class Cone:
    """A cone of tuples: a finite known part plus optionally everything else.

    ``rest`` records whether every tuple outside the union of the two answer
    sets also belongs (those tuples all score bottom, so lower cones always
    have ``rest`` set and an upper cone has it exactly when the witness row
    scores bottom).
    """

    known: frozenset[Row]
    rest: bool

    @property
    def is_all_tuples(self) -> bool:
        return self.rest


@dataclass(frozen=True)
class ConeReport:
    row: Row
    upper: Cone
    lower: Cone


def upper_cone(d: RankedTable, row: Row) -> Cone:
    """Rows of d scoring at least as high as ``row`` does."""
    score = d.score_of(row)
    if score.is_bottom:
        return Cone(d.answer_set, rest=True)
    known = frozenset(r for r, s in d if s.value >= score.value)
    return Cone(known, rest=False)


def lower_cone(d: RankedTable, row: Row) -> Cone:
    """Rows of d scoring at most as high as ``row`` does (absent rows always do)."""
    score = d.score_of(row)
    known = frozenset(r for r, s in d if s.value <= score.value)
    return Cone(known, rest=True)


def cone_report(d: RankedTable, row: Row) -> ConeReport:
    return ConeReport(row, upper_cone(d, row), lower_cone(d, row))


def _check_comparable(d1: RankedTable, d2: RankedTable) -> None:
    if d1.scheme != d2.scheme:
        raise SchemeError("ordinal comparison needs equal schemes")
    if d1.chain != d2.chain:
        raise IncompatibleChainError("ordinal comparison needs one shared chain")


def _rank_profile(d1: RankedTable, d2: RankedTable) -> tuple[dict, list[Row]]:
    """Floor of every d1 level, and the rows whose d1 upper cone escapes d2's.

    Ranges over the union of both answer sets, plus one stand-in for the
    tuples outside it (scoring bottom in both) whenever the scheme has any.
    The floor of a level is the least d2 value among tuples whose d1 value
    reaches it; a row escapes exactly when its d2 value exceeds the floor of
    its d1 value (so the stand-in never does).

    Only the order of the scores matters, so the work runs on dense integer
    codes: each distinct ``Score`` object is coded once, by the rank of its
    value among all values of both tables (bottom is 0).  The objects stay
    referenced by the tables for the whole call, so their ids are stable.
    """
    _check_comparable(d1, d2)
    e1, e2 = d1.entries(), d2.entries()
    objects = {id(s): s for s in (*e1.values(), *e2.values())}
    decode = [d1.chain.bottom.value]
    code = {}
    for key, s in sorted(objects.items(), key=lambda kv: (float(kv[1].value), kv[1].value)):
        if s.value != decode[-1]:
            decode.append(s.value)
        code[key] = len(decode) - 1
    pairs = []
    for row, s in e1.items():
        t = e2.get(row)
        pairs.append((code[id(s)], 0 if t is None else code[id(t)], row))
    pairs += [(0, code[id(t)], row) for row, t in e2.items() if row not in e1]
    size = d1.scheme.domain_size()
    if size is None or size > len(pairs):
        pairs.append((0, 0, None))
    pairs.sort(key=itemgetter(0), reverse=True)
    floor = {}
    least = len(decode)
    for level, image, _ in pairs:
        least = min(least, image)
        floor[level] = least  # ties run consecutively; the last one sets it
    escaping = [row for level, image, row in pairs if image > floor[level]]
    return {decode[level]: decode[least] for level, least in floor.items()}, escaping


def ordinally_included(d1: RankedTable, d2: RankedTable) -> bool:
    """Whether every upper cone of d1 is contained in d2's cone of the same row."""
    return not _rank_profile(d1, d2)[1]


def ordinally_equivalent(d1: RankedTable, d2: RankedTable) -> bool:
    return ordinally_included(d1, d2) and ordinally_included(d2, d1)


def rank_signature(d: RankedTable) -> tuple[frozenset[Row], ...]:
    """Answer-set rows grouped by score, best group first.

    Under the convention that some tuple scores bottom in every table (true
    for unbounded attribute types), two tables are ordinally equivalent
    exactly when their signatures are equal.
    """
    groups: dict = {}
    for row, score in d:
        groups.setdefault(score.value, set()).add(row)
    return tuple(frozenset(groups[value]) for value in sorted(groups, reverse=True))


def first_inclusion_violation(d1: RankedTable, d2: RankedTable) -> Optional[Row]:
    """First row (canonical order) whose d1 upper cone escapes its d2 cone.

    Returns None when d1 is ordinally included in d2.  Used as CLI evidence.
    """
    return min(_rank_profile(d1, d2)[1], key=Row.key, default=None)
