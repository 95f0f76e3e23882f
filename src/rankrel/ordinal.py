"""Ordinal inclusion and equivalence of ranked tables, by one sort-based kernel.

A table is ordinally included in another when every upper cone of the first
(the tuples scoring at least as high as a given one) lies inside the
second's cone of the same tuple; two tables are ordinally equivalent when
inclusion holds both ways (same tuple ordering by score, regardless of the
actual score values).

Every tuple outside both answer sets scores bottom in both tables, so one
stand-in represents all of them: inclusion, its evidence and the images of
both witness maps (``maps.canonical_map`` and ``maps.witness_isomorphism``)
are read off a single sort of the answer-set union (plus that stand-in) in
:func:`_rank_profile`, exactly for finite and unbounded schemes alike.  That
sort runs on integer rank codes, one per distinct score: by the invariance
theorem, only the order of the scores decides inclusion.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional

from .chain import Score, rank_codes
from .errors import IncompatibleChainError, SchemeError
from .table import RankedTable, Row


def _rank_profile(d1: RankedTable, d2: RankedTable) -> tuple[dict, list[Score], list[Row]]:
    """Floor of every d1 level, and the rows whose d1 upper cone escapes d2's.

    Ranges over the union of both answer sets, plus one stand-in for the
    tuples outside it (scoring bottom in both) whenever the scheme has any.
    The floor of a level is the least d2 value among tuples whose d1 value
    reaches it; a row escapes exactly when its d2 value exceeds the floor of
    its d1 value (so the stand-in never does).

    Only the order of the scores matters, so the work runs on the dense codes
    of :func:`chain.rank_codes` (bottom is 0): floors map level codes to floor
    codes, and ``decode`` maps a code to its score.  The tables keep their
    score objects alive for the whole call, so their ids are stable.
    """
    if d1.scheme != d2.scheme:
        raise SchemeError(f"ordinal comparison needs equal schemes: {d1.scheme!r} vs {d2.scheme!r}")
    if d1.chain != d2.chain:
        raise IncompatibleChainError("ordinal comparison needs one shared chain")
    e1, e2 = d1._entries, d2._entries
    code, decode = rank_codes((d1.chain.bottom, *e1.values(), *e2.values()))
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
    return floor, decode, escaping


def ordinally_included(d1: RankedTable, d2: RankedTable) -> bool:
    """Whether every upper cone of d1 is contained in d2's cone of the same row."""
    return not _rank_profile(d1, d2)[2]


def ordinally_equivalent(d1: RankedTable, d2: RankedTable) -> bool:
    return ordinally_included(d1, d2) and ordinally_included(d2, d1)


def first_inclusion_violation(d1: RankedTable, d2: RankedTable) -> Optional[Row]:
    """First row (canonical order) whose d1 upper cone escapes its d2 cone.

    Returns None when d1 is ordinally included in d2.  Used as CLI evidence.
    """
    return min(_rank_profile(d1, d2)[2], key=Row.key, default=None)
