"""Ordinal inclusion and equivalence of ranked tables, by one sort-based kernel.

A table is ordinally included in another when every upper cone of the first
(the tuples scoring at least as high as a given one) lies inside the
second's cone of the same tuple; two tables are ordinally equivalent when
inclusion holds both ways (same tuple ordering by score, regardless of the
actual score values).

Every tuple outside both answer sets scores bottom in both tables, so one
stand-in represents all of them: inclusion, its evidence and the images of
both witness maps (:func:`canonical_map` and :func:`witness_isomorphism`)
are read off one coding of the answer-set union (plus that stand-in) in
:func:`_rank_profile`, exactly for finite and unbounded schemes alike, and
one sort of it per direction asked for.  That sort runs on integer rank
codes, one per distinct score: by the invariance theorem, only the order of
the scores decides inclusion.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator, Optional

from .chain import Score, rank_codes
from .errors import IncompatibleChainError, NotEquivalentError, NotIncludedError, SchemeError
from .maps import GraphMap, Piece, PiecewiseConstantMap
from .table import RankedTable, Row

Profile = tuple[dict, list[Score], list[Row]]


def _rank_profile(d1: RankedTable, d2: RankedTable) -> Iterator[Profile]:
    """Yield d1's profile against d2, then d2's against d1.

    d1's profile is the floor of every d1 level, and the rows whose d1 upper
    cone escapes d2's; d2's is the same with the tables swapped.  Both range
    over the union of both answer sets, plus one stand-in for the tuples
    outside it (scoring bottom in both) whenever the scheme has any.  The
    floor of a level is the least d2 value among tuples whose d1 value
    reaches it; a row escapes exactly when its d2 value exceeds the floor of
    its d1 value (so the stand-in never does).

    Only the order of the scores matters, so the work runs on the dense codes
    of :func:`chain.rank_codes` (bottom is 0): floors map level codes to floor
    codes, and ``decode`` maps a code to its score.  Both tables are coded
    and paired once, at the first ``next``; a direction is sorted and
    scanned only when its profile is read.  The tables keep their score
    objects alive while the generator lives, so their ids are stable.
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
    yield _floors(pairs, decode)
    yield _floors([(image, level, row) for level, image, row in pairs], decode)


def _floors(pairs: list[tuple[int, int, Optional[Row]]], decode: list[Score]) -> Profile:
    """One direction's profile from its ``(level, image, row)`` codes; sorts ``pairs`` in place."""
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
    return not next(_rank_profile(d1, d2))[2]


def ordinally_equivalent(d1: RankedTable, d2: RankedTable) -> bool:
    """Inclusion both ways; the reverse direction is sorted only when the first holds."""
    return not any(escaping for _, _, escaping in _rank_profile(d1, d2))


def first_inclusion_violation(d1: RankedTable, d2: RankedTable) -> Optional[Row]:
    """First row (canonical order) whose d1 upper cone escapes its d2 cone.

    Returns None when d1 is ordinally included in d2.
    """
    return min(next(_rank_profile(d1, d2))[2], default=None)  # rows of one scheme order by values


def compare(d1: RankedTable, d2: RankedTable) -> tuple[Optional[Row], bool]:
    """``first_inclusion_violation(d1, d2)`` and ``ordinally_included(d2, d1)``.

    Both come from one coding of the two tables: ``rankrel equiv`` reads its
    verdict, its evidence and its reverse-direction note off them.
    """
    forward, backward = _rank_profile(d1, d2)
    return min(forward[2], default=None), not backward[2]


def canonical_map(d1: RankedTable, d2: RankedTable) -> PiecewiseConstantMap:
    """The canonical order-preserving witness of ordinal inclusion.

    For d1 ordinally included in d2 it returns the map fixing bottom and
    sending each other score ``a`` to the least d2-score among rows whose
    d1-score reaches ``a`` (empty set of such rows: top).  Floors never
    decrease with the level, so each piece ``(previous level, level]`` takes
    that level's floor, and ``(last level, top]`` takes top.  It agrees with
    d2 on d1's answer set, so ``compose_table(d1, f) == d2`` holds exactly
    when every tuple d1 leaves out also scores bottom in d2.  That is always
    so over an unbounded attribute type, but not on an explicitly finite
    domain that d2 covers beyond d1.
    """
    if d1.scheme != d2.scheme:
        raise NotIncludedError("tables on different schemes are never ordinally included")
    floors, decode, escaping = next(_rank_profile(d1, d2))
    if escaping:
        raise NotIncludedError("first table is not ordinally included in the second")
    chain = d1.chain
    ends = [(decode[level], decode[floor]) for level, floor in sorted(floors.items()) if level]
    if not ends or not ends[-1][0].is_top:
        ends.append((chain.top, chain.top))  # past every level: top
    pieces: list[Piece] = []
    lo = chain.bottom
    for hi, value in ends:
        if pieces and pieces[-1].value == value:
            pieces[-1] = Piece(pieces[-1].lo, hi, value)
        else:
            pieces.append(Piece(lo, hi, value))
        lo = hi
    return PiecewiseConstantMap(chain, chain.bottom, tuple(pieces),
                                declared=frozenset(("preserving",)))


def witness_isomorphism(d1: RankedTable, d2: RankedTable) -> GraphMap:
    """An order isomorphism between the two ranges carrying d1 onto d2.

    Only exists when the tables are ordinally equivalent.  Then each d1
    level's floor is the d2 value at that level, and bottom is a level exactly
    when some tuple lies outside d1, so the floors match the ranges rank by rank.
    Both directions come from one coding of the two tables.
    """
    if d1.scheme != d2.scheme:
        raise NotEquivalentError("tables are not ordinally equivalent")
    profiles = _rank_profile(d1, d2)
    floors, decode, escaping = next(profiles)
    if escaping or next(profiles)[2]:
        raise NotEquivalentError("tables are not ordinally equivalent")
    graph = {decode[level]: decode[floor] for level, floor in floors.items()}
    return GraphMap.of(graph, declared=("embedding", "isomorphism"))

