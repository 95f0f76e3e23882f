"""Bounded totally ordered score chains and their logical connectives.

Scores live on a chain: exact rationals in [0, 1] (the default carrier) or a
user-declared finite chain of named levels.  Every connective here is purely
order-based, so both carriers behave identically.  Mixing scores from
incompatible chains is a hard error, never an implicit coercion.

On a chain the derived connectives collapse to case splits:

    residuum(a, b)   = top  if a <= b else b
    abjunction(a, b) = bottom if a <= b else a
    negation(a)      = top  if a == bottom else bottom
    biresiduum(a, b) = top  if a == b else min(a, b)

Restricted to {bottom, top} they reproduce the Boolean truth tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from operator import attrgetter
from typing import Optional, Union

from .errors import ChainError, EvalError, IncompatibleChainError

Rational = Union[Fraction, int]
#: An exact expression value as integers ``(num, den)``, ``den > 0``, not necessarily reduced.
Ratio = tuple[int, int]


#: Decimal places of the one score grid that float results are rounded onto.
GRID_PLACES = 6
_GRID = 10**GRID_PLACES


def clamp01(value: Union[Fraction, float, Ratio]) -> Union[Fraction, float, Ratio]:
    """Clamp an expression result into [0, 1]; an infinity clamps, a NaN is an ``EvalError``.

    An integer ratio ``(num, den)``, ``den > 0``, as ``exprs.compile_ratio``
    gives, clamps to a ratio.
    """
    if isinstance(value, tuple):
        if value[0] < 0:
            return (0, 1)
        if value[0] > value[1]:
            return (1, 1)
        return value
    if isinstance(value, Fraction):  # compare its integers: the denominator is positive
        if value.numerator < 0:
            return Fraction(0)
        if value.numerator > value.denominator:
            return Fraction(1)
        return value
    if value != value:
        raise EvalError("expression evaluates to NaN")
    if value < 0:
        return Fraction(0)
    if value > 1:
        return Fraction(1)
    return value


def exact_decimal_str(value: Fraction) -> str:
    """Exact text form: terminating decimal when possible, else ``p/q``."""
    num, den = value.numerator, value.denominator
    if den == 1:
        return str(num)
    if num < 0:
        return f"-{exact_decimal_str(-value)}"  # the sign goes before the digits
    twos = fives = 0
    d = den
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return f"{num}/{den}"
    places = max(twos, fives)
    digits = num * 10**places // den
    text = str(digits).rjust(places + 1, "0")
    return f"{text[:-places]}.{text[-places:]}"


def fixed_decimal_str(value: Fraction, places: int) -> str:
    """Round to ``places`` decimals (half-even) and render with trailing zeros."""
    scaled = round(value * 10**places)
    text = str(scaled).rjust(places + 1, "0")
    return f"{text[:-places]}.{text[-places:]}"


@dataclass(frozen=True)
class ScoreChain:
    """Carrier descriptor: rational unit interval, or named finite levels.

    ``levels`` is ``None`` for the exact-rational carrier; otherwise it lists
    the level names from bottom to top.  Chains are compatible (and their
    scores interoperate) exactly when their descriptors are equal.

    A chain keeps one ``Score`` per value it has built and per text it has
    parsed, which ``score``, ``parse``, ``bottom`` and ``top`` return, so the
    kernels that de-duplicate scores by ``id`` meet each value once; scores
    compare and hash by value, so no answer depends on the sharing.  The memo
    is a plain dict as long-lived as the chain (``RATIONAL``: the process),
    about 370 B per distinct score text; a pickle or copy starts it empty.
    ``on_grid`` keeps a second dict, from each grid numerator it has rounded
    onto to that value's score: about 60-85 B per grid value met, beside the
    score's own memo entry.
    """

    levels: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.levels is not None:
            if len(self.levels) < 2:
                raise ChainError("a symbolic chain needs at least two levels")
            if len(set(self.levels)) != len(self.levels):
                raise ChainError(f"duplicate level names in {self.levels}")
        object.__setattr__(self, "_memo", {})  # value or text -> its one Score
        object.__setattr__(self, "_grid", {})  # grid numerator -> its one Score

    def __reduce__(self):
        return ScoreChain, (self.levels,)  # an equal chain, with an empty memo

    @property
    def is_rational(self) -> bool:
        return self.levels is None

    @cached_property
    def bottom(self) -> "Score":
        return self.score(0)

    @cached_property
    def top(self) -> "Score":
        return self.score(1 if self.is_rational else len(self.levels) - 1)

    def score(self, raw) -> "Score":
        """The score of ``raw`` on this chain, validating the carrier bounds."""
        if self.is_rational:
            if isinstance(raw, bool) or not isinstance(raw, (int, Fraction)):
                raise ChainError(f"rational scores take Fraction or int, got {raw!r}")
            value = Fraction(raw)
            if not 0 <= value <= 1:
                raise ChainError(f"score {value} outside [0, 1]")
            return self._keep(value)
        if isinstance(raw, str):
            try:
                return self._keep(self.levels.index(raw))
            except ValueError:
                raise ChainError(
                    f"unknown level {raw!r}; chain levels are {self.levels}"
                ) from None
        if isinstance(raw, int) and not isinstance(raw, bool):
            if 0 <= raw < len(self.levels):
                return self._keep(raw)
        raise ChainError(f"symbolic scores take a level name, got {raw!r}")

    def on_grid(self, value: Union[Fraction, float, Ratio]) -> "Score":
        """The score of a value in [0, 1] rounded half-even onto the ``GRID_PLACES`` grid.

        Rounds with integer arithmetic on ``value.as_integer_ratio()``, exact
        for floats and ``Fraction``s alike, or on an integer ratio ``(num,
        den)``, ``den > 0``, reduced or not; it looks the grid numerator up
        in its own dict; a numerator met first is kept through ``_keep``, so
        each grid value is still one ``Score``.  A value that rounds off the
        grid, or a symbolic chain, is a ``ChainError``.
        """
        num, den = value if isinstance(value, tuple) else value.as_integer_ratio()
        step, rest = divmod(num * _GRID, den)
        if 2 * rest > den or (2 * rest == den and step & 1):
            step += 1
        score = self._grid.get(step)
        if score is None:
            if self.levels is not None or not 0 <= step <= _GRID:
                raise ChainError(f"cannot round {value!r} onto the grid of {self}")
            score = self._grid[step] = self._keep(Fraction(step, _GRID))
        return score

    def _keep(self, value, text: Optional[str] = None) -> "Score":
        """The one score of a valid carrier ``value``, built with ``text`` at its first call."""
        score = self._memo.get(value)
        if score is None:
            score = self._memo.setdefault(value, Score(self, value, text))
        return score

    def parse(self, text: str) -> "Score":
        """Parse score text: exact decimal or ``p/q`` (rational), or a level name.

        A text parsed before is looked up, not read again; a text that fails
        is not kept.  Plain ASCII ``digits`` or ``digits.digits`` is read with
        two ``int`` calls, as ``Fraction(text)`` reads it, but without its
        regex; every other text goes through ``Fraction(text)``.  A plain text
        already in exact form (``0.5`` or ``1``, not ``0.50``, ``00.5`` or
        ``1.0``) is kept as the ``text`` of a score it builds.
        """
        score = self._memo.get(text)
        if score is None:
            score = self._memo.setdefault(text, self._read(text.strip()))
        return score

    def _read(self, text: str) -> "Score":
        if self.levels is not None:
            return self.score(text)
        head, dot, tail = text.partition(".")
        try:
            if text.isascii() and head.isdigit() and (tail.isdigit() or not dot):
                scale = 10 ** len(tail)
                num = int(head) * scale + int(tail or "0")
                if num <= scale:
                    exact = (head == "0" and tail[-1] != "0") if dot else len(head) == 1
                    return self._keep(Fraction(num, scale), text if exact else None)
                return self.score(Fraction(num, scale))  # raises the range error
            return self.score(Fraction(text))
        except (ValueError, ZeroDivisionError):
            raise ChainError(f"cannot parse rational score from {text!r}") from None

    def format(self, s: "Score", places: Optional[int] = 3) -> str:
        """Render a score: fixed decimals, exact text (``places=None``), or level name.

        The exact text is kept on the score at its first rendering.
        """
        _require_chain(self, s)
        if places is None:
            text = s.text
            if text is None:
                text = exact_decimal_str(s.value) if self.is_rational else self.levels[s.value]
                object.__setattr__(s, "text", text)
            return text
        if not self.is_rational:
            return self.levels[s.value]
        return fixed_decimal_str(s.value, places)


#: The default chain: exact rationals in [0, 1].
RATIONAL = ScoreChain()


def symbolic_chain(spec: str) -> ScoreChain:
    """Build a symbolic chain from ``"none < low < high < full"`` text."""
    levels = tuple(part.strip() for part in spec.split("<"))
    if any(not level for level in levels):
        raise ChainError(f"malformed chain levels: {spec!r}")
    return ScoreChain(levels)


@dataclass(frozen=True, slots=True)
class Score:
    """An element of a score chain.  Comparison is exact and total.

    ``key`` is ``(float(value), value)``, set once and read by every order
    decision.  ``float()`` is correctly rounded, hence monotone, so keys
    order exactly as values do; the tuples compare in C, and reach the exact
    value only when two distinct value objects share a float.  ``text`` is
    the exact text that ``chain.format(s, None)`` writes, or ``None`` until
    its first call.  Both are derived from ``value``, so they take no part in
    equality, and ``dataclasses.replace`` recomputes them.  A score hashes
    by its key's float: equal scores have equal values, hence equal floats.
    Slots keep a score free of an instance ``__dict__``, so reading ``key``
    stays a slot read.
    """

    chain: ScoreChain
    value: Union[Fraction, int]
    key: tuple = field(init=False, repr=False, compare=False)
    text: Optional[str] = field(init=False, repr=False, compare=False)

    def __init__(self, chain: ScoreChain, value: Union[Fraction, int],
                 text: Optional[str] = None) -> None:
        object.__setattr__(self, "chain", chain)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "key", (float(value), value))
        object.__setattr__(self, "text", text)

    def __hash__(self) -> int:
        return hash(self.key[0])

    def __lt__(self, other: "Score") -> bool:
        _require_chain(self.chain, other)
        return self.key < other.key

    def __le__(self, other: "Score") -> bool:
        _require_chain(self.chain, other)
        return self.key <= other.key

    # Read off the raw carrier value, without building chain.bottom or
    # chain.top: bottom is 0 on both carriers, top is 1 or the last level.
    @property
    def is_bottom(self) -> bool:
        return not self.value

    @property
    def is_top(self) -> bool:
        levels = self.chain.levels
        return self.value == (1 if levels is None else len(levels) - 1)

    def __repr__(self) -> str:
        text = self.chain.format(self, None)
        return f"Score({text})" if self.chain.is_rational else f"Score({text!r})"


def _require_chain(chain: ScoreChain, s: Score) -> None:
    if s.chain is not chain and s.chain != chain:
        raise IncompatibleChainError(
            f"score on {s.chain} used with chain {chain}; carriers must match"
        )


def meet(a: Score, b: Score) -> Score:
    """Greatest lower bound; on a chain, the smaller score."""
    _require_chain(a.chain, b)
    return a if a.key <= b.key else b


def join_sup(a: Score, b: Score) -> Score:
    """Least upper bound; on a chain, the larger score."""
    _require_chain(a.chain, b)
    return a if a.key >= b.key else b


def residuum(a: Score, b: Score) -> Score:
    """Chain implication, adjoint to meet: meet(a,b) <= c iff a <= residuum(b,c)."""
    _require_chain(a.chain, b)
    return a.chain.top if a.key <= b.key else b


def abjunction(a: Score, b: Score) -> Score:
    """Chain non-implication, adjoint to join: abjunction(a,b) <= c iff a <= join(b,c)."""
    _require_chain(a.chain, b)
    return a.chain.bottom if a.key <= b.key else a


def negation(a: Score) -> Score:
    return a.chain.top if a.is_bottom else a.chain.bottom


def biresiduum(a: Score, b: Score) -> Score:
    _require_chain(a.chain, b)
    return a.chain.top if a.key == b.key else meet(a, b)


def min_score(scores, default: Score) -> Score:
    """Minimum of finitely many scores; ``default`` is the empty-set infimum."""
    result = default
    for s in scores:
        _require_chain(result.chain, s)
        if s.key < result.key:
            result = s
    return result


def rank_codes(scores) -> tuple[dict[int, int], list[Score]]:
    """Dense codes in ``key`` order: each object's code by ``id``, each code's first score."""
    code, decode = {}, []
    for s in sorted({id(s): s for s in scores}.values(), key=attrgetter("key")):
        if not decode or s.key != decode[-1].key:
            decode.append(s)
        code[id(s)] = len(decode) - 1
    return code, decode
