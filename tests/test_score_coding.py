"""Per-distinct score coding against the per-row forms it replaces.

``Score.key`` decides every order comparison, ``ScoreChain.parse`` reads
plain decimals without ``Fraction``'s regex, ``ordinal._rank_profile`` runs
on dense integer rank codes, and ``maps.compose_table`` maps each distinct
score once.  Each is checked on seeded inputs against its oracle in
``helpers``, which compares raw values only: equal order and equal
connectives, equal scores or identical errors, equal floors and escaping
rows, equal tables or identical errors.  A guard test counts the score
hashes of both kernels on a 2,000-row table, and another makes map
application run with ``Score.__hash__`` raising.  Tables holding one
``Score`` object per row give the answers of tables holding the chain's one
object per value.  A score is slotted, with no instance ``__dict__``; it
keeps its exact text through copies, and the text ``parse`` keeps is the one
``format`` writes.
"""

import copy
import dataclasses
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    GRID,
    VALUE_POOL,
    rank_profile_values,
    reference_compose_table,
    reference_natural_join,
    reference_parse,
    reference_project,
    reference_rank_order,
    reference_rank_profile,
    reference_semijoin,
    replay_hint,
    rnd_grid_isomorphism,
    rnd_monotone_map,
    rnd_scheme,
    stable_seed,
    value_abjunction,
    value_join,
    value_meet,
    value_min,
    value_residuum,
)

from rankrel import demo, ordinal
from rankrel.algebra import natural_join, project, semijoin
from rankrel.calculus import structure_from_tables
from rankrel.chain import (
    RATIONAL,
    Score,
    ScoreChain,
    abjunction,
    exact_decimal_str,
    join_sup,
    meet,
    min_score,
    residuum,
    symbolic_chain,
)
from rankrel.errors import MapDomainError, MapPropertyError, QuantizationError
from rankrel.maps import (
    IDENTITY,
    PROPERTIES,
    AnalyticMap,
    GraphMap,
    Piece,
    PiecewiseConstantMap,
    compose_table,
    verify_declared,
)
from rankrel.table import (
    INT, AttrType, RankedTable, Row, Scheme, rank_sorted, read_table_csv, values_of,
)
from rankrel.topk import SortedSource, brute_force_top_k, top_k

TINY = Fraction(1, 10**30)

#: Rational score values; 1/3 and 1/3 + 10**-30 share a float.
VALUES = (Fraction(1, 3), Fraction(1, 3) + TINY, Fraction(1, 2), Fraction(1, 2) + TINY,
          Fraction(1, 7), Fraction(3, 4), Fraction(1, 10), Fraction(1))

LEVELS = symbolic_chain("none < low < mid < high < full")


#: ``VALUES`` plus a nonzero value whose float is 0.0, the float of bottom.
KEYED = VALUES + (Fraction(1, 10**400),)


def fresh(value: Fraction) -> Fraction:
    """An equal value in a new object, so that comparisons cannot short-cut on identity."""
    return Fraction(value.numerator, value.denominator)


def fresh_scores(chain) -> list[Score]:
    """Every level of ``chain`` under test, bottom included, each a new object."""
    if chain is LEVELS:
        return [Score(LEVELS, i) for i in range(len(LEVELS.levels))]
    return [Score(RATIONAL, fresh(v)) for v in (Fraction(0), *KEYED)]


def outcome(func, *args):
    """The result, or the type and message of the error raised."""
    try:
        result = func(*args)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return ("error", type(exc), str(exc))
    if isinstance(result, Score):
        return ("score", result, type(result.value))
    return ("ok", result)


# --- order key --------------------------------------------------------------------


def test_key_order_is_value_order_and_connectives_match_the_value_reference():
    assert float(KEYED[-1]) == 0.0 and float(VALUES[0]) == float(VALUES[1])
    for chain in (RATIONAL, LEVELS):
        left, right = fresh_scores(chain), fresh_scores(chain)
        for a in left:
            for b in left + right:  # ``right`` holds equal values in other objects
                assert (a.key < b.key) == (a.value < b.value), (a, b)
                assert (a.key == b.key) == (a.value == b.value), (a, b)
                assert (a < b, a <= b, a > b, a >= b) == (
                    a.value < b.value, a.value <= b.value, a.value > b.value, a.value >= b.value)
                assert meet(a, b) == value_meet(a, b)
                assert join_sup(a, b) == value_join(a, b)
                assert residuum(a, b) == value_residuum(a, b)
                assert abjunction(a, b) == value_abjunction(a, b)
        rng = random.Random(stable_seed(f"min score {chain.levels}"))
        for _ in range(200):
            scores = rng.sample(left + right, rng.randint(0, 6))
            default = rng.choice(right)
            assert min_score(scores, default) == value_min(scores, default)


def test_copies_keep_the_key():
    for s in fresh_scores(RATIONAL) + fresh_scores(LEVELS):
        built = Score(s.chain, s.value)
        for copied in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s), copy.copy(s),
                       dataclasses.replace(s)):
            assert copied == s and copied.key == built.key and hash(copied) == hash(s)
        other = fresh_scores(s.chain)[-1].value
        assert dataclasses.replace(s, value=other).key == Score(s.chain, other).key
        assert "key" not in repr(s)


# --- layout: slots, the kept text, the hash ------------------------------------------


def layout_scores() -> list[Score]:
    """Scores from every construction site, texts kept by ``parse`` and not."""
    return [RATIONAL.parse("0.5"), RATIONAL.parse(" 0.50 "), RATIONAL.parse("1/3"),
            RATIONAL.parse("1"), RATIONAL.top, RATIONAL.bottom, RATIONAL.score(Fraction(1, 7)),
            Score(RATIONAL, Fraction(3, 4)), LEVELS.parse("low"), LEVELS.top,
            *fresh_scores(RATIONAL), *fresh_scores(LEVELS)]


def test_scores_have_no_instance_dict():
    for s in layout_scores():
        assert not hasattr(s, "__dict__"), s
        with pytest.raises(AttributeError):
            object.__setattr__(s, "extra", 1)  # no slot, and no dict to fall back on
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.text = "0"


def test_copies_keep_key_and_text_and_replace_recomputes_both():
    for s in layout_scores():
        kept = s.text
        for copied in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s), copy.copy(s)):
            assert copied == s and copied.key == s.key and copied.text == kept
        text = s.chain.format(s, None)
        assert s.text == text
        for copied in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s), copy.copy(s)):
            assert copied.key == s.key and copied.text == text
        replaced = dataclasses.replace(s)
        assert replaced == s and replaced.key == s.key and replaced.text is None
        assert s.chain.format(replaced, None) == text
        other = fresh_scores(s.chain)[-2].value
        moved = dataclasses.replace(s, value=other)
        assert moved.key == Score(s.chain, other).key and moved.text is None
        assert s.chain.format(moved, None) == s.chain.format(Score(s.chain, other), None)
        assert repr(moved) == repr(Score(s.chain, other))


def test_every_form_of_top_is_one_key_for_a_dict():
    forms = [RATIONAL.parse("1"), RATIONAL.parse("1.0"), RATIONAL.parse("01"), RATIONAL.top,
             Score(RATIONAL, 1), Score(RATIONAL, Fraction(1)), RATIONAL.score(1)]
    for s in forms:
        assert s == RATIONAL.top and hash(s) == hash(RATIONAL.top) and s.key == (1.0, 1)
    assert len(set(forms)) == 1 and {RATIONAL.top: "top"}[forms[0]] == "top"
    # the chain's routes give its one top; ``Score`` itself builds new objects
    assert len({id(s) for s in forms}) == 3 and forms[6] is forms[0]
    assert {RATIONAL.format(s, None) for s in forms} == {"1"}
    # unequal scores may share a hash (one float), never a key
    tiny = Score(RATIONAL, KEYED[-1])
    assert hash(tiny) == hash(RATIONAL.bottom) and tiny != RATIONAL.bottom
    assert len({tiny, RATIONAL.bottom}) == 2


@st.composite
def decimal_texts(draw) -> str:
    """A plain decimal text of a value in [0, 1], in exact form or padded with zeros or blanks."""
    if draw(st.booleans()):
        head = "0" * draw(st.integers(0, 2)) + "1"
        tail = "0" * draw(st.integers(0, 3))
    else:
        head = "0" * draw(st.integers(1, 3))
        tail = draw(st.text("0123456789", max_size=8))
    dot = "." if tail or draw(st.booleans()) else ""
    blank = st.sampled_from(["", " ", "\t", "  "])
    return draw(blank) + head + dot + tail + draw(blank)


def check_kept_text(text: str) -> None:
    """A score ``parse`` builds keeps its text exactly when it is the exact text, and
    ``format`` writes the exact text of a parsed score whatever was parsed before."""
    s = ScoreChain().parse(text)  # a new chain, so the score is built here
    exact = exact_decimal_str(s.value)
    assert s.value == Fraction(text.strip()) and s.key == (float(s.value), s.value)
    assert s.text == (exact if text.strip() == exact else None)
    assert s.chain.format(s, None) == exact and s.text == exact
    kept = RATIONAL.parse(text)
    assert kept is RATIONAL.score(s.value) and RATIONAL.format(kept, None) == exact
    assert repr(kept) == f"Score({exact})"


@pytest.mark.parametrize("text", ["0.5", "1", "0", " 0.25\t", "0.125",
                                  "0.50", "00.5", "1.0", "01", "0.", "0.0", "1/2", ".5"])
def test_parse_keeps_only_exact_texts(text):
    check_kept_text(text)


@settings(derandomize=True, max_examples=300, database=None)
@given(decimal_texts())
def test_parse_keeps_only_exact_texts_and_format_writes_the_exact_text(text):
    check_kept_text(text)


def rnd_keyed_table(rng: random.Random, scheme: Scheme, chain) -> RankedTable:
    """Rows scored on ``KEYED`` (or the nonzero levels), equal values often in new objects."""
    pool = fresh_scores(chain)[1:]
    rows = {}
    for _ in range(rng.randint(0, 12)):
        row = Row.of({name: rng.choice(VALUE_POOL) for name in scheme.names})
        score = rng.choice(pool)
        if rng.random() < 0.5:
            score = fresh_scores(chain)[pool.index(score) + 1]
        rows[row] = score
    return RankedTable(scheme, chain, rows)


def test_key_ordered_operators_match_the_value_reference():
    seed = stable_seed("order key operators")
    rng = random.Random(seed)
    seen = Counter()
    with replay_hint(seed):
        for _ in range(400):
            chain = LEVELS if rng.random() < 0.2 else RATIONAL
            d1 = rnd_keyed_table(rng, rnd_scheme(rng), chain)
            d2 = rnd_keyed_table(rng, rnd_scheme(rng), chain)
            d3 = rnd_keyed_table(rng, d1.scheme, chain)
            for d in (d1, d2):
                assert rank_sorted(d) == reference_rank_order(d)
            assert natural_join(d1, d2) == reference_natural_join(d1, d2)
            names = rng.sample(d1.scheme.names, rng.randint(0, len(d1.scheme)))
            assert project(d1, names) == reference_project(d1, names)
            assert semijoin(d1, d2) == reference_semijoin(d1, d2)
            floors, escaping = rank_profile_values(d1, d3)
            expected_floors, expected_escaping = reference_rank_profile(d1, d3)
            assert list(floors.items()) == list(expected_floors.items())
            assert Counter(escaping) == Counter(expected_escaping)
            chain_tables = [d1, d2, d3][:rng.randint(1, 3)]
            joined = chain_tables[0]
            for other in chain_tables[1:]:
                joined = reference_natural_join(joined, other)
            sources = [SortedSource(t) for t in chain_tables]
            for k in (1, 3, 10):
                result = top_k(sources, k)
                assert result.items == brute_force_top_k(sources, k).items
                assert list(result.items) == reference_rank_order(joined)[:k]
            values = [s.value for _, s in (*d1, *d2, *d3)]
            seen["symbolic"] += chain is LEVELS
            seen["shared float"] += len({float(v) for v in values}) < len(set(values))
            seen["float zero"] += KEYED[-1] in values
            seen["equal objects"] += len({id(v) for v in values}) > len(set(values))
            seen["escaping"] += bool(escaping)
            seen["joined"] += len(joined) > 3
    assert all(seen[key] for key in ("symbolic", "shared float", "float zero", "equal objects",
                                     "escaping", "joined")), seen


# --- parse ----------------------------------------------------------------------

PARSE_TEXTS = (
    "0.5", " 0.5 ", "\t1\n", "0", "1", "0.", ".5", "1.000", "00.50", "1.0001", "-0",
    "+0.5", "3/4", "1e-3", "1_0", "0.1_0", "1.5", "12", "", " ", ".", "..5", "0..5",
    "1/0", "abc", "0.5x", "1 0", "１", "０.５", "²", "0.²",
    "7" * 5000, "0." + "0" * 5000 + "1", "9" * 4000 + "." + "1" * 500,
)

PARSE_TOKENS = ("0", "1", "5", "9", "00", "10", ".", ".", "/", "-", "+", "e", "E", "_",
                " ", "５", "²", "x")


def test_parse_matches_the_fraction_reference():
    seed = stable_seed("score parse")
    rng = random.Random(seed)
    texts = list(PARSE_TEXTS)
    texts += ["".join(rng.choice(PARSE_TOKENS) for _ in range(rng.randint(1, 6)))
              for _ in range(3000)]
    kinds = Counter()
    with replay_hint(seed):
        for text in texts:
            expected = outcome(reference_parse, RATIONAL, text)
            assert outcome(RATIONAL.parse, text) == expected, text
            kinds["value" if expected[0] == "score" else expected[2].split(" ")[0]] += 1
    assert {"value", "cannot", "score"} <= set(kinds), kinds


def test_parse_range_errors_match_the_reference():
    for text in ("1.5", "12", "1.0001", "2/1", "9" * 40 + ".5"):
        expected = outcome(reference_parse, RATIONAL, text)
        assert expected[0] == "error" and "outside [0, 1]" in expected[2]
        assert outcome(RATIONAL.parse, text) == expected


def test_parse_symbolic_levels_match_the_reference():
    for text in ("low", " mid ", "full\n", "none", "0", "1", "0.5", "LOW", "nope", ""):
        assert outcome(LEVELS.parse, text) == outcome(reference_parse, LEVELS, text), text


# --- rank profile ----------------------------------------------------------------


def csv_text(value: Fraction, rng: random.Random) -> str:
    """One of several texts of ``value``: ``0.5``, ``0.50`` or ``1/2``."""
    exact = exact_decimal_str(value)
    forms = [exact, f"{value.numerator}/{value.denominator}"]
    if "." in exact:
        forms.append(exact + "0")
    return rng.choice(forms)


def rnd_profile_pair(rng: random.Random):
    """Two tables on one scheme and chain, often related by a monotone map."""
    domain = AttrType("int", (0, 1)) if rng.random() < 0.3 else INT
    scheme = Scheme((("a", domain), ("b", AttrType("int", (0, 1, 2)))))
    rows = [Row.of({"a": a, "b": b}) for a in (0, 1) for b in (0, 1, 2)]
    chain = LEVELS if rng.random() < 0.2 else RATIONAL
    pool = list(range(1, 5)) if chain is LEVELS else rng.sample(VALUES, rng.randint(1, 5))
    first = {row: rng.choice(pool) for row in rng.sample(rows, rng.randint(0, len(rows)))}
    if rng.random() < 0.5:
        ranked = sorted(set(first.values()))
        images = sorted(rng.choice(pool) for _ in ranked)
        second = {row: dict(zip(ranked, images))[raw] for row, raw in first.items()}
        for row in rng.sample(rows, rng.randint(0, 2)):  # a few perturbations
            if rng.random() < 0.5:
                second[row] = rng.choice(pool)
            else:
                second.pop(row, None)
    else:
        second = {row: rng.choice(pool) for row in rng.sample(rows, rng.randint(0, len(rows)))}
    return tuple(build(chain, scheme, raw, rng) for raw in (first, second))


def build(chain, scheme: Scheme, raw: dict, rng: random.Random) -> RankedTable:
    """A table of raw scores, through the CSV reader or with one ``Score`` object per row."""
    if chain is RATIONAL and rng.random() < 0.4:
        lines = ["#,a:int,b:int"]
        values = values_of(scheme, ["a", "b"])
        lines += [",".join((csv_text(v, rng), *map(str, values(row)))) for row, v in raw.items()]
        return RankedTable(scheme, chain, read_table_csv("\n".join(lines) + "\n").entries())
    return RankedTable(scheme, chain, {row: Score(chain, v) for row, v in raw.items()})


def test_rank_profile_matches_the_sort_reference():
    seed = stable_seed("rank profile")
    rng = random.Random(seed)
    seen = Counter()
    with replay_hint(seed):
        for _ in range(1500):
            d1, d2 = rnd_profile_pair(rng)
            floors, escaping = rank_profile_values(d1, d2)
            expected_floors, expected_escaping = reference_rank_profile(d1, d2)
            assert list(floors.items()) == list(expected_floors.items())
            assert Counter(escaping) == Counter(expected_escaping)
            first = min(expected_escaping, default=None)
            assert ordinal.first_inclusion_violation(d1, d2) == first
            assert ordinal.ordinally_included(d1, d2) == (not expected_escaping)
            values = [s.value for _, s in (*d1, *d2)]
            objects = {id(s) for _, s in (*d1, *d2)}
            seen["symbolic"] += d1.chain is LEVELS
            seen["empty"] += not len(d1) or not len(d2)
            seen["covered"] += len(d1.answer_set | d2.answer_set) == d1.scheme.domain_size()
            seen["shared float"] += len({float(v) for v in values}) < len(set(values))
            seen["equal objects"] += len(objects) > len(set(values))
            seen["escaping"] += bool(escaping)
            seen["included"] += not escaping
    assert all(seen[key] for key in ("symbolic", "empty", "covered", "shared float",
                                     "equal objects", "escaping", "included")), seen


# --- compose_table ---------------------------------------------------------------


def rnd_compose_table(rng: random.Random) -> RankedTable:
    scheme = Scheme((("a", INT), ("b", INT)))
    pool = rng.sample(GRID[1:], rng.randint(1, 6))
    if rng.random() < 0.3:
        pool.append(Fraction(1, 3) + TINY)  # shares a float with the grid's 1/3
    rows = {Row.of({"a": a, "b": b}): rng.choice(pool)
            for a in range(rng.randint(0, 4)) for b in range(rng.randint(1, 4))}
    return build(RATIONAL, scheme, rows, rng)


def rnd_declared(rng: random.Random) -> frozenset:
    return frozenset(rng.sample(PROPERTIES, rng.randint(0, 2)))


def rnd_graph_map(rng: random.Random) -> GraphMap:
    """A graph over part of the grid; images in any order, some at bottom."""
    inputs = rng.sample(GRID[1:], rng.randint(10, len(GRID) - 1))
    pairs = {RATIONAL.score(v): RATIONAL.score(rng.choice(GRID)) for v in inputs}
    pairs[RATIONAL.bottom] = RATIONAL.bottom
    if rng.random() < 0.5:
        ordered = sorted(pairs, key=lambda s: s.value)
        images = sorted(pairs.values(), key=lambda s: s.value)
        pairs = dict(zip(ordered, images))
    return GraphMap.of(pairs, declared=rnd_declared(rng))


def rnd_gapped_piecewise(rng: random.Random) -> PiecewiseConstantMap:
    """Pieces over part of the grid, so that some scores fall in a gap."""
    bounds = sorted(rng.sample(GRID, 5))
    pieces = tuple(Piece(RATIONAL.score(lo), RATIONAL.score(hi), RATIONAL.score(rng.choice(GRID)))
                   for lo, hi in zip(bounds[::2], bounds[1::2]))
    return PiecewiseConstantMap(RATIONAL, RATIONAL.bottom, pieces, declared=rnd_declared(rng))


#: ``x/10^7`` is the one that merges distinct scores only when rounding onto the grid.
ANALYTIC = ("x^2", "sqrt(x)", "x/2", "x*0", "1 - x", "x - 1/2", "x + 10^(0-9)", "x/10^7",
            "x <= 1/2 ? sqrt(x)/sqrt(2) : 2*(x-1/2)^2 + 1/2")


def rnd_map(rng: random.Random):
    kind = rng.choice(("identity", "grid", "monotone", "gapped", "graph", "analytic"))
    if kind == "identity":
        return kind, IDENTITY
    if kind == "grid":
        return kind, rnd_grid_isomorphism(rng)
    if kind == "monotone":
        return kind, rnd_monotone_map(rng)
    if kind == "gapped":
        return kind, rnd_gapped_piecewise(rng)
    if kind == "graph":
        return kind, rnd_graph_map(rng)
    return kind, AnalyticMap.parse(rng.choice(ANALYTIC), declared=rnd_declared(rng))


def test_compose_table_matches_the_per_row_reference():
    seed = stable_seed("compose table")
    rng = random.Random(seed)
    seen = Counter()
    with replay_hint(seed):
        for _ in range(1500):
            table = rnd_compose_table(rng)
            kind, f = rnd_map(rng)
            expected = outcome(reference_compose_table, table, f)
            assert outcome(compose_table, table, f) == expected, (kind, f)
            seen[kind] += 1
            seen[expected[1] if expected[0] == "error" else "ok"] += 1
            seen["empty"] += not len(table)
            seen["dropped"] += expected[0] == "ok" and len(expected[1]) < len(table)
        symbolic = RankedTable(Scheme((("a", INT),)), LEVELS,
                               {Row.of({"a": i}): LEVELS.score(1 + i % 4) for i in range(9)})
        levels = [LEVELS.score(i) for i in range(5)]
        for images in ((0, 1, 1, 3, 4), (0, 2, 1, 3, 4), (0, 0, 2, 3, 4), (1, 1, 2, 3, 4)):
            for declared in ((), ("reflecting",)):
                f = GraphMap.of(zip(levels, (levels[i] for i in images)), declared=declared)
                expected = outcome(reference_compose_table, symbolic, f)
                assert outcome(compose_table, symbolic, f) == expected
                seen[f"symbolic {expected[0]}"] += 1
    assert all(seen[key] for key in ("identity", "grid", "monotone", "gapped", "graph",
                                     "analytic", "ok", "empty", "dropped", MapDomainError,
                                     QuantizationError, MapPropertyError,
                                     "symbolic ok", "symbolic error")), seen


# --- sharing: one object per value is a speed-up, never an answer ----------------


def shared(table: RankedTable) -> RankedTable:
    """``table`` with each score swapped for its chain's one object of that value."""
    return RankedTable(table.scheme, table.chain,
                       {row: table.chain.score(s.value) for row, s in table})


def test_answers_do_not_depend_on_sharing():
    seed = stable_seed("sharing")
    rng = random.Random(seed)
    seen = Counter()
    with replay_hint(seed):
        for _ in range(400):
            d1, d2 = rnd_profile_pair(rng)
            floors, escaping = rank_profile_values(d1, d2)
            one_floors, one_escaping = rank_profile_values(shared(d1), shared(d2))
            assert floors == one_floors and Counter(escaping) == Counter(one_escaping)
            table = rnd_compose_table(rng)
            kind, f = rnd_map(rng)
            assert outcome(compose_table, table, f) == outcome(compose_table, shared(table), f)
            scores = [s for _, s in table]
            seen["equal objects"] += len({id(s) for s in scores}) > len(set(scores))
            seen["escaping"] += bool(escaping)
            try:
                images = [f.apply(s) for s in scores]
            except MapDomainError:
                continue
            if f.declared and scores:
                graph = [(s, Score(RATIONAL, image.value)) for s, image in zip(scores, images)]
                one_graph = [(RATIONAL.score(s.value), image) for s, image in zip(scores, images)]
                verdict = outcome(verify_declared, f, graph)
                assert verdict == outcome(verify_declared, f, one_graph)
                seen[verdict[0]] += 1
    assert all(seen[key] for key in ("equal objects", "escaping", "ok", "error")), seen


# --- guard: hashes per distinct score, not per row -------------------------------


def test_kernels_hash_each_distinct_score_not_each_row(monkeypatch):
    scheme = Scheme((("id", INT), ("k", INT)))
    levels = [RATIONAL.score(Fraction(i, 10)) for i in range(1, 11)]
    d1 = RankedTable(scheme, RATIONAL,
                     {Row.of({"id": i, "k": i % 7}): levels[i % 10] for i in range(2000)})
    d2 = RankedTable(scheme, RATIONAL,
                     {Row.of({"id": i, "k": i % 7}): levels[i * 3 % 10] for i in range(2000)})
    graph = GraphMap.of({RATIONAL.bottom: RATIONAL.bottom,
                         **{s: levels[min(i + 1, 9)] for i, s in enumerate(levels)}},
                        declared=("preserving",))
    maps = (graph, rnd_grid_isomorphism(random.Random(3)), AnalyticMap.parse("x^2"), IDENTITY)
    hashes = Counter()

    def counting(cls):
        original = cls.__hash__

        def hash_(self):
            hashes[cls.__name__] += 1
            return original(self)
        monkeypatch.setattr(cls, "__hash__", hash_)

    counting(Score)
    counting(Fraction)
    for pair in ((d1, d2), (d2, d1)):
        hashes.clear()
        ordinal._rank_profile(*pair)
        assert max(hashes.values(), default=0) < 100, hashes
    for f in maps:
        hashes.clear()
        compose_table(d1, f)
        assert max(hashes.values(), default=0) < 100, (f, hashes)


def test_map_application_hashes_no_score(monkeypatch):
    """``maps.apply_checked`` keys the stored scores by ``id``, so composing a
    table or a structure with an analytic, a piecewise or the identity map
    hashes no ``Score``.  Graph maps are left out: ``GraphMap.apply`` looks a
    score up in a ``Score``-keyed dict by design."""
    houses = demo.houses()
    m = structure_from_tables({"houses": houses, "offers": demo.offers()})
    f = demo.demo_map()
    half = RATIONAL.score(Fraction(1, 2))
    steps = PiecewiseConstantMap(RATIONAL, RATIONAL.bottom, (
        Piece(RATIONAL.bottom, half, RATIONAL.score(Fraction(1, 4))),
        Piece(half, RATIONAL.top, RATIONAL.top),
    ), declared=frozenset(("preserving", "fixed-top")))
    maps = (f, steps, IDENTITY)
    expected = [reference_compose_table(houses, g) for g in maps]

    def unhashable(score):
        raise AssertionError(f"{score!r} was hashed")

    monkeypatch.setattr(Score, "__hash__", unhashable)
    composed = [compose_table(houses, g) for g in maps]
    transformed = m.compose(f)
    monkeypatch.undo()
    assert composed == expected
    assert transformed.interps == structure_from_tables(
        {"houses": expected[0], "offers": compose_table(demo.offers(), f)}).interps
