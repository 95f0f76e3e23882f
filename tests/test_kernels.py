"""The per-call gather plans against the per-row forms they replace.

Every operator that builds rows through a plan (join, project, rename,
semijoin, divide, the rank sort, CSV write and read) is checked on seeded
random table pairs against the oracles in ``helpers``: equal tables,
identical order, byte-identical CSV.  A guard test then makes the per-row
forms raise and runs the operators on 2,000-row tables.  Every producer that
builds its result without the per-row check is checked against the
validating constructor, on both carriers.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import (
    ANY_ARITIES,
    reference_divide,
    reference_natural_join,
    reference_product_join,
    reference_project,
    reference_rank_order,
    reference_read_table_csv,
    reference_rename,
    reference_semijoin,
    reference_write_table_csv,
    replay_hint,
    rnd_any_structure,
    rnd_formula,
    rnd_grid_isomorphism,
    rnd_monotone_map,
    rnd_scheme,
    rnd_table,
    stable_seed,
)

import rankrel
from rankrel import algebra, calculus, planner, table as table_module, topk
from rankrel.chain import RATIONAL, ScoreChain
from rankrel.conditions import TableCondition
from rankrel.errors import EvalError, IncompatibleChainError, RankrelError, SchemeError
from rankrel.maps import GraphMap, compose_table
from rankrel.table import (
    DEC,
    INT,
    STR,
    RankedTable,
    Row,
    Scheme,
    rank_sorted,
    read_table_csv,
    write_table_csv,
)

TINY = Fraction(1, 10**30)

#: Scores with heavy ties, including distinct values that share a float.
SCORES = (Fraction(1, 3), Fraction(1, 3) + TINY, Fraction(1, 3) - TINY, Fraction(1, 2),
          Fraction(1, 2) + TINY, Fraction(1), Fraction(1, 7), Fraction(3, 4), Fraction(1, 10))

VALUES = {
    "str": ("x", "y", "", "a,b", 'q"t'),
    "int": (-1, 0, 1, 2),
    "dec": (Fraction(1, 3), Fraction(1, 3) + TINY, Fraction(-2), Fraction(5, 2)),
}

NAMES = ("a", "b", "c", "d", "e", "f")


def rnd_kinds(rng: random.Random) -> dict:
    return {name: rng.choice((STR, INT, DEC)) for name in NAMES}


def rnd_scheme_on(rng: random.Random, names, kinds: dict) -> Scheme:
    names = list(names)
    rng.shuffle(names)  # declaration order differs from name order
    return Scheme((name, kinds[name]) for name in names)


def rnd_table_on(rng: random.Random, scheme: Scheme, max_rows: int = 14) -> RankedTable:
    scores = rng.sample(SCORES, rng.randint(1, 3))  # few levels: heavy ties
    entries = {}
    for _ in range(rng.randint(0, max_rows)):
        row = Row.of({a.name: rng.choice(VALUES[a.atype.kind]) for a in scheme.attrs})
        entries[row] = RATIONAL.score(rng.choice(scores))
    return RankedTable(scheme, RATIONAL, entries)


def rnd_pair(rng: random.Random):
    """Two tables whose schemes are equal, overlapping, disjoint or nested."""
    kinds = rnd_kinds(rng)
    shape = rng.choice(("equal", "shared", "disjoint", "nested"))
    first = rng.sample(NAMES, rng.randint(1, 3))
    rest = [n for n in NAMES if n not in first]
    if shape == "equal":
        second = list(first)
    elif shape == "shared":
        second = rng.sample(first, rng.randint(1, len(first))) + rng.sample(rest, rng.randint(1, 2))
    elif shape == "disjoint":
        second = rng.sample(rest, rng.randint(1, 2))
    else:
        second = rng.sample(first, rng.randint(0, len(first)))
    s1, s2 = rnd_scheme_on(rng, first, kinds), rnd_scheme_on(rng, second, kinds)
    return shape, rnd_table_on(rng, s1), rnd_table_on(rng, s2)


def rnd_rename(rng: random.Random, scheme: Scheme) -> dict:
    """Rename some attributes, onto fresh names or by permuting existing ones."""
    olds = rng.sample(scheme.names, rng.randint(0, len(scheme)))
    if rng.random() < 0.5:
        news = list(olds)
        rng.shuffle(news)
    else:
        news = [f"z{name}" for name in olds]
    return {old.upper() if rng.random() < 0.3 else old: new for old, new in zip(olds, news)}


def assert_same(actual: RankedTable, expected: RankedTable) -> None:
    assert actual == expected
    assert actual.rows_by_rank() == reference_rank_order(expected)


class TestAgainstPerRowForms:
    def test_random_pairs(self):
        seed = stable_seed("gather plans")
        rng = random.Random(seed)
        shapes = Counter()
        float_ties = 0
        with replay_hint(seed):
            for _ in range(300):
                shape, d1, d2 = rnd_pair(rng)
                shapes[shape] += 1
                joined = algebra.natural_join(d1, d2)
                assert_same(joined, reference_natural_join(d1, d2))
                assert_same(algebra.product_join(d1, d2), reference_product_join(d1, d2))
                assert_same(algebra.semijoin(d1, d2), reference_semijoin(d1, d2))
                for d in (d1, d2, joined):
                    keep = rng.sample(d.scheme.names, rng.randint(0, len(d.scheme)))
                    assert_same(algebra.project(d, keep), reference_project(d, keep))
                    mapping = rnd_rename(rng, d.scheme)
                    assert_same(algebra.rename(d, mapping), reference_rename(d, mapping))
                    self.check_order_and_csv(rng, d)
                    values = {score.value for _, score in d}
                    float_ties += len(values) > len({float(v) for v in values})
                if shape == "disjoint":
                    mediator = rnd_table_on(rng, joined.scheme, max_rows=30)
                    assert_same(algebra.divide(d1, mediator, d2),
                                reference_divide(d1, mediator, d2))
                    self.check_top_k(rng, d1, d2)
                elif shape == "shared":
                    self.check_top_k(rng, d1, d2)
        assert min(shapes.values()) >= 50
        assert float_ties >= 50  # exact values sharing a float were sorted often

    @staticmethod
    def check_order_and_csv(rng: random.Random, d: RankedTable) -> None:
        expected = reference_rank_order(d)
        assert d.rows_by_rank() == expected
        shuffled = list(d)
        rng.shuffle(shuffled)
        assert rank_sorted(shuffled) == expected
        text = write_table_csv(d)
        assert text == reference_write_table_csv(d)
        assert read_table_csv(text) == reference_read_table_csv(text) == d
        assert write_table_csv(read_table_csv(text)) == text

    @staticmethod
    def check_top_k(rng: random.Random, d1: RankedTable, d2: RankedTable) -> None:
        expected = reference_rank_order(reference_natural_join(d1, d2))
        if not expected:
            return
        k = rng.randint(1, len(expected))
        sources = [topk.SortedSource.from_table(d) for d in (d1, d2)]
        assert list(topk.top_k(sources, k).items) == expected[:k]


def test_symbolic_chain_csv_round_trip():
    chain = ScoreChain(("none", "low", "mid", "high"))
    rng = random.Random(stable_seed("gather plans, symbolic"))
    scheme = Scheme((("b", INT), ("a", STR)))
    entries = {
        Row.of({"a": rng.choice(VALUES["str"]), "b": rng.choice(VALUES["int"])}):
            chain.score(rng.randint(1, 3))
        for _ in range(15)
    }
    d = RankedTable(scheme, chain, entries)
    text = write_table_csv(d)
    assert text == reference_write_table_csv(d)
    assert read_table_csv(text, chain) == reference_read_table_csv(text, chain) == d


# --- the per-row forms are not on the operators' paths -------------------------------


def big_tables(rows: int = 2000):
    rng = random.Random(stable_seed("guard tables"))
    houses = Scheme((("id", INT), ("bdrm", INT), ("w", DEC)))
    offers = Scheme((("id", INT), ("agent", STR)))
    levels = [RATIONAL.score(Fraction(i, 40)) for i in range(1, 41)]
    left = {
        Row.of({"id": i, "bdrm": rng.randint(1, 8), "w": Fraction(rng.randint(1, 9), 4)}):
            rng.choice(levels)
        for i in range(rows)
    }
    right = {Row.of({"id": i, "agent": f"agent{i % 12}"}): rng.choice(levels)
             for i in range(rows)}
    return RankedTable(houses, RATIONAL, left), RankedTable(offers, RATIONAL, right)


def test_operators_never_build_rows_row_by_row(monkeypatch):
    d1, d2 = big_tables()
    expected_join = reference_natural_join(d1, d2)
    expected_csv = reference_write_table_csv(expected_join)
    distinct_texts = {line.split(",", 1)[0] for line in expected_csv.splitlines()[1:]}

    def refuse(*args, **kwargs):
        raise AssertionError("per-row form called")

    monkeypatch.setattr(Row, "of", classmethod(refuse))
    for module in (table_module, rankrel):  # the per-row oracles live in the tests only
        assert not hasattr(module, "join_rows") and not hasattr(module, "rank_key")
    parsed = Counter()
    read = ScoreChain._read

    def counting_read(chain, text):
        parsed[text] += 1
        return read(chain, text)

    monkeypatch.setattr(ScoreChain, "_read", counting_read)

    joined = algebra.natural_join(d1, d2)
    projected = algebra.project(joined, ["agent", "bdrm"])
    renamed = algebra.rename(joined, {"agent": "who"})
    ranked = joined.rows_by_rank()
    text = write_table_csv(joined)
    reread = read_table_csv(text, ScoreChain())  # a new chain, which has read no text
    assert set(parsed) == distinct_texts and set(parsed.values()) == {1}

    monkeypatch.undo()
    assert joined == expected_join and len(joined) == len(d1)
    assert projected == reference_project(expected_join, ["agent", "bdrm"])
    assert renamed == reference_rename(expected_join, {"agent": "who"})
    assert ranked == reference_rank_order(expected_join)
    assert text == expected_csv and reread == expected_join


def named_cell(text: str, old: str, message: str):
    """A case whose message now names its line (and cell); its id keeps the older message."""
    return pytest.param(text, message, id=f"{text}-{old}")


@pytest.mark.parametrize("text, message", [
    named_cell("#,a:int\n0.5,1\nnope,2\n", "cannot parse rational score from 'nope'",
               "line 3: cannot parse rational score from 'nope'"),
    ("#,a:int\n0.5,1\n0,2\n", "line 3: rows with score 0 are not stored; omit the row"),
    ("#,a:int\n0.5,1\n0.5,1\n", "line 3: duplicate tuple Row(a=1)"),
    named_cell("#,a:int,b:dec\n0.5,x,1/0\n", "cannot parse 'x' as int",
               "line 2: cannot parse 'x' as int (attribute a)"),
    named_cell("#,a:int,b:dec\n0.5,1,1/0\n", "cannot parse '1/0' as dec",
               "line 2: cannot parse '1/0' as dec (attribute b)"),
    ("#,a:int\n0.5,1,2\n", "line 2: expected 2 cells, got 3"),
])
def test_read_errors_unchanged(text, message):
    with pytest.raises(RankrelError) as err:
        read_table_csv(text)
    assert str(err.value) == message


def test_conflicting_shared_types_fail_as_in_the_join():
    ints = RankedTable.from_entries(Scheme((("a", INT),)), [({"a": 1}, Fraction(1, 2))])
    decs = RankedTable.from_entries(Scheme((("a", DEC),)), [({"a": 1}, Fraction(1, 2))])
    for operator in (algebra.natural_join, algebra.semijoin, algebra.product_join):
        with pytest.raises(SchemeError, match="attribute 'a' has conflicting types"):
            operator(ints, decs)


# --- results built without the per-row check --------------------------------------

LEVELS = ScoreChain(("none", "low", "mid", "high", "full"))


def revalidated(table: RankedTable) -> RankedTable:
    """The same entries through the validating constructor, which checks every row."""
    return RankedTable(table.scheme, table.chain, table.entries())


def rnd_level_map(rng: random.Random) -> GraphMap:
    """A random monotone map of the symbolic levels fixing bottom."""
    images = sorted(rng.randrange(len(LEVELS.levels)) for _ in LEVELS.levels[1:])
    return GraphMap.of({LEVELS.score(0): LEVELS.bottom,
                        **{LEVELS.score(i + 1): LEVELS.score(v) for i, v in enumerate(images)}})


def trusted_results(rng: random.Random, chain: ScoreChain):
    """(producer, result) for every producer that builds its result unchecked."""
    names = rng.sample(("a", "b", "c", "d"), rng.randint(1, 3))
    scheme = rnd_scheme(rng, names)
    d1, d2, d3 = (rnd_table(rng, scheme, chain=chain) for _ in range(3))
    other = rnd_table(rng, rnd_scheme(rng, max_attrs=3), chain=chain)
    if other.scheme.name_set & scheme.name_set:
        yield "natural_join", algebra.natural_join(d1, other)
        yield "semijoin", algebra.semijoin(d1, other)
        if chain.is_rational:
            yield "product_join", algebra.product_join(d1, other)
    yield "restrict", algebra.restrict(d1, TableCondition(rnd_table(rng, scheme, chain=chain)))
    yield "project", algebra.project(d1, rng.sample(names, rng.randint(0, len(names))))
    yield "union_tables", algebra.union_tables(d1, d2)
    yield "difference", algebra.difference(d1, d2)
    yield "intersection", algebra.intersection(d1, d2)
    yield "residuum_tables", algebra.residuum_tables(d3, d1, d2)
    yield "rename", algebra.rename(d1, {name: f"z{name}" for name in names[:1]})
    divisor = rnd_table(rng, rnd_scheme(rng, ["e"]), chain=chain)
    mediator = rnd_table(rng, scheme.union(divisor.scheme), max_rows=30, chain=chain)
    yield "divide", algebra.divide(d1, mediator, divisor)
    order_map = (rng.choice((rnd_grid_isomorphism, rnd_monotone_map)) if chain.is_rational
                 else rnd_level_map)(rng)
    yield "compose_table", compose_table(d1, order_map)
    yield "read_table_csv", read_table_csv(write_table_csv(d1), chain)
    m = rnd_any_structure(rng, chain)
    phi = rnd_formula(rng, depth=2, arities=ANY_ARITIES)
    yield "table_of", calculus.table_of(m, phi)
    expr, tables = calculus.formula_to_algebra(phi, m)
    for name, table in tables.items():
        if name.startswith("__atom_"):
            yield "_atom_table", table
    yield "formula_to_algebra", planner.evaluate_over(expr, tables)


class TestTrustedResults:
    def test_every_producer_passes_the_validating_constructor(self):
        seed = stable_seed("trusted results")
        rng = random.Random(seed)
        produced = Counter()
        with replay_hint(seed):
            for _ in range(300):
                chain = rng.choice((RATIONAL, LEVELS))
                for producer, result in trusted_results(rng, chain):
                    assert result == revalidated(result), producer
                    produced[producer, chain.is_rational] += 1
        assert {producer for producer, _ in produced} == {
            "natural_join", "semijoin", "product_join", "restrict", "project", "union_tables",
            "difference", "intersection", "residuum_tables", "rename", "divide",
            "compose_table", "read_table_csv", "table_of", "_atom_table",
            "formula_to_algebra",
        }
        assert all(count >= 20 for count in produced.values())

    def test_formula_to_algebra_leaves_stored_bottoms_out(self):
        m = calculus.Structure(LEVELS, ("m1", "m2"), {"p": 1},
                               {"p": {("m1",): LEVELS.bottom, ("m2",): LEVELS.top}})
        phi = calculus.parse_formula("p(x)")
        expr, tables = calculus.formula_to_algebra(phi, m)
        assert planner.evaluate_over(expr, tables) == calculus.table_of(m, phi)

    def test_compose_table_refuses_images_off_the_chain(self):
        half = RATIONAL.score(Fraction(1, 2))
        d = RankedTable.from_entries(Scheme((("a", INT),)), [({"a": 1}, half)])
        off_chain = GraphMap.of({RATIONAL.bottom: RATIONAL.bottom, half: LEVELS.top})
        with pytest.raises(IncompatibleChainError):
            compose_table(d, off_chain)

    @pytest.mark.parametrize("universe, interps", [
        (("m1", 2), {}),
        (("m1",), {"p": {(2,): RATIONAL.top}}),
    ])
    def test_structures_hold_strings_only(self, universe, interps):
        with pytest.raises(EvalError, match="string"):
            calculus.Structure(RATIONAL, universe, {"p": 1}, interps)

    def test_structure_vectors_hold_universe_elements_only(self):
        with pytest.raises(EvalError, match="'p' hold 'm2', outside the universe"):
            calculus.Structure(RATIONAL, ("m1",), {"p": 1}, {"p": {("m2",): RATIONAL.top}})

    def test_public_lookups_still_check_rows(self):
        d1, d2 = big_tables(rows=20)
        joined = algebra.natural_join(d1, d2)
        row, score = next(iter(joined))
        values = dict(row.items)
        bad = [
            Row.of({**values, "id": True}),  # bool for int
            Row.of({**values, "id": "1"}),  # wrong kind
            Row.of({**values, "w": 1}),  # int for dec
            Row.of({name: value for name, value in values.items() if name != "agent"}),
            Row.of({**values, "zz": 1}),
        ]
        for table in (joined, algebra.project(joined, joined.scheme.names),
                      read_table_csv(write_table_csv(joined))):
            assert table.score_of(row) == score
            for wrong in bad:
                with pytest.raises(SchemeError, match="does not conform"):
                    table.score_of(wrong)
                with pytest.raises(SchemeError, match="does not conform"):
                    RankedTable(table.scheme, table.chain, {wrong: score})
