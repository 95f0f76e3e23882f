"""Threshold top-k against the brute-force oracle, plus invariance."""

import random
from fractions import Fraction

import pytest

from helpers import (
    reference_top_k,
    replay_hint,
    rnd_grid_isomorphism,
    rnd_restriction_condition,
    rnd_scheme,
    rnd_table,
    row_value,
    stable_seed,
)

from rankrel import algebra, demo, planner
from rankrel.catalog import Catalog
from rankrel.chain import RATIONAL, ScoreChain
from rankrel.conditions import TableCondition
from rankrel.errors import IncompatibleChainError
from rankrel.maps import compose_table
from rankrel.table import INT, STR, RankedTable, Row, Scheme
from rankrel.topk import SortedSource, TopKError, brute_force_top_k, sources, top_k

fr = RATIONAL.parse

OVERLAPPING = (("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"))


def rnd_sources(rng, count=None):
    count = count or rng.randint(2, 4)
    picks = rng.sample(OVERLAPPING, count)
    return [
        SortedSource.from_table(rnd_table(rng, rnd_scheme(rng, names=names)))
        for names in picks
    ]


class TestExamples:
    def test_demo_top_two(self):
        sources = [
            SortedSource.from_table(demo.houses()),
            SortedSource.from_table(demo.offers()),
        ]
        result = top_k(sources, 2)
        scheme = demo.houses().scheme.union(demo.offers().scheme)
        assert [row_value(scheme, row, "agent") for row, _ in result.items] == ["Adams", "Black"]
        assert all(score == fr("0.937") for _, score in result.items)

    def test_k_at_least_join_size_returns_whole_join_sorted(self):
        sources = [
            SortedSource.from_table(demo.houses()),
            SortedSource.from_table(demo.offers()),
        ]
        result = top_k(sources, 50)
        joined = algebra.natural_join(demo.houses(), demo.offers())
        assert list(result.items) == joined.rows_by_rank()

    def test_k_one_single_source(self):
        source = SortedSource.from_table(demo.offers())
        result = top_k([source], 1)
        row, score = result.items[0]
        assert score == fr("0.997") and row_value(source.table.scheme, row, "price") == 798000

    def test_direct_construction_derives_the_ranked_rows(self):
        rng = random.Random(23)
        for table in [demo.houses(), demo.offers()] + [
                rnd_table(rng, rnd_scheme(rng, names=names)) for names in OVERLAPPING]:
            direct, built = SortedSource(table), SortedSource.from_table(table)
            assert direct.ranked == built.ranked == []  # the rows pulled so far
            for position, pair in enumerate(table.rows_by_rank()):
                assert direct.pull(position) == built.pull(position) == pair
            assert direct.ranked == built.ranked == table.rows_by_rank()
        for pair in ((demo.houses(), demo.offers()), (demo.offers(), demo.houses())):
            direct = [SortedSource(table) for table in pair]
            built = [SortedSource.from_table(table) for table in pair]
            for k in (1, 2, 6, 50):
                assert top_k(direct, k) == top_k(built, k)
                assert brute_force_top_k(direct, k) == brute_force_top_k(built, k)
                assert len(top_k(direct, k).items) == min(k, 6)

    def test_invalid_k(self):
        source = SortedSource.from_table(demo.houses())
        with pytest.raises(TopKError):
            top_k([source], 0)

    def test_empty_source_empty_result(self):
        empty = SortedSource.from_table(RankedTable.empty(Scheme((("a", INT),))))
        assert top_k([empty], 3).items == ()
        assert brute_force_top_k([empty], 3).items == ()

    def test_chain_mismatch(self):
        from rankrel.chain import symbolic_chain

        chain = symbolic_chain("no < yes")
        scheme = Scheme((("a", INT),))
        symbolic = RankedTable.from_entries(scheme, [({"a": 1}, chain.score("yes"))], chain)
        with pytest.raises(IncompatibleChainError):
            top_k(
                [SortedSource.from_table(demo.houses()), SortedSource.from_table(symbolic)],
                1,
            )


class TestOracleAgreement:
    def test_random_instances(self):
        rng = random.Random(83)
        for _ in range(150):
            sources = rnd_sources(rng)
            k = rng.randint(1, 8)
            assert top_k(sources, k).items == brute_force_top_k(sources, k).items

    def test_disjoint_schemes_cross_product(self):
        rng = random.Random(89)
        for _ in range(30):
            sources = [
                SortedSource.from_table(rnd_table(rng, rnd_scheme(rng, names=("a",)))),
                SortedSource.from_table(rnd_table(rng, rnd_scheme(rng, names=("z",)))),
            ]
            k = rng.randint(1, 6)
            assert top_k(sources, k).items == brute_force_top_k(sources, k).items

    def test_tie_heavy_instances(self):
        # Few distinct scores force threshold ties; the cut must still match
        # the oracle's canonical order exactly.
        rng = random.Random(97)
        scheme = Scheme((("a", INT), ("b", INT)))
        for _ in range(60):
            tables = []
            for _ in range(2):
                entries = {}
                for _ in range(rng.randint(1, 10)):
                    row = Row.of({"a": rng.randint(0, 2), "b": rng.randint(0, 2)})
                    entries[row] = fr(rng.choice(("0.25", "0.5", "0.5", "0.75")))
                tables.append(RankedTable(scheme, RATIONAL, entries))
            sources = [SortedSource.from_table(t) for t in tables]
            k = rng.randint(1, 5)
            assert top_k(sources, k).items == brute_force_top_k(sources, k).items


    def test_ties_at_the_kth_score_on_a_three_level_chain(self):
        # With two nonzero levels, most results tie at the k-th score: the
        # heap floor must build those ties, which the canonical order may pick.
        chain = ScoreChain(("no", "mid", "yes"))
        seed = stable_seed("topk-three-level-ties")
        rng = random.Random(seed)
        tied = 0
        with replay_hint(seed):
            for _ in range(150):
                sources = [SortedSource.from_table(
                    rnd_table(rng, rnd_scheme(rng, names=names), chain=chain))
                    for names in (("a", "b"), ("b", "c"), ("c", "d"))]
                k = rng.randint(1, 6)
                joined = brute_force_top_k(sources, k + 1).items
                tied += len(joined) > k and joined[k][1] == joined[k - 1][1]
                assert top_k(sources, k).items == joined[:k]
        assert tied >= 50

    @pytest.mark.parametrize("chain", [RATIONAL, ScoreChain(("no", "low", "mid", "high", "yes"))],
                             ids=["rational", "levels"])
    def test_restricted_sources(self, chain):
        # Restrictions are served lazily from their inputs' access paths; the
        # items are those over the built tables.  Ties may stream in another
        # order than the built tables', so the access counts may differ.
        seed = stable_seed(f"topk-restricted-{chain.levels}")
        rng = random.Random(seed)
        with replay_hint(seed):
            for _ in range(80):
                inputs = [rnd_table(rng, rnd_scheme(rng, names=names), chain=chain)
                          for names in rng.sample(OVERLAPPING, rng.randint(1, 3))]
                thetas = [rnd_restriction_condition(rng, t.scheme, chain)
                          if rng.random() < 0.6 else None for t in inputs]

                def leaves():
                    return [t if theta is None else algebra.restrict(t, theta)
                            for t, theta in zip(inputs, thetas)]

                built = [SortedSource.from_table(RankedTable(t.scheme, t.chain, t.entries()))
                         for t in leaves()]
                k = rng.randint(1, 8)
                items = top_k([SortedSource.from_table(t) for t in leaves()], k).items
                assert items == top_k(built, k).items == brute_force_top_k(built, k).items

    @pytest.mark.parametrize("chain", [RATIONAL, ScoreChain(("no", "low", "mid", "high", "yes"))],
                             ids=["rational", "levels"])
    def test_restricted_sources_tied_at_the_kth_score(self, chain):
        # Three nonzero scores in every table and cap: the restricted sources
        # tie at the k-th score, and their ties need not stream in canonical order.
        # top_k's final sort must still give the oracle's canonical cut.
        levels = [chain.score(Fraction(n, 4) if chain.is_rational else n) for n in (1, 2, 4)]
        seed = stable_seed(f"topk-restricted-ties-{chain.levels}")
        rng = random.Random(seed)
        tied = 0

        def scored(scheme, rows):
            return RankedTable(scheme, chain, {
                Row.of({name: rng.randint(0, 1) for name in scheme.names}): rng.choice(levels)
                for _ in range(rows)})

        with replay_hint(seed):
            for _ in range(100):
                inputs = [scored(rnd_scheme(rng, names=names), rng.randint(1, 12))
                          for names in (("a", "b"), ("b", "c"))]
                thetas = [TableCondition(scored(t.scheme, 8)) for t in inputs]
                built = [SortedSource.from_table(
                    RankedTable(t.scheme, chain, algebra.restrict(t, theta).entries()))
                    for t, theta in zip(inputs, thetas)]
                k = rng.randint(1, 4)
                joined = brute_force_top_k(built, k + 1).items
                tied += len(joined) > k and joined[k][1] == joined[k - 1][1]
                lazy = [SortedSource.from_table(algebra.restrict(t, theta))
                        for t, theta in zip(inputs, thetas)]
                assert top_k(lazy, k).items == top_k(built, k).items == joined[:k]
        assert tied >= 40


    def test_the_walk_reads_what_threshold_pulling_reads(self):
        # reference_top_k pulls whichever source holds the threshold; top_k
        # walks the smallest one.  Items and both access counts must agree on
        # plain chains of 1-4 sources, deferred restrictions on two chains and
        # tie-heavy three-level chains.
        levels = ScoreChain(("no", "low", "mid", "high", "yes"))
        three_level = ScoreChain(("no", "mid", "yes"))
        seed = stable_seed("topk-walk-vs-threshold-pulling")
        rng = random.Random(seed)
        with replay_hint(seed):
            for case in range(2400):
                kind, chain = case % 3, (RATIONAL, levels)[case // 3 % 2]
                if kind == 0:
                    sources = rnd_sources(rng, rng.randint(1, 4))
                elif kind == 1:
                    inputs = [rnd_table(rng, rnd_scheme(rng, names=names), chain=chain)
                              for names in rng.sample(OVERLAPPING, rng.randint(1, 3))]
                    sources = [SortedSource.from_table(
                        algebra.restrict(t, rnd_restriction_condition(rng, t.scheme, chain))
                        if rng.random() < 0.6 else t) for t in inputs]
                else:
                    sources = [SortedSource.from_table(
                        rnd_table(rng, rnd_scheme(rng, names=names), chain=three_level))
                        for names in (("a", "b"), ("b", "c"), ("c", "d"))]
                k = rng.randint(1, 8)
                assert top_k(sources, k) == reference_top_k(sources, k)


class TestInvariance:
    def test_tuple_sequence_survives_transformation(self):
        rng = random.Random(101)
        for _ in range(60):
            sources = rnd_sources(rng)
            f = rnd_grid_isomorphism(rng)
            transformed = [
                SortedSource.from_table(compose_table(s.table, f)) for s in sources
            ]
            k = rng.randint(1, 8)
            plain = [row for row, _ in top_k(sources, k).items]
            mapped = [row for row, _ in top_k(transformed, k).items]
            assert plain == mapped


def test_early_termination_on_clear_gap():
    scheme = Scheme((("x", INT),))
    left = RankedTable.from_entries(
        scheme,
        [({"x": 1}, fr("0.95"))]
        + [({"x": i}, RATIONAL.score(Fraction(1, 10 + i)))
           for i in range(2, 12)],
    )
    right = RankedTable.from_entries(
        scheme,
        [({"x": 1}, fr("0.9"))]
        + [({"x": i}, RATIONAL.score(Fraction(1, 20 + i)))
           for i in range(2, 12)],
    )
    sources = [SortedSource.from_table(left), SortedSource.from_table(right)]
    result = top_k(sources, 1)
    assert result.items[0][1] == fr("0.9")
    total = len(left) + len(right)
    assert result.sorted_accesses < total


def test_tuple_completed_from_two_sources_counts_once():
    # `left` is walked, and each join tuple is built once, from its row of
    # `left`.  Counted twice among the k best, a=1 would fill the heap at 1
    # and stop the walk at a=2, missing a=3 (0.45).
    scheme = Scheme((("a", INT),))
    left = RankedTable.from_entries(
        scheme, [({"a": 1}, fr("1")), ({"a": 2}, fr("0.5")), ({"a": 3}, fr("0.45"))]
    )
    right = RankedTable.from_entries(
        scheme, [({"a": 1}, fr("1")), ({"a": 3}, fr("0.6")), ({"a": 2}, fr("0.2"))]
    )
    sources = [SortedSource.from_table(left), SortedSource.from_table(right)]
    result = top_k(sources, 2)
    assert [(row_value(scheme, row, "a"), score) for row, score in result.items] == [
        (1, fr("1")), (3, fr("0.45"))
    ]
    assert result.items == brute_force_top_k(sources, 2).items


def test_completion_looks_up_keyed_sources_first():
    # From `regions`, the first other source in index order (`houses`)
    # shares no attribute with it.  Completion goes through `offers` first
    # (keyed on agent, 2 matches), then `houses` (keyed on id): 1 + 2 random
    # accesses per regions row.  Index order would cross all 4 houses first
    # and then look up offers 4 times: 1 + 4.
    houses = RankedTable.from_entries(
        Scheme((("id", INT), ("bdrm", INT))),
        [({"id": i, "bdrm": i}, fr(score))
         for i, score in ((1, "0.9"), (2, "0.8"), (3, "0.7"), (4, "0.6"))],
    )
    offers = RankedTable.from_entries(
        Scheme((("id", INT), ("agent", STR))),
        [({"id": i, "agent": agent}, fr(score))
         for i, agent, score in
         ((1, "A", "0.9"), (2, "B", "0.8"), (3, "A", "0.7"), (4, "B", "0.6"))],
    )
    regions = RankedTable.from_entries(
        Scheme((("agent", STR), ("region", STR))),
        [({"agent": "A", "region": "north"}, fr("0.95")),
         ({"agent": "B", "region": "south"}, fr("0.5"))],
    )
    sources = [SortedSource.from_table(t) for t in (houses, offers, regions)]
    result = top_k(sources, 1)
    # regions, the smallest source, is walked: A (0.95) makes 1 + 2 random
    # accesses and the result 0.9.  B (0.5) is read next; it scores below the
    # heap's 0.9, so it is not completed and the walk stops.
    assert result.sorted_accesses == 2
    assert result.random_accesses == 3
    assert result.items == brute_force_top_k(sources, 1).items
    assert result.items[0][1] == fr("0.9")


def test_an_exhausted_source_stops_the_loop():
    # `single`, the smaller source, is walked: its one row is completed by one
    # lookup in `many`, and then the walk finds `single` exhausted.  The
    # join's one tuple is known, and no row of `many` is read in rank order.
    scheme = Scheme((("a", INT),))
    many = RankedTable.from_entries(
        scheme, [({"a": i}, fr(score)) for i, score in ((1, "0.9"), (2, "0.8"), (3, "0.7"))])
    single = RankedTable.from_entries(scheme, [({"a": 1}, fr("0.5"))])
    sources = [SortedSource.from_table(many), SortedSource.from_table(single)]
    result = top_k(sources, 3)
    assert result.sorted_accesses == 1 and result.random_accesses == 1
    assert list(result.items) == algebra.natural_join(many, single).rows_by_rank()
    assert result.items == brute_force_top_k(sources, 3).items


def test_completion_skips_a_match_below_the_kth_best():
    # r (2 rows) is walked; its a=1 row completes to 0.8, filling the heap.
    # Its a=2 row (0.9) matches s's b=2 (0.95) and b=3 (0.1); b=3 is below
    # 0.8, so only b=2 is looked up in t: 1 + 1 random accesses for each r
    # row, where building the b=3 partial too would make 1 + 2.  The heap's
    # 0.9 then does not beat the row just read, 0.9, and r is exhausted.
    r = RankedTable.from_entries(Scheme((("a", INT),)),
                                 [({"a": 1}, fr("1")), ({"a": 2}, fr("0.9"))])
    s = RankedTable.from_entries(
        Scheme((("a", INT), ("b", INT))),
        [({"a": a, "b": b}, fr(score)) for a, b, score in
         ((1, 1, "0.9"), (2, 2, "0.95"), (2, 3, "0.1"))])
    t = RankedTable.from_entries(
        Scheme((("b", INT),)),
        [({"b": b}, fr(score)) for b, score in ((1, "0.8"), (2, "0.9"), (3, "0.9"), (4, "0.05"))])
    sources = [SortedSource.from_table(table) for table in (t, s, r)]
    result = top_k(sources, 1)
    assert result.sorted_accesses == 2
    assert result.random_accesses == 4
    assert result.items == brute_force_top_k(sources, 1).items
    assert result.items[0][1] == fr("0.9")


def test_sources_rank_the_chain_leaves_or_else_the_query_as_written():
    catalog = demo.demo_catalog()
    query = planner.parse_query("restrict(join(houses, offers), theta)")
    leaves = planner.join_chain_leaves(planner.normalize_to_join_chain(query, catalog).expr)
    chain = sources(query, catalog)
    assert len(chain) == 2
    assert [s.table for s in chain] == [planner.evaluate(leaf, catalog) for leaf in leaves]
    # pushed below the join, the restriction would divide by zero on house 2,
    # which no offer joins
    catalog = Catalog()
    catalog.tables["offers"] = RankedTable.from_entries(
        Scheme((("id", INT), ("price", INT))), [({"id": 1, "price": 100}, fr("0.5"))])
    catalog.tables["houses"] = RankedTable.from_entries(
        Scheme((("id", INT), ("bdrm", INT))),
        [({"id": 1, "bdrm": 3}, fr("1")), ({"id": 2, "bdrm": 2}, fr("1"))])
    query = planner.parse_query("restrict(join(offers, houses), 1/(bdrm-2))")
    (written,) = sources(query, catalog)
    assert written.table == planner.evaluate(query, catalog)


def test_rank_order_exact_below_float_resolution():
    x = Fraction(1, 3)
    y = x + Fraction(1, 10**30)
    assert float(x) == float(y) and x < y
    table = RankedTable.from_entries(
        Scheme((("a", INT),)), [({"a": 1}, RATIONAL.score(x)), ({"a": 2}, RATIONAL.score(y))]
    )
    assert [row_value(table.scheme, row, "a") for row, _ in table.rows_by_rank()] == [2, 1]
    result = top_k([SortedSource.from_table(table)], 2)
    assert [row_value(table.scheme, row, "a") for row, _ in result.items] == [2, 1]
