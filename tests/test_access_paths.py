"""Each table builds its rank order and key indexes once, and warm paths change no result."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from helpers import (
    reference_condition_score,
    reference_natural_join,
    reference_product_join,
    reference_semijoin,
    replay_hint,
    rnd_restriction_condition,
    rnd_scheme,
    rnd_table,
    row_value,
    stable_seed,
    value_meet,
)

from rankrel import algebra, demo, planner, table as table_module, topk
from rankrel.catalog import Catalog
from rankrel.chain import RATIONAL, ScoreChain
from rankrel.conditions import ExprCondition
from rankrel.table import INT, STR, RankedTable, Scheme, rank_sorted
from rankrel.topk import SortedSource, brute_force_top_k, top_k

LEVELS = ScoreChain(("none", "low", "mid", "high", "full"))


def fresh(t: RankedTable) -> RankedTable:
    """An equal table rebuilt from its entries, with no access path built."""
    return RankedTable(t.scheme, t.chain, t.entries())


def in_order(t: RankedTable, pairs) -> RankedTable:
    """An equal table whose table order is ``pairs``' order."""
    return RankedTable(t.scheme, t.chain, dict(pairs))


@pytest.fixture
def counting(monkeypatch):
    """Count calls of a ``rankrel.table`` function, as ``counting(name) -> calls``."""

    def install(name: str) -> list:
        calls = []
        original = getattr(table_module, name)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(table_module, name, counted)
        return calls

    return install


class TestBuiltOncePerTable:
    def test_two_sources_over_one_table_sort_it_once(self, counting):
        t = demo.offers()
        expected = fresh(t).rows_by_rank()
        sorts = counting("rank_sorted")
        first, second = SortedSource.from_table(t), SortedSource.from_table(t)
        assert sorts == []  # a source sorts its table at its first pull
        assert pull_all(first) == pull_all(second) == expected
        assert len(sorts) == 1
        assert first.ranked == second.ranked == expected

    def test_joins_index_t_once_and_a_semijoin_neither_side(self):
        rng = random.Random(stable_seed("index-once"))
        t = rnd_table(rng, rnd_scheme(rng, names=("a", "b")), max_rows=9)
        x = rnd_table(rng, rnd_scheme(rng, names=("a", "c")), max_rows=9)
        y = rnd_table(rng, rnd_scheme(rng, names=("a", "d")), max_rows=9)
        joins = [algebra.natural_join(x, t)]
        index = t._indexes[("a",)]
        joins.append(algebra.natural_join(x, t))
        semi = algebra.semijoin(y, t)
        assert semi == reference_semijoin(y, fresh(t))  # built before the indexes are pinned
        assert joins[0] == joins[1] == reference_natural_join(x, fresh(t))
        assert list(t._indexes) == [("a",)] and t._indexes[("a",)] is index
        assert x._indexes == y._indexes == semi._indexes == {}

    def test_a_returned_rank_order_is_the_callers_own(self):
        t = demo.houses()
        expected = fresh(t).rows_by_rank()
        ranked = t.rows_by_rank()
        ranked.reverse()
        ranked.pop()
        source = SortedSource.from_table(t)
        assert pull_all(source) == expected
        source.ranked.clear()
        assert t.rows_by_rank() == expected
        assert pull_all(SortedSource.from_table(t)) == expected

    @pytest.mark.parametrize("clone", [
        lambda t: pickle.loads(pickle.dumps(t)), copy.copy, copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_copies_of_a_warm_table_start_without_access_paths(self, clone):
        t = demo.offers()
        t.rows_by_rank()
        t.index(("id",))
        copied = clone(t)
        assert copied == t
        assert copied._ranked is None and copied._indexes == {}
        assert copied.rows_by_rank() == t.rows_by_rank()


def keyed_table(rng, names: tuple[str, ...], size: int) -> RankedTable:
    """``size`` rows on int attributes ``names``: the first counts the rows, the rest take 0-3."""
    return RankedTable.from_entries(Scheme((name, INT) for name in names), [
        ({names[0]: i, **{name: rng.randint(0, 3) for name in names[1:]}},
         Fraction(rng.randint(1, 8), 8)) for i in range(size)])


class TestOnlyTheWalkedSourceIsRead:
    def test_building_sources_sorts_nothing_and_top_k_sorts_the_walked_table(self, counting):
        rng = random.Random(stable_seed("walked-sort"))
        tables = [keyed_table(rng, ("a", "b"), 30), keyed_table(rng, ("b", "c"), 20),
                  keyed_table(rng, ("c", "d"), 10)]  # the last is the smallest, so walked
        expected = brute_force_top_k([SortedSource.from_table(fresh(t)) for t in tables], 10)
        sorts = counting("rank_sorted")
        sources = [SortedSource.from_table(t) for t in tables]
        assert sorts == []
        assert top_k(sources, 10).items == expected.items
        assert len(sorts) == 1
        assert [t._ranked is not None for t in tables] == [False, False, True]
        assert [len(source.ranked) for source in sources[:2]] == [0, 0]

    @pytest.mark.parametrize("operator", ["restrict", "semijoin"])
    def test_a_deferred_table_looked_up_is_built_once_at_its_first_lookup(
            self, operator, monkeypatch):
        rng = random.Random(stable_seed(f"looked-up-{operator}"))
        big, small = keyed_table(rng, ("a", "b"), 40), keyed_table(rng, ("b", "c"), 6)
        right = keyed_table(rng, ("a", "d"), 30)
        theta = ExprCondition.parse("a < 30 ? b/4 + 1/4 : 0")

        def deferred() -> RankedTable:  # 30 of big's 40 rows, each capped
            if operator == "restrict":
                return algebra.restrict(big, theta)
            return algebra.semijoin(big, right)

        eager = fresh(deferred())
        builds = []
        build = RankedTable.__getattr__  # reached only to build a deferred table's entries

        def counted(self, name):
            builds.append(self)
            return build(self, name)

        monkeypatch.setattr(RankedTable, "__getattr__", counted)
        table = deferred()
        sources = [SortedSource.from_table(table), SortedSource.from_table(small)]
        assert len(table) == 30 > len(small)  # so the walk starts from small
        result = top_k(sources, 10)
        assert result.random_accesses > 1 and len(result.items) == 10
        assert [built is table for built in builds] == [True]
        assert table.index(("b",)) == eager.index(("b",))
        assert len(builds) == 1
        oracle = brute_force_top_k([SortedSource.from_table(t) for t in (eager, small)], 10)
        assert result.items == oracle.items


class TestWarmCachesChangeNothing:
    """Cold, then twice warm, on the same table objects, against fresh copies."""

    CHAINS = {"rational": RATIONAL, "levels": LEVELS}

    @pytest.mark.parametrize("chain_name", sorted(CHAINS))
    def test_top_k_and_joins_on_reused_tables(self, chain_name):
        chain = self.CHAINS[chain_name]
        seed = stable_seed(f"warm-access-paths-{chain_name}")
        rng = random.Random(seed)
        with replay_hint(seed):
            for _ in range(40):
                self._one_instance(rng, chain)

    def _one_instance(self, rng, chain):
        def table(names):
            return rnd_table(rng, rnd_scheme(rng, names=names), max_rows=9, chain=chain)

        # t is joined on {a} by x and on {b} by y: two indexes on one table.
        t, x, y, z = table(("a", "b")), table(("a", "c")), table(("b", "d")), table(("c", "d"))
        chains = [[t, x], [x, t, y], [t, x, y, z]]
        for _ in range(3):
            for tables in chains:
                fresh_sources = [SortedSource.from_table(fresh(s)) for s in tables]
                for k in (1, 10, 100):
                    result = top_k([SortedSource.from_table(s) for s in tables], k)
                    assert result.items == brute_force_top_k(fresh_sources, k).items
                    # Buckets in rank order, as a table listed by rank has them,
                    # or reversed: the access counts do not depend on bucket order.
                    for order in (lambda s: s.rows_by_rank(), lambda s: s.rows_by_rank()[::-1]):
                        ordered = [SortedSource.from_table(in_order(s, order(s))) for s in tables]
                        assert top_k(ordered, k) == result
            for left in (x, y):
                assert algebra.natural_join(left, t) == reference_natural_join(left, fresh(t))
                assert algebra.semijoin(left, t) == reference_semijoin(left, fresh(t))
                if chain.is_rational:
                    assert algebra.product_join(left, t) == reference_product_join(left, fresh(t))
        assert sorted(t._indexes) == [("a",), ("b",)]


class TestDeferredSemijoin:
    """A semijoin caps its left side as a restriction does, and reads as the eager semijoin.

    The right side shares a three-value key with the left, or shares no
    attribute, or has the left's own scheme.
    """

    CHAINS = {"rational": RATIONAL, "levels": LEVELS}
    RIGHT_NAMES = (("b", "c"), ("c", "d"), ("a", "b"))

    @pytest.mark.parametrize("chain_name", sorted(CHAINS))
    def test_lazy_access_equals_the_built_table(self, chain_name):
        chain = self.CHAINS[chain_name]
        seed = stable_seed(f"deferred-semijoin-{chain_name}")
        rng = random.Random(seed)
        with replay_hint(seed):
            for _ in range(150):
                self._one_instance(rng, chain)

    def _one_instance(self, rng, chain):
        def table(names, max_rows):
            return rnd_table(rng, rnd_scheme(rng, names=names), max_rows=max_rows, chain=chain)

        t = table(("a", "b"), 14)
        right = table(rng.choice(self.RIGHT_NAMES), 9)
        other = table(rng.choice((("a", "c"), ("b",))), 9)
        if rng.random() < 0.5:  # the input's table order need not be its rank order
            t = in_order(t, rng.sample(list(t), len(t)))
        eager = fresh(algebra.semijoin(t, right))
        assert eager == reference_semijoin(t, right)

        source = SortedSource.from_table(algebra.semijoin(t, right))
        assert source.ranked == []
        streamed = pull_all(source)
        assert rank_sorted(streamed) == eager.rows_by_rank()  # the same pairs
        assert all(a[1].key >= b[1].key for a, b in zip(streamed, streamed[1:]))
        assert not is_built(source.table)
        assert source.table._ranked is None and source.table._indexes == {}

        for names in ((), ("a",), ("b",), ("a", "b")):
            assert algebra.semijoin(t, right).index(names) == eager.index(names)

        for k in (1, 3, 100):
            lazy = [SortedSource.from_table(algebra.semijoin(t, right)),
                    SortedSource.from_table(other)]
            built = [SortedSource.from_table(eager), SortedSource.from_table(other)]
            # ties may stream in another order, so only the items must agree
            items = top_k(lazy, k).items
            assert items == top_k(built, k).items == brute_force_top_k(built, k).items
            # walked, the deferred table is not built; else it is, at its first lookup
            walked = len(lazy[0].table) <= len(other)
            assert is_built(lazy[0].table) == (not walked and len(other) > 0)

        deferred = algebra.semijoin(t, right)
        assert len(deferred) == len(eager)  # counted from t's kept index
        assert not is_built(deferred) and deferred._indexes == {}
        assert deferred == eager and eager == algebra.semijoin(t, right)
        assert pickle.loads(pickle.dumps(algebra.semijoin(t, right))) == eager
        assert len(deferred) == len(eager) and dict(deferred) == eager.entries()
        assert algebra.semijoin(t, right).rows_by_rank() == eager.rows_by_rank()

    def test_top_k_over_a_catalog_semijoin_builds_nothing(self):
        rng = random.Random(stable_seed("catalog-semijoin"))
        agents = [f"agent{i}" for i in range(12)]
        catalog = Catalog()
        catalog.tables["offers"] = RankedTable.from_entries(
            Scheme((("id", INT), ("agent", STR), ("price", INT))),
            [({"id": i, "agent": rng.choice(agents), "price": i},
              Fraction(rng.randint(1, 400), 400)) for i in range(300)])
        catalog.tables["agents"] = RankedTable.from_entries(  # 3 of 12 agents unlisted
            Scheme((("agent", STR), ("region", STR))),
            [({"agent": agent, "region": rng.choice("NS")}, Fraction(rng.randint(1, 4), 4))
             for agent in agents[:9]])
        query = planner.parse_query("semijoin(offers, agents)")
        for k in (1, 10, 100):
            sources = topk.sources(query, catalog)
            assert len(sources) == 1
            result = top_k(sources, k)
            semi = sources[0].table
            assert not is_built(semi)
            assert semi._ranked is None and semi._indexes == {}
            assert result.items == tuple(planner.evaluate(query, catalog).rows_by_rank()[:k])


def is_built(t: RankedTable) -> bool:
    """Whether ``t`` holds its entries, read from the slot without building them."""
    try:
        RankedTable.__dict__["_entries"].__get__(t, RankedTable)
    except AttributeError:
        return False
    return True


def pull_all(source: SortedSource) -> list:
    pairs = []
    while (pair := source.pull(len(pairs))) is not None:
        pairs.append(pair)
    return pairs


class TestDeferredRestriction:
    """A restriction builds nothing for top-k, and reads as the eager restriction.

    Its sorted access streams the eager restriction's pairs by non-increasing
    score; ties need not come in canonical order.
    """

    CHAINS = {"rational": RATIONAL, "levels": LEVELS}

    @pytest.mark.parametrize("chain_name", sorted(CHAINS))
    def test_lazy_access_equals_the_built_table(self, chain_name):
        chain = self.CHAINS[chain_name]
        seed = stable_seed(f"deferred-restriction-{chain_name}")
        rng = random.Random(seed)
        with replay_hint(seed):
            for _ in range(150):
                self._one_instance(rng, chain)

    def _one_instance(self, rng, chain):
        t = rnd_table(rng, rnd_scheme(rng, names=("a", "b")), max_rows=14, chain=chain)
        other = rnd_table(rng, rnd_scheme(rng, names=rng.choice((("a", "c"), ("b",)))),
                          max_rows=9, chain=chain)
        theta = rnd_restriction_condition(rng, t.scheme, chain)
        if rng.random() < 0.5:  # the input's table order need not be its rank order
            t = in_order(t, rng.sample(list(t), len(t)))
        eager = fresh(algebra.restrict(t, theta))
        expected = {row: value for row, score in t if not (
            value := value_meet(score, reference_condition_score(theta, row, chain))).is_bottom}
        assert eager == RankedTable(t.scheme, chain, expected)

        source = SortedSource.from_table(algebra.restrict(t, theta))
        assert source.ranked == []
        streamed = pull_all(source)
        assert rank_sorted(streamed) == eager.rows_by_rank()  # the same pairs
        assert all(a[1].key >= b[1].key for a, b in zip(streamed, streamed[1:]))
        assert not is_built(source.table)
        assert source.table._ranked is None and source.table._indexes == {}

        for names in ((), ("a",), ("b",), ("a", "b")):
            assert algebra.restrict(t, theta).index(names) == eager.index(names)

        for k in (1, 3, 100):
            lazy = [SortedSource.from_table(algebra.restrict(t, theta)),
                    SortedSource.from_table(other)]
            built = [SortedSource.from_table(eager), SortedSource.from_table(other)]
            # ties may stream in another order, so only the items must agree
            items = top_k(lazy, k).items
            assert items == top_k(built, k).items == brute_force_top_k(built, k).items
            # walked, the deferred table is not built; else it is, at its first lookup
            walked = len(lazy[0].table) <= len(other)
            assert is_built(lazy[0].table) == (not walked and len(other) > 0)

        deferred = algebra.restrict(t, theta)
        assert len(deferred) == len(eager)  # counted from t's kept index
        assert not is_built(deferred) and deferred._indexes == {}
        assert deferred == eager and eager == algebra.restrict(t, theta)
        assert pickle.loads(pickle.dumps(algebra.restrict(t, theta))) == eager
        assert len(deferred) == len(eager) and dict(deferred) == eager.entries()
        assert algebra.restrict(t, theta).rows_by_rank() == eager.rows_by_rank()

    def test_top_k_over_a_catalog_restriction_builds_nothing_and_scores_once_per_tuple(
            self, counting, monkeypatch):
        rng = random.Random(stable_seed("catalog-restriction"))
        scheme = Scheme((("id", INT), ("bdrm", INT)))
        catalog = Catalog()
        catalog.tables["houses"] = RankedTable.from_entries(scheme, [
            ({"id": i, "bdrm": rng.randint(1, 7)}, Fraction(rng.randint(1, 400), 400))
            for i in range(300)])
        catalog.tables["offers"] = RankedTable.from_entries(
            Scheme((("id", INT), ("price", INT))),
            [({"id": i, "price": i}, Fraction(rng.randint(1, 400), 400)) for i in range(300)])
        catalog.conditions["theta"] = demo.bedrooms_condition()
        distinct = len({row_value(scheme, row, "bdrm") for row, _ in catalog.tables["houses"]})
        scored = []
        compiled = ExprCondition._compiled

        def counted(self, chain):
            score = compiled(self, chain)
            return lambda env: scored.append(env) or score(env)

        monkeypatch.setattr(ExprCondition, "_compiled", counted)
        query = planner.parse_query("restrict(join(houses, offers), theta)")
        leaves = planner.join_chain_leaves(planner.normalize_to_join_chain(query, catalog).expr)
        sorts = counting("rank_sorted")
        for warm in (False, True):  # then with the catalog tables' paths kept
            scored.clear()
            del sorts[:]
            sources = [SortedSource.from_table(planner.evaluate(leaf, catalog))
                       for leaf in leaves]
            result = top_k(sources, 10)
            restricted = sources[0].table
            assert not is_built(restricted)
            assert restricted._ranked is None and restricted._indexes == {}
            assert len(scored) == distinct  # one theta call per distinct bdrm
            assert len(sources[0].ranked) < 150  # of 300 houses
            sorted_rows = sorted(len(args[0]) for args in sorts)
            # cold, the walked restriction sorts its input; offers is only looked up
            assert sorted_rows == ([] if warm else [300])
            built = [SortedSource.from_table(fresh(planner.evaluate(leaf, catalog)))
                     for leaf in leaves]
            assert result == top_k(built, 10)
