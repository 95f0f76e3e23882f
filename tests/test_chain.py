"""Score chain connectives: unit values, algebraic laws, Boolean degeneration."""

import copy
import importlib.util
import operator
import pickle
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import rankrel.cli  # noqa: F401 - the tracer patches every rankrel module it names
from rankrel import calculus, ordinal
from rankrel.chain import (
    RATIONAL,
    Score,
    ScoreChain,
    abjunction,
    biresiduum,
    exact_decimal_str,
    fixed_decimal_str,
    join_sup,
    meet,
    negation,
    residuum,
    symbolic_chain,
)
from rankrel.conditions import TableCondition
from rankrel.errors import ChainError, IncompatibleChainError
from rankrel.table import INT, RankedTable, Row, Scheme


def fr(text):
    return RATIONAL.parse(text)


rationals = st.fractions(min_value=0, max_value=1).map(RATIONAL.score)


class TestBounds:
    @pytest.mark.parametrize("chain, middle", [
        (RATIONAL, Fraction(1, 2)), (symbolic_chain("none < low < full"), "low"),
    ])
    def test_bottom_and_top_flags(self, chain, middle):
        assert chain.bottom.is_bottom and not chain.bottom.is_top
        assert chain.top.is_top and not chain.top.is_bottom
        score = chain.score(middle)
        assert not score.is_bottom and not score.is_top


class TestUnitValues:
    def test_meet_picks_smaller(self):
        assert meet(fr("0.937"), fr("0.997")) == fr("0.937")
        assert meet(fr("0.3"), fr("0.9")) == fr("0.3")

    def test_meet_top_neutral(self):
        assert meet(fr("0.42"), RATIONAL.top) == fr("0.42")

    def test_join_picks_larger(self):
        assert join_sup(fr("0.3"), fr("0.9")) == fr("0.9")
        assert join_sup(fr("0.708"), fr("0.708")) == fr("0.708")

    def test_join_bottom_neutral(self):
        assert join_sup(fr("0.42"), RATIONAL.bottom) == fr("0.42")

    def test_residuum_cases(self):
        assert residuum(fr("0.3"), fr("0.9")) == RATIONAL.top
        assert residuum(fr("0.939"), fr("0.937")) == fr("0.937")
        assert residuum(RATIONAL.top, RATIONAL.bottom) == RATIONAL.bottom

    def test_abjunction_cases(self):
        assert abjunction(fr("0.5"), fr("0.5")) == RATIONAL.bottom
        assert abjunction(fr("0.9"), fr("0.3")) == fr("0.9")
        assert abjunction(RATIONAL.top, RATIONAL.bottom) == RATIONAL.top

    def test_negation(self):
        assert negation(RATIONAL.bottom) == RATIONAL.top
        assert negation(fr("0.5")) == RATIONAL.bottom
        assert negation(RATIONAL.top) == RATIONAL.bottom

    def test_biresiduum(self):
        assert biresiduum(fr("0.7"), fr("0.7")) == RATIONAL.top
        assert biresiduum(fr("0.2"), fr("0.7")) == fr("0.2")
        assert biresiduum(RATIONAL.bottom, RATIONAL.top) == RATIONAL.bottom


class TestLaws:
    @given(rationals, rationals, rationals)
    def test_adjointness(self, a, b, c):
        assert (meet(a, b) <= c) == (a <= residuum(b, c))

    @given(rationals, rationals, rationals)
    def test_dual_adjointness(self, a, b, c):
        assert (abjunction(a, b) <= c) == (a <= join_sup(b, c))

    @given(rationals, rationals, rationals)
    def test_residuum_identities(self, a, b, c):
        assert residuum(a, a) == RATIONAL.top
        assert meet(a, residuum(a, b)) == meet(a, b)
        assert meet(residuum(a, b), b) == b
        assert residuum(a, meet(b, c)) == meet(residuum(a, b), residuum(a, c))

    @given(rationals, rationals)
    def test_prelinearity(self, a, b):
        assert join_sup(residuum(a, b), residuum(b, a)) == RATIONAL.top

    @given(rationals, rationals, rationals)
    def test_meet_join_lattice(self, a, b, c):
        assert meet(a, b) == meet(b, a)
        assert join_sup(a, join_sup(b, c)) == join_sup(join_sup(a, b), c)
        assert meet(a, join_sup(a, b)) == a
        assert join_sup(a, meet(a, b)) == a


def test_boolean_degeneration():
    zero, one = RATIONAL.bottom, RATIONAL.top
    table = [(zero, zero), (zero, one), (one, zero), (one, one)]
    for a, b in table:
        x, y = a.is_top, b.is_top
        assert meet(a, b).is_top == (x and y)
        assert join_sup(a, b).is_top == (x or y)
        assert residuum(a, b).is_top == ((not x) or y)
        assert abjunction(a, b).is_top == (x and not y)
        assert biresiduum(a, b).is_top == (x == y)
    assert negation(zero) == one and negation(one) == zero


class TestSymbolicChain:
    def test_order_and_bounds(self):
        chain = symbolic_chain("none < low < high < full")
        assert chain.bottom == chain.score("none")
        assert chain.top == chain.score("full")
        assert chain.score("low") < chain.score("high")

    def test_connectives_match_rational_behaviour(self):
        chain = symbolic_chain("no < half < yes")
        half, yes = chain.score("half"), chain.score("yes")
        assert meet(half, yes) == half
        assert residuum(yes, half) == half
        assert residuum(half, yes) == chain.top
        assert abjunction(yes, half) == yes

    def test_mixed_chains_rejected(self):
        chain = symbolic_chain("no < yes")
        with pytest.raises(IncompatibleChainError):
            meet(chain.score("no"), RATIONAL.top)
        with pytest.raises(IncompatibleChainError):
            RATIONAL.top <= chain.score("yes")

    def test_equal_scores_on_different_chains_are_unequal(self):
        assert symbolic_chain("no < yes").score("no") != RATIONAL.bottom

    def test_unknown_level(self):
        with pytest.raises(ChainError):
            symbolic_chain("no < yes").score("maybe")

    def test_duplicate_levels_rejected(self):
        with pytest.raises(ChainError):
            symbolic_chain("no < no")


def _tracer():
    """A fresh ``perfbench`` tracer: it counts each ``Score.__lt__`` or ``__le__`` call
    as ``chain.score_cmp``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


class TestReflectedOrder:
    """``>`` and ``>=`` are Python's reflections of ``Score.__lt__`` and ``__le__``."""

    CHAINS = [(RATIONAL, ("0", "1/3", "0.5", "1")),
              (symbolic_chain("none < low < full"), ("none", "low", "full"))]

    @pytest.mark.parametrize("chain, texts", CHAINS, ids=["rational", "levels"])
    def test_answers_follow_the_values(self, chain, texts):
        assert "__gt__" not in vars(Score) and "__ge__" not in vars(Score)
        scores = [chain.parse(text) for text in texts]
        for a in scores:
            for b in scores:
                assert (a > b) == (a.value > b.value) and (a >= b) == (a.value >= b.value)
        assert max(scores) == max(reversed(scores)) == chain.top
        with pytest.raises(TypeError):
            scores[0] > 0  # neither side orders a score against a number

    @pytest.mark.parametrize("compare", [operator.gt, operator.ge])
    def test_mixed_chains_raise(self, compare):
        symbolic = symbolic_chain("no < yes").score("yes")
        # the reflected call checks the right operand's chain first
        message = f"score on {RATIONAL} used with chain {symbolic.chain}"
        with pytest.raises(IncompatibleChainError, match=re.escape(message)):
            compare(RATIONAL.top, symbolic)

    def test_each_comparison_is_one_counted_call(self):
        a, b = fr("0.25"), fr("0.5")
        tracer = _tracer()
        tracer.install()
        try:
            answers = [a > b, a >= b, b > a, b >= a, a >= a]
            best = max([a, b, fr("1"), fr("0")])  # three comparisons
        finally:
            tracer.uninstall()
        assert answers == [False, False, True, True, True] and best == RATIONAL.top
        assert tracer.counts["chain.score_cmp"] == 5 + 3


class TestParsingAndFormat:
    def test_parse_exact_decimal(self):
        assert fr("0.937").value == Fraction(937, 1000)

    def test_parse_fraction_text(self):
        assert RATIONAL.parse("1/3").value == Fraction(1, 3)

    def test_out_of_bounds(self):
        with pytest.raises(ChainError):
            RATIONAL.parse("1.5")
        with pytest.raises(ChainError):
            RATIONAL.score(Fraction(-1, 2))

    def test_fixed_display(self):
        assert RATIONAL.format(fr("0.9375")) == "0.938"
        assert RATIONAL.format(RATIONAL.top) == "1.000"

    def test_exact_display_roundtrips(self):
        for text in ("0.937", "1", "0", "0.648"):
            assert RATIONAL.parse(RATIONAL.format(fr(text), places=None)) == fr(text)
        assert exact_decimal_str(Fraction(1, 3)) == "1/3"
        assert fixed_decimal_str(Fraction(7, 10), 3) == "0.700"


class TestOneScorePerValue:
    """A chain keeps one ``Score`` per value and per parsed text, and copies none of them."""

    @pytest.mark.parametrize("chain, texts, raws", [
        (ScoreChain(), ("0.5", " 0.50", "1/2", "0.500"), (Fraction(1, 2), Fraction(2, 4))),
        (ScoreChain(("no", "low", "yes")), ("low", " low\t"), ("low", 1)),
    ], ids=["rational", "symbolic"])
    def test_every_chain_route_to_one_value_gives_one_object(self, chain, texts, raws):
        routes = [*map(chain.parse, texts), *map(chain.score, raws)]
        assert len({id(s) for s in routes}) == 1
        assert chain.parse("0" if chain.is_rational else "no") is chain.bottom
        assert chain.score(1 if chain.is_rational else "yes") is chain.top
        assert Score(chain, routes[0].value) == routes[0]
        assert Score(chain, routes[0].value) is not routes[0]

    @pytest.mark.parametrize("text", ["abc", "1.5", "", "0.5x"])
    def test_a_text_that_fails_is_not_kept(self, text):
        chain = ScoreChain()
        with pytest.raises(ChainError) as first:
            chain.parse(text)
        with pytest.raises(ChainError) as again:
            chain.parse(text)
        assert str(first.value) == str(again.value) and chain._memo == {}

    def test_copies_are_equal_chains_with_an_empty_memo(self):
        chain = symbolic_chain("no < low < yes")
        table = RankedTable(Scheme((("a", INT),)), chain,
                            {Row.of({"a": 1}): chain.parse("low"), Row.of({"a": 2}): chain.top})
        for copier in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            other = copier(chain)
            assert other == chain and hash(other) == hash(chain) and other._memo == {}
            assert other.parse("low") == chain.parse("low")
            assert copier(table) == table and copier(chain.top) == chain.top
        assert list(chain._memo) == [1, "low", 2]  # each level once, each parsed text once
        for chain in (RATIONAL, ScoreChain()):
            assert pickle.loads(pickle.dumps(chain))._memo == {}


def _structure_with(score):
    return calculus.Structure(RATIONAL, ("1",), {"s": 1}, {"s": {("1",): score}})


#: Every place that meets a rational table and a symbolic one, with its message.
MIXED_CHAIN_SITES = [
    ("ordinal comparison needs one shared chain",
     lambda rational, symbolic: ordinal.ordinally_included(rational, symbolic)),
    ("structure tables must share one chain",
     lambda rational, symbolic: calculus.structure_from_tables({"r": rational, "s": symbolic})),
    ("is off the structure's chain",
     lambda rational, symbolic: _structure_with(symbolic.score_of(Row.of({"v": 1})))),
    ("condition table lives on a different chain",
     lambda rational, symbolic: TableCondition(symbolic).score_of(Row.of({"v": 1}),
                                                                  rational.chain)),
]


@pytest.mark.parametrize("message, mix", MIXED_CHAIN_SITES, ids=[m for m, _ in MIXED_CHAIN_SITES])
def test_mixing_two_chains_raises_incompatible_chain_error(message, mix):
    scheme = Scheme((("v", INT),))
    rational = RankedTable.from_entries(scheme, [({"v": 1}, Fraction(1, 2))])
    symbolic = RankedTable.from_entries(scheme, [({"v": 1}, "high")],
                                        symbolic_chain("none < low < high"))
    with pytest.raises(IncompatibleChainError, match=message):
        mix(rational, symbolic)
