import math
import re

import numpy as np
import pytest

from esarb import (
    InstrumentQuote,
    MarketSnapshot,
    Portfolio,
    ScenarioSet,
    TradableLeg,
    expand_quotes,
    payoff_distribution,
    price,
)
from esarb.market import _require_draws

from conftest import random_market


TWO_POINTS = ScenarioSet([90.0, 110.0], [0.5, 0.5])


# ---------------------------------------------------------------- draw counts


@pytest.mark.parametrize("n", [1, 2**63 - 1, np.int8(1), np.int64(2**63 - 1), np.uint64(2**63 - 1)],
                         ids=repr)
def test_draw_count_accepts_integers_up_to_2_63(n):
    _require_draws(n)


@pytest.mark.parametrize("n, message", [
    (0, "n must be >= 1"),
    (-5, "n must be >= 1"),
    (np.int64(-1), "n must be >= 1"),
    (2**63, "n must be <= 2**63 - 1"),
    (np.uint64(2**63), "n must be <= 2**63 - 1"),
    (10**30, "n must be <= 2**63 - 1"),
    (True, "n must be an integer, not bool"),
    (np.bool_(True), "n must be an integer, not bool"),
    (3e6, "n must be an integer, not float"),
    (np.float64(2.0), "n must be an integer, not float64"),
    ("5", "n must be an integer, not str"),
], ids=repr)
def test_draw_count_rejects_the_rest(n, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _require_draws(n)


def test_draw_count_names_its_argument_and_floor():
    _require_draws(2, "n_draws", least=2)
    with pytest.raises(ValueError, match=r"^n_draws must be >= 2$"):
        _require_draws(1, "n_draws", least=2)


# ---------------------------------------------------------------- ScenarioSet


def test_scenario_set_basic():
    s = ScenarioSet([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
    assert s.points.shape == (3,)
    assert s.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_scenario_set_rejects_bad_weights():
    with pytest.raises(ValueError):
        ScenarioSet([0.0, 1.0], [0.5, 0.6])
    with pytest.raises(ValueError):
        ScenarioSet([0.0, 1.0], [-0.1, 1.1])


def test_scenario_set_rejects_unordered_points():
    with pytest.raises(ValueError):
        ScenarioSet([1.0, 0.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        ScenarioSet([0.0, 0.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        ScenarioSet([0.0, math.inf], [0.5, 0.5])


def test_scenario_set_weight_tolerance_is_tight():
    # off by 1e-10 must be rejected, off by < 1e-12 accepted
    with pytest.raises(ValueError):
        ScenarioSet([0.0, 1.0], [0.5, 0.5 + 1e-10])
    ScenarioSet([0.0, 1.0], [0.5, 0.5 + 1e-13])


def test_from_draws_merges_duplicates():
    s = ScenarioSet.from_draws(np.array([1.0, 0.0, 1.0, 2.0]))
    assert np.allclose(s.points, [0.0, 1.0, 2.0])
    assert np.allclose(s.weights, [0.25, 0.5, 0.25])


def test_scenario_set_immutable():
    s = ScenarioSet([0.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        s.points[0] = 5.0


# ------------------------------------------------------------ InstrumentQuote


def test_quote_validation():
    InstrumentQuote("call", 100.0, 4.0, 5.0)
    with pytest.raises(ValueError):
        InstrumentQuote("call", 100.0, 5.0, 4.0)  # ask < bid
    with pytest.raises(ValueError):
        InstrumentQuote("call", 100.0, -1.0, 5.0)  # negative bid
    with pytest.raises(ValueError):
        InstrumentQuote("call", -100.0, 4.0, 5.0)  # bad strike
    with pytest.raises(ValueError):
        InstrumentQuote("call", None, 4.0, 5.0)  # option needs strike
    with pytest.raises(ValueError):
        InstrumentQuote("bond", 100.0, 0.9, 1.0)  # bond must not carry one
    with pytest.raises(ValueError):
        InstrumentQuote("swap", None, 0.9, 1.0)  # unknown kind


def test_quote_payoffs():
    pts = np.array([90.0, 110.0])
    assert np.allclose(InstrumentQuote("call", 100.0, 4.0, 5.0).payoff(pts), [0.0, 10.0])
    assert np.allclose(InstrumentQuote("put", 100.0, 2.0, 3.0).payoff(pts), [10.0, 0.0])
    assert np.allclose(InstrumentQuote("bond", None, 0.9, 1.0).payoff(pts), [1.0, 1.0])
    assert np.allclose(InstrumentQuote("underlying", None, 99.0, 101.0).payoff(pts), pts)


# -------------------------------------------------------------- expand_quotes


def test_expand_call_both_sides():
    legs = expand_quotes([InstrumentQuote("call", 100.0, 4.0, 5.0)], TWO_POINTS, 100.0, 0.0, 1.0)
    by_label = {leg.label: leg for leg in legs}
    long = by_label["long call K=100"]
    short = by_label["short call K=100"]
    assert long.price == 5.0 and np.allclose(long.payoff, [0.0, 10.0])
    assert short.price == -4.0 and np.allclose(short.payoff, [0.0, -10.0])


def test_expand_put_long_leg():
    legs = expand_quotes([InstrumentQuote("put", 100.0, 2.0, 3.0)], TWO_POINTS, 100.0, 0.0, 1.0)
    long = next(leg for leg in legs if leg.label.startswith("long put"))
    assert long.price == 3.0 and np.allclose(long.payoff, [10.0, 0.0])


def test_expand_explicit_bond_zero_rate():
    legs = expand_quotes([InstrumentQuote("bond", None, 1.0, 1.0)], TWO_POINTS, 100.0, 0.0, 1.0)
    prices = sorted(leg.price for leg in legs)
    assert prices == [-1.0, 1.0]
    payoffs = {leg.price: leg.payoff for leg in legs}
    assert np.allclose(payoffs[1.0], [1.0, 1.0])
    assert np.allclose(payoffs[-1.0], [-1.0, -1.0])


def test_expand_synthesizes_bond_when_absent():
    legs = expand_quotes(
        [InstrumentQuote("call", 100.0, 4.0, 5.0)], TWO_POINTS, 100.0, 0.05, 2.0
    )
    bond_legs = [leg for leg in legs if "bond" in leg.label]
    assert len(bond_legs) == 2
    disc = math.exp(-0.05 * 2.0)
    assert sorted(leg.price for leg in bond_legs) == pytest.approx([-disc, disc])


def test_expand_zero_bid_has_no_short_leg():
    legs = expand_quotes([InstrumentQuote("call", 100.0, 0.0, 5.0)], TWO_POINTS, 100.0, 0.0, 1.0)
    assert not any(leg.label == "short call K=100" for leg in legs)
    assert any(leg.label == "long call K=100" for leg in legs)


def test_expand_infinite_ask_has_no_long_leg():
    legs = expand_quotes(
        [InstrumentQuote("call", 100.0, 4.0, math.inf)], TWO_POINTS, 100.0, 0.0, 1.0
    )
    assert not any(leg.label == "long call K=100" for leg in legs)
    assert any(leg.label == "short call K=100" for leg in legs)


def test_expand_empty_chain_rejected():
    with pytest.raises(ValueError, match="no instruments"):
        expand_quotes([], TWO_POINTS, 100.0, 0.0, 1.0)


# ----------------------------------------------------- snapshot and portfolio


def test_snapshot_requires_matching_legs():
    with pytest.raises(ValueError):
        MarketSnapshot(TWO_POINTS, (), spot=100.0)
    with pytest.raises(ValueError):
        MarketSnapshot(TWO_POINTS, (TradableLeg("x", 1.0, np.zeros(3)),), spot=100.0)


def test_snapshot_rejects_unusable_upper_bound():
    # HiGHS reads a bound >= 1e20 as infinite: this gift market's LPs would be unbounded
    scen = ScenarioSet([0.0, 1.0, 2.0], [0.25, 0.5, 0.25])
    gift = (TradableLeg("gift", 0.0, np.array([0.5, 1.0, 2.0])),)
    for bound in (math.inf, 1e300, 1e20, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="upper_bound"):
            MarketSnapshot(scen, gift, spot=1.0, upper_bound=bound)
    assert MarketSnapshot(scen, gift, spot=1.0, upper_bound=1e19).upper_bound == 1e19


@pytest.mark.parametrize("name", ["spot", "rate", "maturity"])
def test_snapshot_rejects_non_finite_scalars(name):
    # arbitrage_epsilon scales with the spot: with spot NaN it read NaN, and
    # detect called the README quick-start market free of arbitrage at a
    # least ES of -0.03
    scen = ScenarioSet([0.0, 1.0], [0.5, 0.5])
    legs = (TradableLeg("x", 1.0, np.array([0.5, 2.0])),)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            MarketSnapshot(scen, legs, **{name: value})


def test_portfolio_box():
    Portfolio([0.0, 1.0])
    with pytest.raises(ValueError):
        Portfolio([-0.1, 0.5])
    with pytest.raises(ValueError):
        Portfolio([0.5, 1.5])
    Portfolio([0.5, 1.5], upper_bound=2.0)
    for bad in ([math.nan], [0.5, math.nan]):
        with pytest.raises(ValueError, match="quantities must be finite"):
            Portfolio(bad)
    with pytest.raises(ValueError, match="quantities must be finite"):
        Portfolio([math.inf], upper_bound=math.inf)
    for bound in (math.nan, 0.0, -1.0):  # a NaN bound would let any quantity through
        with pytest.raises(ValueError, match="upper_bound must be > 0"):
            Portfolio([5.0], upper_bound=bound)


def test_price_examples():
    legs = (
        TradableLeg("long", 5.0, np.array([0.0, 10.0])),
        TradableLeg("short", -4.0, np.array([0.0, -10.0])),
    )
    m = MarketSnapshot(TWO_POINTS, legs, spot=100.0)
    assert price(m, Portfolio([0.0, 0.0])) == 0.0
    assert price(m, Portfolio([1.0, 0.0])) == 5.0
    assert price(m, Portfolio([0.5, 0.5])) == pytest.approx(0.5)


def test_price_dimension_mismatch():
    m = MarketSnapshot(TWO_POINTS, (TradableLeg("a", 1.0, np.zeros(2)),), spot=1.0)
    with pytest.raises(ValueError):
        price(m, Portfolio([1.0, 0.0]))


def test_payoff_distribution_examples():
    legs = (
        TradableLeg("long", 5.0, np.array([0.0, 10.0])),
        TradableLeg("short", -4.0, np.array([0.0, -10.0])),
    )
    m = MarketSnapshot(TWO_POINTS, legs, spot=100.0)
    assert np.allclose(payoff_distribution(m, Portfolio([0.0, 0.0])).values, 0.0)
    assert np.allclose(payoff_distribution(m, Portfolio([1.0, 0.0])).values, [0.0, 10.0])
    cancel = payoff_distribution(m, Portfolio([0.7, 0.7]))
    assert np.allclose(cancel.values, 0.0)
    assert np.allclose(cancel.weights, TWO_POINTS.weights)


def test_pricing_homogeneous_and_additive(rng):
    for _ in range(20):
        m = random_market(rng, upper_bound=10.0)
        q1 = rng.uniform(0.0, 3.0, m.n_legs)
        q2 = rng.uniform(0.0, 3.0, m.n_legs)
        lam = float(rng.uniform(0.0, 2.0))
        p1 = price(m, Portfolio(q1, upper_bound=10.0))
        p2 = price(m, Portfolio(q2, upper_bound=10.0))
        scale = 1.0 + abs(p1) + abs(p2)
        assert price(m, Portfolio(lam * q1, upper_bound=10.0)) == pytest.approx(lam * p1, abs=1e-12 * scale)
        assert price(m, Portfolio(q1 + q2, upper_bound=10.0)) == pytest.approx(p1 + p2, abs=1e-12 * scale)


def test_payoff_distribution_linear(rng):
    m = random_market(rng, upper_bound=10.0)
    q1 = rng.uniform(0.0, 3.0, m.n_legs)
    q2 = rng.uniform(0.0, 3.0, m.n_legs)
    v1 = payoff_distribution(m, Portfolio(q1, upper_bound=10.0)).values
    v2 = payoff_distribution(m, Portfolio(q2, upper_bound=10.0)).values
    v12 = payoff_distribution(m, Portfolio(q1 + q2, upper_bound=10.0)).values
    assert np.allclose(v12, v1 + v2, atol=1e-12)


def test_buy_then_sell_never_profits(rng):
    # ask >= bid: long price + short price >= 0 for every expanded quote
    for _ in range(10):
        bid = float(rng.uniform(0.0, 5.0))
        ask = bid + float(rng.uniform(0.0, 2.0))
        legs = expand_quotes(
            [InstrumentQuote("call", 100.0, bid, ask)], TWO_POINTS, 100.0, 0.0, 1.0
        )
        by_side = {leg.label.split()[0]: leg.price for leg in legs if "call" in leg.label}
        if "short" in by_side:
            assert by_side["long"] + by_side["short"] >= 0.0
