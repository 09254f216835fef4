"""Utility specs, scaling scans along arbitrage rays, capped suprema."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from esarb import (
    MarketSnapshot,
    Portfolio,
    ScenarioSet,
    TradableLeg,
    WeightedSample,
)
from esarb.detector import detect
from esarb.utility import (
    UtilitySpec,
    _slsqp,
    classic_constraint_sup,
    expected_utility,
    scaling_scan,
)

from conftest import random_market, run_with_one_blas_thread

LL = UtilitySpec.limited_liability()
RM2 = UtilitySpec.risk_manager_power(2.0)


def markowitz_like_market(n=4000, seed=51, mu=1.3, sigma=0.1):
    """Gaussian asset plus a short-cash financing leg. The asset is
    mispriced enough to flag at moderate p, but some draws always fall
    below the funding cost, so there is no true arbitrage in-sample."""
    rng = np.random.default_rng(seed)
    draws = mu + sigma * rng.standard_normal(n)
    scen = ScenarioSet(np.sort(draws), np.full(n, 1.0 / n))
    legs = (
        TradableLeg("asset", 1.0, scen.points.copy()),
        TradableLeg("short cash", -1.0, -np.ones(n)),
    )
    return MarketSnapshot(scen, legs, spot=1.0)


def weight_zero_market(with_zero_row=True):
    """A leg priced 1 and a short cash leg priced -1, on two scenarios of
    weight 0.5 and, optionally, a third of weight 0 where the leg pays
    -1e200: squared, that loss overflows to inf, and 0 * inf is NaN."""
    points, weights, pay = [0.0, 1.0, 2.0], [0.5, 0.5, 0.0], [0.5, 1.6, -1e200]
    if not with_zero_row:
        points, weights, pay = points[:2], weights[:2], pay[:2]
    legs = (
        TradableLeg("a", 1.0, np.array(pay)),
        TradableLeg("cash", -1.0, -np.ones(len(points))),
    )
    return MarketSnapshot(ScenarioSet(points, weights), legs, spot=1.0)


class TestUtilitySpec:
    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="unknown utility kind"):
            UtilitySpec("logarithmic")
        with pytest.raises(ValueError, match="C1"):
            UtilitySpec.s_shaped_power(0.0, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="C2"):
            UtilitySpec.s_shaped_power(1.0, -0.1, 1.0, 0.5)
        for a1, a2 in [(1.1, 0.5), (0.5, 0.5), (0.5, 0.7), (1.0, 0.0)]:
            with pytest.raises(ValueError, match="a2 < a1"):
                UtilitySpec.s_shaped_power(1.0, 1.0, a1, a2)
        with pytest.raises(ValueError, match="eta"):
            UtilitySpec.risk_manager_power(1.0)
        # non-finite parameters: NaN utilities, or inf passing eta > 1
        for c1, c2 in [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan), (1.0, math.inf)]:
            with pytest.raises(ValueError, match="finite C"):
                UtilitySpec.s_shaped_power(c1, c2, 1.0, 0.5)
        for a1, a2 in [(math.nan, 0.5), (1.0, math.nan)]:
            with pytest.raises(ValueError, match="a2 < a1"):
                UtilitySpec.s_shaped_power(1.0, 1.0, a1, a2)
        for eta in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite eta"):
                UtilitySpec.risk_manager_power(eta)

    def test_evaluate_shapes(self):
        x = np.array([-2.0, 0.0, 3.0])
        assert np.array_equal(LL.evaluate(x), [0.0, 0.0, 3.0])
        assert np.array_equal(RM2.evaluate(x), [-4.0, 0.0, 0.0])
        s = UtilitySpec.s_shaped_power(2.0, 3.0, 1.0, 0.5)
        assert np.allclose(s.evaluate(x), [-3.0 * math.sqrt(2.0), 0.0, 6.0])

    def test_labels_distinct(self):
        specs = [LL, RM2, UtilitySpec.s_shaped_power(1.0, 1.0, 0.9, 0.5)]
        assert len({s.label for s in specs}) == 3


class TestExpectedUtility:
    def test_limited_liability_example(self):
        sample = WeightedSample([-5.0, 3.0], [0.5, 0.5])
        assert expected_utility(sample, LL) == 1.5

    def test_s_shaped_example(self):
        sample = WeightedSample([-4.0, 4.0], [0.5, 0.5])
        spec = UtilitySpec.s_shaped_power(1.0, 1.0, 1.0, 0.5)
        assert expected_utility(sample, spec) == pytest.approx(1.0, abs=1e-14)

    def test_risk_manager_example(self):
        sample = WeightedSample([-3.0], [1.0])
        assert expected_utility(sample, RM2) == -9.0

    def test_limited_liability_positively_homogeneous(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=40)
        w = np.full(40, 0.025)
        base = expected_utility(WeightedSample(x, w), LL)
        for lam in (0.0, 0.5, 3.0, 1e6):
            scaled = expected_utility(WeightedSample(lam * x, w), LL)
            assert scaled == pytest.approx(lam * base, rel=1e-15, abs=0.0)

    def test_pure_gain_power_scaling(self):
        spec = UtilitySpec.s_shaped_power(1.5, 0.0, 0.7, 0.3)
        rng = np.random.default_rng(9)
        x = rng.normal(size=30)
        w = np.full(30, 1.0 / 30)
        base = expected_utility(WeightedSample(x, w), spec)
        for lam in (0.25, 2.0, 100.0):
            scaled = expected_utility(WeightedSample(lam * x, w), spec)
            assert scaled == pytest.approx(lam**0.7 * base, rel=1e-12)

    def test_weight_zero_scenarios_are_left_out(self):
        # the -1e200 loss has weight 0, but it squares to inf, and 0 * inf
        # would turn the risk manager's expectation into NaN
        for spec in (LL, RM2, UtilitySpec.s_shaped_power(1.0, 2.0, 0.9, 0.5)):
            for values in ([0.5, 1.6], [-0.5, 1.6]):
                full = WeightedSample(values + [-1e200], [0.5, 0.5, 0.0])
                kept = WeightedSample(values, [0.5, 0.5])
                assert expected_utility(full, spec) == expected_utility(kept, spec)
        assert expected_utility(WeightedSample([-0.5, 1.6, -1e200], [0.5, 0.5, 0.0]), RM2) == -0.125

    def test_worst_case_dominance(self):
        # x+ >= u(x)/C1 - const for every shipped spec: the limited
        # liability trader is the hardest to discipline. The constant
        # absorbs the x^a1 > x hump on (0, 1).
        rng = np.random.default_rng(10)
        x = rng.normal(scale=5.0, size=200)
        const = 1.0
        for spec in (UtilitySpec.s_shaped_power(2.0, 1.0, 0.8, 0.4), RM2):
            c1 = spec.c1 if spec.kind == "s_shaped_power" else 1.0
            assert np.all(LL.evaluate(x) >= spec.evaluate(x) / c1 - const)


class TestScalingScan:
    def scan_setup(self, p=0.3):
        market = markowitz_like_market()
        result = detect(market, p)
        assert result.arbitrage
        n = market.n_legs
        base = Portfolio(np.full(n, 0.01))
        return market, base, result.portfolio

    def test_lambda_zero_reproduces_base(self):
        market, base, _ = self.scan_setup()
        specs = [LL, RM2]
        rows = scaling_scan(market, base, base, [0.0], specs, 0.3)
        payoff = market.payoff_matrix() @ base.quantities
        sample = WeightedSample(payoff, market.scenarios.weights)
        for row, spec in zip(rows, specs):
            assert row.lam == 0.0
            assert row.expected_utility == pytest.approx(
                expected_utility(sample, spec), rel=1e-14)

    def test_trader_utility_diverges_along_ray(self):
        market, base, ray = self.scan_setup()
        lams = [1.0, 10.0, 1e2, 1e3, 1e4]
        rows = scaling_scan(market, base, ray, lams, [LL], 0.3)
        vals = [r.expected_utility for r in rows]
        assert vals[-1] > vals[-2] > vals[-3]
        assert vals[-1] > 10.0 * vals[0] > 0.0

    def test_risk_manager_ruled_out_along_ray(self):
        market, base, ray = self.scan_setup()
        lams = [1.0, 10.0, 1e2, 1e3, 1e4]
        rows = scaling_scan(market, base, ray, lams, [RM2], 0.3)
        vals = [r.expected_utility for r in rows]
        assert vals[-1] < vals[-2] < vals[-3]
        assert vals[-1] < -10.0 * abs(vals[0])

    def test_price_and_es_nonincreasing_along_ray(self):
        market, base, ray = self.scan_setup()
        lams = [0.0, 1.0, 10.0, 1e2, 1e3]
        rows = scaling_scan(market, base, ray, lams, [LL], 0.3)
        prices = [r.price for r in rows]
        risks = [r.es_p for r in rows]
        assert all(b <= a + 1e-9 for a, b in zip(prices, prices[1:]))
        assert all(b <= a + 1e-9 for a, b in zip(risks, risks[1:]))

    def test_row_grid_covers_lambdas_and_specs(self):
        market, base, ray = self.scan_setup()
        specs = [LL, RM2, UtilitySpec.s_shaped_power(1.0, 0.5, 0.9, 0.4)]
        rows = scaling_scan(market, base, ray, [0.0, 2.0], specs, 0.3)
        assert len(rows) == 6
        assert [r.spec for r in rows[:3]] == [s.label for s in specs]
        # price and es depend on lambda only, shared across specs
        assert rows[0].price == rows[1].price == rows[2].price

    def test_weight_zero_scenario_leaves_the_scan_finite(self):
        base, ray = Portfolio([0.0, 0.0]), Portfolio([1.0, 1.0])
        lams, specs = [0.0, 1.0, 10.0], [LL, RM2]
        rows = scaling_scan(weight_zero_market(), base, ray, lams, specs, 0.5)
        kept = scaling_scan(weight_zero_market(False), base, ray, lams, specs, 0.5)
        assert rows == kept
        assert [r.expected_utility for r in rows if r.spec == RM2.label] == [0.0, -0.125, -12.5]

    def test_input_validation(self):
        market, base, ray = self.scan_setup()
        with pytest.raises(ValueError, match="ascending"):
            scaling_scan(market, base, ray, [2.0, 1.0], [LL], 0.3)
        with pytest.raises(ValueError, match="nonempty"):
            scaling_scan(market, base, ray, [], [LL], 0.3)
        short = Portfolio([1.0])
        with pytest.raises(ValueError, match="does not match"):
            scaling_scan(market, short, ray, [1.0], [LL], 0.3)
        for bad in ([0.0, np.nan], [0.0, np.inf], [np.nan]):
            with pytest.raises(ValueError, match="lambdas must be finite"):
                scaling_scan(market, base, ray, bad, [LL], 0.3)


class TestClassicConstraintSup:
    def test_floor_excluding_zero_portfolio(self):
        market = markowitz_like_market(n=200)
        with pytest.raises(ValueError, match="floor excludes zero portfolio"):
            classic_constraint_sup(market, RM2, 1.0, [10.0])

    def test_requires_risk_manager_spec(self):
        market = markowitz_like_market(n=200)
        with pytest.raises(ValueError):
            classic_constraint_sup(market, LL, -1.0, [10.0])

    def test_cap_validation(self):
        market = markowitz_like_market(n=200)
        with pytest.raises(ValueError):
            classic_constraint_sup(market, RM2, -1.0, [])
        with pytest.raises(ValueError):
            classic_constraint_sup(market, RM2, -1.0, [100.0, 10.0])
        with pytest.raises(ValueError):
            classic_constraint_sup(market, RM2, -1.0, [-5.0, 10.0])
        # a NaN cap used to get the value 0.0, and a NaN floor values
        # under no stated floor, each without an error
        for caps in ([np.nan], [10.0, np.nan], [10.0, np.inf]):
            with pytest.raises(ValueError, match="qty_caps must be finite"):
                classic_constraint_sup(market, RM2, -1.0, caps)
        for floor in (np.nan, -np.inf):
            with pytest.raises(ValueError, match="floor must be finite"):
                classic_constraint_sup(market, RM2, floor, [10.0])
        # a negative count would run no random start, and a float would fail
        # late inside `range`
        for n_starts in (-3, 2.5, 3.0, "4", None, True):
            with pytest.raises(ValueError, match="n_starts must be an integer >= 0"):
                classic_constraint_sup(market, RM2, -1.0, [10.0], n_starts=n_starts)
        for n_starts in (0, np.int64(2)):
            assert len(classic_constraint_sup(market, RM2, -1.0, [10.0], n_starts=n_starts)) == 1

    def test_weight_zero_scenario_is_not_an_arbitrage(self):
        # a NaN floor fails `gu >= 0` and min(cap, nan) is the cap, so the
        # value would grow with the cap (2.512, 25.12) like a true arbitrage
        out = classic_constraint_sup(weight_zero_market(), RM2, -1.0, [10.0, 100.0])
        kept = classic_constraint_sup(weight_zero_market(False), RM2, -1.0, [10.0, 100.0])
        for r, k in zip(out, kept):
            assert r.value == k.value
            assert r.quantities.tobytes() == k.quantities.tobytes()
        assert [r.value for r in out] == pytest.approx([0.8485281374, 0.8485281374], rel=1e-9)

    def test_true_arbitrage_grows_linearly(self):
        scen = ScenarioSet([0.0, 1.0, 2.0], [0.25, 0.5, 0.25])
        legs = (
            TradableLeg("lunch", 0.0, np.array([0.0, 1.0, 2.0])),
            TradableLeg("cash", 1.0, np.ones(3)),
        )
        market = MarketSnapshot(scen, legs, spot=1.0)
        caps = [1e1, 1e2, 1e3]
        out = classic_constraint_sup(market, RM2, -1.0, caps, seed=3)
        vals = [r.value for r in out]
        assert all(v > 0 for v in vals)
        for lo, hi in zip(vals, vals[1:]):
            assert 8.0 <= hi / lo <= 12.0

    def test_arbitrage_free_market_is_bounded(self):
        market = markowitz_like_market(n=1500, seed=77, mu=1.02, sigma=0.2)
        out = classic_constraint_sup(market, RM2, -1.0, [1e2, 1e3, 1e4], seed=5)
        vals = [r.value for r in out]
        assert vals[2] <= vals[0] * 1.01 + 1e-12

    def test_values_monotone_in_cap(self):
        rng = np.random.default_rng(15)
        market = random_market(rng, n_scenarios=60, n_legs=3)
        out = classic_constraint_sup(market, RM2, -0.5, [1.0, 5.0, 25.0], seed=1)
        vals = [r.value for r in out]
        assert vals[0] <= vals[1] + 1e-12
        assert vals[1] <= vals[2] + 1e-12
        for r in out:
            assert np.all(r.quantities >= -1e-12)
            assert np.all(r.quantities <= r.cap * (1 + 1e-9))

    def test_reported_portfolio_attains_value(self):
        market = markowitz_like_market(n=800, seed=33, mu=1.1, sigma=0.15)
        out = classic_constraint_sup(market, RM2, -1.0, [50.0], seed=2)
        r = out[0]
        payoff = market.payoff_matrix() @ r.quantities
        w = market.scenarios.weights
        assert r.value > 0.0
        ll_val = float(w @ np.maximum(payoff, 0.0))
        assert ll_val == pytest.approx(r.value, rel=1e-6, abs=1e-9)
        assert float(market.prices() @ r.quantities) <= 1e-6
        floor_val = float(w @ RM2.evaluate(payoff))
        assert floor_val >= -1.0 - 1e-6

    def test_capped_sup_pinned_on_criterion_9_markets(self):
        # SHA-256 of every CapResult's cap, value and quantities, recorded
        # when the price row and the floor were two constraint dicts: SLSQP
        # stacks the rows of one vector constraint in the same order
        code = "\n".join([
            "import hashlib",
            "import numpy as np",
            "from esarb.utility import UtilitySpec, classic_constraint_sup",
            "from test_acceptance import CRITERION_9_CAPS, criterion_9_markets",
            "rm2 = UtilitySpec.risk_manager_power(2.0)",
            "for market in criterion_9_markets():",
            "    out = classic_constraint_sup(market, rm2, -0.01, CRITERION_9_CAPS, seed=11)",
            "    h = hashlib.sha256()",
            "    for r in out:",
            "        h.update(np.array([r.cap, r.value]).tobytes() + r.quantities.tobytes())",
            "    print(h.hexdigest())",
        ])
        assert run_with_one_blas_thread(code).split() == [
            "749c145c99f31e740efeffc555886e5fa27ca88fc3b4ea07be928583274fbcdc",
            "f43c78f218cbad59e49bf394efb5a0fe3652bc1e90f7057a4655cb5813c8ccba",
        ]


def slsqp_problem(seed):
    """Callbacks for `_slsqp` on a seeded bid/ask option market at spot-100
    scale (2-14 legs, 50-300 scenarios) with a floor of 1e-10 to 1e-4, the
    scale of the capped supremum on quadrature markets, plus three starts:
    zero, one outside the box and one inside it."""
    rng = np.random.default_rng(seed)
    k, n_scenarios = int(rng.integers(1, 8)), int(rng.integers(50, 301))
    points = 100.0 * np.sort(rng.lognormal(0.0, 0.3, n_scenarios))
    strikes = 100.0 * rng.uniform(0.6, 1.5, k)
    kind = rng.integers(0, 3, k)
    calls = np.maximum(points[:, None] - strikes, 0.0)
    puts = np.maximum(strikes - points[:, None], 0.0)
    instruments = np.where(kind == 0, calls, np.where(kind == 1, puts, 1.0))
    w = rng.dirichlet(np.full(n_scenarios, 2.0))
    mid, spread = w @ instruments, rng.uniform(0.0, 0.03, k)
    F = np.hstack([instruments, -instruments])
    prices = np.concatenate([mid * (1.0 + spread), -mid * (1.0 - spread)])
    floor = -(10.0 ** rng.uniform(-10.0, -4.0))

    def values(z):
        X = F @ z
        floor_row = -float(w @ np.maximum(-X, 0.0) ** 2) - floor
        return -float(w @ np.maximum(X, 0.0)), (-(prices @ z), floor_row)

    def gradients(z):
        X = F @ z
        return -(F.T @ (w * (X > 0.0))), (-prices, F.T @ (w * 2.0 * np.maximum(-X, 0.0)))

    starts = (np.zeros(2 * k), rng.uniform(-0.5, 1.5, 2 * k), rng.uniform(0.0, 1.0, 2 * k))
    return values, gradients, starts


def test_slsqp_matches_scipy_minimize_bit_for_bit():
    # the kernel loop reproduces `minimize(method="SLSQP")` with the same
    # callbacks: every iterate, so the last x and the exit mode agree
    modes, outside = [], []
    for seed in range(40):
        values, gradients, starts = slsqp_problem(seed)
        for z0 in starts:
            x, mode = _slsqp(values, gradients, z0)
            res = minimize(
                lambda z: values(z)[0],
                z0,
                jac=lambda z: gradients(z)[0],
                method="SLSQP",
                bounds=[(0.0, 1.0)] * len(z0),
                constraints={
                    "type": "ineq",
                    "fun": lambda z: np.array(values(z)[1]),
                    "jac": lambda z: np.array(gradients(z)[1]),
                },
                options={"maxiter": 200, "ftol": 1e-12},
            )
            assert (x.tobytes(), mode) == (res.x.tobytes(), res.status), (seed, z0)
            modes.append(mode)
            outside.append(bool(((z0 < 0.0) | (z0 > 1.0)).any()))
    assert {0, 8, 9} <= set(modes)  # converged, failed line search, iteration limit
    assert sum(outside) >= 30  # starts the loop clips to the box first
