import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esarb import (
    MarketSnapshot,
    Portfolio,
    ScenarioSet,
    TradableLeg,
    WeightedSample,
    es_p,
    payoff_distribution,
    price,
    ru_objective,
    var_p,
)
from esarb import detector
from esarb.analytic import CompleteMarketDensity, bs_ratio_density, density_market
from esarb.detector import (
    SolverError,
    _check_residuals,
    _confirmation_lp,
    _full_vector,
    _merged_blocks,
    _threshold_density,
    arbitrage_epsilon,
    build_lp,
    detect,
    min_p,
    solve_lp,
)

from conftest import random_market

TWO = ScenarioSet([0.0, 1.0], [0.5, 0.5])


def capped_density_market():
    density = CompleteMarketDensity("step", [1.0 / 3.0, 1.0], [2.0, 0.5])
    return density_market(density)


def true_arb_market():
    leg = TradableLeg("free lunch", 0.0, np.array([0.0, 1.0]))
    return MarketSnapshot(TWO, (leg,), spot=1.0)


# ------------------------------------------------------------------- build_lp


def test_build_lp_counts_and_roles():
    scen = ScenarioSet([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
    legs = (
        TradableLeg("a", 1.0, np.array([1.0, 2.0, 3.0])),
        TradableLeg("b", -0.5, np.array([0.0, 1.0, 0.0])),
    )
    prob = build_lp(MarketSnapshot(scen, legs, spot=1.0), 0.3)
    assert prob.n_variables == 6  # alpha + 2 legs + 3 scenarios
    assert prob.n_legs == 2
    assert prob.n_scenarios == 3
    assert prob.constraint_matrix.shape == (4, 6)  # 1 cost + 3 hinge
    # alpha free; portfolio boxed; auxiliaries bounded below at 0
    assert prob.lower_bounds[0] == -math.inf and prob.upper_bounds[0] == math.inf
    assert np.all(prob.lower_bounds[1:3] == 0.0) and np.all(prob.upper_bounds[1:3] == 1.0)
    assert np.all(prob.lower_bounds[3:] == 0.0)


def test_build_lp_objective_weights():
    scen = ScenarioSet([0.0, 1.0], [0.25, 0.75])
    prob = build_lp(MarketSnapshot(scen, (TradableLeg("a", 1.0, np.array([1.0, 2.0])),), spot=1.0), 0.5)
    assert prob.objective[0] == 1.0
    assert prob.objective[1] == 0.0
    assert np.allclose(prob.objective[2:], [0.5, 1.5])  # w_i / p


def test_build_lp_merges_duplicate_scenarios():
    scen = ScenarioSet([0.0, 1.0, 2.0, 3.0], [0.25, 0.25, 0.25, 0.25])
    leg = TradableLeg("flat then up", 1.0, np.array([0.0, 0.0, 0.0, 6.0]))
    market = MarketSnapshot(scen, (leg,), spot=1.0)
    merged = build_lp(market, 0.5)
    verbatim = build_lp(market, 0.5, merge_scenarios=False)
    assert merged.n_scenarios == 2
    assert verbatim.n_scenarios == 4
    assert solve_lp(merged).optimal_value == pytest.approx(
        solve_lp(verbatim).optimal_value, abs=1e-12
    )


def _unique_merge(market):
    """Reference merge: np.unique over the rows, weights summed per row."""
    payoffs = market.payoff_matrix() + 0.0
    uniq, inverse = np.unique(payoffs, axis=0, return_inverse=True)
    weights = market.scenarios.weights
    merged_w = np.bincount(inverse.ravel(), weights=weights, minlength=uniq.shape[0])
    keep = merged_w > 0
    return uniq[keep], merged_w[keep]


@pytest.mark.parametrize("seed", range(4))
def test_merge_matches_unique_reference(seed):
    rng = np.random.default_rng(seed)
    n_s = 400
    # few distinct values per column: many duplicate rows, -0.0 among them
    cols = rng.choice(np.array([-1.0, -0.0, 0.0, 0.5, 1.0]), size=(n_s, 3))
    cols[::7] = rng.normal(size=(len(cols[::7]), 3))  # some unique rows
    weights = rng.random(n_s)
    weights[rng.random(n_s) < 0.2] = 0.0  # zero-weight rows, some alone in their group
    scen = ScenarioSet(np.arange(n_s, dtype=float), weights / weights.sum())
    legs = tuple(TradableLeg(f"c{j}", 0.0, cols[:, j]) for j in range(3))
    market = MarketSnapshot(scen, legs, spot=1.0)
    rows, w = _merged_blocks(market, merge=True)
    ref_rows, ref_w = _unique_merge(market)
    assert rows.shape[0] < n_s
    assert np.array_equal(rows, ref_rows)
    assert not np.signbit(rows[rows == 0.0]).any()  # -0.0 folded into +0.0
    assert np.allclose(w, ref_w, rtol=1e-14, atol=0.0)
    assert (w > 0).all()


# ------------------------------------------------------------------- solve_lp


def test_zero_payoff_legs_give_zero():
    market = MarketSnapshot(TWO, (TradableLeg("nil", 0.5, np.zeros(2)),), spot=1.0)
    sol = solve_lp(build_lp(market, 0.3))
    assert sol.status == "optimal"
    assert sol.optimal_value == pytest.approx(0.0, abs=1e-12)


def test_single_true_arb_leg_optimum():
    leg = TradableLeg("gift", -1.0, np.array([1.0, 1.0]))
    market = MarketSnapshot(TWO, (leg,), spot=1.0)
    sol = solve_lp(build_lp(market, 0.5))
    assert sol.optimal_value == pytest.approx(-1.0, abs=1e-9)


def test_lp_matches_brute_force_grid(rng):
    def golden(f, lo, hi, iters=120):
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c, d = b - phi * (b - a), a + phi * (b - a)
        fc, fd = f(c), f(d)
        for _ in range(iters):
            if fc <= fd:
                b, d, fd = d, c, fc
                c, fc = b - phi * (b - a), f(b - phi * (b - a))
            else:
                a, c, fc = c, d, fd
                d, fd = a + phi * (b - a), f(a + phi * (b - a))
        return min(fc, fd)

    for _ in range(5):
        market = random_market(rng, n_scenarios=5, n_legs=2)
        p = float(rng.uniform(0.1, 0.6))
        lp_val = solve_lp(build_lp(market, p)).optimal_value
        prices = market.prices()
        payoffs = market.payoff_matrix()
        best = 0.0
        grid = np.round(np.arange(0.0, 1.0001, 0.01), 10)
        for q0, q1 in itertools.product(grid, grid):
            q = np.array([q0, q1])
            if prices @ q > 0.0:
                continue
            s = WeightedSample(payoffs @ q, market.scenarios.weights)
            span = float(np.abs(s.values).max()) + 1.0
            val = golden(lambda a: ru_objective(s, p, a), -span, span)
            best = min(best, val)
        assert lp_val == pytest.approx(best, abs=2e-2)


def test_solver_backends_agree(rng):
    for _ in range(12):
        market = random_market(rng)
        prob = build_lp(market, float(rng.uniform(0.05, 0.7)))
        for lp in (prob, _confirmation_lp(prob)):
            cuts, highs = (solve_lp(lp, solver=s).optimal_value for s in ("cuts", "highs"))
            assert abs(cuts - highs) <= 1e-8 * (1.0 + abs(highs))


def test_unknown_solver_rejected():
    with pytest.raises(ValueError):
        solve_lp(build_lp(true_arb_market(), 0.5), solver="simplex")


def test_lp_solution_is_primal_feasible(rng):
    market = random_market(rng, n_scenarios=30, n_legs=4)
    prob = build_lp(market, 0.2)
    sol = solve_lp(prob)
    x = sol.x
    residual = prob.constraint_matrix @ x - prob.rhs
    assert residual.max() <= 1e-9 * (1.0 + np.abs(prob.rhs).max())
    assert np.all(x >= prob.lower_bounds - 1e-9)
    assert np.all(x <= prob.upper_bounds + 1e-9)


def test_cutting_plane_handles_large_market():
    rng = np.random.default_rng(8)
    points = np.sort(rng.normal(size=50_000))
    points += np.arange(points.size) * 1e-12
    scen = ScenarioSet(points, np.full(points.size, 1.0 / points.size))
    legs = (
        TradableLeg("asset", 0.1, points),
        TradableLeg("short asset", -0.05, -points),
    )
    market = MarketSnapshot(scen, legs, spot=1.0)
    prob = build_lp(market, 0.1)
    big = solve_lp(prob, solver="cuts")
    ref = solve_lp(prob, solver="highs")
    assert big.optimal_value == pytest.approx(ref.optimal_value, abs=1e-8)


def test_pooled_cuts_support_es(rng):
    # every cut phase 1 leaves in the pool is a support line of ES, so it
    # stays valid at any box point, and so for the confirmation LP too
    for _ in range(3):
        market = random_market(rng, n_scenarios=800, n_legs=4)
        prob = build_lp(market, float(rng.uniform(0.05, 0.5)))
        assert solve_lp(prob, solver="cuts").method == "cutting_plane"
        assert prob.cuts
        F, w, p = prob.payoffs, prob.weights, prob.level.p
        scale = 1.0 + float(np.abs(F).max()) * prob.upper_bound
        for x in rng.uniform(0.0, prob.upper_bound, size=(20, prob.n_legs)):
            es = es_p(WeightedSample(F @ x, w), p)
            for g, h in prob.cuts:
                assert es >= g @ x + h - 1e-9 * scale


def _two_asset_markowitz(n_draws):
    from esarb.analytic import MarkowitzMarket, markowitz_market

    sigma = 0.01 * np.array([[1.0, 0.5], [0.5, 1.0]])
    w = np.array([1.0, -0.5])
    mu = 1.0 + 1.5 / math.sqrt(w @ sigma @ w) * (sigma @ w)  # gradient 1.5
    return markowitz_market(MarkowitzMarket(mu, sigma, np.ones(2), 0.0), n_draws, np.random.default_rng(7))


def test_confirmation_starts_from_phase_one_cuts(monkeypatch):
    # gradient 1.5 < E(0.05) = 2.06: no arbitrage, so the verdict rests on
    # the confirmation; seeded with phase 1's cuts it needs one master LP
    market = _two_asset_markowitz(5000)
    prob = build_lp(market, 0.05)
    solve_lp(prob, solver="cuts")
    assert build_lp(market, 0.05).cuts == []  # every problem starts its own pool
    seeded, fresh = _confirmation_lp(prob), _confirmation_lp(build_lp(market, 0.05))
    assert len(seeded.cuts) == len(prob.cuts) > 0
    real, calls = detector.linprog, []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(detector, "linprog", counted)
    masters, values = [], []
    for lp in (seeded, fresh):
        calls.clear()
        values.append(solve_lp(lp, solver="cuts").optimal_value)
        masters.append(len(calls))
    assert masters[0] == 1 < masters[1]
    assert values[0] == pytest.approx(values[1], abs=1e-12)


def test_cut_loop_alpha_is_var_p():
    # alpha comes from the loop's own sort of the point it returns; it must
    # be VaR_p of that point, bit for bit, on both LP kinds
    market = _two_asset_markowitz(3000)
    for p in (0.05, 0.4):
        prob = build_lp(market, p)
        for lp in (prob, _confirmation_lp(prob)):
            sol = solve_lp(lp, solver="cuts")
            assert sol.method == "cutting_plane"
            x = sol.x[1 : 1 + lp.n_legs]
            assert sol.x[0] == var_p(WeightedSample(lp.payoffs @ x, lp.weights), p)


def _pair_market():
    legs = (
        TradableLeg("long", 1.0, np.array([1.0, 2.0])),
        TradableLeg("short", -1.0, np.array([-1.0, -2.0])),
    )
    return MarketSnapshot(TWO, legs, spot=1.0)


def _exact_vector(lp, x):
    return _full_vector(lp, x, var_p(WeightedSample(lp.payoffs @ x, lp.weights), lp.level))


def test_check_residuals_accepts_exact_vectors():
    prob = build_lp(_pair_market(), 0.5)
    for lp in (prob, _confirmation_lp(prob)):
        _check_residuals(lp, _exact_vector(lp, np.array([0.5, 0.5])))


def test_check_residuals_rejects_hinge_row_violation():
    prob = build_lp(_pair_market(), 0.5)
    v = _exact_vector(prob, np.array([0.5, 0.5]))
    v[0] -= 1.0  # alpha below the attaining quantile: every hinge row is short by 1
    with pytest.raises(SolverError, match=r"bound violation -?0\.000e"):
        _check_residuals(prob, v)


def test_check_residuals_rejects_bound_violation():
    prob = build_lp(_pair_market(), 0.5)
    v = _exact_vector(prob, np.array([1.5, 1.5]))  # rows hold, the box [0, 1] does not
    with pytest.raises(SolverError, match=r"residual 0\.000e"):
        _check_residuals(prob, v)


# --------------------------------------------------------------------- detect


def test_true_arbitrage_detected_at_every_level():
    market = true_arb_market()
    for p in (0.01, 0.1, 0.5, 0.9):
        assert detect(market, p).arbitrage


def test_zero_price_lottery_confirmed_on_cutting_planes():
    # least ES is exactly 0 here, so the verdict rests on the confirmation LP
    from esarb.analytic import MarkowitzMarket, markowitz_market

    base = markowitz_market(
        MarkowitzMarket([1.1], [[0.01]], [1.0], 0.0), 2000, np.random.default_rng(20190226)
    )
    pay = np.zeros(2000)
    pay[::2] = 1.0
    market = MarketSnapshot(base.scenarios, base.legs + (TradableLeg("lottery", 0.0, pay),), spot=1.0)
    res = detect(market, 0.05)
    ref = detect(market, 0.05, solver="highs")
    assert res.arbitrage and ref.arbitrage
    assert res.confirmation.max_expected_payoff == pytest.approx(
        ref.confirmation.max_expected_payoff, abs=1e-8
    )
    assert ref.confirmation.max_expected_payoff == pytest.approx(0.5, abs=1e-8)


def test_markowitz_below_threshold_agrees_across_paths():
    from esarb.analytic import MarkowitzMarket, markowitz_arbitrage, markowitz_market
    from esarb.io import detection_to_dict

    mk = MarkowitzMarket([1.1], [[0.01]], [1.0], 0.0)
    assert not markowitz_arbitrage(mk, 0.05).arbitrage  # g = 1.0 < E(0.05) = 2.06
    market = markowitz_market(mk, 2000, np.random.default_rng(20190226))
    payoffs = []
    for solver in ("cuts", "highs"):
        res = detect(market, 0.05, solver=solver)
        assert not res.arbitrage
        payoffs.append(res.confirmation.max_expected_payoff)
        reported = detection_to_dict(res, market.labels())["confirmation"]["max_expected_payoff"]
        assert reported == 0.0 and math.copysign(1.0, reported) == 1.0
    assert abs(payoffs[0] - payoffs[1]) <= 1e-8


def test_capped_density_thresholds():
    market = capped_density_market()
    assert detect(market, 0.6).arbitrage
    assert not detect(market, 0.4).arbitrage


def test_markowitz_sampled_market_detected():
    from esarb.analytic import MarkowitzMarket, markowitz_market

    rng = np.random.default_rng(31)
    market = markowitz_market(MarkowitzMarket([1.3], [[0.01]], [1.0], 0.0), 100_000, rng)
    assert detect(market, 0.01).arbitrage  # g = 3.0 > E(0.01) = 2.665


def test_min_es_never_positive(rng):
    for _ in range(15):
        market = random_market(rng)
        res = detect(market, float(rng.uniform(0.05, 0.8)))
        assert res.min_es <= 1e-12


def test_detection_result_internal_consistency(rng):
    for _ in range(15):
        market = random_market(rng)
        res = detect(market, 0.3)
        eps = arbitrage_epsilon(market)
        if res.arbitrage:
            assert res.min_es < -eps or (
                res.confirmation is not None and res.confirmation.max_expected_payoff > eps
            )


def test_witness_portfolio_properties(rng):
    found = 0
    for k in range(25):
        market = random_market(rng)
        for p in (0.25, 0.6, 0.9):
            res = detect(market, p)
            if not res.arbitrage:
                continue
            found += 1
            eps = arbitrage_epsilon(market)
            cost = price(market, res.portfolio)
            dist = payoff_distribution(market, res.portfolio)
            assert cost <= eps
            assert es_p(dist, p) <= eps
            assert float(dist.weights @ np.maximum(dist.values, 0.0)) > 0.0
    assert found >= 5  # high levels make random markets arbitrageable often


def test_scale_invariance(rng):
    market = capped_density_market()
    lam = 1e4
    scaled = MarketSnapshot(
        market.scenarios,
        tuple(TradableLeg(l.label, l.price * lam, l.payoff * lam) for l in market.legs),
        spot=market.spot,
        upper_bound=market.upper_bound,
    )
    for p in (0.4, 0.6):
        a, b = detect(market, p), detect(scaled, p)
        assert a.arbitrage == b.arbitrage
        assert b.min_es == pytest.approx(lam * a.min_es, rel=1e-9, abs=1e-9 * lam)


def test_arbitrage_monotone_in_p():
    rng = np.random.default_rng(123)
    for _ in range(20):
        market = random_market(rng)
        flags = [detect(market, p).arbitrage for p in (0.05, 0.15, 0.3, 0.5, 0.7, 0.9)]
        assert flags == sorted(flags)  # False..True, never back


def test_theorem_inequalities_along_witness_ray(rng):
    market = capped_density_market()
    res = detect(market, 0.6)
    assert res.arbitrage
    x_star = res.portfolio.quantities
    payoffs = market.payoff_matrix()
    prices = market.prices()
    w = market.scenarios.weights
    for _ in range(5):
        y = rng.uniform(0.0, 1.0, market.n_legs)
        price_y = float(prices @ y)
        es_y = es_p(WeightedSample(payoffs @ y, w), 0.6)
        for lam in (1.0, 10.0, 100.0):
            combined = WeightedSample(payoffs @ (y + lam * x_star), w)
            assert float(prices @ (y + lam * x_star)) <= price_y + lam * 1e-9
            assert es_p(combined, 0.6) <= es_y + lam * 1e-9


def test_adding_leg_preserves_arbitrage(rng):
    market = capped_density_market()
    assert detect(market, 0.6).arbitrage
    extra = TradableLeg("noise", 5.0, rng.normal(size=market.scenarios.points.size))
    bigger = MarketSnapshot(
        market.scenarios, market.legs + (extra,), market.spot, upper_bound=market.upper_bound
    )
    assert detect(bigger, 0.6).arbitrage


def test_confirmation_catches_boundary_true_arbitrage():
    # pays only outside the worst-p tail: phase-1 optimum is exactly 0
    scen = ScenarioSet([0.0, 1.0, 2.0], [0.4, 0.3, 0.3])
    leg = TradableLeg("late payer", 0.0, np.array([0.0, 0.0, 1.0]))
    market = MarketSnapshot(scen, (leg,), spot=1.0)
    res = detect(market, 0.3)
    assert res.arbitrage
    assert res.min_es == pytest.approx(0.0, abs=1e-12)
    assert res.confirmation is not None
    assert res.confirmation.max_expected_payoff == pytest.approx(0.3, abs=1e-9)
    # the returned portfolio is the confirmation maximizer, not the zero point
    assert float(res.portfolio.quantities[0]) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------- min_p


def test_min_p_capped_density():
    res = min_p(capped_density_market(), bracket=(0.01, 0.9), tol=1e-3)
    assert res.status == "found"
    assert res.p_star == pytest.approx(0.5, abs=1e-3)
    # the returned endpoint itself carries an arbitrage
    assert detect(capped_density_market(), res.p_star).arbitrage


def test_min_p_true_arbitrage_flagged_below():
    res = min_p(true_arb_market(), bracket=(0.01, 0.9), tol=1e-3)
    assert res.status == "at or below bracket"
    assert res.p_star == pytest.approx(0.01)


def test_min_p_none_in_bracket():
    scen = ScenarioSet([0.8, 1.0, 1.2], [0.25, 0.5, 0.25])
    legs = (
        TradableLeg("long A", 1.5, np.array([0.8, 1.0, 1.2])),
        TradableLeg("short A", -0.5, np.array([-0.8, -1.0, -1.2])),
    )
    market = MarketSnapshot(scen, legs, spot=1.0)
    res = min_p(market, bracket=(0.01, 0.99), tol=1e-3)
    assert res.status == "none in bracket"
    assert res.p_star is None


def test_min_p_bad_bracket_rejected():
    market = true_arb_market()
    for bracket in ((0.5, 0.1), (0.0, 0.5), (0.1, 1.0)):
        with pytest.raises(ValueError):
            min_p(market, bracket=bracket)
    with pytest.raises(ValueError):
        min_p(market, bracket=(0.1, 0.5), tol=0.0)


def test_min_p_on_quadrature_market_with_singular_dense_basis():
    # A 200-scenario x 54-leg quadrature market whose LP near p = 0.121 has
    # singular bases; HiGHS verdicts must bracket the threshold.
    from esarb.market import expand_quotes
    from esarb.models import LognormalMixture, default_pl_grid, pl_quadrature, synthesize_chain

    spot, rate, maturity = 100.0, 0.02, 1.0

    def mixture(weights, forwards, sds):
        sds = np.asarray(sds)
        return LognormalMixture(
            np.asarray(weights), np.log(forwards) - 0.5 * sds**2, sds, spot, rate, maturity
        )

    fwd = spot * math.exp(rate * maturity)
    pricing = mixture((0.6, 0.4), (0.95 * fwd, (fwd - 0.6 * 0.95 * fwd) / 0.4), (0.15, 0.35))
    strikes = np.arange(70.0, 131.0, 5.0)
    chain = synthesize_chain(pricing, strikes, rel_spread=0.02)
    model = mixture((0.2, 0.8), (70.0, 108.0), (0.3, 0.15))
    scen = pl_quadrature(model, default_pl_grid(model, strikes))
    legs = tuple(expand_quotes(chain, scen, spot, rate, maturity))
    market = MarketSnapshot(scen, legs, spot, rate, maturity)

    res = min_p(market, bracket=(1e-4, 0.9))
    assert res.status == "found"
    assert detect(market, res.p_star, solver="highs").arbitrage
    assert not detect(market, res.p_star - 1e-4, solver="highs").arbitrage


def _step(sup, first_cell):
    tail = (1.0 - sup * first_cell) / (1.0 - first_cell)
    return CompleteMarketDensity("step", [first_cell, 1.0], [sup, tail])


@pytest.mark.parametrize(
    "density",
    [
        _step(1.5, 0.4),
        _step(2.0, 1.0 / 3.0),
        _step(4.0, 0.1),
        _step(10.0, 0.02),
        bs_ratio_density(drift=-0.3, rate=0.0, sigma=0.15, cells=512),
    ],
    ids=["step1.5", "step2", "step4", "step10", "bs512"],
)
def test_min_p_exact_on_complete_densities(density):
    market = density_market(density)
    res = min_p(market, bracket=(1e-4, 0.9), tol=1e-4)
    assert res.status == "found"
    assert res.evaluations <= 4
    assert abs(res.p_star - 1.0 / density.sup_density) <= 1e-8
    assert detect(market, res.p_star).arbitrage
    assert not detect(market, res.p_star - 1e-6).arbitrage


def _priced_market(rng):
    """Small market priced by a random density within random spreads; a
    mispriced leg sometimes adds a true arbitrage."""
    n_s = int(rng.integers(2, 9))
    weights = rng.random(n_s) + 0.05
    weights /= weights.sum()
    q = rng.uniform(0.05, 3.0, n_s)
    q /= weights @ q
    legs = [TradableLeg("bond", 1.0, np.ones(n_s)), TradableLeg("-bond", -1.0, -np.ones(n_s))]
    for j in range(int(rng.integers(1, 4))):
        pay = rng.normal(size=n_s)
        mid, half = float(weights @ (q * pay)), float(rng.uniform(0.0, 0.05))
        legs += [TradableLeg(f"a{j}", mid + half, pay), TradableLeg(f"-a{j}", half - mid, -pay)]
    if rng.random() < 0.2:
        legs.append(TradableLeg("gift", 0.0, np.abs(rng.normal(size=n_s))))
    scen = ScenarioSet(np.arange(n_s, dtype=float), weights)
    return MarketSnapshot(scen, tuple(legs), spot=1.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_min_p_matches_detect_on_small_markets(seed):
    market = _priced_market(np.random.default_rng(seed))
    lo, hi, tol = 0.01, 0.95, 1e-3
    res = min_p(market, bracket=(lo, hi), tol=tol)
    assert res.evaluations <= 4
    if res.status == "at or below bracket":
        assert res.p_star == lo and detect(market, lo).arbitrage
    elif res.status == "none in bracket":
        assert res.p_star is None and not detect(market, hi).arbitrage
    else:
        assert res.status == "found" and lo <= res.p_star <= hi
        assert detect(market, res.p_star).arbitrage
        if res.p_star - tol > lo:
            assert not detect(market, res.p_star - tol).arbitrage


@pytest.mark.parametrize("tamper", ["mass", "negative", "pricing"])
def test_threshold_density_rejects_tampered_answer(monkeypatch, tamper):
    problem = build_lp(capped_density_market(), 0.01)
    w = problem.weights
    real = detector._linprog_highs

    def tampered(*args, **kwargs):
        res = real(*args, **kwargs)
        q = res.x[: problem.n_scenarios]
        if tamper == "mass":
            q *= 1.001
        elif tamper == "negative":
            q[-1] = -1e-3
        else:  # move mass from the last cell to the first: E q stays 1
            q[0] += 1e-3 / w[0]
            q[-1] -= 1e-3 / w[-1]
        return res

    _threshold_density(problem)  # the untampered answer passes its check
    monkeypatch.setattr(detector, "_linprog_highs", tampered)
    with pytest.raises(SolverError):
        _threshold_density(problem)
