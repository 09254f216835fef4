import itertools
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from esarb import (
    InstrumentQuote,
    MarketSnapshot,
    Portfolio,
    ScenarioSet,
    TradableLeg,
    WeightedSample,
    es_p,
    expand_quotes,
    payoff_distribution,
    price,
    ru_objective,
    var_p,
)
from esarb import detector
from esarb.analytic import CompleteMarketDensity, bs_ratio_density, density_market
from esarb.detector import (
    LpProblem,
    SolverError,
    _check_residuals,
    _confirmation_lp,
    _full_vector,
    _margin_density,
    _merged_blocks,
    _solve_cuts,
    _solve_highs,
    _threshold_density,
    arbitrage_epsilon,
    build_lp,
    detect,
    min_p,
    solve_lp,
)
from esarb.io import detection_to_dict

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
    verbatim = LpProblem(
        kind="min_es",
        payoffs=market.payoff_matrix(),
        weights=market.scenarios.weights,
        prices=market.prices(),
        level=merged.level,
        upper_bound=market.upper_bound,
        legs=np.arange(market.n_legs),
        shorts=np.full(market.n_legs, -1),
    )
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
    rows, w = _merged_blocks(market)
    ref_rows, ref_w = _unique_merge(market)
    assert rows.shape[0] < n_s
    assert np.array_equal(rows, ref_rows)
    assert not np.signbit(rows[rows == 0.0]).any()  # -0.0 folded into +0.0
    assert np.allclose(w, ref_w, rtol=1e-14, atol=0.0)
    assert (w > 0).all()



def _lexsort_merge(market):
    """Reference merge: a full-matrix lexsort and a sorted copy of every row."""
    payoffs = market.payoff_matrix() + 0.0
    order = np.lexsort(payoffs.T[::-1])
    rows = payoffs[order]
    starts = np.flatnonzero(np.concatenate([[True], (rows[1:] != rows[:-1]).any(axis=1)]))
    merged_w = np.add.reduceat(market.scenarios.weights[order], starts)
    keep = merged_w > 0
    return rows[starts[keep]], merged_w[keep]


def _doubled(market):
    """The market with every payoff row listed twice at half weight."""
    w = market.scenarios.weights
    twice = ScenarioSet(np.arange(2.0 * len(w)), np.tile(w, 2) / 2.0)
    legs = tuple(replace(leg, payoff=np.tile(leg.payoff, 2)) for leg in market.legs)
    return MarketSnapshot(twice, legs, spot=market.spot)


@pytest.mark.parametrize("kind", ["markowitz", "digital", "constant"])
def test_merge_matches_lexsort_reference(kind):
    if kind == "markowitz":  # constant cash columns first, then negated legs
        market = _two_asset_markowitz(3000)
    elif kind == "digital":  # 0/1 columns: every key column is one long tie run
        market = _doubled(density_market(bs_ratio_density(-0.3, 0.0, 0.15, cells=64)))
    else:
        scen = ScenarioSet(np.arange(50.0), np.full(50, 0.02))
        cash = (TradableLeg("cash", 1.0, np.ones(50)), TradableLeg("-cash", -1.0, -np.ones(50)))
        market = MarketSnapshot(scen, cash, spot=1.0)
    rows, w = _merged_blocks(market)
    ref_rows, ref_w = _lexsort_merge(market)
    assert rows.shape == ref_rows.shape
    assert rows.tobytes() == ref_rows.tobytes()
    assert w.tobytes() == ref_w.tobytes()
    expected = {"markowitz": 3000, "digital": 64, "constant": 1}[kind]
    assert len(w) == expected


def test_merge_peak_memory_stays_below_three_and_a_half_matrices():
    # on 1e5 distinct rows a sorted copy of the whole matrix, on top of the
    # normalized one and the gathered result, costs 3.69 matrices
    market = _two_asset_markowitz(100_000)
    matrix_bytes = market.payoff_matrix().nbytes
    assert market.payoff_matrix().shape == (100_000, 6)
    _merged_blocks(market)  # load lazily imported code outside the trace
    tracemalloc.start()
    try:
        _merged_blocks(market)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * matrix_bytes

def test_build_lp_nets_frictionless_pairs():
    scen = ScenarioSet([0.0, 1.0, 2.0], [0.5, 0.5, 0.0])
    f, g = np.array([1.0, -2.0, 3.0]), np.array([0.5, 0.0, 4.0])
    legs = (
        TradableLeg("a", 0.7, f),
        TradableLeg("b", 1.0, g),
        TradableLeg("-b", -np.nextafter(1.0, 0.0), -g),  # bid 1 ulp under the ask
        TradableLeg("-a", -0.7, -f + np.array([0.0, 0.0, 1.0])),  # differs on a zero weight only
        TradableLeg("a again", 0.7, f),
        TradableLeg("cash", 1.0, np.ones(3)),  # constant payoffs stay two legs
        TradableLeg("-cash", -1.0, -np.ones(3)),
    )
    prob = build_lp(MarketSnapshot(scen, legs, spot=1.0, upper_bound=2.0), 0.3)
    assert prob.legs.tolist() == [0, 1, 2, 4, 5, 6]
    assert prob.shorts.tolist() == [3, -1, -1, -1, -1, -1]
    assert prob.x_lower.tolist() == [-2.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert prob.lower_bounds[1:7].tolist() == prob.x_lower.tolist()
    assert prob.prices.tolist() == [0.7, 1.0, -np.nextafter(1.0, 0.0), 0.7, 1.0, -1.0]
    # the zero-weight scenario is gone; merged rows are sorted
    assert prob.payoffs.tolist() == [
        [-2.0, 0.0, 0.0, -2.0, 1.0, -1.0],
        [1.0, 0.5, -0.5, 1.0, 1.0, -1.0],
    ]
    qty = prob.leg_quantities(np.array([-1.5, 0.25, 0.0, 3.0, 0.5, -0.0]))
    assert qty.tolist() == [0.0, 0.25, 0.0, 1.5, 2.0, 0.5, 0.0]
    assert not np.signbit(qty).any()


def _reference_detect(market, p):
    """detect's two-phase verdict and least ES from per-leg HiGHS LPs over
    (alpha, x, u), with every leg its own column in [0, B] and no scenario
    merging."""
    F, w, prices = market.payoff_matrix(), market.scenarios.weights, market.prices()
    n_s, n_l = F.shape
    rows = np.block([
        [np.zeros((1, 1)), prices[None, :], np.zeros((1, n_s))],
        [-np.ones((n_s, 1)), -F, -np.eye(n_s)],
    ])
    es_row = np.concatenate([[1.0], np.zeros(n_l), w / p])
    bounds = [(None, None)] + [(0.0, market.upper_bound)] * n_l + [(0.0, None)] * n_s
    opts = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    res = linprog(es_row, A_ub=rows, b_ub=np.zeros(1 + n_s), bounds=bounds, method="highs",
                  options=opts)
    assert res.status == 0
    eps = arbitrage_epsilon(market)
    if res.fun < -eps:
        return True, res.fun
    expected = np.concatenate([[0.0], -(F.T @ w), np.zeros(n_s)])
    conf = linprog(expected, A_ub=np.vstack([rows, es_row]), b_ub=np.zeros(2 + n_s), bounds=bounds,
                   method="highs", options=opts)
    assert conf.status == 0
    return -conf.fun > eps, res.fun


def _paired_market(rng, n_s):
    """Random legs: frictionless pairs, near-pairs 1 ulp apart in price,
    single legs and sometimes a cash pair, in shuffled order."""
    points = np.sort(rng.normal(size=n_s)) + np.arange(n_s) * 1e-9
    weights = rng.random(n_s) + 1e-3
    scen = ScenarioSet(points, weights / weights.sum())
    legs = []
    for j in range(int(rng.integers(1, 4))):
        f, cost = rng.normal(size=n_s), float(rng.normal())
        legs += [TradableLeg(f"p{j}", cost, f), TradableLeg(f"-p{j}", -cost, -f)]
    for j in range(int(rng.integers(0, 3))):
        f, cost = rng.normal(size=n_s), float(rng.normal())
        bid = np.nextafter(cost, -np.inf)
        legs += [TradableLeg(f"n{j}", cost, f), TradableLeg(f"-n{j}", -bid, -f)]
    for j in range(int(rng.integers(0, 3))):
        legs.append(TradableLeg(f"s{j}", float(rng.normal()), rng.normal(size=n_s)))
    if rng.random() < 0.5:  # a constant payoff is never netted
        legs += [TradableLeg("cash", 1.0, np.ones(n_s)), TradableLeg("-cash", -1.0, -np.ones(n_s))]
    order = rng.permutation(len(legs))
    return MarketSnapshot(scen, tuple(legs[k] for k in order), spot=1.0,
                          upper_bound=float(rng.choice([1.0, 3.0])))


# 40 scenarios take HiGHS; 700 take the cutting planes
@pytest.mark.parametrize("n_s", [40, 700])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_netting_matches_unnetted_reference(n_s, seed):
    rng = np.random.default_rng(seed)
    market = _paired_market(rng, n_s)
    p = float(rng.uniform(0.05, 0.9))
    prob = build_lp(market, p)
    pairs = [(int(a), int(b)) for a, b in zip(prob.legs, prob.shorts) if b >= 0]
    netted = sorted(market.legs[a].label.lstrip("-") for a, _ in pairs)
    assert netted == sorted(l.label for l in market.legs if l.label.startswith("p"))
    assert (prob.n_scenarios >= detector._CUT_SCENARIOS) == (n_s >= detector._CUT_SCENARIOS)
    arbitrage, ref_min_es = _reference_detect(market, p)
    res = detect(market, p)
    assert res.arbitrage == arbitrage
    assert abs(res.min_es - ref_min_es) <= 1e-8 * (1.0 + abs(ref_min_es))
    qty = res.portfolio.quantities
    assert qty.shape == (market.n_legs,)
    assert ((qty >= 0.0) & (qty <= market.upper_bound)).all()
    assert all(qty[a] == 0.0 or qty[b] == 0.0 for a, b in pairs)
    if res.arbitrage:
        eps = arbitrage_epsilon(market)
        dist = payoff_distribution(market, res.portfolio)
        assert price(market, res.portfolio) <= eps
        assert es_p(dist, p) <= eps
        if res.confirmation is None:  # the phase-1 optimum is the witness's ES
            assert es_p(dist, p) == pytest.approx(res.min_es, abs=1e-8 * (1.0 + abs(res.min_es)))


# ------------------------------------------------------------------- solve_lp


def test_zero_payoff_legs_give_zero():
    market = MarketSnapshot(TWO, (TradableLeg("nil", 0.5, np.zeros(2)),), spot=1.0)
    sol = solve_lp(build_lp(market, 0.3))
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


def _solve_both(lp):
    """The LP on both paths, each certified as `solve_lp` certifies it."""
    cuts = _solve_cuts(lp)
    assert cuts is not None and cuts.method == "cutting_plane"
    highs = _solve_highs(lp)
    for sol in (cuts, highs):
        _check_residuals(lp, sol.x)
    return cuts, highs


def test_solver_backends_agree(rng):
    for _ in range(12):
        market = random_market(rng)
        prob = build_lp(market, float(rng.uniform(0.05, 0.7)))
        for lp in (prob, _confirmation_lp(prob)):
            cuts, highs = (sol.optimal_value for sol in _solve_both(lp))
            assert abs(cuts - highs) <= 1e-8 * (1.0 + abs(highs))


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
    big, ref = _solve_both(build_lp(market, 0.1))
    assert big.optimal_value == pytest.approx(ref.optimal_value, abs=1e-8)


def test_pooled_cuts_support_es(rng):
    # every cut phase 1 leaves in the pool is a support line of ES, so it
    # stays valid at any box point, and so for the confirmation LP too
    for _ in range(3):
        market = random_market(rng, n_scenarios=800, n_legs=4)
        prob = build_lp(market, float(rng.uniform(0.05, 0.5)))
        sol = _solve_cuts(prob)
        assert sol is not None and sol.method == "cutting_plane"
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
    assert _solve_cuts(prob) is not None
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
        sol = _solve_cuts(lp)
        masters.append(len(calls))
        assert sol is not None
        values.append(sol.optimal_value)
    assert masters[0] == 1 < masters[1]
    assert values[0] == pytest.approx(values[1], abs=1e-12)


def test_cut_loop_alpha_is_var_p():
    # alpha comes from the loop's own sort of the point it returns; it must
    # be VaR_p of that point, bit for bit, on both LP kinds
    market = _two_asset_markowitz(3000)
    for p in (0.05, 0.4):
        prob = build_lp(market, p)
        for lp in (prob, _confirmation_lp(prob)):
            sol = _solve_cuts(lp)
            assert sol is not None and sol.method == "cutting_plane"
            x = sol.x[1 : 1 + lp.n_legs]
            assert sol.x[0] == var_p(WeightedSample(lp.payoffs @ x, lp.weights), p)


def _pair_market():
    # a zero-price frictionless pair: the cost row holds at every net value
    legs = (
        TradableLeg("long", 0.0, np.array([1.0, 2.0])),
        TradableLeg("short", 0.0, np.array([-1.0, -2.0])),
    )
    return MarketSnapshot(TWO, legs, spot=1.0)


def _exact_vector(lp, x):
    return _full_vector(lp, x, var_p(WeightedSample(lp.payoffs @ x, lp.weights), lp.level))


def test_check_residuals_accepts_exact_vectors():
    prob = build_lp(_pair_market(), 0.5)
    assert prob.n_legs == 1  # the frictionless pair is one net column in [-1, 1]
    for lp in (prob, _confirmation_lp(prob)):
        for net in (1.0, 0.5, 0.0):
            _check_residuals(lp, _exact_vector(lp, np.array([net])))
    _check_residuals(prob, _exact_vector(prob, np.array([-1.0])))  # ES > 0 breaks only the ES row


def test_check_residuals_rejects_hinge_row_violation():
    prob = build_lp(_pair_market(), 0.5)
    v = _exact_vector(prob, np.array([0.5]))
    v[0] -= 1.0  # alpha below the attaining quantile: every hinge row is short by 1
    with pytest.raises(SolverError, match=r"bound violation -?0\.000e"):
        _check_residuals(prob, v)


def test_check_residuals_rejects_bound_violation():
    prob = build_lp(_pair_market(), 0.5)
    for net in (1.5, -1.5):
        v = _exact_vector(prob, np.array([net]))  # rows hold, the box [-1, 1] does not
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
    assert res.arbitrage
    prob = build_lp(market, 0.05)
    assert _solve_cuts(prob) is not None
    cuts, highs = _solve_both(_confirmation_lp(prob))
    # detect took the same cutting-plane path, so it reports the same bits
    assert res.confirmation.max_expected_payoff == 0.0 - cuts.optimal_value
    assert cuts.optimal_value == pytest.approx(highs.optimal_value, abs=1e-8)
    assert -highs.optimal_value == pytest.approx(0.5, abs=1e-8)


def test_markowitz_below_threshold_agrees_across_paths():
    from esarb.analytic import MarkowitzMarket, markowitz_arbitrage, markowitz_market
    from esarb.io import detection_to_dict

    mk = MarkowitzMarket([1.1], [[0.01]], [1.0], 0.0)
    assert not markowitz_arbitrage(mk, 0.05).arbitrage  # g = 1.0 < E(0.05) = 2.06
    # 500 draws sit below the cutting-plane size rule, so detect takes HiGHS;
    # 2000 draws take the cutting planes
    for n_draws in (500, 2000):
        market = markowitz_market(mk, n_draws, np.random.default_rng(20190226))
        res = detect(market, 0.05)
        assert not res.arbitrage
        reported = detection_to_dict(res, market.labels())["confirmation"]["max_expected_payoff"]
        assert reported == 0.0 and math.copysign(1.0, reported) == 1.0
        cuts, highs = _solve_both(_confirmation_lp(build_lp(market, 0.05)))
        assert abs(cuts.optimal_value - highs.optimal_value) <= 1e-8


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


def _floats(node):
    if isinstance(node, dict):
        for value in node.values():
            yield from _floats(value)
    elif isinstance(node, list):
        for value in node:
            yield from _floats(value)
    elif isinstance(node, float):
        yield node


def test_detection_to_dict_never_emits_negative_zero(rng):
    scen = ScenarioSet([80.0, 100.0, 120.0], [0.25, 0.5, 0.25])
    chain = [InstrumentQuote("bond", None, 1.0, 1.0), InstrumentQuote("call", 100.0, 4.0, 6.0)]
    markets = [MarketSnapshot(scen, tuple(expand_quotes(chain, scen, 100.0, 0.0, 1.0)), spot=100.0)]
    markets += [_paired_market(rng, 30) for _ in range(5)]
    for market in markets:
        for p in (0.1, 0.5, 0.9):
            payload = json.loads(json.dumps(detection_to_dict(detect(market, p), market.labels())))
            assert all(math.copysign(1.0, x) == 1.0 for x in _floats(payload) if x == 0.0)


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
    assert build_lp(market, res.p_star).n_scenarios < detector._CUT_SCENARIOS  # HiGHS path
    assert detect(market, res.p_star).arbitrage
    assert not detect(market, res.p_star - 1e-4).arbitrage


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
    assert res.evaluations <= 3
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


def _option_market(rng):
    """40 scenarios, four options quoted around a random pricing density
    with narrow spreads, and the synthesized bond: ten legs."""
    n_s = 40
    points = np.sort(rng.uniform(50.0, 150.0, n_s))
    weights = rng.random(n_s) + 0.05
    weights /= weights.sum()
    q = rng.uniform(0.2, 3.0, n_s)
    q /= weights @ q
    quotes = []
    for strike in rng.choice(np.arange(60.0, 141.0, 5.0), 4, replace=False):
        kind = "call" if rng.random() < 0.5 else "put"
        mid = float(weights @ (q * InstrumentQuote(kind, float(strike)).payoff(points)))
        half = float(rng.uniform(0.0, 0.02)) * mid
        quotes.append(InstrumentQuote(kind, float(strike), mid - half, mid + half))
    scen = ScenarioSet(points, weights)
    return MarketSnapshot(scen, tuple(expand_quotes(quotes, scen, 100.0, 0.0, 1.0)), spot=100.0)


@pytest.mark.parametrize("seed", range(8))
def test_margin_lp_matches_detect_around_threshold(seed):
    market = _option_market(np.random.default_rng(seed))
    assert market.n_legs == 10
    p0 = 1.0 / float(_threshold_density(build_lp(market, 0.01)).max())
    assert p0 < 0.99
    for factor in (0.9, 1.0 - 1e-4, 1.0 + 1e-4, 1.1):
        p = factor * p0
        if p >= 1.0:
            continue
        certified = _margin_density(build_lp(market, p)) is not None
        assert certified == (not detect(market, p).arbitrage) == (factor < 1.0)
    # at p0 no density lies strictly inside the dual set: s = 0, arbitrage
    assert _margin_density(build_lp(market, p0)) is None
    assert detect(market, p0).arbitrage


@pytest.mark.parametrize("tamper", ["floor", "cap"])
def test_margin_density_rejects_tampered_answer(monkeypatch, tamper):
    # a bond pair, which any q with E_w q = 1 prices, and a dear asset that
    # every q in [0, 1/p] prices: the strict range is the one check a
    # tampered q can fail
    scen = ScenarioSet([0.0, 1.0, 2.0], [0.25, 0.25, 0.5])
    legs = (
        TradableLeg("bond", 1.0, np.ones(3)),
        TradableLeg("-bond", -1.0, -np.ones(3)),
        TradableLeg("asset", 10.0, np.array([0.0, 1.0, 2.0])),
    )
    problem = build_lp(MarketSnapshot(scen, legs, spot=1.0), 0.5)
    assert problem.n_scenarios == 3
    real = detector._linprog_highs

    def tampered(*args, **kwargs):
        res = real(*args, **kwargs)
        # E_w q stays 1; "floor" touches q = 0, "cap" touches q = 1/p = 2
        res.x[:3] = [0.0, 1.6, 1.2] if tamper == "floor" else [2.0, 0.4, 0.8]
        return res

    assert _margin_density(problem) is not None  # the untampered answer passes its check
    monkeypatch.setattr(detector, "_linprog_highs", tampered)
    with pytest.raises(SolverError, match="not strictly inside"):
        _margin_density(problem)


def test_min_p_raises_when_threshold_not_confirmed(monkeypatch):
    # min_p confirms p0 with one expected-payoff LP; a zero maximum there
    # must not pass for arbitrage
    market = capped_density_market()
    real, kinds = detector.solve_lp, []

    def unconfirmed(problem):
        kinds.append(problem.kind)
        return replace(real(problem), optimal_value=0.0)

    monkeypatch.setattr(detector, "solve_lp", unconfirmed)
    with pytest.raises(SolverError, match="no arbitrage confirmed at the threshold"):
        min_p(market, bracket=(0.01, 0.9))
    assert kinds == ["max_expected"]
