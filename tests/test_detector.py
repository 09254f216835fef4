import itertools
import json
import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.optimize._highspy._core import HighsModelStatus

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
    _certify,
    _check_density,
    _check_witness,
    _dual_density,
    _evaluate,
    _solve_cuts,
    _solve_highs,
    arbitrage_epsilon,
    build_lp,
    detect,
    solve_lp,
)
from esarb.io import detection_to_dict

from conftest import checked_min_p as min_p  # every result's portfolio is checked
from conftest import random_market, run_with_one_blas_thread
from test_models import make_mixture

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
    prob = build_lp(MarketSnapshot(scen, legs, spot=1.0))
    c, _, _, bounds = prob.highs_args("min_es", 0.5)
    lower, upper = bounds.T
    assert c.size == 6  # alpha + 2 legs + 3 scenarios
    assert prob.n_legs == 2
    assert prob.n_scenarios == 3
    assert prob.constraint_matrix.shape == (4, 6)  # 1 cost + 3 hinge
    # alpha free; portfolio boxed; auxiliaries bounded below at 0
    assert lower[0] == -math.inf and upper[0] == math.inf
    assert np.all(lower[1:3] == 0.0) and np.all(upper[1:3] == 1.0)
    assert np.all(lower[3:] == 0.0)


def test_build_lp_objective_weights():
    scen = ScenarioSet([0.0, 1.0], [0.25, 0.75])
    prob = build_lp(MarketSnapshot(scen, (TradableLeg("a", 1.0, np.array([1.0, 2.0])),), spot=1.0))
    # p times the ES objective: alpha costs p and u_i costs w_i, so the
    # level enters alpha's cost alone
    objective = prob.highs_args("min_es", 0.5)[0]
    assert objective[0] == 0.5
    assert objective[1] == 0.0
    assert objective[2:].tolist() == [0.25, 0.75]  # w_i


def _split(market, rng):
    """The market with each scenario split into 2 or 3 scenarios with its
    payoffs: weights w/2, w/2 or w/2, w/4, w/4 (exact, so they sum to w),
    at points nudged apart by a quarter of the gap to the next point."""
    points, weights = market.scenarios.points, market.scenarios.weights
    gaps = np.diff(points, append=points[-1] + 1.0)
    parts = rng.integers(2, 4, len(points))
    src = np.repeat(np.arange(len(points)), parts)
    step = np.arange(len(src)) - np.repeat(np.cumsum(parts) - parts, parts)  # 0, 1(, 2) per scenario
    shares = np.where(step == 0, 0.5, np.where(np.repeat(parts, parts) == 2, 0.5, 0.25))
    scen = ScenarioSet(points[src] + step * gaps[src] / 4.0, weights[src] * shares)
    legs = tuple(replace(leg, payoff=leg.payoff[src]) for leg in market.legs)
    return MarketSnapshot(scen, legs, spot=market.spot, upper_bound=market.upper_bound)


def _split_case(kind):
    if kind == "highs":
        return random_market(np.random.default_rng(4), n_scenarios=30, n_legs=4)
    if kind == "chain":
        from test_chain import _ladder_market

        return _ladder_market(np.random.default_rng(2))
    return _two_asset_markowitz(700)


@pytest.mark.parametrize("kind", ["highs", "chain", "cuts"])
def test_split_scenarios_keep_every_answer(kind):
    # duplicate payoff rows are separate hinge rows at their own weights,
    # which leaves every optimum, verdict and threshold where it was, on
    # each solver path
    market = _split_case(kind)
    split = _split(market, np.random.default_rng(9))
    prob, split_prob = build_lp(market), build_lp(split)
    assert split_prob.n_scenarios > prob.n_scenarios
    assert split_prob.on_highs == prob.on_highs == (kind != "cuts")
    assert (split_prob.chain is not None) == (prob.chain is not None) == (kind == "chain")
    scale, verdicts = max(market.spot, prob.payoff_scale), set()
    for p in (0.02, 0.1, 0.3, 0.6, 0.8):
        res, split_res = detect(market, p), detect(split, p)
        assert split_res.arbitrage == res.arbitrage
        assert abs(split_res.min_es - res.min_es) <= 1e-12 * scale
        verdicts.add(res.arbitrage)
    assert verdicts == {False, True}
    res, split_res = min_p(market, bracket=(1e-3, 0.9)), min_p(split, bracket=(1e-3, 0.9))
    assert res.status == split_res.status == "found"
    assert abs(split_res.p_star - res.p_star) <= 1e-12


def _positive_rows(market):
    """Reference: the positive-weight rows of the whole normalized payoff
    matrix, every column kept, and their weights."""
    keep = market.scenarios.weights > 0
    return (market.payoff_matrix() + 0.0)[keep], market.scenarios.weights[keep]


def _net_columns(payoffs, prices):
    """Reference: the pairing `build_lp` made on a transposed copy of the
    positive-weight rows."""
    cols = np.ascontiguousarray(payoffs.T)
    varies = (cols != cols[:, :1]).any(axis=1)
    waiting: dict = {}
    legs, shorts = [], []
    for j, price in enumerate(prices.tolist()):
        match = None
        if varies[j]:
            match = waiting.get((-price + 0.0, (-cols[j] + 0.0).tobytes()))
            if not match:
                waiting.setdefault((price + 0.0, cols[j].tobytes()), []).append(len(legs))
        if match:
            shorts[match.pop(0)] = j
        else:
            legs.append(j)
            shorts.append(-1)
    return np.array(legs, dtype=int), np.array(shorts, dtype=int)


def _reference_lp_blocks(market):
    """payoffs, weights, prices, legs and shorts as `build_lp` composes them
    from `_positive_rows` and `_net_columns`."""
    payoffs, weights = _positive_rows(market)
    prices = market.prices()
    legs, shorts = _net_columns(payoffs, prices)
    return payoffs[:, legs], weights, prices[legs], legs, shorts


def _doubled(market):
    """The market with every payoff row listed twice at half weight."""
    w = market.scenarios.weights
    twice = ScenarioSet(np.arange(2.0 * len(w)), np.tile(w, 2) / 2.0)
    legs = tuple(replace(leg, payoff=np.tile(leg.payoff, 2)) for leg in market.legs)
    return MarketSnapshot(twice, legs, spot=market.spot)


def _negated_pairs_market():
    """Legs on few values, zeros of both signs among them, after a constant
    leg: each long leg is followed by its negation with the zeros' signs
    flipped at random, then by one of: another such negation, a negation
    that differs in one entry, or the long leg again."""
    rng = np.random.default_rng(5)
    n_s = 300
    weights = rng.random(n_s)
    weights[rng.random(n_s) < 0.1] = 0.0
    scen = ScenarioSet(np.arange(n_s, dtype=float), weights / weights.sum())

    def negation(f):
        neg = -f
        zeros = neg == 0.0
        neg[zeros] = rng.choice(np.array([-0.0, 0.0]), size=int(zeros.sum()))
        return neg

    cols = [np.ones(n_s)]
    for k in range(3):  # 27 distinct rows, and one more from the near negation
        f = rng.choice(np.array([-1.0, -0.0, 0.0, 1.0]), size=n_s)
        near = -f
        near[7] += 2.0
        cols += [f, negation(f), [negation(f), near, -negation(f)][k]]
    legs = tuple(TradableLeg(f"c{j}", 0.0, col) for j, col in enumerate(cols))
    return MarketSnapshot(scen, legs, spot=1.0)


def _zero_weight_market():
    """A zero-weight first scenario that ties with positive-weight ones on
    every leg but the bond, which is constant on the positive weights."""
    n_s = 40
    weights = np.full(n_s, 1.0 / (n_s - 1))
    weights[0] = 0.0
    scen = ScenarioSet(np.arange(n_s, dtype=float), weights)
    stock = np.arange(n_s) % 8 * 1.0
    bond = np.ones(n_s)
    bond[0] = 5.0
    legs = (TradableLeg("bond", 1.0, bond), TradableLeg("stock", 3.0, stock),
            TradableLeg("-stock", -3.0, -stock))
    return MarketSnapshot(scen, legs, spot=1.0)


def _lp_market(kind):
    if kind == "zero weight":
        return _zero_weight_market()
    if kind == "markowitz":  # constant cash columns first, then negated legs
        return _two_asset_markowitz(3000)
    if kind == "negated":  # columns that negate the column before them
        return _negated_pairs_market()
    if kind == "digital":  # 0/1 columns, every payoff row listed twice
        return _doubled(density_market(bs_ratio_density(-0.3, 0.0, 0.15, cells=64)))
    if kind == "pairs":
        return _frictionless_pairs_market()
    scen = ScenarioSet(np.arange(50.0), np.full(50, 0.02))
    cash = (TradableLeg("cash", 1.0, np.ones(50)), TradableLeg("-cash", -1.0, -np.ones(50)))
    return MarketSnapshot(scen, cash, spot=1.0)


@pytest.mark.parametrize(
    "kind", ["markowitz", "digital", "constant", "pairs", "negated", "zero weight"]
)
def test_build_lp_blocks_bitwise_equal_merged_matrix_reference(kind):
    # the LP block gathered from the legs is the one cut from the
    # positive-weight rows of the normalized matrix, in scenario order and
    # with duplicate rows kept, layout included: BLAS sums in an order the
    # strides set
    market = _lp_market(kind)
    prob = build_lp(market)
    ref = _reference_lp_blocks(market)
    got = (prob.payoffs, prob.weights, prob.prices, prob.legs, prob.shorts)
    for array, ref_array in zip(got, ref):
        assert array.dtype == ref_array.dtype and array.shape == ref_array.shape
        assert array.tobytes() == ref_array.tobytes()
    assert prob.payoffs.strides == ref[0].strides


def test_build_lp_peak_memory_stays_below_1_8_matrices():
    # composed from the whole normalized matrix, its merged rows, their
    # transposed copy and the LP block cut from them, build_lp peaked at
    # 2.88 matrices on this market; gathered from the legs, at 1.71
    market = _two_asset_markowitz(100_000)
    matrix_bytes = market.payoff_matrix().nbytes
    assert market.payoff_matrix().shape == (100_000, 6)
    build_lp(market)  # load lazily imported code outside the trace
    tracemalloc.start()
    try:
        build_lp(market)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.8 * matrix_bytes


def _frictionless_pairs_market():
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
    return MarketSnapshot(scen, legs, spot=1.0, upper_bound=2.0)


def test_build_lp_nets_frictionless_pairs():
    prob = build_lp(_frictionless_pairs_market())
    assert prob.legs.tolist() == [0, 1, 2, 4, 5, 6]
    assert prob.shorts.tolist() == [3, -1, -1, -1, -1, -1]
    assert prob.x_lower.tolist() == [-2.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert prob.highs_args("min_es", 0.5)[3][1:7, 0].tolist() == prob.x_lower.tolist()
    assert prob.prices.tolist() == [0.7, 1.0, -np.nextafter(1.0, 0.0), 0.7, 1.0, -1.0]
    # the zero-weight scenario is gone; the rows keep scenario order
    assert prob.payoffs.tolist() == [
        [1.0, 0.5, -0.5, 1.0, 1.0, -1.0],
        [-2.0, 0.0, 0.0, -2.0, 1.0, -1.0],
    ]
    qty = prob.leg_quantities(np.array([-1.5, 0.25, 0.0, 3.0, 0.5, -0.0]))
    assert qty.tolist() == [0.0, 0.25, 0.0, 1.5, 2.0, 0.5, 0.0]
    assert not np.signbit(qty).any()


def _reference_detect(market, p):
    """detect's two-phase verdict and least ES from per-leg HiGHS LPs over
    (alpha, x, u), with every leg its own column in [0, B] and every
    scenario its own row, zero weights included."""
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


def test_netting_compares_whole_columns():
    # a near negation that differs in one payoff stays single, and fifty
    # equal-priced legs listed before their negations, in shuffled order,
    # each net with their own
    rng = np.random.default_rng(3)
    n_s = 640
    scen = ScenarioSet(np.arange(float(n_s)), np.full(n_s, 1.0 / n_s))
    f = rng.normal(size=n_s)
    near = -f
    near[3] += 1.0
    legs = [TradableLeg("f", 0.5, f), TradableLeg("near", -0.5, near), TradableLeg("-f", -0.5, -f)]
    longs = rng.integers(0, 2, size=(50, n_s)).astype(float)
    shorts = rng.permutation(50)
    legs += [TradableLeg(f"d{k}", 0.25, longs[k]) for k in range(50)]
    legs += [TradableLeg(f"-d{k}", -0.25, -longs[k]) for k in shorts]
    market = MarketSnapshot(scen, tuple(legs), spot=1.0)
    got_legs, got_shorts = detector._net_columns(market, slice(None), market.prices())
    assert got_legs.tolist() == [0, 1, *range(3, 53)]
    assert got_shorts.tolist() == [2, -1, *(53 + np.argsort(shorts)).tolist()]


# 40 scenarios take HiGHS; 700 take the cutting planes
@pytest.mark.parametrize("n_s", [40, 700])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_netting_matches_unnetted_reference(n_s, seed):
    rng = np.random.default_rng(seed)
    market = _paired_market(rng, n_s)
    p = float(rng.uniform(0.05, 0.9))
    prob = build_lp(market)
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
    sol = solve_lp(build_lp(market), 0.3)
    assert sol.optimal_value == pytest.approx(0.0, abs=1e-12)


def test_single_true_arb_leg_optimum():
    leg = TradableLeg("gift", -1.0, np.array([1.0, 1.0]))
    market = MarketSnapshot(TWO, (leg,), spot=1.0)
    sol = solve_lp(build_lp(market), 0.5)
    assert sol.optimal_value == pytest.approx(-1.0, abs=1e-9)


def test_lp_matches_brute_force_grid(rng):
    for _ in range(5):
        market = random_market(rng, n_scenarios=5, n_legs=2)
        p = float(rng.uniform(0.1, 0.6))
        lp_val = solve_lp(build_lp(market), p).optimal_value
        prices = market.prices()
        payoffs = market.payoff_matrix()
        best = 0.0
        grid = np.round(np.arange(0.0, 1.0001, 0.01), 10)
        for q0, q1 in itertools.product(grid, grid):
            q = np.array([q0, q1])
            if prices @ q > 0.0:
                continue
            s = WeightedSample(payoffs @ q, market.scenarios.weights)
            # RU(alpha) is convex and piecewise linear with kinks at -X_i,
            # so its least kink value is its minimum
            best = min(best, min(ru_objective(s, p, -v) for v in s.values))
        assert lp_val == pytest.approx(best, abs=2e-2)


# the detector's HiGHS tolerances, as `linprog` options
_LINPROG_OPTIONS = {name: detector._HIGHS_OPTS[name]
                    for name in ("primal_feasibility_tolerance", "dual_feasibility_tolerance")}


def _highs(lp, p, kind="min_es"):
    """The LP of this kind at level p on HiGHS, certified as `solve_lp`
    certifies it: "min_es" on the LP's warm model, as `solve_lp` solves
    it; "max_expected", which `solve_lp` solves on the cut path alone, as
    a test-local `linprog` reference: the "min_es" rows and bounds, the
    "min_es" costs as one more row <= 0 (ES <= 0), and costs -E_w[F x]."""
    if kind == "min_es":
        return _certified(lp, _solve_highs(lp, p), p, kind)
    c, A, b, bounds = lp.highs_args("min_es", p)
    gain = np.zeros_like(c)
    gain[1 : 1 + lp.n_legs] = -(lp.payoffs.T @ lp.weights)
    res = linprog(gain, A_ub=sparse.vstack([A, c[None, :]]), b_ub=np.append(b, 0.0),
                  bounds=bounds, method="highs", options=_LINPROG_OPTIONS)
    assert res.status == 0, res.message
    return _certified(lp, res.x[1 : 1 + lp.n_legs], p, kind)


def _certified(lp, x, p, kind):
    """Portfolio columns x for the LP of this kind at level p, certified
    with their own evaluation, as `solve_lp` certifies a HiGHS answer."""
    return _certify(lp, x, _evaluate(lp, x, p)[0], p, kind, "highs")


def _solve_both(lp, p, kind="min_es", pool=None):
    """The LP of this kind at level p on both paths, each certified as
    `solve_lp` certifies it; the cut loop starts from the pool of cuts."""
    x, evaluation = _solve_cuts(lp, p, kind, [] if pool is None else pool)
    return _certify(lp, x, evaluation, p, kind, "cutting_plane"), _highs(lp, p, kind)


def test_solver_backends_agree(rng):
    for _ in range(12):
        market = random_market(rng)
        p, prob = float(rng.uniform(0.05, 0.7)), build_lp(market)
        for kind in ("min_es", "max_expected"):
            cuts, highs = (sol.optimal_value for sol in _solve_both(prob, p, kind))
            assert abs(cuts - highs) <= 1e-8 * (1.0 + abs(highs))


def test_unknown_lp_kind_is_rejected(monkeypatch):
    # "threshold" and "interior" are kinds of `highs_args` alone: `solve_lp`
    # rejects them, and a misspelt kind, on either path before any LP is
    # solved; the confirmation LP ("max_expected") is rejected on HiGHS
    def no_lp(*args, **kwargs):
        raise AssertionError("HiGHS was called")

    monkeypatch.setattr(detector, "_Highs", no_lp)
    markets = ((true_arb_market(), "highs"), (_two_asset_markowitz(800), "cutting_plane"))
    for market, path in markets:
        prob = build_lp(market)
        assert (prob.n_scenarios >= detector._CUT_SCENARIOS) == (path == "cutting_plane")
        for kind in ("max-expected", "threshold", "interior"):
            with pytest.raises(ValueError, match=f"unknown LP kind '{kind}'"):
                solve_lp(prob, 0.3, kind)
    with pytest.raises(ValueError, match="'max_expected' is solved on the cutting-plane path alone"):
        solve_lp(build_lp(true_arb_market()), 0.3, "max_expected")


def test_lp_solution_is_primal_feasible(rng):
    market = random_market(rng, n_scenarios=30, n_legs=4)
    prob = build_lp(market)
    sol = solve_lp(prob, 0.2)
    x = sol.x  # the portfolio columns alone
    assert x.shape == (prob.n_legs,)
    assert prob.prices @ x <= 1e-9
    assert np.all(x >= prob.x_lower - 1e-9)
    assert np.all(x <= prob.upper_bound + 1e-9)
    # value and alpha are ES_p and VaR_p of the portfolio, not the solver's
    sample = WeightedSample(prob.payoffs @ x, prob.weights)
    assert (sol.optimal_value, sol.alpha) == (es_p(sample, 0.2), var_p(sample, 0.2))


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
    big, ref = _solve_both(build_lp(market), 0.1)
    assert big.optimal_value == pytest.approx(ref.optimal_value, abs=1e-8)


def _option_chain_market(n_draws):
    """Draws of incomplete-study's first alternative real-world mixture
    under a chain priced at 2 % spreads by its first pricing mixture: calls
    and puts at bid and ask on 16 strikes, and a bond."""
    from esarb.models import LognormalMixture, mc_quadrature, synthesize_chain

    pricing = make_mixture(w1=0.6, s1=0.15, s2=0.35, split=0.95)
    sds = np.array([0.25, 0.12])
    real = LognormalMixture(np.array([0.5, 0.5]), np.log([95.0, 115.0]) - 0.5 * sds**2, sds,
                            100.0, 0.02, 1.0)
    quotes = synthesize_chain(pricing, np.linspace(70.0, 145.0, 16), rel_spread=0.02)
    scen = mc_quadrature(real, n_draws, np.random.default_rng(16))
    return MarketSnapshot(scen, tuple(expand_quotes(quotes, scen, 100.0, 0.02, 1.0)),
                          100.0, 0.02, 1.0)


def test_wide_option_chain_takes_the_cut_loop():
    # 66 columns on 2000 draws and no chain form: both LP kinds take the cut
    # loop, and agree with HiGHS on values and on the two-phase verdict
    market = _option_chain_market(2000)
    eps = arbitrage_epsilon(market)
    verdicts = []
    for p in (0.05, 0.3):
        prob = build_lp(market)
        assert (prob.n_scenarios, prob.n_legs, prob.chain) == (2000, 66, None)
        cuts, highs = [], {}  # the confirmation starts from phase 1's cuts, as in detect
        for kind in ("min_es", "max_expected"):
            sol = solve_lp(prob, p, kind, cuts)
            highs[kind] = ref = _highs(prob, p, kind).optimal_value
            assert sol.method == "cutting_plane"
            assert abs(sol.optimal_value - ref) <= 1e-8 * (1.0 + abs(ref))
        highs_arbitrage = highs["min_es"] < -eps or 0.0 - highs["max_expected"] > eps
        assert detect(market, p).arbitrage == highs_arbitrage
        verdicts.append(highs_arbitrage)
    assert verdicts == [False, True]


def test_digital_market_in_chain_form_stays_on_highs():
    # 640 scenarios would take the cut loop, but the chain form
    # keeps the digital ladder on HiGHS, where no confirmation LP runs
    market = density_market(bs_ratio_density(-0.3, 0.0, 0.15, cells=640))
    prob = build_lp(market)
    assert prob.n_scenarios == 640 and prob.chain is not None
    assert solve_lp(prob, 0.05).method == "highs"
    with pytest.raises(ValueError, match="cutting-plane path alone"):
        solve_lp(prob, 0.05, "max_expected")


def test_pooled_cuts_support_es(rng):
    # every cut phase 1 leaves in the pool is a support line of ES, so it
    # stays valid at any box point, and so for the confirmation LP too
    for _ in range(3):
        market = random_market(rng, n_scenarios=800, n_legs=4)
        p, prob, cuts = float(rng.uniform(0.05, 0.5)), build_lp(market), []
        _solve_cuts(prob, p, "min_es", cuts)
        assert cuts
        F, w = prob.payoffs, prob.weights
        scale = 1.0 + float(np.abs(F).max()) * prob.upper_bound
        for x in rng.uniform(0.0, prob.upper_bound, size=(20, prob.n_legs)):
            es = es_p(WeightedSample(F @ x, w), p)
            for g, h in cuts:
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
    prob, seeded, fresh = build_lp(market), [], []
    _solve_cuts(prob, 0.05, "min_es", seeded)
    assert not hasattr(prob, "cuts")  # the caller owns every pool
    assert len(seeded) > 0
    real, calls = detector._HighsModel.solve, []

    def counted(model):  # one master LP solved
        calls.append(1)
        return real(model)

    monkeypatch.setattr(detector._HighsModel, "solve", counted)
    masters, values = [], []
    for pool in (seeded, fresh):
        calls.clear()
        x, evaluation = _solve_cuts(prob, 0.05, "max_expected", pool)
        masters.append(len(calls))
        values.append(_certify(prob, x, evaluation, 0.05, "max_expected", "cutting_plane").optimal_value)
    assert masters[0] == 1 < masters[1]
    assert values[0] == pytest.approx(values[1], abs=1e-12)


def _one_asset_markowitz(n_draws):
    from esarb.analytic import MarkowitzMarket, markowitz_market

    mk = MarkowitzMarket([1.1], [[0.01]], [1.0], 0.0)
    return markowitz_market(mk, n_draws, np.random.default_rng(7))


@pytest.mark.parametrize("make_market", [_one_asset_markowitz, _two_asset_markowitz])
def test_cut_path_evaluates_each_portfolio_once(monkeypatch, make_market):
    # the loop evaluates the start x = 0 of an empty pool and then one
    # iterate per master LP, one `tail_envelope` each, and `_certify` reads
    # the returned iterate's evaluation instead of sorting again; the value
    # and alpha are those of a fresh `tail_envelope` of F x, bit for bit
    prob = build_lp(make_market(20000))
    envelope, solve = detector.tail_envelope, detector._HighsModel.solve
    envelopes, masters = [], []
    monkeypatch.setattr(detector, "tail_envelope",
                        lambda *args: envelopes.append(1) or envelope(*args))
    monkeypatch.setattr(detector._HighsModel, "solve", lambda m: masters.append(1) or solve(m))
    w = prob.weights
    for p in (0.05, 0.4):
        pool = []
        for kind in ("min_es", "max_expected"):  # the confirmation starts from a seeded pool
            seeded = bool(pool)
            envelopes.clear()
            masters.clear()
            sol = solve_lp(prob, p, kind, pool)
            assert sol.method == "cutting_plane"
            assert len(envelopes) == len(masters) + (not seeded)
            X = prob.payoffs @ sol.x
            es, _, var = envelope(X, w, p)
            assert sol.alpha == var
            assert sol.optimal_value == (es if kind == "min_es" else 0.0 - float(w @ X))


def test_cut_loop_alpha_is_var_p():
    # alpha and the value come from the portfolio solve_lp returns, not from
    # the loop: VaR_p and (for "min_es") ES_p of it, bit for bit, on both LP
    # kinds; `test_lp_solution_is_primal_feasible` checks HiGHS the same way
    prob = build_lp(_two_asset_markowitz(3000))
    for p in (0.05, 0.4):
        for kind in ("min_es", "max_expected"):
            sol = solve_lp(prob, p, kind)
            assert sol.method == "cutting_plane"
            sample = WeightedSample(prob.payoffs @ sol.x, prob.weights)
            assert sol.alpha == var_p(sample, p)
            gain = float(prob.weights @ sample.values)
            assert sol.optimal_value == (es_p(sample, p) if kind == "min_es" else 0.0 - gain)


def test_cut_loop_iterates_pinned():
    # master LPs and the bits of min_es and alpha_star (ES_p and VaR_p of the
    # best iterate), recorded with the sort-free `tail_envelope` (exact q and
    # VaR, ES by a pairwise sum): a change to the iterates (a stabilized
    # master, say) has to update this pin on purpose
    code = "\n".join([
        "from esarb import detector",
        "from test_detector import _two_asset_markowitz",
        "real, calls = detector._HighsModel.solve, []",
        "def counted(model):",
        "    calls.append(1)",
        "    return real(model)",
        "detector._HighsModel.solve = counted",
        "lp = detector.build_lp(_two_asset_markowitz(20000))",
        "sol = detector.solve_lp(lp, 0.4, 'min_es')",
        "print(len(calls), sol.method, sol.optimal_value.hex(), sol.alpha.hex())",
    ])
    assert run_with_one_blas_thread(code).split() == [
        "16", "cutting_plane", "-0x1.7ad37137b9082p-5", "-0x1.b94dca18ff8c0p-4"
    ]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_detect_starts_no_thread():
    # HiGHS runs in the calling thread: a detect on each path (and min_p's
    # threshold LP) leaves a one-BLAS-thread process at its thread count
    code = "\n".join([
        "import os",
        "from esarb import detector",
        "from test_detector import _two_asset_markowitz, capped_density_market",
        "threads = lambda: len(os.listdir('/proc/self/task'))",
        "before, methods = threads(), []",
        "for market in (_two_asset_markowitz(2000), capped_density_market()):",
        "    methods.append(detector.solve_lp(detector.build_lp(market), 0.05).method)",
        "    detector.detect(market, 0.05)",
        "detector.min_p(capped_density_market(), bracket=(0.01, 0.9))",
        "print(*methods, before, threads())",
    ])
    methods_and_counts = run_with_one_blas_thread(code).split()
    assert methods_and_counts[:2] == ["cutting_plane", "highs"]
    assert methods_and_counts[2] == methods_and_counts[3]


@pytest.mark.parametrize("path", ["highs", "cutting_plane", "threshold"])
def test_non_optimal_highs_status_raises_after_one_solve(monkeypatch, path):
    # each LP has one solver path and HiGHS runs once on it: a non-optimal
    # status raises SolverError, with no retry and no second path. HiGHS is
    # patched before the first solve on a fresh market, so that solve
    # builds its model on the patched binding
    make = (lambda: _two_asset_markowitz(2000)) if path == "cutting_plane" else capped_density_market
    if path != "threshold":
        assert solve_lp(build_lp(make()), 0.05).method == path
    market = make()
    problem = build_lp(market)
    calls = []

    class Failing(detector._Highs):  # HiGHS ending every LP at status 4
        def run(self):
            calls.append(1)
            return super().run()

        def getModelStatus(self):
            return HighsModelStatus.kSolveError

    monkeypatch.setattr(detector, "_Highs", Failing)
    with pytest.raises(SolverError, match="HiGHS status 4: Solve error"):
        if path == "threshold":
            min_p(market, bracket=(0.01, 0.9))
        else:
            solve_lp(problem, 0.05)
    assert len(calls) == 1


@pytest.mark.parametrize("kind", ["min_es", "max_expected"])
def test_spent_cut_budget_raises(monkeypatch, kind):
    # the cut loop hands nothing to HiGHS: once _MAX_CUTS master LPs end
    # without convergence, solve_lp raises
    problem = build_lp(_two_asset_markowitz(2000))
    assert solve_lp(problem, 0.05, kind).method == "cutting_plane"
    monkeypatch.setattr(detector, "_MAX_CUTS", 1)
    with pytest.raises(SolverError, match="did not converge in 1 master LPs"):
        solve_lp(problem, 0.05, kind)


def _pair_market():
    # a zero-price frictionless pair: the cost row holds at every net value
    legs = (
        TradableLeg("long", 0.0, np.array([1.0, 2.0])),
        TradableLeg("short", 0.0, np.array([-1.0, -2.0])),
    )
    return MarketSnapshot(TWO, legs, spot=1.0)


def test_certify_accepts_box_points():
    prob = build_lp(_pair_market())
    assert prob.n_legs == 1  # the frictionless pair is one net column in [-1, 1]
    for kind in ("min_es", "max_expected"):
        for net in (1.0, 0.5, 0.0):
            sol = _certified(prob, np.array([net]), 0.5, kind)
            assert sol.alpha == var_p(WeightedSample(prob.payoffs[:, 0] * net, prob.weights), 0.5)
    # ES > 0 fails only the ES check of "max_expected"
    assert _certified(prob, np.array([-1.0]), 0.5, "min_es").optimal_value == 2.0
    with pytest.raises(SolverError, match=r"box excess 0\.000e\+00, cost 0\.000e\+00, ES 2\.000e"):
        _certified(prob, np.array([-1.0]), 0.5, "max_expected")


def test_certify_rejects_box_violation():
    prob = build_lp(_pair_market())
    for net in (1.5, -1.5):  # the box [-1, 1] does not hold
        with pytest.raises(SolverError, match=r"box excess 5\.000e-01"):
            _certified(prob, np.array([net]), 0.5, "min_es")


@pytest.mark.parametrize("fault", ["box", "cost", "es"])
def test_faulty_highs_portfolio_raises_after_one_solve(monkeypatch, fault):
    # HiGHS reports an optimum whose portfolio leaves the box, costs more
    # than 0, or (for an arbitrage witness: the threshold LP's x* here,
    # with no pricing density) has ES_p > 0: the certificate rejects it
    # after the one solve
    # (HiGHS is patched before the first solve, on a fresh market)
    asset = TradableLeg("asset", 0.5, np.array([0.0, 1.0]))
    make = lambda: MarketSnapshot(TWO, _pair_market().legs + (asset,), spot=1.0)
    problem = build_lp(make())
    assert problem.n_legs == 2 and solve_lp(problem, 0.5).method == "highs"
    problem = build_lp(make())
    x, kind, match = {
        "box": ([0.0, 1.5], "min_es", r"box excess 5\.000e-01"),
        "cost": ([0.0, 0.5], "min_es", r"cost 2\.500e-01"),
        "es": ([-1.0, 0.0], "max_expected", r"ES 2\.000e\+00"),  # the pair short: costs 0
    }[fault]
    calls = []

    class Stub(detector._Highs):  # an optimal status with alpha = 0, u = 0 and this x
        def run(self):
            calls.append(1)
            return super().run()

        def getSolution(self):
            solution = super().getSolution()
            v = np.zeros(self.getNumCol())
            v[1:3] = x
            solution.col_value = v
            return solution

    monkeypatch.setattr(detector, "_Highs", Stub)
    with pytest.raises(SolverError, match=match):
        if kind == "min_es":
            solve_lp(problem, 0.5, kind)
        else:
            min_p(make(), bracket=(0.1, 0.9))
    assert len(calls) == 1


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
    prob, pool = build_lp(market), []
    _solve_cuts(prob, 0.05, "min_es", pool)
    cuts, highs = _solve_both(prob, 0.05, "max_expected", pool)
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
        cuts, highs = _solve_both(build_lp(market), 0.05, "max_expected")
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


@pytest.mark.parametrize("n_scenarios, path", [(40, "highs"), (800, "cutting_plane")])
def test_every_arbitrage_portfolio_checks_without_the_solver(rng, n_scenarios, path):
    # each arbitrage verdict's portfolio, recomputed here from the market
    # with `price`, `es_p` and the weights: cost and ES_p at most 1e-9 of
    # the payoff scale, expected payoff above epsilon, on both solver paths
    found = 0
    for _ in range(6):
        market = random_market(rng, n_scenarios=n_scenarios, n_legs=int(rng.integers(3, 7)))
        assert solve_lp(build_lp(market), 0.5).method == path
        eps = arbitrage_epsilon(market)
        tol = 1e-9 * (1.0 + float(np.abs(market.payoff_matrix()).max()) * market.upper_bound)
        for p in (0.6, 0.9, 0.99):  # many scenarios: arbitrage only near p = 1
            res = detect(market, p)
            if not res.arbitrage:
                continue
            found += 1
            dist = payoff_distribution(market, res.portfolio)
            assert price(market, res.portfolio) <= tol
            assert es_p(dist, p) <= tol
            assert float(dist.weights @ dist.values) > eps
    assert found >= 3


def test_epsilon_ignores_zero_weight_scenarios():
    # a weight-0 scenario paying 1e9 must not set the strict-negativity
    # threshold: the zero-price lottery is an arbitrage with or without it
    lottery = np.array([1.0, 0.0, 0.0])
    leg = np.array([1.0, 1.0, 1e9])
    for n in (3, 2):  # with the weight-0 scenario, then without it
        scen = ScenarioSet([1.0, 2.0, 3.0][:n], [0.5, 0.5, 0.0][:n])
        market = MarketSnapshot(scen, (TradableLeg("lottery", 0.0, lottery[:n]),
                                       TradableLeg("leg", 1.0, leg[:n])), spot=1.0)
        assert arbitrage_epsilon(market) == 1e-6
        res = detect(market, 0.3)
        assert res.arbitrage and res.confirmation.max_expected_payoff == 0.5
        found = min_p(market, bracket=(0.01, 0.9))
        assert (found.p_star, found.status) == (0.01, "at or below bracket")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_arbitrage_epsilon_reads_positive_weight_payoffs(seed):
    # epsilon is read off the LP; it is 1e-6 of the spot or of the largest
    # |payoff| on a positive-weight scenario, bit for bit, on markets with
    # weight-0 scenarios (paying 1e9 on some legs), duplicate rows, +-0.0
    # entries, netted pairs (whose short leg need not negate its long one
    # on a weight-0 row) and constant legs, netted or not
    rng = np.random.default_rng(seed)
    n_s = int(rng.integers(2, 12))
    weights = rng.random(n_s) * (rng.random(n_s) < 0.7)
    weights[rng.integers(n_s)] += 0.5
    zero = weights == 0.0
    scen = ScenarioSet(np.arange(float(n_s)), weights / weights.sum())
    pool = np.array([0.0, -0.0, 1.0, -2.5, 3.0, *rng.normal(size=2)])
    legs = []
    for k in range(int(rng.integers(1, 5))):
        constant = rng.random() < 0.3
        pay = np.full(n_s, rng.choice(pool)) if constant else rng.choice(pool, n_s)
        if rng.random() < 0.3:
            pay = np.where(zero, 1e9, pay)
        price = float(rng.normal())
        legs.append(TradableLeg(f"leg{k}", price, pay))
        if rng.random() < 0.5:  # its negation, which nets with it
            short = np.where(zero & (rng.random(n_s) < 0.5), -7e8, 0.0 - pay)
            legs.append(TradableLeg(f"-leg{k}", 0.0 - price, short))
    spot = float(rng.choice([1e-3, 1.0, 5.0]))
    market = MarketSnapshot(scen, tuple(legs), spot=spot)
    biggest = max(float(np.abs(leg.payoff[~zero]).max()) for leg in market.legs)
    assert arbitrage_epsilon(market) == 1e-6 * max(market.spot, biggest)
    prob = build_lp(market)
    assert prob.payoff_scale == float(np.abs(prob.payoffs).max())


def test_check_density_rejects_nan():
    # a NaN fails every `_check_density` test, as a residual above 1e-9
    # does: NaN duals under an "optimal" status certify no density
    prob = build_lp(capped_density_market())
    q, lam = np.array([2.0, 0.5]), 1.0  # the market's pricing density
    _check_density(prob, q, lam)
    for bad_q, bad_lam in [(np.full(2, np.nan), np.nan), (q, np.nan), (np.array([np.nan, 0.5]), lam),
                           (np.array([2.0, np.nan]), lam)]:
        with pytest.raises(SolverError, match="numerical failure"):
            _check_density(prob, bad_q, bad_lam)


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
    # pays only outside the worst-p tail: phase-1 optimum is exactly 0, and
    # every pricing density is 0 where it pays, so the interior LP's
    # portfolio, a classical arbitrage, decides
    scen = ScenarioSet([0.0, 1.0, 2.0], [0.4, 0.3, 0.3])
    leg = TradableLeg("late payer", 0.0, np.array([0.0, 0.0, 1.0]))
    market = MarketSnapshot(scen, (leg,), spot=1.0)
    res = detect(market, 0.3)
    assert res.arbitrage
    assert res.min_es == pytest.approx(0.0, abs=1e-12)
    assert res.confirmation is not None
    assert res.confirmation.max_expected_payoff == pytest.approx(0.3, abs=1e-9)
    # the returned portfolio is that witness, not the zero point
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
    for tol in (0.0, -1e-4, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            min_p(market, bracket=(0.1, 0.5), tol=tol)


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
    assert build_lp(market).n_scenarios < detector._CUT_SCENARIOS  # HiGHS path
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
def test_min_p_exact_on_complete_densities(monkeypatch, density):
    market, calls = density_market(density), []
    real = detector._HighsModel.solve

    def counted(model):
        calls.append(model)
        return real(model)

    monkeypatch.setattr(detector._HighsModel, "solve", counted)
    res = min_p(market, bracket=(1e-4, 0.9), tol=1e-4)
    assert res.status == "found"
    # q* certifies lo and x* witnesses p0: HiGHS solves the threshold LP alone
    assert res.evaluations == len(calls) == 1
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
    assert res.evaluations <= 2
    if res.status == "at or below bracket":
        assert res.p_star == lo and detect(market, lo).arbitrage
    elif res.status == "none in bracket":
        assert res.p_star is None and not detect(market, hi).arbitrage
    else:
        assert res.status == "found" and lo <= res.p_star <= hi
        assert detect(market, res.p_star).arbitrage
        if res.p_star - tol > lo:
            assert not detect(market, res.p_star - tol).arbitrage


def _columns(problem, quantities):
    """The LP's portfolio columns of per-leg quantities: a netted pair's
    column is its long leg's quantity less its short leg's."""
    net = problem.shorts >= 0
    short = np.where(net, quantities[np.where(net, problem.shorts, 0)], 0.0)
    return quantities[problem.legs] - short


def _recorded_certificates(monkeypatch):
    """Record every density `_check_density` accepts, as (q, lam), and
    every `_inside` test, as (q, p, answer)."""
    accepted, tested = [], []
    check, inside = detector._check_density, detector._inside

    def recorded_check(problem, q, lam):
        check(problem, q, lam)
        accepted.append((q, lam))

    def recorded_inside(q, p, floor=0.0):
        tested.append((q, p, inside(q, p, floor)))
        return tested[-1][2]

    monkeypatch.setattr(detector, "_check_density", recorded_check)
    monkeypatch.setattr(detector, "_inside", recorded_inside)
    return accepted, tested


def _highs_verdict_markets(kind):
    if kind == "priced":
        rng = np.random.default_rng(12345)
        return [_priced_market(rng) for _ in range(300)]
    if kind == "steps":  # criterion 5's step densities
        return [density_market(_step(*args)) for args in ((1.5, 0.4), (2.0, 1.0 / 3.0),
                                                            (4.0, 0.1), (10.0, 0.02))]
    from test_warm import _study_markets  # imported here: test_warm imports this module

    return list(_study_markets())


@pytest.mark.parametrize("kind", ["priced", "steps", "study"])
def test_highs_verdicts_rest_on_checked_certificates(monkeypatch, kind):
    # HiGHS-path `detect` at ten levels per market gives the verdict of the
    # dense two-phase `linprog` reference. An arbitrage's portfolio passes
    # `_check_witness`; a boundary no-arbitrage rests on a density that
    # `_check_density` accepted and that lies strictly inside (0, 1/p),
    # checked again here from the recorded (q, lam)
    accepted, tested = _recorded_certificates(monkeypatch)
    levels = np.linspace(0.05, 0.95, 10).tolist()
    boundary_no_arbitrage = 0
    for market in _highs_verdict_markets(kind):
        problem = build_lp(market)
        assert problem.on_highs
        eps = arbitrage_epsilon(market)
        for p in levels:
            tested.clear()
            res = detect(market, p)
            assert res.arbitrage == _reference_detect(market, p)[0]
            if res.arbitrage:
                _check_witness(problem, _columns(problem, res.portfolio.quantities), p, eps)
            elif res.confirmation is not None:
                q, at, answer = tested[-1]
                assert at == p and answer and 0.0 < q.min() and p * q.max() < 1.0
                (lam,) = [lam for density, lam in accepted if density is q][-1:]
                _check_density(problem, q, lam)
                assert res.confirmation.max_expected_payoff == 0.0
                boundary_no_arbitrage += 1
    assert boundary_no_arbitrage > 0


def _tampering(monkeypatch, tamper):
    """Let `tamper(bounds, x, row_duals)` edit each HiGHS answer (column
    values and row duals) in place before the detector reads it; returns
    the column bounds of every LP solved, in order."""
    solved = []

    class Tampered(detector._HighsModel):
        def __init__(self, c, A, b, bounds):
            super().__init__(c, A, b, bounds)
            self.bounds = bounds

        def solve(self):
            x, row_duals, value = super().solve()
            solved.append(self.bounds)
            tamper(self.bounds, x, row_duals)
            return x, row_duals, value

    monkeypatch.setattr(detector, "_HighsModel", Tampered)
    return solved


@pytest.mark.parametrize("tamper", ["mass", "negative", "pricing"])
def test_threshold_density_rejects_tampered_answer(monkeypatch, tamper):
    problem = build_lp(capped_density_market())

    def tampered(bounds, x, row_duals):
        # minus the hinge rows' duals r, from which q = r / (w sum r)
        marginals = row_duals[1 : 1 + problem.n_scenarios]
        if tamper == "mass":  # E_w q stays 1, but the cost row's dual no
            marginals *= 1.001  # longer scales with sum r: q misprices the bond
        elif tamper == "negative":
            marginals[-1] = 1e-3
        else:  # move dual mass from the last cell to the first: sum r stays
            marginals[0] -= 1e-3
            marginals[-1] += 1e-3

    _dual_density(problem, "threshold")  # the untampered answer passes its check
    _tampering(monkeypatch, tampered)
    with pytest.raises(SolverError):
        _dual_density(problem, "threshold")


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
def test_min_p_lower_end_matches_detect_around_threshold(seed):
    market = _option_market(np.random.default_rng(seed))
    assert market.n_legs == 10
    p0 = 1.0 / float(build_lp(market).threshold[0].max())
    assert p0 < 0.99
    for factor in (0.9, 1.0 - 1e-4, 1.0 + 1e-4, 1.1):
        lo = factor * p0
        if lo >= 1.0:
            continue
        res = min_p(market, bracket=(lo, 0.5 * (1.0 + max(lo, 0.99))))  # p0 < 0.99 < hi
        below = res.status == "at or below bracket"
        assert below == detect(market, lo).arbitrage == (factor >= 1.0)
        if not below:  # the threshold LP does not depend on the level
            assert res.status == "found" and res.p_star == p0
    # at p0 no density lies strictly inside the dual set: max q* = 1/p0
    res = min_p(market, bracket=(p0, 0.995))
    assert res.status == "at or below bracket" and res.evaluations == 1  # x* witnesses lo
    assert detect(market, p0).arbitrage


def _dear_asset_market():
    # a bond pair, which any q with E_w q = 1 prices, and a dear asset that
    # every q in [0, 1/p] prices: no arbitrage at any level, q* = 1
    scen = ScenarioSet([0.0, 1.0, 2.0], [0.25, 0.25, 0.5])
    legs = (
        TradableLeg("bond", 1.0, np.ones(3)),
        TradableLeg("-bond", -1.0, -np.ones(3)),
        TradableLeg("asset", 10.0, np.array([0.0, 1.0, 2.0])),
    )
    return MarketSnapshot(scen, legs, spot=1.0)


@pytest.mark.parametrize("tamper", ["floor", "cap"])
def test_min_p_tampered_threshold_answer_is_no_certificate(monkeypatch, tamper):
    bracket = (0.5, 0.9)
    untampered = min_p(_dear_asset_market(), bracket=bracket)
    assert (untampered.status, untampered.evaluations) == ("none in bracket", 1)
    market, real_solve, solved = _dear_asset_market(), detector.solve_lp, []  # a fresh LP

    def tampered(bounds, x, row_duals):
        if bounds[0][0] == -1.0:  # alpha fixed at -1: the threshold LP
            # hinge duals r = w q with sum r = 1 = p0 keep E_w q = 1 and
            # every pricing row; "floor" touches q = 0, "cap" q = 1/lo = 2
            q = [0.0, 1.6, 1.2] if tamper == "floor" else [2.0, 0.4, 0.8]
            row_duals[1:4] = -market.scenarios.weights * q

    def recorded(problem, level, kind="min_es", cuts=None):
        solved.append((kind, level))
        return real_solve(problem, level, kind, cuts)

    lps = _tampering(monkeypatch, tampered)
    monkeypatch.setattr(detector, "solve_lp", recorded)
    # "floor": p0 = 1 / max q = 0.625 > lo, q misses the floor, and the
    # interior LP at lo finds no arbitrage; "cap": p0 = lo and no other LP
    # runs. Either way the threshold LP's portfolio, zero here, witnesses
    # no arbitrage at max(p0, lo), and no LP is solved at a level
    at = "0.625" if tamper == "floor" else "0.5:"
    with pytest.raises(SolverError, match=f"no arbitrage witnessed at p = {at}"):
        min_p(market, bracket=bracket)
    assert solved == []
    # alpha's lower bound: -1 in the threshold LP, free in the interior LP
    assert [bounds[0][0] for bounds in lps] == ([-1.0, -math.inf] if tamper == "floor" else [-1.0])


@pytest.mark.parametrize("market", [true_arb_market, capped_density_market])
def test_min_p_builds_one_lp_and_never_detects(monkeypatch, market):
    market = market()
    calls = []

    def counted(real):
        def wrapper(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(detector, "build_lp", counted(detector.build_lp))
    monkeypatch.setattr(detector, "detect", counted(detector.detect))
    min_p(market, bracket=(0.01, 0.9), tol=1e-3)
    assert calls == ["build_lp"]


@pytest.mark.parametrize("call", ["min_p", "detect"])
def test_one_call_builds_chain_and_matrix_once(monkeypatch, call):
    # the level is an argument of solve_lp, so min_p's threshold LP, and
    # detect's phase 1 and level-free LPs, share one LpProblem: its chain
    # form and constraint matrix are built once per call
    market = density_market(bs_ratio_density(drift=-0.3, rate=0.0, sigma=0.15, cells=512))
    counts = dict.fromkeys(["chain", "constraint_matrix"], 0)
    for name in counts:
        prop = vars(LpProblem)[name]

        def counted(problem, real=prop.func, name=name):
            counts[name] += 1
            return real(problem)

        monkeypatch.setattr(prop, "func", counted)
    if call == "min_p":
        res = min_p(market, bracket=(1e-4, 0.9))
        assert (res.status, res.evaluations) == ("found", 1)
    else:
        res = detect(market, 0.005)  # below p* = 0.0104: q* decides
        assert res.confirmation is not None and not res.arbitrage
    assert counts == {"chain": 1, "constraint_matrix": 1}


def test_min_p_without_pricing_density_is_below_bracket():
    # a zero-price gift leg pays >= 0.28 in every scenario: no pricing density
    market = _priced_market(np.random.default_rng(22971))
    assert market.legs[-1].label == "gift" and market.legs[-1].price == 0.0
    assert market.legs[-1].payoff.min() >= 0.28
    assert _dual_density(build_lp(market), "threshold")[0] is None
    res = min_p(market, bracket=(0.01, 0.95), tol=1e-3)
    assert (res.p_star, res.status, res.evaluations) == (0.01, "at or below bracket", 1)


def _lottery_market():
    # a zero-price lottery pays where every pricing density is 0: q* = (0, 2)
    # misses the floor, so the interior LP decides lo
    scen = ScenarioSet([1.0, 2.0], [0.5, 0.5])
    legs = (TradableLeg("lottery", 0.0, np.array([1.0, 0.0])),
            TradableLeg("leg", 1.0, np.array([1.0, 1.0])))
    return MarketSnapshot(scen, legs, spot=1.0)


@pytest.mark.parametrize("case", ["found", "x* below", "interior below", "none"])
def test_min_p_returns_its_witness(case):
    # the portfolio is the arbitrage the verdict rests on: the threshold
    # LP's x* or the interior LP's classical arbitrage at lo, scaled into
    # the box
    market, bracket, status, evals = {
        "found": (capped_density_market(), (0.01, 0.9), "found", 1),
        "x* below": (_priced_market(np.random.default_rng(22971)), (0.01, 0.95),
                     "at or below bracket", 1),
        "interior below": (_lottery_market(), (0.01, 0.9), "at or below bracket", 2),
        "none": (_dear_asset_market(), (0.5, 0.9), "none in bracket", 1),
    }[case]
    res = min_p(market, bracket=bracket)
    assert (res.status, res.evaluations) == (status, evals)
    if case == "none":
        assert res.portfolio is None
        return
    problem = build_lp(market)
    x = _dual_density(problem, "interior" if case == "interior below" else "threshold")[1]
    x = x * (problem.upper_bound / max(float(np.abs(x).max()), problem.upper_bound))
    assert res.portfolio.quantities.tobytes() == problem.leg_quantities(x).tobytes()
    assert res.portfolio.upper_bound == market.upper_bound


@pytest.mark.parametrize("tamper", ["zero", "halve"])
def test_min_p_raises_when_threshold_portfolio_is_no_witness(monkeypatch, tamper):
    # min_p answers p0 from the threshold LP's own portfolio x*, checked
    # with es_p, E_w and the cost row; a tampered x* must not pass for
    # arbitrage, and no LP may stand in for it
    market = capped_density_market()

    def tampered(bounds, x, row_duals):
        if bounds[0][0] == -1.0:  # alpha fixed at -1: the threshold LP
            x = x[1 : 1 + build_lp(market).n_legs]
            if tamper == "zero":
                x[:] = 0.0
            else:
                x[np.argmax(np.abs(x))] *= 0.5

    assert min_p(market, bracket=(0.01, 0.9)).status == "found"
    market = capped_density_market()  # a fresh LP: the held one keeps its threshold answer
    solved = _tampering(monkeypatch, tampered)
    # the zero portfolio has no expected payoff; the halved one costs 0.5
    match = {"zero": r"no arbitrage witnessed at p = 0\.5: expected payoff 0\.000e\+00",
             "halve": r"portfolio fails its check at p = 0\.5: .*cost 5\.000e-01"}[tamper]
    with pytest.raises(SolverError, match=match):
        min_p(market, bracket=(0.01, 0.9))
    assert [bounds[0][0] for bounds in solved] == [-1.0]  # alpha's lower bound: HiGHS solved the threshold LP alone
