"""The one warm HiGHS model per HiGHS-path LP, and `build_lp`'s memo.

A level sweep of `detect` on one market solves every level's detection LP
on one HiGHS model, each an edit of it re-solved from the last basis, and
the level-free threshold and interior LPs once each, on cold models that
the LP holds the answers of. Here a warm sweep is checked against a cold
solve per level (a fresh LP, so a fresh model) on the incomplete study's
four piecewise-linear quadrature markets and on small bid/ask markets, in
both directions of p, and the LPs a sweep solves are counted. `build_lp`
holds the LP of the latest HiGHS-path market only while that market
lives, and a failed warm solve drops its model.
"""

import copy
import functools
import gc
import math
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esarb import InstrumentQuote, MarketSnapshot, detector
from esarb.analytic import bs_ratio_density, density_market
from esarb.detector import (
    SolverError,
    _check_witness,
    arbitrage_epsilon,
    build_lp,
    detect,
    solve_lp,
)
from esarb.market import expand_quotes
from esarb.models import (
    LognormalMixture,
    calibrate_mixture,
    default_pl_grid,
    pl_quadrature,
    synthesize_chain,
)

from test_detector import _columns, _priced_market, _two_asset_markowitz, capped_density_market

P_GRID = np.round(np.linspace(0.02, 0.4, 20), 6)  # the incomplete study's levels


@functools.lru_cache(maxsize=1)
def _study_markets():
    """The incomplete study's four 200 x 54 PL markets, as perfbench's
    incomplete-study workload builds them: two option chains (mixture
    prices, each mid moved within half its half-spread by stream 1), each
    priced on its calibrated mixture and on an alternative model."""
    spot, rate, maturity = 100.0, 0.02, 1.0
    strikes = np.arange(70.0, 131.0, 5.0)
    fwd = spot * math.exp(rate * maturity)

    def mixture(weights, forwards, sds):
        sds = np.asarray(sds, float)
        return LognormalMixture(np.asarray(weights, float), np.log(np.asarray(forwards, float))
                                - 0.5 * sds**2, sds, spot, rate, maturity)

    def perturbed(quote, rng):
        if quote.kind not in ("call", "put"):
            return quote
        half = 0.5 * (quote.ask - quote.bid)
        mid = 0.5 * (quote.ask + quote.bid) + 0.5 * half * rng.uniform(-1.0, 1.0)
        return InstrumentQuote(quote.kind, quote.strike, mid - half, mid + half)

    plan = [
        ((0.6, 0.95, 0.15, 0.35), ((0.5, 0.5), (95.0, 115.0), (0.25, 0.12))),
        ((0.3, 0.90, 0.20, 0.30), ((0.2, 0.8), (70.0, 108.0), (0.30, 0.15))),
    ]
    rng, markets = np.random.default_rng(1), []
    for (w1, f1, s1, s2), alternative in plan:
        pricing = mixture((w1, 1.0 - w1), (f1 * fwd, (fwd - w1 * f1 * fwd) / (1.0 - w1)), (s1, s2))
        chain = [perturbed(q, rng) for q in synthesize_chain(pricing, strikes, rel_spread=0.02)]
        fit = calibrate_mixture(chain, spot, rate, maturity, seed=0)
        for model in (fit.mixture, mixture(*alternative)):
            scen = pl_quadrature(model, default_pl_grid(model, strikes))
            legs = tuple(expand_quotes(chain, scen, spot, rate, maturity))
            markets.append(MarketSnapshot(scen, legs, spot, rate, maturity))
    return tuple(markets)


def _counting_models(monkeypatch):
    """Count the HiGHS models the detector builds."""
    built, real = [], detector._HighsModel

    def counted(*args):
        built.append(1)
        return real(*args)

    monkeypatch.setattr(detector, "_HighsModel", counted)
    return built


def _kind(c, bounds):
    """The LP kind of a HiGHS model from its first costs and bounds: alpha
    fixed at -1 ("threshold"), alpha costing 1 ("interior": a detection
    LP's alpha costs p < 1), else "min_es"."""
    if bounds[0][0] == -1.0:
        return "threshold"
    return "interior" if c[0] == 1.0 else "min_es"


def _counting_solves(monkeypatch):
    """The LP kind of each `_HighsModel.solve`, in order, and of each model
    built."""
    solves, built = [], []

    class Counted(detector._HighsModel):
        def __init__(self, c, A, b, bounds):
            super().__init__(c, A, b, bounds)
            self.kind = _kind(c, bounds)
            built.append(self.kind)

        def solve(self):
            solves.append(self.kind)
            return super().solve()

    monkeypatch.setattr(detector, "_HighsModel", Counted)
    return solves, built


def _assert_warm_sweep_matches_cold(market, monkeypatch):
    """A warm `detect` sweep over P_GRID, up and then down, on one copy of
    the market against a cold `detect` per level, each on a fresh copy: the
    same verdicts and phases, min_es within 1e-12 (1 + payoff scale), and
    every arbitrage witness certified by `_check_witness`. The warm sweep
    builds one detection LP model, and at most one model of each
    level-free LP."""
    for grid in (P_GRID, P_GRID[::-1]):
        levels = [float(p) for p in grid]
        cold = [detect(copy.copy(market), p) for p in levels]
        warm_market = copy.copy(market)
        problem = build_lp(warm_market)
        assert problem.on_highs
        eps, tol = arbitrage_epsilon(warm_market), 1e-12 * (1.0 + problem.payoff_scale)
        with monkeypatch.context() as patch:
            solves, built = _counting_solves(patch)
            warm = [detect(warm_market, p) for p in levels]
        assert built.count("min_es") == 1 and build_lp(warm_market) is problem
        assert solves.count("min_es") == len(levels) and len(solves) == len(levels) + len(built) - 1
        assert built.count("threshold") <= 1 and built.count("interior") <= 1
        for p, w, c in zip(levels, warm, cold):
            assert w.arbitrage == c.arbitrage
            assert (w.confirmation is None) == (c.confirmation is None)
            assert abs(w.min_es - c.min_es) <= tol
            if w.confirmation is not None:
                gains = (w.confirmation.max_expected_payoff, c.confirmation.max_expected_payoff)
                assert abs(gains[0] - gains[1]) <= tol
            if w.arbitrage:
                _check_witness(problem, _columns(problem, w.portfolio.quantities), p, eps)


@pytest.mark.parametrize("index", range(4))
def test_warm_sweep_matches_cold_on_the_study_markets(monkeypatch, index):
    market = _study_markets()[index]
    assert (len(market.scenarios), market.n_legs) == (200, 54)
    _assert_warm_sweep_matches_cold(market, monkeypatch)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_warm_sweep_matches_cold_on_small_markets(seed):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_warm_sweep_matches_cold(_priced_market(np.random.default_rng(seed)), monkeypatch)


@pytest.mark.parametrize("name", ["study 0", "study 3", "bs512", "capped"])
def test_warm_lp_kinds_match_cold_at_every_level(name):
    # the one LP kind a warm model serves, "min_es", at every level, up and
    # then down: each warm answer is within 1e-12 (1 + payoff scale) of a
    # fresh LP's cold one, on the plain PL form and on the chain form
    market = {"study 0": lambda: _study_markets()[0], "study 3": lambda: _study_markets()[3],
              "bs512": lambda: density_market(bs_ratio_density(-0.3, 0.0, 0.15, cells=512)),
              "capped": capped_density_market}[name]()
    problem = build_lp(copy.copy(market))
    tol = 1e-12 * (1.0 + problem.payoff_scale)
    for grid in (P_GRID, P_GRID[::-1]):
        for p in map(float, grid):
            warm = solve_lp(problem, p)
            cold = solve_lp(build_lp(copy.copy(market)), p)
            assert abs(warm.optimal_value - cold.optimal_value) <= tol


@pytest.mark.parametrize("index", range(4))
def test_study_sweep_solves_no_confirmation(monkeypatch, index):
    # a sweep of one study market over P_GRID solves one threshold LP, at
    # most one interior LP, no confirmation LP and one detection LP per
    # level, and `min_p` on it afterwards solves nothing more
    market = copy.copy(_study_markets()[index])
    solves, _ = _counting_solves(monkeypatch)
    for p in map(float, P_GRID):
        detect(market, p)
    assert solves.count("threshold") == 1 and solves.count("interior") <= 1
    assert solves.count("min_es") == len(P_GRID) and len(solves) <= len(P_GRID) + 2
    solves.clear()
    detector.min_p(market, bracket=(0.02, 0.4))
    assert solves == []


def test_build_lp_holds_the_latest_highs_market_while_it_lives():
    market = capped_density_market()
    problem = build_lp(market)
    assert problem.on_highs and build_lp(market) is problem
    # each thread holds its own LP
    other = []
    thread = threading.Thread(target=lambda: other.append(build_lp(market)))
    thread.start()
    thread.join()
    assert other[0] is not problem and build_lp(market) is problem
    # a cut-path LP is never held, and holds nothing else
    cut_market = _two_asset_markowitz(2000)
    cut = build_lp(cut_market)
    assert not cut.on_highs and build_lp(cut_market) is not cut
    dead = weakref.ref(cut)
    del cut
    gc.collect()
    assert dead() is None and build_lp(market) is not problem
    # the held LP, and its warm model, die with the market
    problem = build_lp(market)
    solve_lp(problem, 0.3)
    assert problem.warm.model is not None
    dead = weakref.ref(problem)
    del market, problem
    gc.collect()
    assert dead() is None


def test_a_sweep_over_markets_leaves_one_highs_model(monkeypatch):
    alive = weakref.WeakSet()

    class Counted(detector._Highs):
        def __init__(self):
            super().__init__()
            alive.add(self)

    monkeypatch.setattr(detector, "_Highs", Counted)
    # with every market alive, and without a cyclic garbage collection: an
    # LP is freed as soon as `build_lp` moves on to the next market
    markets = [copy.copy(m) for m in _study_markets()]
    gc.disable()
    try:
        for market in markets:
            for p in P_GRID:
                detect(market, float(p))
            assert len(alive) == 1
    finally:
        gc.enable()


@pytest.mark.parametrize("fault", ["status", "certificate"])
def test_failed_warm_solve_drops_its_model(monkeypatch, fault):
    # a non-optimal status or a failed certificate on a warm model raises
    # SolverError after its one solve and drops the model: the next solve
    # on that market builds a new one, and answers as a cold LP does
    market = capped_density_market()
    problem = build_lp(market)
    solve_lp(problem, 0.3)
    assert problem.warm.model is not None
    solves, real = [], detector._HighsModel.solve

    def faulty(model):
        solves.append(1)
        x, row_duals, value = real(model)
        x[1] = 2.0 * problem.upper_bound  # the first portfolio column leaves the box
        return x, row_duals, value

    with monkeypatch.context() as patch:
        patch.setattr(detector._HighsModel, "solve", faulty)
        match = "box excess"
        if fault == "status":  # no status reads as optimal
            patch.setattr(detector, "HighsModelStatus", type("Status", (), {"kOptimal": None}))
            match = "HiGHS status 7: Optimal"
        with pytest.raises(SolverError, match=match):
            solve_lp(problem, 0.4)
    assert len(solves) == 1 and problem.warm.model is None
    built = _counting_models(monkeypatch)
    answer = solve_lp(build_lp(market), 0.4)
    assert build_lp(market) is problem and len(built) == 1
    assert answer.x.tobytes() == solve_lp(build_lp(copy.copy(market)), 0.4).x.tobytes()
