import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from esarb import (
    MarketSnapshot,
    ScenarioSet,
    TradableLeg,
    WeightedSample,
    detect,
    es_p,
)
from esarb.analytic import (
    CompleteMarketDensity,
    MarkowitzMarket,
    _cell_thresholds,
    _digital_market,
    bs_ratio_density,
    capital_line_gradient,
    complete_market_arbitrage,
    density_market,
    density_market_mc,
    markowitz_arbitrage,
    markowitz_market,
    normal_es,
    step_candidate,
)

from conftest import checked_min_p as min_p  # every result's portfolio is checked
from conftest import run_with_one_blas_thread

CAPPED = CompleteMarketDensity("step", [1.0 / 3.0, 1.0], [2.0, 0.5])
BS512 = bs_ratio_density(drift=-0.3, rate=0.0, sigma=0.15, cells=512)


def _step_density(n_thresholds):
    """Decreasing step density on n_thresholds + 1 equal cells."""
    grid = np.linspace(0.0, 1.0, n_thresholds + 2)[1:]
    values = np.linspace(2.0, 0.5, n_thresholds + 1)
    return CompleteMarketDensity("step", grid, values / values.mean())


def _linear_density():
    grid = np.linspace(0.0, 1.0, 9)
    values = 2.0 - 1.5 * np.sqrt(grid)
    mass = float((0.5 * (values[:-1] + values[1:]) * np.diff(grid)).sum())
    return CompleteMarketDensity("linear", grid, values / mass)


# ------------------------------------------------------------------ normal_es


def test_normal_es_paper_value():
    assert normal_es(0.01) == pytest.approx(2.665, abs=5e-4)


def test_normal_es_against_integration_oracle():
    for p in (0.001, 0.01, 0.05, 0.1, 0.25, 0.49):
        oracle = quad(lambda u: -norm.ppf(u), 0.0, p, points=[p / 2])[0] / p
        assert normal_es(p) == pytest.approx(oracle, abs=1e-6)


def test_normal_es_frozen_values():
    assert normal_es(0.5) == pytest.approx(0.7979, abs=1e-4)
    assert normal_es(0.05) == pytest.approx(2.0627, abs=1e-4)


def test_normal_es_shape():
    ps = np.linspace(0.001, 0.999, 40)
    vals = [normal_es(float(p)) for p in ps]
    assert all(v > 0.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_normal_es_location_scale():
    # ES of N(mu, sd^2) = sd E(p) - mu
    assert normal_es(0.05, mean=0.3, sd=2.0) == pytest.approx(2.0 * normal_es(0.05) - 0.3)


def test_normal_es_domain():
    for bad in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            normal_es(bad)
    # a NaN sd or mean returned NaN, an infinite one an infinite ES
    for mean, sd in ((0.0, -1.0), (0.0, math.nan), (0.0, math.inf), (math.nan, 1.0),
                     (-math.inf, 1.0)):
        with pytest.raises(ValueError, match="finite mean and a finite sd"):
            normal_es(0.05, mean=mean, sd=sd)


# ------------------------------------------------------------------ markowitz


def test_gradient_single_asset():
    m = MarkowitzMarket([1.3], [[0.01]], [1.0], 0.0)
    assert capital_line_gradient(m) == pytest.approx(3.0, abs=1e-12)


def test_gradient_zero_excess():
    m = MarkowitzMarket([1.0], [[0.04]], [1.0], 0.0)
    assert capital_line_gradient(m) == pytest.approx(0.0, abs=1e-12)


def test_gradient_two_assets():
    m = MarkowitzMarket([0.3, 0.4], [[0.01, 0.0], [0.0, 0.04]], [0.0, 0.0], 0.0)
    assert capital_line_gradient(m) == pytest.approx(math.sqrt(13.0), abs=1e-6)


def test_gradient_matches_numerical_maximization(rng):
    from scipy.optimize import minimize as sp_minimize

    for _ in range(10):
        n = int(rng.integers(1, 4))
        a = rng.normal(size=(n, n))
        sigma = a @ a.T + 0.1 * np.eye(n)
        m = MarkowitzMarket(rng.normal(size=n), sigma, rng.normal(size=n), float(rng.uniform(-0.5, 0.5)))
        g = capital_line_gradient(m)
        excess = m.mu - (1.0 + m.rf) * m.c

        def neg_ratio(alpha):
            denom = math.sqrt(float(alpha @ sigma @ alpha))
            return 0.0 if denom < 1e-12 else -float(excess @ alpha) / denom

        best = 0.0
        for _ in range(8):
            res = sp_minimize(neg_ratio, rng.normal(size=n), method="Nelder-Mead",
                              options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000})
            best = max(best, -res.fun)
        assert best <= g + 1e-9
        assert g == pytest.approx(best, rel=1e-6, abs=1e-9)


def test_gradient_rejects_degenerate_sigma():
    with pytest.raises(ValueError, match="degenerate risky assets"):
        capital_line_gradient(MarkowitzMarket([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0], 0.0))


def test_markowitz_validation():
    with pytest.raises(ValueError):
        MarkowitzMarket([1.0], [[0.01, 0.0]], [1.0], 0.0)  # non-square
    with pytest.raises(ValueError):
        MarkowitzMarket([1.0, 1.0], [[0.01, 0.02], [0.0, 0.01]], [1.0, 1.0], 0.0)  # asymmetric
    with pytest.raises(ValueError):
        MarkowitzMarket([1.0], [[-0.01]], [1.0], 0.0)  # not PSD
    for rf in (math.nan, math.inf, -math.inf):  # -inf would read as a negative gross rf
        with pytest.raises(ValueError, match="non-finite market data"):
            MarkowitzMarket([1.3], [[0.01]], [1.0], rf)


def test_markowitz_market_copies_caller_arrays():
    mu, sigma, c = np.array([1.3]), np.array([[0.01]]), np.array([1.0])
    m = MarkowitzMarket(mu, sigma, c, 0.0)
    assert mu.flags.writeable and sigma.flags.writeable and c.flags.writeable
    mu[0], sigma[0, 0], c[0] = 9.0, 9.0, 9.0
    assert (m.mu[0], m.sigma[0, 0], m.c[0]) == (1.3, 0.01, 1.0)
    with pytest.raises(ValueError):
        m.mu[0] = 2.0


def test_markowitz_arbitrage_gradient_reason():
    m = MarkowitzMarket([1.3], [[0.01]], [1.0], 0.0)
    v = markowitz_arbitrage(m, 0.01)
    assert v.arbitrage and v.reason == "gradient"
    assert v.gradient == pytest.approx(3.0)
    assert v.threshold == pytest.approx(2.665, abs=5e-4)


def test_markowitz_arbitrage_negative_gross_rf():
    m = MarkowitzMarket([1.3], [[0.01]], [1.0], -1.5)
    v = markowitz_arbitrage(m, 0.01)
    assert v.arbitrage and v.reason == "negative_gross_rf"


def test_markowitz_no_arbitrage():
    m = MarkowitzMarket([1.05], [[0.01]], [1.0], 0.01)  # g = 0.4 < E(0.01)
    v = markowitz_arbitrage(m, 0.01)
    assert not v.arbitrage and v.reason == "none"


def test_markowitz_level_hypothesis():
    m = MarkowitzMarket([1.3], [[0.01]], [1.0], 0.0)
    with pytest.raises(ValueError, match="theorem hypothesis violated"):
        markowitz_arbitrage(m, 0.5)


def test_markowitz_market_sampling_matches_moments(rng):
    mk = MarkowitzMarket([1.2, 0.9], [[0.02, 0.01], [0.01, 0.03]], [1.0, 0.8], 0.05)
    market = markowitz_market(mk, 200_000, rng)
    labels = market.labels()
    assert labels[0] == "cash" and labels[1] == "-cash"
    idx = labels.index("asset0")
    payoff = market.payoff_matrix()[:, idx]
    w = market.scenarios.weights
    mean = float(w @ payoff)
    var = float(w @ (payoff - mean) ** 2)
    assert mean == pytest.approx(1.2, abs=0.01)
    assert var == pytest.approx(0.02, abs=0.002)
    # cash leg pays gross rf and costs 1
    cash = market.payoff_matrix()[:, 0]
    assert np.allclose(cash, 1.05)
    assert market.prices()[0] == 1.0


# -------------------------------------------------------------- complete market


def test_density_validation():
    with pytest.raises(ValueError, match="bad density"):
        CompleteMarketDensity("step", [0.5, 1.0], [0.5, 2.0])  # increasing
    with pytest.raises(ValueError, match="bad density"):
        CompleteMarketDensity("step", [0.5, 1.0], [1.5, 1.0])  # integral != 1
    with pytest.raises(ValueError, match="bad density"):
        CompleteMarketDensity("step", [0.5, 0.4], [2.0, 0.5])  # grid not ascending
    with pytest.raises(ValueError, match="bad density"):
        CompleteMarketDensity("step", [0.5, 1.0], [2.0, -0.5])  # negative
    for rate in (math.nan, math.inf, -math.inf):  # NaN would price every step as NaN
        with pytest.raises(ValueError, match="bad density: rate"):
            CompleteMarketDensity("step", [0.5, 1.0], [1.5, 0.5], rate=rate)
    for horizon in (0.0, -1.0, math.nan, math.inf):  # inf would make `discount` NaN
        with pytest.raises(ValueError, match="bad density: horizon"):
            CompleteMarketDensity("step", [0.5, 1.0], [1.5, 0.5], horizon=horizon)


def test_density_copies_caller_arrays():
    grid, values = np.array([1.0 / 3.0, 1.0]), np.array([2.0, 0.5])
    density = CompleteMarketDensity("step", grid, values)
    assert grid.flags.writeable and values.flags.writeable
    grid[0], values[0] = 0.5, 1.0
    assert density.grid[0] == 1.0 / 3.0 and density.values[0] == 2.0
    assert density.sup_density == 2.0 and density.integral_to(1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        density.values[0] = 3.0


def test_density_accessors():
    assert CAPPED.sup_density == 2.0
    assert CAPPED.plateau_measure() == pytest.approx(1.0 / 3.0)
    assert CAPPED.value_at(0.2) == 2.0
    assert CAPPED.value_at(0.9) == 0.5
    assert CAPPED.integral_to(0.5) == pytest.approx(2.0 / 3.0 + 0.5 / 6.0)


def test_complete_market_flat_density_never_arbitrage():
    flat = CompleteMarketDensity("step", [1.0], [1.0])
    for p in (0.1, 0.5, 0.9, 0.99):
        assert not complete_market_arbitrage(flat, p).arbitrage


def test_complete_market_capped_threshold():
    assert complete_market_arbitrage(CAPPED, 0.6).arbitrage
    assert not complete_market_arbitrage(CAPPED, 0.4).arbitrage


def test_complete_market_boundary_attained():
    v = complete_market_arbitrage(CAPPED, 0.5)
    assert v.arbitrage and v.boundary
    assert v.plateau == pytest.approx(1.0 / 3.0)


def test_complete_market_boundary_unattained():
    # linear density touching its sup only at u = 0: plateau has measure zero
    ramp = CompleteMarketDensity("linear", [0.0, 1.0], [2.0, 0.0])
    v = complete_market_arbitrage(ramp, 0.5)
    assert v.boundary and not v.arbitrage
    assert complete_market_arbitrage(ramp, 0.51).arbitrage


def test_unbounded_proxy_density_always_arbitrage():
    # strong market price of risk: the tabulated cap far exceeds 1/p for
    # every tested level, so the unbounded-q conclusion survives tabulation
    dens = bs_ratio_density(drift=-0.3, rate=0.05, sigma=0.15, cells=2048)
    assert dens.sup_density > 20.0
    for p in (0.05, 0.2, 0.5, 0.9):
        assert complete_market_arbitrage(dens, p).arbitrage
    # below the tabulated cap's reach the criterion honestly says no
    assert not complete_market_arbitrage(dens, 1e-4).arbitrage


def test_bs_ratio_density_integrates_to_one():
    for cells in (64, 512):
        dens = bs_ratio_density(drift=0.02, rate=0.07, sigma=0.3, cells=cells)
        assert dens.integral_to(1.0) == pytest.approx(1.0, abs=1e-10)


def test_bs_ratio_sup_grows_with_resolution():
    sups = [
        bs_ratio_density(drift=-0.1, rate=0.05, sigma=0.2, cells=c).sup_density
        for c in (64, 256, 1024)
    ]
    assert sups[0] < sups[1] < sups[2]


def test_bs_ratio_zero_price_of_risk_is_flat():
    dens = bs_ratio_density(drift=0.05, rate=0.05, sigma=0.2, cells=128)
    assert dens.sup_density == pytest.approx(1.0, abs=1e-12)


# -------------------------------------------------------------- step candidate


def test_step_candidate_p_tilde():
    res = step_candidate(CompleteMarketDensity("step", [1.0], [1.0]), 0.1, -1.0, 1.0)
    assert res.candidate.p_tilde == pytest.approx(0.05)


def test_step_candidate_flat_density_price():
    # q == 1: price = e^{-rT} beta (1 - p) > 0 for all alpha, beta
    flat = CompleteMarketDensity("step", [1.0], [1.0], rate=0.03, horizon=2.0)
    for alpha, beta in ((-1.0, 1.0), (-5.0, 2.0), (0.0, 1.0)):
        res = step_candidate(flat, 0.1, alpha, beta)
        assert res.price == pytest.approx(math.exp(-0.06) * beta * 0.9, abs=1e-12)
        assert not res.is_arbitrage


def test_step_candidate_limit_alpha():
    # alpha -> -infinity: p_tilde -> 0 and price -> beta (1 - p sup q)
    res = step_candidate(CAPPED, 0.6, -1e6, 1.0)
    assert res.price == pytest.approx(1.0 - 0.6 * 2.0, abs=1e-4)
    assert res.is_arbitrage


def test_step_candidate_frozen_example():
    res = step_candidate(CAPPED, 0.1, -1.0, 1.0)
    # p_tilde = 0.05, integral = 0.1, price = 1 - (0.1/0.05) * 0.1 = 0.8
    assert res.candidate.p_tilde == pytest.approx(0.05)
    assert res.price == pytest.approx(0.8, abs=1e-12)


def test_step_candidate_rejects_equal_bounds():
    with pytest.raises(ValueError):
        step_candidate(CAPPED, 0.1, 1.0, 1.0)
    # beta = inf priced NaN (is_arbitrage False) and alpha = -inf raised
    # ZeroDivisionError; NaN stays rejected
    for alpha, beta in ((-1.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (-1.0, math.nan)):
        with pytest.raises(ValueError, match="need finite alpha <= 0 < beta"):
            step_candidate(CAPPED, 0.1, alpha, beta)


def test_step_payoff_has_zero_es_exact_law():
    # two-point law of g(U): alpha w.p. p_tilde, beta w.p. 1 - p_tilde
    for alpha, beta, p in ((-1.0, 1.0, 0.1), (-3.0, 0.5, 0.25), (-0.2, 2.0, 0.4)):
        res = step_candidate(CAPPED, p, alpha, beta)
        pt = res.candidate.p_tilde
        law = WeightedSample(np.array([alpha, beta]), np.array([pt, 1.0 - pt]))
        assert es_p(law, p) == pytest.approx(0.0, abs=1e-12)


def test_step_payoff_has_zero_es_uniform_grid():
    # cell midpoints with edges aligned on p_tilde reproduce the law exactly
    n = 20_000
    mid = (np.arange(n) + 0.5) / n
    w = np.full(n, 1.0 / n)
    for alpha, beta, p in ((-1.0, 1.0, 0.1), (-3.0, 1.0, 0.2), (-1.0, 3.0, 0.2)):
        res = step_candidate(CAPPED, p, alpha, beta)
        assert (res.candidate.p_tilde * n) == pytest.approx(round(res.candidate.p_tilde * n))
        payoff = res.candidate.payoff(mid)
        assert es_p(WeightedSample(payoff, w), p) == pytest.approx(0.0, abs=1e-9)


def test_step_price_over_beta_nonincreasing_in_p_tilde():
    # normalize beta = 1; larger beta means larger p_tilde, price/beta must fall
    p = 0.3
    prev = math.inf
    for beta in (0.25, 0.5, 1.0, 2.0, 4.0):
        res = step_candidate(CAPPED, p, -1.0, beta)
        ratio = res.price / beta
        assert ratio <= prev + 1e-9
        prev = ratio


# ------------------------------------------------------------- density market


def test_density_market_prices_digitals_exactly():
    market = density_market(CAPPED)
    labels = market.labels()
    prices = market.prices()
    # bond legs: q integrates to 1, so the bond price is the discount factor
    assert prices[labels.index("bond")] == pytest.approx(CAPPED.discount)
    assert prices[labels.index("-bond")] == pytest.approx(-CAPPED.discount)
    # digital 1{U <= 1/3} is priced by its q-integral, both sides
    digital = labels.index("digital<=0.333333")
    assert prices[digital] == pytest.approx(CAPPED.integral_to(1.0 / 3.0) * CAPPED.discount)
    assert prices[digital + 1] == pytest.approx(-prices[digital])


def test_density_market_physical_weights_uniform():
    market = density_market(CAPPED)
    w = market.scenarios.weights
    pts = market.scenarios.points
    # P-measure of 1{U <= t} equals t on the cell grid
    third = pts <= 1.0 / 3.0 + 1e-12
    assert float(w[third].sum()) == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_density_market_mc_reproducible():
    a = density_market_mc(CAPPED, 5000, np.random.default_rng(4))
    b = density_market_mc(CAPPED, 5000, np.random.default_rng(4))
    assert np.array_equal(a.scenarios.points, b.scenarios.points)
    assert np.array_equal(a.scenarios.weights, b.scenarios.weights)
    assert np.array_equal(a.prices(), b.prices())


def _unique_multinomial_mc(density, n_draws, rng):
    """Reference: cells from np.unique over the cell thresholds, counts from
    one multinomial draw over their lengths; returns points, weights and
    leg prices."""
    edges = density._edges
    cuts = np.unique(edges[1:-1] if edges.size > 2 else edges[1:])
    bins = np.concatenate([[0.0], cuts[(cuts > 0.0) & (cuts < 1.0)], [1.0]])
    counts = rng.multinomial(n_draws, np.diff(bins))
    mids = 0.5 * (bins[:-1] + bins[1:])
    keep = counts > 0
    disc = density.discount
    prices = [disc, -disc]
    for t in cuts:
        price = disc * density.integral_to(float(t))
        prices += [price, -price]
    return mids[keep], counts[keep] / n_draws, np.array(prices)


@pytest.mark.parametrize(
    "density",
    [bs_ratio_density(drift=-0.3, rate=0.0, sigma=0.15, cells=512), CAPPED,
     _step_density(15), _step_density(16), _step_density(17), _linear_density()],
    ids=["bs512", "step", "step15", "step16", "step17", "linear"],
)
def test_density_market_mc_matches_unique_binning(density):
    # one draw (most cells empty), a count and criterion 10's count, and a
    # count no uniform draw could reach: the reference's bytes every time
    for n in (1, 65536, 3_000_000, 10**12):
        for seed in (0, 7):
            market = density_market_mc(density, n, np.random.default_rng(seed))
            points, weights, prices = _unique_multinomial_mc(density, n, np.random.default_rng(seed))
            assert np.array_equal(market.scenarios.points, points)
            assert np.array_equal(market.scenarios.weights, weights)
            assert np.array_equal(market.prices(), prices)


def test_density_market_mc_counts_follow_the_binned_law():
    # the multinomial counts and counts of binned uniforms are the same law:
    # over 4000 seeds, n = 50 draws on CAPPED's two cells, each cell's count
    # has the same mean and variance on both samplers within 4 standard errors
    n, seeds = 50, range(4000)
    edges = np.array([0.0, 1.0 / 3.0, 1.0])
    drawn = np.array([
        np.rint(density_market_mc(CAPPED, n, np.random.default_rng(seed)).scenarios.weights * n)
        for seed in seeds
    ])
    binned = np.array([
        np.histogram(np.random.default_rng(seed).random(n), bins=edges)[0] for seed in seeds
    ])
    assert (drawn.sum(axis=1) == n).all()
    size = len(seeds)
    for cell, p in enumerate(np.diff(edges)):
        var = n * p * (1.0 - p)
        fourth = var * (1.0 + 3.0 * (n - 2) * p * (1.0 - p))  # binomial 4th central moment
        mean_se = math.sqrt(2.0 * var / size)
        var_se = math.sqrt(2.0 * (fourth - var**2) / size)
        a, b = drawn[:, cell], binned[:, cell]
        assert abs(a.mean() - b.mean()) < 4.0 * mean_se
        assert abs(a.var(ddof=1) - b.var(ddof=1)) < 4.0 * var_se


class _NoUniforms(np.random.Generator):
    def random(self, *args, **kwargs):
        raise AssertionError("a uniform was drawn")


def test_density_market_mc_draws_no_uniforms(monkeypatch):
    want = density_market_mc(CAPPED, 10**12, np.random.default_rng(5))

    def refuse(*args, **kwargs):
        raise AssertionError("draws were sorted")

    monkeypatch.setattr(np, "histogram", refuse)
    monkeypatch.setattr(np, "sort", refuse)
    got = density_market_mc(CAPPED, 10**12, _NoUniforms(np.random.PCG64(5)))
    assert np.array_equal(got.scenarios.weights, want.scenarios.weights)


_BAD_COUNTS = [0, -1, 3e6, 3.0, np.float64(5.0), True, False, np.bool_(True), "5", None,
               2**63, np.uint64(2**63), 10**30]


@pytest.mark.parametrize("n", _BAD_COUNTS, ids=repr)
def test_density_market_mc_rejects_bad_draw_counts(n):
    with pytest.raises(ValueError, match=r"^n_draws must be "):
        density_market_mc(CAPPED, n, np.random.default_rng(0))


@pytest.mark.parametrize("n", [1, np.int32(7), np.int64(3_000_000), np.uint64(2**63 - 1), 2**63 - 1])
def test_density_market_mc_takes_any_integral_count(n):
    weights = density_market_mc(CAPPED, n, np.random.default_rng(0)).scenarios.weights
    assert math.isclose(weights.sum(), 1.0, abs_tol=1e-12)


@pytest.mark.parametrize("n", [*_BAD_COUNTS, 1], ids=repr)
def test_markowitz_market_rejects_bad_draw_counts(n):
    mk = MarkowitzMarket(np.array([1.1]), np.array([[0.04]]), np.array([1.0]), 0.0)
    with pytest.raises(ValueError, match=r"^n_draws must be "):
        markowitz_market(mk, n, np.random.default_rng(0))


def _digital_legs_one_by_one(density, thresholds, scen):
    """Reference: one compare and one integral_to call per threshold."""
    disc = density.discount
    ones = np.ones_like(scen.points)
    legs = [("bond", disc, ones), ("-bond", -disc, -ones)]
    for t in thresholds:
        pay = (scen.points <= t).astype(float)
        price = disc * density.integral_to(float(t))
        legs += [(f"digital<={t:g}", price, pay), (f"-digital<={t:g}", -price, -pay)]
    return legs


@pytest.mark.parametrize("density", [CAPPED, BS512, _linear_density()], ids=["step", "bs512", "linear"])
def test_digital_market_matches_per_threshold_legs(density):
    thresholds = _cell_thresholds(density)
    exact = density_market(density).scenarios
    drawn = density_market_mc(density, 20_000, np.random.default_rng(2)).scenarios
    for scen in (exact, drawn):
        market = _digital_market(density, thresholds, scen, 1.0)
        want = _digital_legs_one_by_one(density, thresholds, scen)
        assert [leg.label for leg in market.legs] == [label for label, _, _ in want]
        for leg, (_, price, pay) in zip(market.legs, want):
            assert type(leg.price) is float
            assert leg.price.hex() == float(price).hex()
            assert leg.payoff.tobytes() == pay.tobytes()


def test_criterion_10_output_bytes_pinned(tmp_path):
    # SHA-256 of both output files of acceptance criterion 10's CLI run,
    # recorded with p* read from the threshold LP's hinge-row duals and
    # witnessed by its portfolio, one LP per run (the cell counts' bytes
    # are pinned by test_density_market_mc_matches_unique_binning): any
    # drift in the Monte Carlo counts, p* or the LP count changes these bytes
    code = "\n".join([
        "import hashlib",
        "from esarb import cli, io",
        "from test_analytic import CAPPED",
        f"folder = {str(tmp_path)!r}",
        "io.write_density(folder + '/capped.csv', CAPPED)",
        "for k in range(2):",
        "    out = f'{folder}/run{k}.json'",
        "    rc = cli.main(['min-p', '--density', folder + '/capped.csv', '--quadrature', 'mc',",
        "                   '--n', '3000000', '--seed', '0', '--two-run',",
        "                   '--bracket', '1e-4,0.7', '--tol', '1e-4', '--out', out])",
        "    print(rc, hashlib.sha256(open(out, 'rb').read()).hexdigest())",
    ])
    pinned = "cf5873ee4b37d90ec3278de2d81de16584be302ebc5a6907fc8f8fed69d92c38"
    assert run_with_one_blas_thread(code).split() == ["3", pinned, "3", pinned]


def _mc_peak_bytes(density, n_draws):
    density_market_mc(density, 10, np.random.default_rng(0))  # load lazily imported code
    tracemalloc.start()
    try:
        density_market_mc(density, n_draws, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


def test_density_market_mc_peak_memory_does_not_grow_with_draws():
    # the counts come from one multinomial draw over the cells, so the peak
    # is the cells and legs alone: tracemalloc read 5.3-5.9 KB on CAPPED and
    # 6.66 MB on the 512-cell market (numpy 2.4), the same at 1e5, 3e6 and
    # 1e12 draws to within 0.7 KB; binned 65536-draw blocks peaked at 0.59 MB
    bs512 = bs_ratio_density(drift=-0.3, rate=0.0, sigma=0.15, cells=512)
    assert _mc_peak_bytes(CAPPED, 10**12) < 2e4
    for density in (CAPPED, bs512):
        small = _mc_peak_bytes(density, 100_000)
        for n in (3_000_000, 10**12):
            assert abs(_mc_peak_bytes(density, n) - small) < 1e4


def test_density_market_mc_detects_like_exact():
    market = density_market_mc(CAPPED, 40_000, np.random.default_rng(12))
    assert detect(market, 0.6).arbitrage
    assert not detect(market, 0.35).arbitrage


# --------------------------------------------- criterion vs detector agreement


def test_analytic_threshold_matches_bisection():
    market = density_market(CAPPED)
    res = min_p(market, bracket=(0.01, 0.9), tol=1e-3)
    assert res.p_star == pytest.approx(1.0 / CAPPED.sup_density, abs=1e-3)


def test_theorem_verdict_matches_detector_around_threshold():
    market = density_market(CAPPED)
    for p in (0.45, 0.55):
        assert complete_market_arbitrage(CAPPED, p).arbitrage == detect(market, p).arbitrage
