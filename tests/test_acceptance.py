"""Acceptance checklist: ten end-to-end guarantees, one test each.

Every test prints a single PASS/FAIL line with the measured numbers
(visible under pytest -s, or via -v through the test outcome itself) and
enforces the stated tolerance and runtime budget. Oracles are computed
in-file and independently of the code under test: numerical integration
for normal ES, a kink scan of the hinge objective for the shortfall
identity, closed-form lognormal pricing for the quadrature check.
"""

import json
import math
import time

import numpy as np
from scipy.integrate import quad
from scipy.stats import norm

from esarb import (
    MarketSnapshot,
    Portfolio,
    ScenarioSet,
    TradableLeg,
    WeightedSample,
)
from esarb import cli
from esarb import io as eio
from esarb.analytic import (
    CompleteMarketDensity,
    MarkowitzMarket,
    bs_ratio_density,
    complete_market_arbitrage,
    density_market,
    markowitz_arbitrage,
    markowitz_market,
    normal_es,
)
from esarb.detector import detect
from esarb.models import (
    GarchModel,
    LognormalMixture,
    calibrate_mixture,
    default_pl_grid,
    fit_garch,
    pl_quadrature,
    synthesize_chain,
)
from esarb.risk import coherence_check, es_p, ru_objective, var_p
from esarb.seeding import substream
from esarb.utility import UtilitySpec, classic_constraint_sup, expected_utility, scaling_scan

from conftest import checked_min_p as min_p  # every result's portfolio is checked

LL = UtilitySpec.limited_liability()
RM2 = UtilitySpec.risk_manager_power(2.0)


def _verdict(name: str, ok: bool, detail: str, t0: float, budget: float | None = None) -> None:
    elapsed = time.perf_counter() - t0
    if budget is not None:
        ok = ok and elapsed < budget
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail} [{elapsed:.1f}s]"
    print(line)
    assert ok, line


def _gaussian_market(n: int, seed: int, mu: float, sigma: float) -> MarketSnapshot:
    """One Gaussian asset plus a short-cash financing leg at unit prices."""
    rng = np.random.default_rng(seed)
    points = np.sort(mu + sigma * rng.standard_normal(n))
    scen = ScenarioSet(points, np.full(n, 1.0 / n))
    legs = (
        TradableLeg("asset", 1.0, points.copy()),
        TradableLeg("short cash", -1.0, -np.ones(n)),
    )
    return MarketSnapshot(scen, legs, spot=1.0)


def _step(sup: float, first_cell: float) -> CompleteMarketDensity:
    tail = (1.0 - sup * first_cell) / (1.0 - first_cell)
    return CompleteMarketDensity(
        "step", np.array([first_cell, 1.0]), np.array([sup, tail])
    )


def test_criterion_01_normal_es_matches_quadrature():
    t0 = time.perf_counter()
    headline = normal_es(0.01)
    # oracle: ES_p = -(1/p) * integral of z phi(z) over the lower p-tail
    worst = 0.0
    for p in (0.001, 0.01, 0.05, 0.1, 0.25, 0.49):
        oracle, _ = quad(lambda z: z * norm.pdf(z), -np.inf, norm.ppf(p))
        worst = max(worst, abs(normal_es(p) + oracle / p))
    ok = abs(headline - 2.665) < 5e-4 and worst <= 1e-6
    _verdict(
        "criterion 1 (normal ES vs quadrature)",
        ok,
        f"ES(0.01)={headline:.6f}, max oracle err {worst:.2e}",
        t0,
        budget=1.0,
    )


def test_criterion_02_shortfall_identity_on_random_samples():
    t0 = time.perf_counter()

    def hinge_min(values, weights, p):
        # direct minimization of a + E[(-X-a)^+]/p over its kinks; the
        # objective is convex piecewise linear with positive slope on the
        # right and 1 - 1/p < 0 on the left, so a kink attains the min
        kinks = np.unique(-values)
        best = math.inf
        for lo in range(0, kinks.size, 256):
            a = kinks[lo : lo + 256, None]
            f = a[:, 0] + np.clip(-values[None, :] - a, 0.0, None) @ weights / p
            best = min(best, float(f.min()))
        return best

    rng = np.random.default_rng(20260815)
    worst = 0.0
    for i in range(100):
        if i == 0:
            n = 3
        elif i == 99:
            n = 10_000
        else:
            n = int(round(math.exp(rng.uniform(math.log(3.0), math.log(2000.0)))))
        scale = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        values = rng.uniform(-5.0, 5.0) + scale * rng.standard_normal(n)
        if i % 3 == 0:
            values = np.round(values, 1)  # ties stress the quantile edge
        w = rng.random(n) + 0.05
        sample = WeightedSample(values, w / w.sum())
        p = float(rng.uniform(0.02, 0.95))
        es = es_p(sample, p)
        ref = max(1.0, abs(es))
        at_var = ru_objective(sample, p, var_p(sample, p))
        scanned = hinge_min(sample.values, sample.weights, p)
        worst = max(worst, abs(at_var - es) / ref, abs(scanned - es) / ref)
    _verdict(
        "criterion 2 (shortfall identity, 100 samples)",
        worst <= 1e-9,
        f"worst gap {worst:.2e} across var-point and kink-scan checks",
        t0,
        budget=10.0,
    )


def test_criterion_03_coherence_axioms_on_sample_pairs():
    t0 = time.perf_counter()
    rng = np.random.default_rng(314)
    worst = 0.0
    all_pass = True
    for _ in range(1000):
        n = int(rng.integers(2, 121))
        w = rng.random(n) + 0.05
        w /= w.sum()
        x = WeightedSample(rng.uniform(-4.0, 4.0) + rng.standard_normal(n), w)
        y = WeightedSample(rng.uniform(-4.0, 4.0) + 2.0 * rng.standard_normal(n), w)
        p = float(rng.uniform(0.02, 0.95))
        report = coherence_check(lambda s: es_p(s, p), [x, y], tolerance=1e-9)
        all_pass = all_pass and report.passed
        worst = max(worst, max(report.violations.values()))
    _verdict(
        "criterion 3 (coherence on 1000 pairs)",
        all_pass,
        f"all axioms within 1e-9, worst violation {worst:.2e}",
        t0,
        budget=10.0,
    )


def test_criterion_04_detector_matches_markowitz_closed_form():
    t0 = time.perf_counter()
    p_grid = [0.01, 0.02, 0.05, 0.1, 0.2, 0.25]
    deltas = [0.25, 0.4, 0.7, 1.2]
    agree = 0
    min_margin = math.inf
    for i in range(20):
        rng = np.random.default_rng(400 + i)
        p = p_grid[i % len(p_grid)]
        delta = deltas[i % len(deltas)] * (1 if i % 2 else -1)
        target = max(normal_es(p) + delta, 0.05)
        if i < 10:
            sig = np.array([[0.01]])
            w = np.array([1.0])
        else:
            r = 0.3 + 0.4 * rng.random()
            sig = 0.01 * np.array([[1.0, r], [r, 1.0]])
            w = rng.standard_normal(2)
        scale = target / math.sqrt(float(w @ sig @ w))
        mk = MarkowitzMarket(1.0 + scale * (sig @ w), sig, np.ones(len(w)), 0.0)
        closed = markowitz_arbitrage(mk, p)
        min_margin = min(min_margin, abs(closed.gradient - normal_es(p)))
        lp = detect(markowitz_market(mk, 100_000, rng), p)
        agree += lp.arbitrage == closed.arbitrage
    _verdict(
        "criterion 4 (Markowitz agreement, 1e5 draws)",
        agree == 20 and min_margin > 0.2,
        f"{agree}/20 verdicts agree, min |g - E(p)| = {min_margin:.3f}",
        t0,
        budget=120.0,
    )


def test_criterion_05_complete_market_threshold_bisection():
    t0 = time.perf_counter()
    # hand steps carry exact sups; the lognormal ratio tabulated on 512
    # cells stands in for an unbounded density, with the cell width
    # entering its tolerance
    densities = [
        (_step(1.5, 0.4), 0.0),
        (_step(2.0, 1.0 / 3.0), 0.0),
        (_step(4.0, 0.1), 0.0),
        (_step(10.0, 0.02), 0.0),
        (bs_ratio_density(drift=-0.3, rate=0.0, sigma=0.15, cells=512), 1.0 / 512),
    ]
    worst = 0.0
    agree = True
    for dens, spacing in densities:
        market = density_market(dens)
        res = min_p(market, bracket=(1e-4, 0.9), tol=1e-4)
        assert res.status == "found"
        err = abs(res.p_star - 1.0 / dens.sup_density)
        worst = max(worst, err)
        assert err <= max(2.0 * spacing, 1e-3)
        for p in (res.p_star - 0.05, res.p_star + 0.05):
            if 0.0 < p < 1.0:
                agree = agree and (
                    complete_market_arbitrage(dens, p).arbitrage
                    == detect(market, p).arbitrage
                )
    _verdict(
        "criterion 5 (threshold vs 1/sup on 5 densities)",
        worst <= max(2.0 / 512, 1e-3) and agree,
        f"max |p* - 1/sup| = {worst:.2e}, closed-form verdict agrees at p* +/- 0.05",
        t0,
        budget=120.0,
    )


def test_criterion_06_pl_quadrature_prices_vanillas_exactly():
    t0 = time.perf_counter()
    mix = LognormalMixture(
        np.array([0.6, 0.4]),
        np.array([math.log(95.0) - 0.5 * 0.15**2, math.log(107.0) - 0.5 * 0.35**2]),
        np.array([0.15, 0.35]),
        spot=100.0,
        rate=0.02,
        maturity=1.0,
    )
    strikes = np.arange(60.0, 145.0, 5.0)
    scheme = pl_quadrature(mix, default_pl_grid(mix, strikes))

    def closed_call(k: float) -> float:
        fwd = np.exp(mix.log_means + 0.5 * mix.log_sds**2)
        d2 = (mix.log_means - math.log(k)) / mix.log_sds
        return float(mix.weights @ (fwd * norm.cdf(d2 + mix.log_sds) - k * norm.cdf(d2)))

    calls = np.array([closed_call(k) for k in strikes])
    puts = calls - mix.mean() + strikes
    m = len(strikes)
    worst = 0.0
    for j in range(50):
        rng = np.random.default_rng(600 + j)
        coef = rng.uniform(-2.0, 2.0, size=2 + 2 * m)
        pay = (
            coef[0]
            + coef[1] * scheme.points
            + sum(c * np.maximum(scheme.points - k, 0.0) for c, k in zip(coef[2 : 2 + m], strikes))
            + sum(c * np.maximum(k - scheme.points, 0.0) for c, k in zip(coef[2 + m :], strikes))
        )
        quad_value = float(scheme.weights @ pay)
        closed = coef[0] + coef[1] * mix.mean() + coef[2 : 2 + m] @ calls + coef[2 + m :] @ puts
        gross = (
            abs(coef[0])
            + abs(coef[1]) * mix.mean()
            + np.abs(coef[2 : 2 + m]) @ calls
            + np.abs(coef[2 + m :]) @ puts
        )
        worst = max(worst, abs(quad_value - closed) / max(1.0, gross))
    _verdict(
        "criterion 6 (piecewise-linear quadrature exactness)",
        worst <= 1e-9,
        f"worst relative error {worst:.2e} over 50 random vanilla books",
        t0,
        budget=10.0,
    )


def test_criterion_07_calibration_round_trips():
    t0 = time.perf_counter()
    fwd = 100.0 * math.exp(0.02)
    w = np.array([0.6, 0.4])
    sds = np.array([0.15, 0.35])
    f1 = 0.95 * fwd
    comp_fwd = np.array([f1, (fwd - w[0] * f1) / w[1]])
    true = LognormalMixture(
        w, np.log(comp_fwd) - 0.5 * sds**2, sds, spot=100.0, rate=0.02, maturity=1.0
    )
    chain = synthesize_chain(true, np.arange(70.0, 131.0, 5.0), rel_spread=0.0)
    fit = calibrate_mixture(chain, spot=100.0, rate=0.02, maturity=1.0, seed=0)
    got = fit.mixture
    o_t, o_g = np.argsort(true.log_sds), np.argsort(got.log_sds)

    def rel(a, b):
        return float(np.max(np.abs(a - b) / np.abs(b)))

    mix_err = max(
        rel(got.weights[o_g], true.weights[o_t]),
        rel(got.log_sds[o_g], true.log_sds[o_t]),
        rel(np.exp(got.log_means[o_g]), np.exp(true.log_means[o_t])),
    )

    model = GarchModel(omega=2e-6, arch=0.08, garch_coef=0.90, steps=1, init_var=1e-4)
    returns = model.simulate_returns(5000, substream(77, "acc-garch"))
    gfit = fit_garch(returns, seed=3)
    persistence = gfit.model.arch + gfit.model.garch_coef
    ok = mix_err <= 1e-3 and abs(persistence - 0.98) <= 0.05
    _verdict(
        "criterion 7 (calibration round trips)",
        ok,
        f"mixture rel err {mix_err:.2e}, garch persistence {persistence:.4f} vs 0.98",
        t0,
        budget=120.0,
    )


def test_criterion_08_utility_scaling_along_detected_rays():
    t0 = time.perf_counter()
    lams = [1e2, 1e3, 1e4]
    up = down = 0
    min_ratio = math.inf
    for i in range(10):
        g = 2.8 + 0.07 * i
        market = _gaussian_market(4000, 100 + i, 1.0 + 0.1 * g, 0.1)
        res = detect(market, 0.01)
        assert res.arbitrage
        pay = market.payoff_matrix() @ res.portfolio.quantities
        assert (pay < 0).any()  # shortfall arbitrage, not a true one
        base = Portfolio(np.full(market.n_legs, 0.01))
        rows = scaling_scan(market, base, res.portfolio, lams, [LL, RM2], 0.01)
        trader = [r.expected_utility for r in rows if r.spec == LL.label]
        manager = [r.expected_utility for r in rows if r.spec == RM2.label]
        up += trader[2] > trader[1] > trader[0]
        down += manager[2] < manager[1] < manager[0]
        min_ratio = min(min_ratio, trader[2] / trader[0])
    ok = up == 10 and down == 10 and min_ratio > 10.0
    _verdict(
        "criterion 8 (scaling scans on 10 rays)",
        ok,
        f"trader up {up}/10 (min final/initial {min_ratio:.1f}), manager down {down}/10",
        t0,
        budget=60.0,
    )


CRITERION_9_CAPS = [1e2, 1e3, 1e4]


def criterion_9_markets():
    """Criterion 9's free market (an asset and short cash) and the same
    market with a zero-price lottery planted."""
    rng = np.random.default_rng(7)
    points = np.sort(1.05 + 0.2 * rng.standard_normal(2000))
    scen = ScenarioSet(points, np.full(2000, 5e-4))
    base_legs = (
        TradableLeg("asset", 1.0, points.copy()),
        TradableLeg("short cash", -1.0, -np.ones(2000)),
    )
    free = MarketSnapshot(scen, base_legs, spot=1.0)
    lottery = TradableLeg("lottery", 0.0, 2.0 * (points > np.median(points)))
    planted = MarketSnapshot(scen, base_legs + (lottery,), spot=1.0)
    return free, planted


def test_criterion_09_capped_supremum_growth():
    t0 = time.perf_counter()
    caps = CRITERION_9_CAPS
    free, planted = criterion_9_markets()

    free_vals = [r.value for r in classic_constraint_sup(free, RM2, -0.01, caps, seed=11)]
    planted_vals = [r.value for r in classic_constraint_sup(planted, RM2, -0.01, caps, seed=11)]
    growth = free_vals[2] / free_vals[0] - 1.0
    ratios = (planted_vals[1] / planted_vals[0], planted_vals[2] / planted_vals[1])
    ok = growth < 0.01 and min(ratios) >= 8.0
    _verdict(
        "criterion 9 (capped supremum, free vs planted)",
        ok,
        f"free growth {growth:.2e} over two decades, planted decade ratios "
        f"{ratios[0]:.2f} and {ratios[1]:.2f}",
        t0,
        budget=120.0,
    )


def test_criterion_10_min_p_determinism(tmp_path):
    t0 = time.perf_counter()
    dens_path = tmp_path / "capped.csv"
    eio.write_density(str(dens_path), _step(2.0, 1.0 / 3.0))
    outs = [tmp_path / f"run{k}.json" for k in range(2)]
    for out in outs:
        rc = cli.main(
            [
                "min-p",
                "--density", str(dens_path),
                "--quadrature", "mc",
                "--n", "3000000",
                "--seed", "0",
                "--two-run",
                "--bracket", "1e-4,0.7",
                "--tol", "1e-4",
                "--out", str(out),
            ]
        )
        assert rc == 3
    blobs = [out.read_bytes() for out in outs]
    payload = json.loads(blobs[0])
    spread_pp = 100.0 * payload["spread"]
    ok = blobs[0] == blobs[1] and spread_pp < 0.1
    _verdict(
        "criterion 10 (seeded determinism)",
        ok,
        f"repeat runs byte-identical, two-seed spread {spread_pp:.4f} pp "
        f"around p* {payload['p_star']:.4f}",
        t0,
    )
