"""The `scipy.special` normal kernels give the `scipy.stats` answers, bit for bit.

`models` and `analytic` call `ndtr`, `ndtri` and the normal pdf formula
directly: the kernels `scipy.stats.norm` wraps. The references below are the
`scipy.stats.norm` formulas those functions used before, kept as they were.
Every comparison is `==`, never approx.
"""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import norm

from esarb import models
from esarb.analytic import bs_ratio_density, normal_tail_factor
from esarb.models import (
    LognormalMixture,
    calibrate_mixture,
    mixture_partial_moments,
    synthesize_chain,
)

from test_models import make_mixture

SRC = Path(__file__).resolve().parents[1] / "src"

# ------------------------------------------------------------- references


def ref_cdf(mix: LognormalMixture, x):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (np.log(np.maximum(x, 0.0))[..., None] - mix.log_means) / mix.log_sds
    out = np.where(x[..., None] > 0, norm.cdf(z), 0.0) @ mix.weights
    return out if out.ndim else float(out)


def ref_quantile(mix: LognormalMixture, u: float) -> float:
    from scipy.optimize import brentq

    z = norm.ppf(u)
    comp = np.exp(mix.log_means + mix.log_sds * z)
    lo, hi = 0.5 * comp.min(), 2.0 * comp.max()
    while ref_cdf(mix, lo) > u:
        lo *= 0.5
    while ref_cdf(mix, hi) < u:
        hi *= 2.0
    return float(brentq(lambda x: ref_cdf(mix, x) - u, lo, hi, xtol=1e-13 * hi, rtol=1e-14))


def ref_call_value(mix: LognormalMixture, strike: float) -> float:
    if strike == 0:
        return mix.mean()
    m, s = mix.log_means, mix.log_sds
    d2 = (m - math.log(strike)) / s
    d1 = d2 + s
    parts = np.exp(m + 0.5 * s**2) * norm.cdf(d1) - strike * norm.cdf(d2)
    return float(mix.weights @ parts)


def ref_partial_moments(mix: LognormalMixture, a: float, b: float):
    m, s = mix.log_means, mix.log_sds

    def cum(x: float):
        if x <= 0:
            return 0.0, 0.0
        if math.isinf(x):
            return 1.0, mix.mean()
        z = (math.log(x) - m) / s
        mass = float(mix.weights @ norm.cdf(z))
        mom = float(mix.weights @ (np.exp(m + 0.5 * s**2) * norm.cdf(z - s)))
        return mass, mom

    mass_b, mom_b = cum(b)
    mass_a, mom_a = cum(a)
    return mass_b - mass_a, mom_b - mom_a


def ref_mixture_from_theta(theta, spot, rate, maturity):
    lam = float(expit(theta[0]))
    fwd = spot * math.exp(rate * maturity)
    f1 = fwd * math.exp(theta[1])
    if not 1e-9 < lam < 1.0 - 1e-9:
        return None
    f2 = (fwd - lam * f1) / (1.0 - lam)
    if f2 <= 1e-12 * fwd:
        return None
    s1, s2 = math.exp(theta[2]), math.exp(theta[3])
    if not (1e-4 < s1 < 5.0 and 1e-4 < s2 < 5.0):
        return None
    m1 = math.log(f1) - 0.5 * s1 * s1
    m2 = math.log(f2) - 0.5 * s2 * s2
    order = np.argsort([s1, s2], kind="stable")
    w = np.array([lam, 1.0 - lam])[order]
    return LognormalMixture(
        w, np.array([m1, m2])[order], np.array([s1, s2])[order], spot, rate, maturity
    )


def ref_objective(quotes, spot, rate, maturity):
    usable = [
        q for q in quotes
        if q.kind in ("call", "put") and q.bid > 0 and math.isfinite(q.ask)
    ]
    strikes = np.array([q.strike for q in usable])
    is_call = np.array([q.kind == "call" for q in usable])
    mids = np.array([0.5 * (q.bid + q.ask) for q in usable])
    disc = math.exp(-rate * maturity)
    log_k = np.log(strikes).reshape(-1, 1)

    def model_prices(mix):
        m = mix.log_means.reshape(1, -1)
        s = mix.log_sds.reshape(1, -1)
        comp_fwd = np.exp(m + 0.5 * s**2)
        d2 = (m - log_k) / s
        calls = (comp_fwd * norm.cdf(d2 + s) - strikes.reshape(-1, 1) * norm.cdf(d2)) @ mix.weights
        vals = np.where(is_call, calls, calls - mix.mean() + strikes)
        return disc * vals

    penalty = 1e6 * spot

    def objective(theta) -> float:
        mix = ref_mixture_from_theta(theta, spot, rate, maturity)
        if mix is None:
            return penalty * (1.0 + float(np.abs(theta).sum()))
        return float(np.sqrt(np.mean((model_prices(mix) - mids) ** 2)))

    return objective


# ------------------------------------------------------------------ tests


def test_import_loads_neither_stats_nor_signal(tmp_path):
    # a subprocess: the test modules import scipy.stats themselves; neither
    # the import, nor fit_garch, nor the CLI's garch calibration loads them
    returns, fit_json = tmp_path / "returns.csv", tmp_path / "fit.json"
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "import esarb, esarb.cli",
        "def check(after):",
        "    loaded = [m for m in ('scipy.stats', 'scipy.signal') if m in sys.modules]",
        "    assert not loaded, (after, loaded)",
        "check('import')",
        "from esarb.io import write_returns",
        "from esarb.models import GarchModel, fit_garch",
        "model = GarchModel(omega=2e-6, arch=0.08, garch_coef=0.9, steps=1, init_var=1e-4)",
        "rets = model.simulate_returns(300, np.random.default_rng(5))",
        "fit = fit_garch(rets)",
        "check('fit_garch')",
        f"write_returns({str(returns)!r}, rets)",
        f"code = esarb.cli.main(['calibrate', 'garch', '--returns', {str(returns)!r},"
        f" '--out', {str(fit_json)!r}])",
        "assert code == 0, code",
        "check('calibrate garch')",
        "print(fit.loglik, fit.model.arch + fit.model.garch_coef)",
    ])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    loglik, persistence = map(float, proc.stdout.split())
    assert math.isfinite(loglik) and 0.0 <= persistence < 1.0
    assert fit_json.exists()


def _captured_objective(monkeypatch, quotes, spot, rate, maturity):
    """The objective calibrate_mixture hands to its optimizer."""
    captured = []

    class Captured(Exception):
        pass

    def capture(fun, *args, **kwargs):
        captured.append(fun)
        raise Captured

    monkeypatch.setattr(models, "minimize", capture)
    with pytest.raises(Captured):
        calibrate_mixture(quotes, spot, rate, maturity)
    return captured[0]


def test_calibration_objective_bitwise(monkeypatch):
    mix = make_mixture(w1=0.6, s1=0.15, s2=0.35)
    quotes = synthesize_chain(mix, np.linspace(70.0, 140.0, 11), rel_spread=0.02)
    env = (mix.spot, mix.rate, mix.maturity)
    got = _captured_objective(monkeypatch, quotes, *env)
    want = ref_objective(quotes, *env)

    rng = np.random.default_rng(20190226)
    base = np.array([0.0, 0.0, math.log(0.15), math.log(0.35)])
    thetas = base + rng.normal(0.0, [2.0, 0.3, 1.0, 1.0], size=(1000, 4))
    thetas[:100, 3] = thetas[:100, 2]  # s1 == s2
    thetas[100:120, 0] = rng.choice([-40.0, 40.0], 20)  # weight at 0 or 1
    thetas[120:140, :2] = [3.0, 1.5]  # second forward negative
    thetas[140:160, 2] = rng.uniform(-15.0, -9.5, 20)  # s1 below 1e-4
    thetas[160:180, 3] = rng.uniform(1.7, 4.0, 20)  # s2 above 5
    invalid = [ref_mixture_from_theta(t, *env) is None for t in thetas]
    s1_above = [t[2] > t[3] and not bad for t, bad in zip(thetas, invalid)]
    assert sum(invalid) >= 80 and sum(s1_above) >= 200
    for theta in thetas:
        assert got(theta) == want(theta)


def test_mixture_cdf_quantile_call_bitwise():
    for mix in (make_mixture(), make_mixture(w1=0.2, s1=0.3, s2=0.12, split=0.7)):
        xs = np.concatenate([[0.0, -1.0, math.inf], np.linspace(1e-3, 400.0, 4001)])
        assert np.array_equal(mix.cdf(xs), ref_cdf(mix, xs))
        for x in (0.0, 37.5, 100.0, 250.0):
            assert mix.cdf(x) == ref_cdf(mix, x)
        for u in np.concatenate([[1e-9, 1e-5, 0.5, 1 - 1e-5, 1 - 1e-9], np.linspace(0.01, 0.99, 60)]):
            assert mix.quantile(float(u)) == ref_quantile(mix, float(u))
        for k in np.concatenate([[0.0], np.linspace(1.0, 400.0, 400)]):
            assert mix.call_value(float(k)) == ref_call_value(mix, float(k))


def test_partial_moments_bitwise():
    mix = make_mixture(w1=0.3, s1=0.2, s2=0.3, split=0.9)
    edges = np.concatenate([[0.0], np.linspace(20.0, 260.0, 241), [math.inf]])
    for a, b in zip(edges[:-1], edges[1:]):
        assert mixture_partial_moments(mix, float(a), float(b)) == ref_partial_moments(mix, float(a), float(b))
    assert mixture_partial_moments(mix, 0.0, math.inf) == ref_partial_moments(mix, 0.0, math.inf)


def test_normal_tail_factor_bitwise():
    ps = np.concatenate([np.geomspace(1e-12, 1e-2, 5000), np.linspace(1e-2, 1.0 - 1e-6, 20000)])
    want = norm.pdf(norm.ppf(ps)) / ps
    got = np.array([normal_tail_factor(float(p)) for p in ps])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("drift, sigma", [(-0.3, 0.15), (0.05, 0.4), (0.0, 0.2)])
def test_bs_ratio_density_bitwise(drift, sigma):
    density = bs_ratio_density(drift, 0.0, sigma, cells=512)
    lam = abs((0.0 - drift) * math.sqrt(1.0) / sigma)
    edges = np.linspace(0.0, 1.0, 513)
    with np.errstate(divide="ignore"):
        z = norm.ppf(1.0 - edges)
    tail = norm.cdf(z - lam)
    assert np.array_equal(density.values, (tail[:-1] - tail[1:]) / np.diff(edges))


def test_round_trip_calibration_history_pinned():
    # length and SHA-256 recorded with the scipy.stats objective: the
    # Nelder-Mead trajectory is unchanged evaluation by evaluation
    mix = make_mixture(w1=0.6, s1=0.15, s2=0.35)
    quotes = synthesize_chain(mix, np.linspace(70.0, 140.0, 11), rel_spread=0.0,
                              include_bond=False)
    fit = calibrate_mixture(quotes, mix.spot, mix.rate, mix.maturity, seed=0)
    history = np.array(fit.history, dtype=np.float64)
    assert history.size == 799
    assert hashlib.sha256(history.tobytes()).hexdigest() == (
        "107743064d2ba63b00245bd81bb764d738b6e24f98f13d18a1e15360d519fb7a"
    )
