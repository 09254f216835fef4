import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from esarb import (
    MarketSnapshot,
    ScenarioSet,
    TradableLeg,
    WeightedSample,
    detector,
    es_p,
    models,
    payoff_distribution,
    price,
)


def random_sample(rng, size=None, nonuniform=True):
    n = int(rng.integers(2, 50)) if size is None else size
    values = rng.normal(scale=rng.uniform(0.5, 3.0), size=n)
    if nonuniform:
        weights = rng.random(n) + 1e-3
    else:
        weights = np.ones(n)
    weights = weights / weights.sum()
    return WeightedSample(values, weights)


def random_market(rng, n_scenarios=None, n_legs=None, upper_bound=1.0):
    n_s = int(rng.integers(3, 40)) if n_scenarios is None else n_scenarios
    n_l = int(rng.integers(1, 6)) if n_legs is None else n_legs
    points = np.sort(rng.normal(size=n_s))
    points = points + np.arange(n_s) * 1e-9  # nudge apart in case of ties
    weights = rng.random(n_s) + 1e-3
    weights = weights / weights.sum()
    scen = ScenarioSet(points, weights)
    legs = tuple(
        TradableLeg(f"leg{i}", float(rng.normal()), rng.normal(size=n_s))
        for i in range(n_l)
    )
    return MarketSnapshot(scen, legs, spot=1.0, upper_bound=upper_bound)


def checked_min_p(market, *args, **kwargs):
    """`min_p`, with the portfolio it returns checked without the solver:
    None when p* is None, else an ES_p-arbitrage at p*, recomputed from the
    market with `price`, `es_p` and `payoff_distribution`: cost and ES at
    most 1e-9 of the payoff scale, expected payoff above epsilon, 1e-6 of
    the spot or of the largest |payoff| on a positive-weight scenario (the
    value of `arbitrage_epsilon`, read here without building an LP)."""
    res = detector.min_p(market, *args, **kwargs)
    if res.p_star is None:
        assert res.portfolio is None
        return res
    qty = res.portfolio.quantities
    top = max(float(np.abs(market.payoff_matrix()).max()), float(np.abs(market.prices()).max()))
    tol = 1e-9 * (1.0 + top * float(np.abs(qty).sum()))
    dist = payoff_distribution(market, res.portfolio)
    assert price(market, res.portfolio) <= tol
    assert es_p(dist, res.p_star) <= tol
    positive = market.payoff_matrix()[market.scenarios.weights > 0]
    eps = 1e-6 * max(market.spot, float(np.abs(positive).max(initial=0.0)))
    assert float(dist.weights @ dist.values) > eps
    return res


def garch_callbacks(returns, seed=0, mode=0):
    """What `fit_garch` hands `_slsqp`, (values, gradients, x0, lower,
    upper) per start, and the fit it returns when every start stays where
    it began with exit `mode` (a CalibrationError when mode is not 0)."""
    runs = []

    def record(values, gradients, x0, lower, upper):
        runs.append((values, gradients, x0, lower, upper))
        return np.asarray(x0, dtype=float), mode

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(models, "_slsqp", record)
        return runs, models.fit_garch(returns, seed=seed)


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


def run_with_one_blas_thread(code: str) -> str:
    """stdout of `code` run by a fresh interpreter with one BLAS thread and
    `src` and the tests directory on its path.

    BLAS splits long sums between its threads, so the last bits of a
    result depend on the thread count. Bitwise pins are taken with one
    thread, as the benchmark's worker runs; they also depend on the BLAS
    kernel the CPU selects."""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    threads = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = dict(os.environ, PYTHONPATH=path, **threads)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
