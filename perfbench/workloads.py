"""The benchmark's workloads.

Each workload makes its inputs from the seed when it is built (set-up),
makes one untimed warm-up call, and then runs passes: a fixed list of
operations, the same in every pass, so every pass does the same work and
gives the same counts. An operation is one top-level call into esarb and
its check against ``oracles``. Calls go through module attributes
(``detector.detect``, not a name imported here), so the tracer's wrappers
see them.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

import numpy as np

from esarb import analytic, cli, detector, market, models, utility
from esarb import io as eio

import oracles


class Run:
    """One caller in a closed loop: each operation starts when the previous
    one has returned. Only the calls into esarb are timed; checks are not."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.program_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self._reported: set[str] = set()

    def op(self, name, call, check, known_fault=None):
        """Run one operation; return its result, or None when it failed.

        An operation that raises, or whose output the check rejects, is
        wrong, unless known_fault(result) says the output is the program's
        one known wrong answer: then it only counts as failed."""
        if self.tracer is not None:
            self.tracer.operation = self.attempted
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # counted and reported, not fatal
            self.program_s += time.perf_counter() - start
            self._fail(name, f"raised {type(exc).__name__}: {exc}", wrong=True)
            return None
        self.program_s += time.perf_counter() - start
        try:
            problem = check(result)
        except Exception as exc:  # output the check cannot read is wrong
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is None:
            return result
        self._fail(name, problem, wrong=not (known_fault and known_fault(result)))
        return None

    def _fail(self, name, problem, wrong):
        self.failed += 1
        self.wrong += wrong
        line = f"{name}: {problem}"
        if line not in self._reported:
            self._reported.add(line)
            print(f"operation failed: {line}", file=sys.stderr)


def _arrays(mkt):
    """Payoff matrix, weights, prices and payoff scale, read from the
    market's fields without calling into esarb."""
    F = np.column_stack([leg.payoff for leg in mkt.legs])
    prices = np.array([leg.price for leg in mkt.legs])
    return F, mkt.scenarios.weights, prices, max(1.0, float(np.abs(F).max()))


def _witness(result, mkt, p):
    """Witness check for an arbitrage verdict; None for the others."""
    if not result.arbitrage:
        return None
    F, w, prices, scale = _arrays(mkt)
    min_es = result.min_es if result.confirmation is None else None
    return oracles.check_witness(F, w, prices, result.portfolio.quantities, p, scale, min_es)


class MarkowitzMC:
    """1e5-draw Gaussian markets with one and two risky assets, each
    detected on both sides of the closed-form threshold, plus the
    zero-price lottery market whose verdict the cutting-plane
    confirmation gets wrong."""

    N_DRAWS = 100_000
    # (risky assets, range of the gradient g, p below and p above the
    # threshold); every pair keeps |g - E(p)| above 0.29
    PLAN = [
        (1, (1.65, 1.85), 0.02, 0.3),
        (1, (2.25, 2.35), 0.01, 0.1),
        (2, (1.45, 1.55), 0.05, 0.4),
        (2, (2.00, 2.10), 0.01, 0.2),
    ]
    LOTTERY_P = 0.05

    def __init__(self, seed: int, out_dir: str):
        rng = np.random.default_rng([seed, 0])
        self.cases = []
        for k, (n, (lo, hi), p_low, p_high) in enumerate(self.PLAN):
            g = rng.uniform(lo, hi)
            if n == 1:
                sigma, w = np.array([[0.01]]), np.array([1.0])
            else:
                r = 0.3 + 0.4 * rng.random()
                sigma, w = 0.01 * np.array([[1.0, r], [r, 1.0]]), rng.standard_normal(2)
            scale = g / math.sqrt(float(w @ sigma @ w))
            mk = analytic.MarkowitzMarket(1.0 + scale * (sigma @ w), sigma, np.ones(n), 0.0)
            self.cases.append((mk, [seed, 1, k], (p_low, p_high)))
        # The lottery market does not depend on the seed: its operation
        # fails on every run, so the failed share is the same in all runs.
        base = analytic.MarkowitzMarket(np.array([1.1]), np.array([[0.01]]), np.ones(1), 0.0)
        snap = analytic.markowitz_market(base, self.N_DRAWS, np.random.default_rng(20190226))
        pay = np.zeros(self.N_DRAWS)
        pay[::2] = 1.0
        lottery = market.TradableLeg("lottery", 0.0, pay)
        self.lottery = market.MarketSnapshot(snap.scenarios, snap.legs + (lottery,), spot=1.0)

    def warm_up(self):
        mk, stream, (_, p_high) = self.cases[0]
        snap = analytic.markowitz_market(mk, 2000, np.random.default_rng(stream))
        detector.detect(snap, p_high)

    def run_pass(self, run: Run):
        for mk, stream, ps in self.cases:
            rng = np.random.default_rng(stream)
            snap = run.op("markowitz_market",
                          lambda: analytic.markowitz_market(mk, self.N_DRAWS, rng),
                          lambda s: self._check_draws(s, mk))
            for p in ps:
                run.op(f"detect n={mk.n_assets} p={p}",
                       lambda: detector.detect(snap, p),
                       lambda r: oracles.check_markowitz(r.arbitrage, mk.mu, mk.sigma, mk.c, mk.rf, p)
                       or _witness(r, snap, p))
        # the known fault answers "no arbitrage"; a wrong witness is not it
        run.op("detect lottery", lambda: detector.detect(self.lottery, self.LOTTERY_P),
               self._check_lottery, known_fault=lambda r: not getattr(r, "arbitrage", True))

    def _check_draws(self, snap, mk):
        """Asset legs are draws of the model: each sample mean within six
        standard errors of mu."""
        if len(snap.scenarios) != self.N_DRAWS or len(snap.legs) != 2 + 2 * mk.n_assets:
            return "market has the wrong shape"
        for i in range(mk.n_assets):
            draws = snap.legs[2 + 2 * i].payoff
            se = math.sqrt(mk.sigma[i, i] / self.N_DRAWS)
            if abs(float(draws.mean()) - mk.mu[i]) > 6.0 * se:
                return f"asset {i} draws have mean {draws.mean():.5f}, model {mk.mu[i]:.5f}"
        return None

    def _check_lottery(self, result):
        """A leg with payoff >= 0, positive mean and price <= 0 is an
        arbitrage for every coherent risk measure, so the verdict must be
        arbitrage."""
        F, w, prices, _ = _arrays(self.lottery)
        free = [(F[:, j] >= 0).all() and w @ F[:, j] > 0 and prices[j] <= 0
                for j in range(F.shape[1])]
        return (oracles.check_verdict(result.arbitrage, any(free), "zero-price lottery")
                or _witness(result, self.lottery, self.LOTTERY_P))


def _step_density(sup: float, first_cell: float):
    tail = (1.0 - sup * first_cell) / (1.0 - first_cell)
    return analytic.CompleteMarketDensity("step", np.array([first_cell, 1.0]), np.array([sup, tail]))


class DensityThreshold:
    """Thresholds p* of complete digital markets by bisection: the 512-cell
    Black-Scholes density ratio and four step densities, the verdicts at
    p* +/- 0.05, and a seeded Monte Carlo min-p through the CLI twice."""

    BS = dict(drift=-0.3, rate=0.0, sigma=0.15, cells=512)
    STEPS = [(1.5, 0.4), (2.0, 1.0 / 3.0), (4.0, 0.1), (10.0, 0.02)]
    CLI_DENSITY = (2.0, 1.0 / 3.0)
    CLI_DRAWS = "3000000"

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        cells = self.BS["cells"]
        self.densities = [(analytic.bs_ratio_density(**self.BS),
                           oracles.bs_first_cell_density(self.BS["drift"], self.BS["rate"],
                                                         self.BS["sigma"], cells),
                           1.0 / cells)]
        self.densities += [(_step_density(sup, cell), sup, 0.0) for sup, cell in self.STEPS]
        self.csv = os.path.join(out_dir, "density.csv")
        eio.write_density(self.csv, _step_density(*self.CLI_DENSITY))
        self.outs = [os.path.join(out_dir, f"min-p-{k}.json") for k in range(2)]

    def warm_up(self):
        detector.detect(analytic.density_market(self.densities[0][0]), 0.05)

    def run_pass(self, run: Run):
        for density, q0, cell in self.densities:
            mkt = run.op("density_market", lambda: analytic.density_market(density),
                         lambda m: None if m.n_legs == 2 * density.grid.size
                         else f"{m.n_legs} legs for {density.grid.size} cells")
            found = run.op("min_p", lambda: detector.min_p(mkt, bracket=(1e-4, 0.9), tol=1e-4),
                           lambda r: oracles.check_threshold(r.p_star, q0, cell))
            if found is None:
                continue
            for p in (found.p_star - 0.05, found.p_star + 0.05):
                if 0.0 < p < 1.0:
                    run.op("detect", lambda: detector.detect(mkt, p),
                           lambda r: oracles.check_complete_verdict(r.arbitrage, q0, p)
                           or _witness(r, mkt, p))
        for out in self.outs:
            if os.path.exists(out):
                os.remove(out)
        for k, out in enumerate(self.outs):
            argv = ["min-p", "--density", self.csv, "--quadrature", "mc", "--n", self.CLI_DRAWS,
                    "--seed", str(self.seed), "--two-run", "--bracket", "1e-4,0.7",
                    "--tol", "1e-4", "--out", out]
            run.op(f"cli min-p run {k}", lambda: cli.main(argv), lambda rc: self._check_cli(rc, k))

    def _check_cli(self, rc, k):
        """Exit code 3, both seeded runs near 1/q(0+) = 0.5 (0.003 is seven
        standard errors of 3e6 draws), and the repeat byte-identical."""
        if rc != 3:
            return f"exit code {rc}, expected 3"
        with open(self.outs[k], "rb") as handle:
            blob = handle.read()
        payload = json.loads(blob)
        target = 1.0 / self.CLI_DENSITY[0]
        stars = [r["p_star"] for r in payload["runs"]]
        if len(stars) != 2 or any(s is None or abs(s - target) > 3e-3 for s in stars):
            return f"Monte Carlo thresholds {stars}, expected about {target}"
        if k == 0:
            return None
        with open(self.outs[0], "rb") as handle:
            return oracles.check_same_bytes(handle.read(), blob)


def _mixture(weights, forwards, sds, spot, rate, maturity):
    sds = np.asarray(sds, float)
    return models.LognormalMixture(np.asarray(weights, float),
                                   np.log(np.asarray(forwards, float)) - 0.5 * sds**2,
                                   sds, spot, rate, maturity)


def _params(mixture):
    return mixture.weights, mixture.log_means, mixture.log_sds


class IncompleteStudy:
    """The incomplete-market example: mixtures calibrated to two option
    chains, a GARCH fit, piecewise-linear-quadrature markets under the
    calibrated and under an alternative real-world model, a detect sweep
    over p on each, a utility scan along a found ray, and capped suprema
    with and without a planted lottery.

    The chains, the models and the p grid are one fixed study and the
    program's own start seeds are fixed; the seed draws the GARCH sample.
    Seeded chains or models do not work here: calibration and SLSQP work
    is chaotic in the data (2.9-5.1 s and 1.5-5.8 s across chain draws),
    and on 4 of 40 seeded model draws one detect of the sweep raised on
    the dense simplex path (see README.md)."""

    SPOT, RATE, T = 100.0, 0.02, 1.0
    STRIKES = np.arange(70.0, 131.0, 5.0)
    P_GRID = np.round(np.linspace(0.02, 0.4, 20), 6)
    # chain pricing mixture (weight 1, forward 1 / forward, sd 1, sd 2) and
    # the alternative real-world model (weights, forwards, sds)
    CHAINS = [
        ((0.6, 0.95, 0.15, 0.35), ((0.5, 0.5), (95.0, 115.0), (0.25, 0.12))),
        ((0.3, 0.90, 0.20, 0.30), ((0.2, 0.8), (70.0, 108.0), (0.30, 0.15))),
    ]
    CHAIN_STREAM = 1
    GARCH = dict(omega=2e-6, arch=0.08, garch_coef=0.90, steps=1, init_var=1e-4)
    LAMBDAS = [1.0, 10.0, 100.0, 1000.0]
    SUP_STRIKES = (90.0, 100.0, 110.0)
    CAPS = [1e2, 1e3, 1e4]

    def __init__(self, seed: int, out_dir: str):
        chain_rng = np.random.default_rng(self.CHAIN_STREAM)
        fwd = self.SPOT * math.exp(self.RATE * self.T)
        env = (self.SPOT, self.RATE, self.T)
        self.chains, self.alternatives = [], []
        for (w1, f1, s1, s2), alternative in self.CHAINS:
            f2 = (fwd - w1 * f1 * fwd) / (1.0 - w1)
            pricing = _mixture((w1, 1.0 - w1), (f1 * fwd, f2), (s1, s2), *env)
            self.chains.append([self._perturb(q, chain_rng)
                                for q in models.synthesize_chain(pricing, self.STRIKES, rel_spread=0.02)])
            self.alternatives.append(_mixture(*alternative, *env))
        self.returns = models.GarchModel(**self.GARCH).simulate_returns(
            5000, np.random.default_rng([seed, 0]))
        self.persistence = self.GARCH["arch"] + self.GARCH["garch_coef"]
        self.specs = [utility.UtilitySpec.limited_liability(), utility.UtilitySpec.risk_manager_power(2.0)]

    @staticmethod
    def _perturb(quote, rng):
        """Move an option's mid uniformly within half its half-spread, so the
        chain is not exactly any mixture's and every calibration start runs."""
        if quote.kind not in ("call", "put"):
            return quote
        half = 0.5 * (quote.ask - quote.bid)
        mid = 0.5 * (quote.ask + quote.bid) + 0.5 * half * rng.uniform(-1.0, 1.0)
        return market.InstrumentQuote(quote.kind, quote.strike, mid - half, mid + half)

    def warm_up(self):
        mkt = self._pl_market(self.alternatives[0], self.chains[0])
        detector.detect(mkt, 0.2)

    def _pl_market(self, model, chain):
        grid = models.default_pl_grid(model, self.STRIKES)
        scen = models.pl_quadrature(model, grid)
        legs = market.expand_quotes(chain, scen, self.SPOT, self.RATE, self.T)
        return market.MarketSnapshot(scen, tuple(legs), self.SPOT, self.RATE, self.T)

    def _quotes(self, chain):
        return [(q.kind, q.strike, q.bid, q.ask) for q in chain
                if q.kind in ("call", "put") and q.bid > 0 and math.isfinite(q.ask)]

    def run_pass(self, run: Run):
        env = (self.SPOT, self.RATE, self.T)
        fits = [run.op("calibrate_mixture", lambda: models.calibrate_mixture(chain, *env, seed=0),
                       lambda f: oracles.check_calibration(_params(f.mixture), self._quotes(chain), *env))
                for chain in self.chains]
        run.op("fit_garch", lambda: models.fit_garch(self.returns, seed=0),
               lambda f: oracles.check_persistence(f.model.arch + f.model.garch_coef, self.persistence))
        sweeps = []
        for fit, chain, alternative in zip(fits, self.chains, self.alternatives):
            for model in (fit.mixture if fit else None, alternative):
                mkt = run.op("pl market", lambda: self._pl_market(model, chain),
                             lambda m: self._check_pl_market(m, model, chain))
                verdicts = []
                for p in self.P_GRID:
                    result = run.op("detect sweep", lambda: detector.detect(mkt, float(p)),
                                    lambda r: self._check_sweep(r, mkt, float(p), verdicts))
                    verdicts.append(result)
                sweeps.append((mkt, verdicts))
        # the ray: the alternative model's portfolio at the top of the grid
        mkt, verdicts = sweeps[3]
        p_ray = float(self.P_GRID[-1])
        run.op("scaling_scan", lambda: self._scan(mkt, verdicts[-1], p_ray),
               lambda rows: self._check_scan(rows, mkt, verdicts[-1]))
        # capped suprema on the scenarios of the calibrated model
        mkt = sweeps[2][0]
        sup_chain = [q for q in self.chains[1] if q.kind == "bond" or q.strike in self.SUP_STRIKES]
        run.op("classic_constraint_sup", lambda: self._capped_sup(mkt, sup_chain, False),
               lambda rows: oracles.check_bounded([r.value for r in rows]))
        run.op("classic_constraint_sup planted", lambda: self._capped_sup(mkt, sup_chain, True),
               lambda rows: oracles.check_growth([r.value for r in rows]))

    def _check_pl_market(self, mkt, model, chain):
        if len(mkt.scenarios) != 200 or mkt.n_legs != 2 * len(chain):
            return f"{len(mkt.scenarios)} scenarios x {mkt.n_legs} legs"
        return oracles.check_pl_prices(mkt.scenarios.points, mkt.scenarios.weights,
                                       _params(model), self.STRIKES)

    def _check_sweep(self, result, mkt, p, earlier):
        F, w, prices, scale = _arrays(mkt)
        oracle = oracles.min_es_lp(F, w, prices, p, mkt.upper_bound)
        problem = oracles.check_min_es(result.min_es, oracle, scale)
        if problem is None and oracle < -1e-5 * scale and not result.arbitrage:
            problem = f"least ES {oracle:.3e} < 0 but no arbitrage"
        return (problem
                or oracles.check_monotone([r.arbitrage for r in earlier if r is not None]
                                          + [result.arbitrage])
                or _witness(result, mkt, p))

    def _scan(self, mkt, ray, p):
        if ray is None or not ray.arbitrage:
            raise RuntimeError("the sweep found no arbitrage ray")
        base = market.Portfolio(np.zeros(mkt.n_legs), upper_bound=mkt.upper_bound)
        return utility.scaling_scan(mkt, base, ray.portfolio, self.LAMBDAS, self.specs, p)

    def _check_scan(self, rows, mkt, ray):
        F, w, _, _ = _arrays(mkt)
        trader = [r.expected_utility for r in rows if r.spec == self.specs[0].label]
        manager = [r.expected_utility for r in rows if r.spec == self.specs[1].label]
        return oracles.check_scan(self.LAMBDAS, trader, manager, np.zeros(len(w)),
                                  F @ ray.portfolio.quantities, w, self.specs[1].eta)

    def _capped_sup(self, mkt, chain, planted):
        scen = mkt.scenarios
        legs = tuple(market.expand_quotes(chain, scen, self.SPOT, self.RATE, self.T))
        if planted:
            pay = 2.0 * (scen.points > np.median(scen.points))
            legs += (market.TradableLeg("lottery", 0.0, pay),)
        small = market.MarketSnapshot(scen, legs, self.SPOT, self.RATE, self.T)
        return utility.classic_constraint_sup(small, self.specs[1], -0.01, self.CAPS,
                                              seed=0, n_starts=8)


WORKLOADS = {
    "markowitz-mc": MarkowitzMC,
    "density-threshold": DensityThreshold,
    "incomplete-study": IncompleteStudy,
}
