"""Scenario model tests: mixture closed forms, quadratures, calibration."""

import math

import numpy as np
import pytest
from scipy.optimize import least_squares, minimize

from esarb import models
from esarb.market import InstrumentQuote
from esarb.models import (
    CalibrationError,
    GarchModel,
    LognormalMixture,
    MixtureFit,
    _first_order_scan,
    calibrate_mixture,
    default_pl_grid,
    fit_garch,
    mc_quadrature,
    mixture_partial_moments,
    pl_quadrature,
    synthesize_chain,
)
from esarb.seeding import substream

from conftest import garch_callbacks


def make_mixture(w1=0.6, s1=0.15, s2=0.35, spot=100.0, rate=0.02,
                 maturity=1.0, split=0.95):
    """Two-component martingale mixture; component forwards split/balance."""
    fwd = spot * math.exp(rate * maturity)
    f1 = split * fwd
    f2 = (fwd - w1 * f1) / (1.0 - w1)
    sds = np.array([s1, s2])
    log_means = np.log([f1, f2]) - 0.5 * sds**2
    return LognormalMixture(np.array([w1, 1.0 - w1]), log_means, sds,
                            spot, rate, maturity)


def single_component(sigma=0.25, spot=100.0, rate=0.0, maturity=1.0):
    fwd = spot * math.exp(rate * maturity)
    return LognormalMixture(
        np.array([1.0]),
        np.array([math.log(fwd) - 0.5 * sigma**2]),
        np.array([sigma]),
        spot, rate, maturity,
    )


class TestPartialMoments:
    def test_full_range_totals(self):
        mix = make_mixture()
        mass, mom = mixture_partial_moments(mix, 0.0, math.inf)
        assert mass == pytest.approx(1.0, abs=1e-12)
        assert mom == pytest.approx(mix.mean(), rel=1e-12)

    def test_single_component_median_mass(self):
        mix = single_component(sigma=0.3)
        median = math.exp(float(mix.log_means[0]))
        mass, _ = mixture_partial_moments(mix, 0.0, median)
        assert mass == pytest.approx(0.5, abs=1e-12)

    def test_against_mc_oracle(self):
        mix = make_mixture()
        a, b = mix.spot, 2.0 * mix.spot
        mass, mom = mixture_partial_moments(mix, a, b)
        rng = np.random.default_rng(77)
        draws = mix.sample(200_000, rng)
        inside = (draws > a) & (draws <= b)
        se_mass = inside.std() / math.sqrt(draws.size)
        contrib = draws * inside
        se_mom = contrib.std() / math.sqrt(draws.size)
        assert abs(mass - inside.mean()) <= 3 * se_mass
        assert abs(mom - contrib.mean()) <= 3 * se_mom

    def test_adjacent_intervals_add(self):
        mix = make_mixture()
        for a, b, c in [(0.0, 80.0, 120.0), (50.0, 100.0, math.inf)]:
            m1 = mixture_partial_moments(mix, a, b)
            m2 = mixture_partial_moments(mix, b, c)
            m12 = mixture_partial_moments(mix, a, c)
            assert m1[0] + m2[0] == pytest.approx(m12[0], abs=1e-12)
            assert m1[1] + m2[1] == pytest.approx(m12[1], rel=1e-12)

    def test_bad_interval_rejected(self):
        mix = make_mixture()
        with pytest.raises(ValueError):
            mixture_partial_moments(mix, -1.0, 10.0)
        with pytest.raises(ValueError):
            mixture_partial_moments(mix, 5.0, 5.0)
        with pytest.raises(ValueError):
            mixture_partial_moments(mix, 10.0, 5.0)


class TestPlQuadrature:
    def test_weights_sum_to_one(self):
        mix = make_mixture()
        grid = default_pl_grid(mix, [80.0, 100.0, 120.0])
        scen = pl_quadrature(mix, grid)
        assert abs(scen.weights.sum() - 1.0) <= 1e-12
        assert (scen.weights >= 0).all()

    def test_linear_payoff_matches_mean(self):
        mix = make_mixture()
        grid = default_pl_grid(mix, [90.0, 110.0])
        scen = pl_quadrature(mix, grid)
        est = float(scen.weights @ scen.points)
        assert est == pytest.approx(mix.mean(), rel=1e-9)

    def test_call_at_grid_strike_exact(self):
        mix = make_mixture()
        strikes = [70.0, 85.0, 100.0, 115.0, 140.0]
        grid = default_pl_grid(mix, strikes)
        scen = pl_quadrature(mix, grid)
        for k in strikes:
            est = float(scen.weights @ np.maximum(scen.points - k, 0.0))
            assert est == pytest.approx(mix.call_value(k), rel=1e-9)

    def test_put_at_grid_strike_exact(self):
        mix = make_mixture()
        grid = default_pl_grid(mix, [90.0])
        scen = pl_quadrature(mix, grid)
        est = float(scen.weights @ np.maximum(90.0 - scen.points, 0.0))
        assert est == pytest.approx(mix.put_value(90.0), rel=1e-9)

    def test_portfolio_of_kinked_payoffs_exact(self):
        # spreads, straddles and a butterfly, all kinked on grid points
        mix = make_mixture()
        strikes = np.array([80.0, 95.0, 105.0, 120.0])
        grid = default_pl_grid(mix, strikes)
        scen = pl_quadrature(mix, grid)
        rng = np.random.default_rng(5)
        for _ in range(20):
            coef = rng.normal(size=strikes.size)
            payoff = sum(
                c * np.maximum(scen.points - k, 0.0)
                for c, k in zip(coef, strikes)
            )
            exact = sum(c * mix.call_value(float(k))
                        for c, k in zip(coef, strikes))
            est = float(scen.weights @ payoff)
            assert est == pytest.approx(exact, rel=1e-9, abs=1e-9)

    def test_bad_grids_rejected(self):
        mix = make_mixture()
        with pytest.raises(ValueError):
            pl_quadrature(mix, [0.0, 10.0, 10.0, 20.0])
        with pytest.raises(ValueError):
            pl_quadrature(mix, [0.0, 20.0, 10.0])
        with pytest.raises(ValueError):
            pl_quadrature(mix, [0.0, 50.0])
        with pytest.raises(ValueError):
            pl_quadrature(mix, [-1.0, 50.0, 100.0])

    def test_default_grid_contains_anchors(self):
        mix = make_mixture()
        strikes = [77.0, 103.0]
        grid = default_pl_grid(mix, strikes)
        assert grid[0] == 0.0
        for k in strikes:
            assert np.any(grid == k)
        assert (np.diff(grid) > 0).all()
        assert grid.size >= 190


class TestMcQuadrature:
    def test_single_draw(self):
        mix = make_mixture()
        scen = mc_quadrature(mix, 1, seed=3)
        assert scen.points.size == 1
        assert scen.weights[0] == 1.0

    def test_seed_reproducible(self):
        mix = make_mixture()
        a = mc_quadrature(mix, 500, seed=11)
        b = mc_quadrature(mix, 500, seed=11)
        assert np.array_equal(a.points, b.points)
        c = mc_quadrature(mix, 500, seed=12)
        assert not np.array_equal(a.points, c.points)

    def test_mixture_mean_within_3se(self):
        mix = make_mixture()
        scen = mc_quadrature(mix, 100_000, seed=9)
        est = float(scen.weights @ scen.points)
        se = float(scen.points.std()) / math.sqrt(scen.points.size)
        assert abs(est - mix.mean()) <= 3 * se

    def test_garch_without_feedback_is_gaussian(self):
        # arch = garch = 0 collapses to iid N(drift, omega) log returns,
        # so log terminal variance is exactly steps * omega
        model = GarchModel(omega=4e-4, arch=0.0, garch_coef=0.0,
                           steps=25, init_var=4e-4)
        scen = mc_quadrature(model, 40_000, seed=21, spot=100.0)
        logs = np.log(scen.points / 100.0)
        target = 25 * 4e-4
        sample_var = float(logs.var(ddof=1))
        se = target * math.sqrt(2.0 / (logs.size - 1))
        assert abs(sample_var - target) <= 3 * se

    def test_garch_unconditional_variance_recovered(self):
        model = GarchModel(omega=5e-6, arch=0.05, garch_coef=0.85, steps=1,
                           init_var=5e-6 / 0.10)
        assert model.unconditional_variance == pytest.approx(5e-5, rel=1e-12)
        rng = np.random.default_rng(31)
        rets = model.simulate_returns(50_000, rng)
        est = float((rets - rets.mean()).var())
        assert est == pytest.approx(model.unconditional_variance, rel=0.05)

    def test_simulation_bit_reproducible(self):
        model = GarchModel(omega=1e-6, arch=0.08, garch_coef=0.90,
                           steps=10, init_var=1e-4)
        a = model.simulate_returns(64, np.random.default_rng(7))
        b = model.simulate_returns(64, np.random.default_rng(7))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [0, -3])
    def test_draw_count_below_one_rejected(self, n):
        garch = GarchModel(omega=1e-6, arch=0.08, garch_coef=0.90, steps=10, init_var=1e-4)
        draws = [
            lambda rng: make_mixture().sample(n, rng),
            lambda rng: garch.simulate_returns(n, rng),
            lambda rng: garch.simulate_terminal(100.0, n, rng),
        ]
        for draw in draws:
            with pytest.raises(ValueError, match=r"^n must be >= 1$"):
                draw(np.random.default_rng(0))

    @pytest.mark.parametrize("n", [3.0, 1e3, True, np.bool_(True), "5", 2**63, 10**30],
                             ids=repr)
    def test_draw_count_must_be_an_integer_below_2_63(self, n):
        garch = GarchModel(omega=1e-6, arch=0.08, garch_coef=0.90, steps=10, init_var=1e-4)
        draws = [
            lambda rng: make_mixture().sample(n, rng),
            lambda rng: garch.simulate_returns(n, rng),
            lambda rng: garch.simulate_terminal(100.0, n, rng),
            lambda rng: mc_quadrature(make_mixture(), n, rng),
        ]
        for draw in draws:
            with pytest.raises(ValueError, match=r"^n must be "):
                draw(np.random.default_rng(0))

    def test_error_shrinks_like_root_n(self):
        # avg |error| of a call estimate from n=1e3 vs n=1e5 draws; the
        # ratio should straddle sqrt(100) = 10
        mix = make_mixture()
        exact = mix.call_value(100.0)
        errs = {1_000: [], 100_000: []}
        for seed in range(20):
            for n in errs:
                scen = mc_quadrature(mix, n, seed=1000 + seed)
                est = float(scen.weights @ np.maximum(scen.points - 100.0, 0.0))
                errs[n].append(abs(est - exact))
        ratio = np.mean(errs[1_000]) / np.mean(errs[100_000])
        assert 5.0 <= ratio <= 20.0


class TestCalibrateMixture:
    def test_round_trip_zero_spread(self):
        mix = make_mixture(w1=0.6, s1=0.15, s2=0.35)
        strikes = np.linspace(70.0, 140.0, 11)
        quotes = synthesize_chain(mix, strikes, rel_spread=0.0,
                                  include_bond=False)
        fit = calibrate_mixture(quotes, mix.spot, mix.rate, mix.maturity,
                                seed=0)
        assert fit.converged
        order = np.argsort(fit.mixture.log_sds)
        got_s = fit.mixture.log_sds[order]
        got_w = fit.mixture.weights[order]
        assert got_s[0] == pytest.approx(0.15, rel=1e-3)
        assert got_s[1] == pytest.approx(0.35, rel=1e-3)
        assert got_w[0] == pytest.approx(0.6, rel=1e-3)
        assert fit.rmse <= 1e-6 * mix.spot

    def test_equal_sigmas_fit_to_machine_rmse(self):
        mix = single_component(sigma=0.22, spot=50.0, rate=0.01)
        strikes = np.linspace(35.0, 70.0, 9)
        quotes = synthesize_chain(mix, strikes, rel_spread=0.0,
                                  include_bond=False)
        fit = calibrate_mixture(quotes, 50.0, 0.01, 1.0)
        assert fit.rmse < 1e-8 * 50.0

    def test_noisy_quotes_fit_within_half_spread(self):
        mix = make_mixture()
        strikes = np.linspace(75.0, 130.0, 10)
        quotes = synthesize_chain(mix, strikes, rel_spread=0.01,
                                  include_bond=False)
        fit = calibrate_mixture(quotes, mix.spot, mix.rate, mix.maturity)
        avg_spread = np.mean([q.ask - q.bid for q in quotes])
        assert fit.rmse <= 0.5 * avg_spread

    def test_too_few_usable_quotes(self):
        # two strikes give four usable call/put quotes, one short of five
        mix = make_mixture()
        quotes = synthesize_chain(mix, [95.0, 105.0], include_bond=False)
        assert len(quotes) == 4
        with pytest.raises(ValueError, match="too few quotes"):
            calibrate_mixture(quotes, mix.spot, mix.rate, mix.maturity)

    def test_martingale_built_in(self):
        mix = make_mixture()
        quotes = synthesize_chain(mix, np.linspace(80, 125, 8),
                                  include_bond=False)
        fit = calibrate_mixture(quotes, mix.spot, mix.rate, mix.maturity)
        assert fit.mixture.martingale_gap() <= 1e-9 * mix.spot

    def test_history_is_nonincreasing_and_ends_at_rmse(self):
        mix = make_mixture()
        quotes = synthesize_chain(mix, np.linspace(80, 125, 8),
                                  include_bond=False)
        fit = calibrate_mixture(quotes, mix.spot, mix.rate, mix.maturity)
        hist = np.asarray(fit.history)
        assert hist.size > 1
        assert (np.diff(hist) <= 0).all()
        assert hist[-1] == pytest.approx(fit.rmse, rel=1e-9, abs=1e-12)

    def test_deterministic_given_seed(self):
        mix = make_mixture()
        quotes = synthesize_chain(mix, np.linspace(80, 125, 8),
                                  include_bond=False)
        f1 = calibrate_mixture(quotes, mix.spot, mix.rate, mix.maturity, seed=4)
        f2 = calibrate_mixture(quotes, mix.spot, mix.rate, mix.maturity, seed=4)
        assert f1.rmse == f2.rmse
        assert np.array_equal(f1.mixture.log_means, f2.mixture.log_means)


def _perturbed_chain(seed):
    """A chain shaped like the benchmark's incomplete-study chains: calls and
    puts at strikes 70-130 priced by a seeded mixture, a spread of 0-4 %,
    and each mid moved uniformly within half its half-spread, so that no
    mixture prices it exactly."""
    rng = np.random.default_rng([seed, 1963])
    mix = make_mixture(w1=rng.uniform(0.2, 0.8), s1=rng.uniform(0.1, 0.25),
                       s2=rng.uniform(0.25, 0.45), split=rng.uniform(0.85, 0.98))
    chain = synthesize_chain(mix, np.arange(70.0, 131.0, 5.0), rel_spread=rng.uniform(0.0, 0.04))
    quotes = []
    for q in chain:
        if q.kind in ("call", "put"):
            half = 0.5 * (q.ask - q.bid)
            mid = 0.5 * (q.ask + q.bid) + 0.5 * half * rng.uniform(-1.0, 1.0)
            q = InstrumentQuote(q.kind, q.strike, mid - half, mid + half)
        quotes.append(q)
    return mix, quotes


def _recording_least_squares(monkeypatch):
    """Route calibrate_mixture's least_squares calls through scipy's, and
    record each call's residual function, start and result."""
    calls = []

    def recording(fun, x0, **kwargs):
        res = least_squares(fun, x0, **kwargs)
        calls.append((fun, np.array(x0), res))
        return res

    monkeypatch.setattr(models, "least_squares", recording)
    return calls


@pytest.mark.parametrize("seed", range(8))
def test_fit_no_worse_than_nelder_mead(monkeypatch, seed):
    # reference: Nelder-Mead on the residuals' RMSE from the same starts,
    # with the options calibrate_mixture used before Levenberg-Marquardt
    mix, quotes = _perturbed_chain(seed)
    calls = _recording_least_squares(monkeypatch)
    fit = calibrate_mixture(quotes, mix.spot, mix.rate, mix.maturity, seed=seed)
    assert len(calls) == 10
    ref = min(
        minimize(lambda t, fun=fun: float(np.sqrt(np.mean(fun(t) ** 2))), x0,
                 method="Nelder-Mead",
                 options={"xatol": 1e-9, "fatol": 1e-13, "maxiter": 4000, "maxfev": 8000}).fun
        for fun, x0, _ in calls
    )
    assert fit.rmse <= (1.0 + 1e-6) * ref


def test_fit_hitting_max_nfev_raises_with_fit_attached(monkeypatch):
    mix, quotes = _perturbed_chain(0)
    monkeypatch.setattr(models, "_LM_MAX_NFEV", 10)
    calls = _recording_least_squares(monkeypatch)
    with pytest.raises(CalibrationError, match="did not converge") as err:
        calibrate_mixture(quotes, mix.spot, mix.rate, mix.maturity)
    assert [res.status for _, _, res in calls] == [0] * 10
    fit = err.value.fit
    assert isinstance(fit, MixtureFit) and not fit.converged
    assert fit.rmse == min(float(np.sqrt(np.mean(res.fun**2))) for _, _, res in calls)


def garch_gaussian_loglik(returns, omega, alpha, beta):
    """Reference QMLE value: recursion seeded at the sample variance."""
    r = np.asarray(returns, dtype=float)
    eps = r - r.mean()
    sig2 = np.empty(r.size)
    sig2[0] = float(eps @ eps) / r.size
    for t in range(1, r.size):
        sig2[t] = omega + alpha * eps[t - 1] ** 2 + beta * sig2[t - 1]
    return -0.5 * float(
        r.size * math.log(2.0 * math.pi)
        + np.sum(np.log(sig2) + eps**2 / sig2)
    )


class TestFitGarch:
    def make_returns(self, n=5000, seed=13):
        truth = GarchModel(omega=1e-6, arch=0.08, garch_coef=0.90,
                           steps=1, init_var=1e-6 / 0.02)
        return truth, truth.simulate_returns(n, np.random.default_rng(seed))

    def test_recovers_persistence(self):
        truth, rets = self.make_returns()
        fit = fit_garch(rets)
        got = fit.model.arch + fit.model.garch_coef
        assert abs(got - 0.98) <= 0.05

    def test_likelihood_beats_truth_and_starts(self):
        _, rets = self.make_returns()
        fit = fit_garch(rets)
        at_truth = garch_gaussian_loglik(rets, 1e-6, 0.08, 0.90)
        assert fit.loglik >= at_truth - 1e-6
        assert fit.loglik >= max(fit.start_logliks) - 1e-9

    def test_constant_variance_series(self):
        rng = np.random.default_rng(41)
        rets = 0.01 * rng.standard_normal(3000)
        fit = fit_garch(rets)
        assert fit.model.arch + fit.model.garch_coef <= 0.1
        # implied long-run variance near the sample variance
        implied = fit.model.unconditional_variance
        assert implied == pytest.approx(float(rets.var()), rel=0.2)

    def test_forecast_initialises_simulation(self):
        _, rets = self.make_returns(n=2000, seed=29)
        fit = fit_garch(rets, steps_ahead=20)
        m = fit.model
        assert m.steps == 20
        one_step = (m.omega + m.arch * 0.0 + m.garch_coef * 0.0)
        assert m.init_var > one_step  # forecast carries sample information
        scen = mc_quadrature(m, 100, seed=0, spot=100.0)
        assert scen.points.shape == (100,)

    def test_too_few_observations(self):
        with pytest.raises(ValueError, match="too few observations"):
            fit_garch(np.zeros(249) + 1e-3 * np.arange(249))

    def test_nonfinite_rejected(self):
        rets = np.full(300, 0.01)
        rets[5] = np.nan
        with pytest.raises(ValueError):
            fit_garch(rets)

    # (omega, arch, garch_coef, loglik) fitted by the sequential recursion
    # (scipy.signal.lfilter) before the scan replaced it
    @pytest.mark.parametrize("series, seed, want", [
        ("criterion 7", 3,
         (2.384198150838183e-06, 0.08382481450447911, 0.8943728943262423, 16047.019094229301)),
        ("TestFitGarch", 0,
         (1.7718076922073141e-06, 0.09592409037974675, 0.8687290550201616, 17920.574623239718)),
    ])
    def test_fit_pinned_to_sequential_recursion(self, series, seed, want):
        if series == "criterion 7":
            model = GarchModel(omega=2e-6, arch=0.08, garch_coef=0.90, steps=1, init_var=1e-4)
            rets = model.simulate_returns(5000, substream(77, "acc-garch"))
        else:
            _, rets = self.make_returns()
        fit = fit_garch(rets, seed=seed)
        got = (fit.model.omega, fit.model.arch, fit.model.garch_coef)
        assert got == pytest.approx(want[:3], rel=1e-6, abs=0.0)
        assert fit.loglik == pytest.approx(want[3], rel=1e-9, abs=0.0)

    def test_score_matches_central_differences(self):
        _, rets = self.make_returns(n=1000, seed=5)
        runs, _ = garch_callbacks(rets)
        assert len(runs) == 6
        values, gradients, _, lower, upper = runs[0]
        assert lower.tolist() == [-60.0, 0.0, 0.0] and upper.tolist() == [60.0, 1 - 1e-6, 1 - 1e-6]
        s2 = float(np.var(rets))
        for theta in [(0.1, 0.1, 0.8), (0.5, 0.3, 0.2), (1.0, 0.01, 0.01),
                      (0.02, 0.05, 0.93), (3.0, 0.2, 0.7), (1e-3, 0.02, 0.975)]:
            theta = np.array([math.log(theta[0] * s2), theta[1], theta[2]])
            score, (normal,) = gradients(theta)
            central = []
            for k, h in enumerate((1e-5, 1e-6, 1e-6)):
                step = np.zeros(3)
                step[k] = h
                central.append((values(theta + step)[0] - values(theta - step)[0]) / (2 * h))
            np.testing.assert_allclose(score, central, rtol=1e-6, atol=1e-5)
            assert normal.tolist() == [0.0, -1.0, -1.0]
            assert values(theta)[1] == (1 - 1e-6 - theta[1] - theta[2],)

    def test_failed_exit_raises_with_fit(self, monkeypatch):
        # a winning exit mode other than 0 (here 9, the iteration limit)
        _, rets = self.make_returns(n=1000, seed=5)
        _, converged = garch_callbacks(rets)
        with pytest.raises(CalibrationError, match="did not converge") as err:
            garch_callbacks(rets, mode=9)
        fit = err.value.fit
        assert not fit.converged
        assert (fit.loglik, fit.start_index) == (converged.loglik, converged.start_index)
        assert fit.loglik == fit.start_logliks[fit.start_index]
        # losing starts' exit modes do not matter
        modes = iter([9 if k != fit.start_index else 0 for k in range(6)])
        monkeypatch.setattr(models, "_slsqp", lambda values, gradients, x0, *box: (x0, next(modes)))
        assert fit_garch(rets).converged

    @pytest.mark.parametrize("truth, n, seed", [
        ((1e-4, 0.0, 0.0), 300, 1), ((1e-4, 0.0, 0.0), 2000, 2),
        ((2e-6, 0.08, 0.90), 600, 3), ((1e-6, 0.05, 0.945), 1000, 4),
        ((4e-6, 0.03, 0.965), 400, 5), ((3e-5, 0.2, 0.5), 1500, 6),
    ])
    def test_objective_no_worse_than_nelder_mead(self, truth, n, seed):
        omega, arch, garch = truth
        model = GarchModel(omega=omega, arch=arch, garch_coef=garch, steps=1,
                           init_var=omega / (1.0 - arch - garch))
        rets = model.simulate_returns(n, np.random.default_rng([seed, 7]))
        reference, converged = nelder_mead_garch_objective(rets)
        assert converged
        fit = fit_garch(rets)
        persistence = fit.model.arch + fit.model.garch_coef
        objective = -2.0 * fit.loglik - n * math.log(2.0 * math.pi) + 6.0 * persistence
        assert objective <= reference + 1e-9 * abs(reference)


def nelder_mead_garch_objective(returns, seed=0):
    """The search objective -2 loglik + 6 (arch + garch) that fit_garch
    reached by Nelder-Mead, before it ran SLSQP on the exact score: six
    seeded starts, parameters clipped to the box, the row enforced by
    scaling, and 1e6 n times the distance moved added as a penalty.
    Returns the winner's objective and whether Nelder-Mead converged."""
    r = np.asarray(returns, dtype=float)
    eps2 = (r - r.mean()) ** 2
    var0, n = float(eps2.mean()), r.size
    lo, hi = np.array([-60.0, 0.0, 0.0]), np.array([60.0, 1.0 - 1e-6, 1.0 - 1e-6])

    def objective(theta):
        clipped = np.clip(theta, lo, hi)
        dist = float(np.abs(theta - clipped).sum())
        ln_omega, alpha, beta = clipped
        if alpha + beta > 1.0 - 1e-6:
            dist += alpha + beta - (1.0 - 1e-6)
            scale = (1.0 - 1e-6) / (alpha + beta)
            alpha, beta = alpha * scale, beta * scale
        sig2 = _first_order_scan(var0, math.exp(ln_omega) + alpha * eps2[:-1], beta)
        neg2ll = float(np.sum(np.log(sig2) + eps2 / sig2))
        return neg2ll + 6.0 * (alpha + beta) + 1e6 * dist * n

    rng = substream(seed, "fit-garch")
    best = None
    for a, b in [(0.05, 0.90), (0.10, 0.85), (0.02, 0.94), (0.15, 0.70),
                 (0.30, 0.40), (0.01, 0.02)]:
        theta0 = np.array([math.log(var0 * (1.0 - a - b)), a, b])
        res = minimize(objective, theta0 + rng.normal(0.0, [0.05, 0.01, 0.01]),
                       method="Nelder-Mead",
                       options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 3000, "maxfev": 6000})
        if best is None or res.fun < best.fun:
            best = res
    return float(best.fun), bool(best.success)


def _sequential_recursion(first, x, beta):
    """y[0] = first, y[t] = x[t-1] + beta y[t-1], one term at a time: the
    arithmetic of scipy.signal.lfilter([1], [1, -beta], x, zi=[beta first])."""
    y = [first]
    for v in x.tolist():
        y.append(v + beta * y[-1])
    return np.array(y)


@pytest.mark.parametrize("n", [250, 4999, 5000])
@pytest.mark.parametrize("beta", [0.0, 1e-300, 0.3, 0.9, 1.0 - 1e-6])
def test_first_order_scan_matches_sequential_recursion(beta, n):
    rng = np.random.default_rng(n)
    eps2 = (0.01 * rng.standard_t(4, n)) ** 2
    var0 = float(eps2.mean())
    alpha = 0.5 * (1.0 - beta)
    x = var0 * (1.0 - alpha - beta) + 1e-12 + alpha * eps2[:-1]
    got = _first_order_scan(var0, x, beta)
    want = _sequential_recursion(var0, x, beta)
    assert got.shape == (n,)
    assert np.max(np.abs(got - want) / want) <= 1e-13
    if beta <= 1e-300:  # no term beyond the first shift survives
        assert np.array_equal(got, want)


def _full_doubling_scan(first, x, beta):
    """Every doubling pass until the shift passes the end or beta^s is 0."""
    y = np.concatenate([[first], x])
    a, s = beta, 1
    while s < y.size and a > 0.0:
        y[s:] += a * y[:-s]
        a, s = a * a, 2 * s
    return y


@pytest.mark.parametrize("beta", [0.0, 0.5, 0.9, 1.0 - 1e-6])
def test_first_order_scan_stops_without_changing_a_bit(beta):
    # 300 series per beta, over wide dynamic ranges. One in ten has zero
    # terms, where the scan must run every pass; one in three drops from
    # large to small terms, where a pass left out shows in the small tail
    rng = np.random.default_rng(int(beta * 1e6))
    for k in range(300):
        n = int(rng.integers(1, 3000))
        if k % 3 == 1:
            x = np.exp(rng.normal(-8.0, 0.01, n))
            x[int(rng.integers(0, n)):] *= np.exp(-rng.uniform(0.0, 40.0))
        else:
            x = np.exp(rng.normal(-8.0, rng.uniform(0.0, 4.0), n))
        if k % 10 == 0:
            x[rng.random(n) < 0.1] = 0.0
        first = float(np.exp(rng.normal(-8.0, 1.0)))
        got = _first_order_scan(first, x, beta)
        assert got.tobytes() == _full_doubling_scan(first, x, beta).tobytes()


class TestSynthesizeChain:
    def test_prices_match_discounted_values(self):
        mix = make_mixture()
        disc = math.exp(-mix.rate * mix.maturity)
        quotes = synthesize_chain(mix, [90.0, 110.0], rel_spread=0.0)
        by_kind = {(q.kind, q.strike): q for q in quotes}
        call = by_kind[("call", 90.0)]
        assert call.bid == call.ask
        assert call.bid == pytest.approx(disc * mix.call_value(90.0), rel=1e-12)
        put = by_kind[("put", 110.0)]
        assert put.bid == pytest.approx(disc * mix.put_value(110.0), rel=1e-12)
        bond = by_kind[("bond", None)]
        assert bond.bid == pytest.approx(disc, rel=1e-12)

    def test_relative_spread_brackets_mid(self):
        mix = make_mixture()
        quotes = synthesize_chain(mix, [100.0], rel_spread=0.02,
                                  include_bond=False)
        for q in quotes:
            mid = 0.5 * (q.bid + q.ask)
            assert q.ask - q.bid == pytest.approx(0.02 * mid, rel=1e-9)
            assert q.bid > 0


class TestNonFiniteParameters:
    # a NaN fails every "<= 0" check, so each model checks finiteness on its
    # own: a NaN omega or an infinite init_var simulated NaN or +-inf returns
    GARCH = dict(omega=1e-6, arch=0.08, garch_coef=0.90, steps=10, init_var=1e-4, drift=0.0)

    @pytest.mark.parametrize("name", ["omega", "arch", "garch_coef", "steps", "init_var", "drift"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_garch_rejects(self, name, bad):
        with pytest.raises(ValueError, match="finite"):
            GarchModel(**dict(self.GARCH, **{name: bad}))

    @pytest.mark.parametrize("name", ["spot", "rate", "maturity"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_mixture_rejects(self, name, bad):
        mix = make_mixture()
        args = dict(dict(spot=mix.spot, rate=mix.rate, maturity=mix.maturity), **{name: bad})
        with pytest.raises(ValueError, match="finite"):
            LognormalMixture(mix.weights, mix.log_means, mix.log_sds, **args)
