"""Terminal-price models and quadrature rules.

Two-component lognormal mixtures (closed-form partial moments, vanilla
values, smile calibration by Levenberg-Marquardt least squares on the price
residuals) and GARCH(1,1) log returns (simulation, Gaussian QMLE by SLSQP on
the exact score, through `utility._slsqp`). Quadratures turn a model into a
ScenarioSet: plain Monte Carlo, or the piecewise-linear-exact rule whose
weights integrate every payoff that is linear between (and beyond) the grid
points.

The normal cdf and quantile are the `scipy.special` kernels `ndtr` and
`ndtri`, the ones `scipy.stats.norm` calls, and `fit_garch` runs its
variance recursion and its score as numpy scans, so neither importing nor
running this module loads `scipy.stats` or `scipy.signal`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, least_squares
from scipy.special import expit, ndtr, ndtri

from .market import InstrumentQuote, ScenarioSet, _as_readonly, _require_draws
from .seeding import substream
from .utility import _slsqp

_PL_GRID_POINTS = 200
# calibrate_mixture's Levenberg-Marquardt stopping rules, per start
_LM_XTOL, _LM_FTOL, _LM_GTOL, _LM_MAX_NFEV = 1e-12, 1e-14, 1e-14, 8000


class CalibrationError(RuntimeError):
    """Optimizer did not converge; .fit carries the best parameters found."""

    def __init__(self, message: str, fit=None):
        super().__init__(message)
        self.fit = fit


@dataclass(frozen=True)
class LognormalMixture:
    """Mixture of lognormal terminal prices: S ~ exp(m_i + s_i Z) w.p. weight_i."""

    weights: np.ndarray
    log_means: np.ndarray
    log_sds: np.ndarray
    spot: float
    rate: float
    maturity: float

    def __post_init__(self) -> None:
        w = _as_readonly(self.weights)
        m = _as_readonly(self.log_means)
        s = _as_readonly(self.log_sds)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "log_means", m)
        object.__setattr__(self, "log_sds", s)
        if not (w.ndim == m.ndim == s.ndim == 1 and w.size == m.size == s.size >= 1):
            raise ValueError("weights, log_means, log_sds must be 1-d, same length")
        if not (np.isfinite(w).all() and np.isfinite(m).all() and np.isfinite(s).all()):
            raise ValueError("non-finite mixture parameters")
        if not all(map(math.isfinite, (self.spot, self.rate, self.maturity))):
            raise ValueError("spot, rate and maturity must be finite")
        if (w < 0).any() or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        if (s <= 0).any():
            raise ValueError("log_sds must be positive")
        if self.spot <= 0 or self.maturity <= 0:
            raise ValueError("spot and maturity must be positive")

    def mean(self) -> float:
        """E[S] = sum w_i exp(m_i + s_i^2 / 2)."""
        return float(self.weights @ np.exp(self.log_means + 0.5 * self.log_sds**2))

    def forward(self) -> float:
        return self.spot * math.exp(self.rate * self.maturity)

    def martingale_gap(self) -> float:
        return self.mean() - self.forward()

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (np.log(np.maximum(x, 0.0))[..., None] - self.log_means) / self.log_sds
        out = np.where(x[..., None] > 0, ndtr(z), 0.0) @ self.weights
        return out if out.ndim else float(out)

    def quantile(self, u: float) -> float:
        if not 0.0 < u < 1.0:
            raise ValueError("quantile level must be in (0, 1)")
        z = ndtri(u)
        comp = np.exp(self.log_means + self.log_sds * z)
        lo, hi = 0.5 * comp.min(), 2.0 * comp.max()
        while self.cdf(lo) > u:
            lo *= 0.5
        while self.cdf(hi) < u:
            hi *= 2.0
        return float(brentq(lambda x: self.cdf(x) - u, lo, hi, xtol=1e-13 * hi, rtol=1e-14))

    def call_value(self, strike: float) -> float:
        """Undiscounted E[(S - K)+] in closed form."""
        if strike < 0:
            raise ValueError("strike must be >= 0")
        if strike == 0:
            return self.mean()
        m, s = self.log_means, self.log_sds
        d2 = (m - math.log(strike)) / s
        d1 = d2 + s
        parts = np.exp(m + 0.5 * s**2) * ndtr(d1) - strike * ndtr(d2)
        return float(self.weights @ parts)

    def put_value(self, strike: float) -> float:
        return self.call_value(strike) - self.mean() + strike

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        _require_draws(n)
        idx = rng.choice(self.weights.size, size=n, p=self.weights)
        z = rng.standard_normal(n)
        return np.exp(self.log_means[idx] + self.log_sds[idx] * z)


def mixture_partial_moments(model: LognormalMixture, a: float, b: float):
    """(integral of the density, integral of S times the density) over (a, b].

    Closed form: mass uses Phi((ln x - m)/s) differences, the first moment
    uses the shifted argument (ln x - m - s^2)/s scaled by exp(m + s^2/2).
    """
    if not (0 <= a < b):
        raise ValueError("need 0 <= a < b")
    m, s = model.log_means, model.log_sds

    def cum(x: float):
        if x <= 0:
            return 0.0, 0.0
        if math.isinf(x):
            return 1.0, model.mean()
        z = (math.log(x) - m) / s
        mass = float(model.weights @ ndtr(z))
        mom = float(model.weights @ (np.exp(m + 0.5 * s**2) * ndtr(z - s)))
        return mass, mom

    mass_b, mom_b = cum(b)
    mass_a, mom_a = cum(a)
    return mass_b - mass_a, mom_b - mom_a


def pl_quadrature(model: LognormalMixture, points) -> ScenarioSet:
    """Weights that integrate exactly every continuous payoff linear on
    [0, S_2], on each interior [S_j, S_{j+1}], and on [S_{N-1}, inf).

    Each of those pieces carries the affine function through its two anchor
    grid points; collecting the per-piece (mass, first moment) contributions
    by anchor yields the weights, and since the affine pieces reproduce the
    constant 1 the weights sum to 1 exactly.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1 or pts.size < 3:
        raise ValueError("need at least 3 grid points")
    if pts[0] < 0 or not np.isfinite(pts).all():
        raise ValueError("grid points must be finite and >= 0")
    if np.any(np.diff(pts) <= 0):
        raise ValueError("grid points must be strictly increasing")
    n = pts.size
    w = np.zeros(n)
    for j in range(n - 1):
        lo = 0.0 if j == 0 else float(pts[j])
        hi = math.inf if j == n - 2 else float(pts[j + 1])
        mass, mom = mixture_partial_moments(model, lo, hi)
        t = (mom - pts[j] * mass) / (pts[j + 1] - pts[j])
        w[j] += mass - t
        w[j + 1] += t
    if w.min() < -1e-9:
        raise ValueError("quadrature produced negative weights; widen the grid")
    w = np.maximum(w, 0.0)
    total = w.sum()
    if abs(total - 1.0) > 1e-10:
        w = w / total
    return ScenarioSet(pts, w)


def default_pl_grid(model: LognormalMixture, strikes) -> np.ndarray:
    """Grid for pl_quadrature: zero, every strike, tail anchors at the 1e-5
    and 1 - 1e-5 quantiles, a far anchor past the largest strike (keeps the
    last-piece weights nonnegative), quantile-spaced fill up to
    _PL_GRID_POINTS points."""
    strikes = np.asarray(strikes, dtype=float).ravel()
    if (strikes < 0).any():
        raise ValueError("strikes must be >= 0")
    lo_q = model.quantile(1e-5)
    hi_q = model.quantile(1.0 - 1e-5)
    far = model.quantile(1.0 - 1e-9)
    if strikes.size:
        far = max(far, 1.25 * float(strikes.max()))
    mandatory = np.unique(np.concatenate([[0.0], strikes, [lo_q, hi_q, far]]))
    need = _PL_GRID_POINTS - mandatory.size
    grid = mandatory
    if need > 0:
        levels = np.linspace(1e-5, 1.0 - 1e-5, need + 2)[1:-1]
        fill = np.array([model.quantile(float(u)) for u in levels])
        tol = 1e-9 * far
        keep = fill[np.min(np.abs(fill[:, None] - mandatory[None, :]), axis=1) > tol]
        grid = np.unique(np.concatenate([mandatory, keep]))
    if np.any(np.diff(grid) <= 0):
        raise ValueError("degenerate quadrature grid")
    return grid


@dataclass(frozen=True)
class GarchModel:
    """GARCH(1,1) log returns: r_t = drift + e_t, e_t = sig_t z_t,
    sig_t^2 = omega + arch e_{t-1}^2 + garch_coef sig_{t-1}^2."""

    omega: float
    arch: float
    garch_coef: float
    steps: int
    init_var: float
    drift: float = 0.0

    def __post_init__(self) -> None:
        params = (self.omega, self.arch, self.garch_coef, self.steps, self.init_var, self.drift)
        if not all(map(math.isfinite, params)):
            raise ValueError("GARCH parameters must be finite")
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if self.arch < 0 or self.garch_coef < 0:
            raise ValueError("arch and garch_coef must be nonnegative")
        if self.arch + self.garch_coef >= 1.0:
            raise ValueError("need arch + garch_coef < 1 for stationarity")
        if int(self.steps) != self.steps or self.steps < 1:
            raise ValueError("steps must be a positive integer")
        object.__setattr__(self, "steps", int(self.steps))
        if self.init_var <= 0:
            raise ValueError("init_var must be positive")

    @property
    def unconditional_variance(self) -> float:
        return self.omega / (1.0 - self.arch - self.garch_coef)

    def simulate_returns(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """One path of n consecutive log returns starting at init_var."""
        _require_draws(n)
        z = rng.standard_normal(n)
        out = np.empty(n)
        var = self.init_var
        for t in range(n):
            eps = math.sqrt(var) * z[t]
            out[t] = self.drift + eps
            var = self.omega + self.arch * eps * eps + self.garch_coef * var
        return out

    def simulate_terminal(self, spot: float, n: int, rng: np.random.Generator) -> np.ndarray:
        """n independent terminal prices spot * exp(sum of steps log returns)."""
        if spot <= 0:
            raise ValueError("spot must be positive")
        _require_draws(n)
        z = rng.standard_normal((n, self.steps))
        var = np.full(n, self.init_var)
        log_total = np.zeros(n)
        for t in range(self.steps):
            eps = np.sqrt(var) * z[:, t]
            log_total += self.drift + eps
            var = self.omega + self.arch * eps**2 + self.garch_coef * var
        return spot * np.exp(log_total)


def mc_quadrature(
    model: LognormalMixture | GarchModel,
    n: int,
    seed: int | np.random.Generator,
    spot: float | None = None,
) -> ScenarioSet:
    """n equal-weight i.i.d. terminal draws; duplicates merge. Deterministic
    given the seed. GARCH models carry no price level, so spot is required
    for them (mixtures embed their own)."""
    _require_draws(n)
    rng = seed if isinstance(seed, np.random.Generator) else substream(int(seed), "mc-quadrature")
    if isinstance(model, GarchModel):
        if spot is None:
            raise ValueError("garch simulation needs a spot")
        draws = model.simulate_terminal(spot, n, rng)
    else:
        draws = model.sample(n, rng)
    return ScenarioSet.from_draws(draws)


@dataclass(frozen=True)
class MixtureFit:
    mixture: LognormalMixture
    rmse: float
    converged: bool
    start_index: int
    history: tuple  # least RMSE so far, per evaluation, winning start


def _theta_params(theta, fwd: float):
    """(weights, log_means, log_sds) of the mixture theta parametrizes, or None
    outside the valid region.

    theta = (logit of the first weight, log of the first component forward
    over fwd, log s1, log s2); the second forward makes the mean equal fwd.
    Components are ordered by sd, stably (s1 == s2 keeps theta's order).
    Any of |theta[1:]| >= 700 is outside too: exp would overflow there, or
    the first forward underflow to 0.
    """
    if not (abs(theta[1]) < 700.0 and abs(theta[2]) < 700.0 and abs(theta[3]) < 700.0):
        return None
    lam = float(expit(theta[0]))
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
    if s2 < s1:
        return np.array([1.0 - lam, lam]), np.array([m2, m1]), np.array([s2, s1])
    return np.array([lam, 1.0 - lam]), np.array([m1, m2]), np.array([s1, s2])


def _rmse(residuals: np.ndarray) -> float:
    return float(np.sqrt(np.mean(residuals**2)))


def _mixture_from_theta(theta, spot, rate, maturity):
    params = _theta_params(theta, spot * math.exp(rate * maturity))
    return None if params is None else LognormalMixture(*params, spot, rate, maturity)


def calibrate_mixture(
    quotes: list[InstrumentQuote],
    spot: float,
    rate: float,
    maturity: float,
    seed: int = 0,
) -> MixtureFit:
    """Least-squares smile fit of a two-component lognormal mixture.

    Targets are mid prices of quotes with bid > 0 and finite ask. The
    martingale constraint is built in: one component forward is free, the
    other is eliminated so the mixture mean equals spot e^{rT} exactly.
    Levenberg-Marquardt (`least_squares(method="lm")`, finite-difference
    Jacobian) on the vector of model-minus-mid price residuals, from 10
    seeded starts around a moment-matched base point; the fit with the
    least RMSE wins, ties to the lowest start index. Outside the valid
    parameter region every residual is one penalty growing with |theta|.
    The residuals evaluate raw parameter arrays with the
    `scipy.special.ndtr` kernel. `history` holds the least RMSE so far per
    evaluation of the winning start, Jacobian probes included. Raises
    CalibrationError (best fit attached) if the winner did not converge.
    """
    usable = [
        q for q in quotes
        if q.kind in ("call", "put") and q.bid > 0 and math.isfinite(q.ask)
    ]
    if len(usable) < 5:
        raise ValueError("too few quotes")
    if spot <= 0 or maturity <= 0:
        raise ValueError("spot and maturity must be positive")
    strikes = np.array([q.strike for q in usable])
    is_call = np.array([q.kind == "call" for q in usable])
    mids = np.array([0.5 * (q.bid + q.ask) for q in usable])
    disc = math.exp(-rate * maturity)
    fwd = spot * math.exp(rate * maturity)

    log_k = np.log(strikes).reshape(-1, 1)
    strike_col = strikes.reshape(-1, 1)
    penalty = 1e6 * spot

    def residuals(theta) -> np.ndarray:
        # raw arrays, no validated LognormalMixture: this runs ~100 times per start
        params = _theta_params(theta, fwd)
        if params is None:
            return np.full(mids.size, penalty * (1.0 + float(np.abs(theta).sum())))
        w, m, s = params
        comp_fwd = np.exp(m + 0.5 * s**2)
        d2 = (m - log_k) / s
        calls = (comp_fwd * ndtr(d2 + s) - strike_col * ndtr(d2)) @ w
        vals = np.where(is_call, calls, calls - float(w @ comp_fwd) + strikes)
        return disc * vals - mids

    # moment-matched base start: ATM value pins the overall vol scale
    atm_idx = int(np.argmin(np.abs(strikes - fwd)))
    atm_call_mid = mids[atm_idx] if is_call[atm_idx] else mids[atm_idx] + disc * (fwd - strikes[atm_idx])
    s_bar = min(max(atm_call_mid / (0.4 * fwd * disc), 0.02), 3.0)
    base = np.array([0.0, 0.0, math.log(0.75 * s_bar), math.log(1.3 * s_bar)])
    rng = substream(seed, "calibrate-mixture")
    starts = [base] + [
        base + rng.normal(0.0, [1.2, 0.2, 0.5, 0.5]) for _ in range(9)
    ]

    results = []
    for idx, theta0 in enumerate(starts):
        history: list[float] = []

        def tracked(theta, _hist=history):
            r = residuals(theta)
            val = _rmse(r)
            _hist.append(min(val, _hist[-1]) if _hist else val)
            return r

        res = least_squares(
            tracked, theta0, method="lm",
            xtol=_LM_XTOL, ftol=_LM_FTOL, gtol=_LM_GTOL, max_nfev=_LM_MAX_NFEV,
        )
        rmse = _rmse(res.fun)
        results.append((rmse, idx, res, tuple(history)))
        if res.success and rmse <= 1e-12 * spot:
            break  # numerically perfect fit; later starts cannot beat it
    best_rmse, best_idx, best_res, best_hist = min(results, key=lambda r: (r[0], r[1]))
    mixture = _mixture_from_theta(best_res.x, spot, rate, maturity)
    if mixture is None:
        raise CalibrationError("calibration collapsed to an invalid mixture", fit=None)
    fit = MixtureFit(mixture, best_rmse, bool(best_res.success), best_idx, best_hist)
    if not fit.converged:
        raise CalibrationError("calibration did not converge", fit=fit)
    return fit


def _first_order_scan(first: float, x: np.ndarray, beta: float) -> np.ndarray:
    """y[0] = first, y[t] = x[t-1] + beta y[t-1], for 0 <= beta < 1.

    A doubling (Hillis-Steele) scan: the pass with shift s adds beta^s
    times the series shifted by s, after which y[t] sums beta^k x[t-1-k]
    (and beta^t first) over k < 2s. That is at most ceil(log2 n)
    vectorized passes, ending early once beta^s underflows to 0. The sums
    group their terms in tree order, not one by one, so the bits differ
    from the sequential recursion's; on nonnegative terms the two agree to
    about 1e-14 relative.

    When every term is positive (lo = min(first, min x) > 0), y only grows
    from its start and stays at or below hi = max(first, max x) / (1 - beta).
    So once a hi < lo 2^-55, every later pass adds less than half an ulp to
    each entry and changes no bit: the scan stops there.
    """
    y = np.concatenate([[first], x])
    lo = y.min()
    gap = y.max() / ((1.0 - beta) * lo) if lo > 0.0 else math.inf  # hi / lo
    a, s = beta, 1
    while s < y.size and a > 0.0 and a * gap >= 2.0**-55:
        y[s:] += a * y[:-s]
        a, s = a * a, 2 * s
    return y


@dataclass(frozen=True)
class GarchFit:
    model: GarchModel
    loglik: float
    converged: bool
    start_index: int
    start_logliks: tuple


def fit_garch(returns, steps_ahead: int = 1, seed: int = 0) -> GarchFit:
    """Gaussian QMLE for GARCH(1,1) on a log-return series.

    sig_1^2 is pinned at the sample variance, drift at the sample mean.
    Each of six seeded starts runs `utility._slsqp` over theta = (ln omega,
    arch, garch) in the box [-60, 60] x [0, 1 - 1e-6]^2 with the row
    arch + garch <= 1 - 1e-6, on -2 loglik + 6 (arch + garch) and its exact
    gradient; the lowest objective wins, ties to the lowest start, and the
    fit has converged when its exit mode is 0. The variance recursion
    sig_t^2 = omega + arch eps_{t-1}^2 + garch sig_{t-1}^2 runs as the
    doubling scan `_first_order_scan`, and so does the score: d sig_t^2 /
    d theta_k = a_k[t-1] + garch d sig_{t-1}^2 / d theta_k from 0, with
    a = (omega, eps^2, sig^2). The fitted model's init_var is the
    one-step-ahead forecast, ready for simulation from the end of the
    sample.
    """
    r = np.asarray(returns, dtype=float).ravel()
    if r.size < 250:
        raise ValueError("too few observations")
    if not np.isfinite(r).all():
        raise ValueError("non-finite returns")
    drift = float(r.mean())
    eps = r - drift
    var0 = float(eps @ eps) / r.size
    if var0 <= 0:
        raise ValueError("degenerate returns")
    eps2 = eps**2
    n = r.size
    top = 1.0 - 1e-6
    lo, hi = np.array([-60.0, 0.0, 0.0]), np.array([60.0, top, top])
    row_normal = np.array([0.0, -1.0, -1.0])

    def sigma2_series(theta):
        ln_omega, alpha, beta = theta
        return _first_order_scan(var0, math.exp(ln_omega) + alpha * eps2[:-1], beta)

    def neg2ll(theta) -> float:
        sig2 = sigma2_series(theta)
        return float(np.sum(np.log(sig2) + eps2 / sig2))

    # with iid data the likelihood is exactly flat along alpha = 0,
    # omega = s^2 (1 - beta), and spurious persistence buys only an O(1)
    # chi-square improvement; a constant O(1) charge steers those cases
    # to the parsimonious end while shifting identified optima by a
    # second-order pen^2 / curvature term that is negligible for n >= 250
    def values(theta) -> tuple[float, tuple[float]]:
        return neg2ll(theta) + 6.0 * (theta[1] + theta[2]), (top - theta[1] - theta[2],)

    def gradients(theta) -> tuple[np.ndarray, tuple[np.ndarray]]:
        sig2 = sigma2_series(theta)
        dsig2 = (np.full(n, math.exp(theta[0])), eps2, sig2)
        weights = (1.0 - eps2 / sig2) / sig2
        score = [weights @ _first_order_scan(0.0, a[:-1], theta[2]) for a in dsig2]
        return np.array(score) + (0.0, 6.0, 6.0), (row_normal,)

    rng = substream(seed, "fit-garch")
    bases = [(0.05, 0.90), (0.10, 0.85), (0.02, 0.94), (0.15, 0.70),
             (0.30, 0.40), (0.01, 0.02)]
    starts = []
    for a, b in bases:
        theta = np.array([math.log(var0 * (1.0 - a - b)), a, b])
        starts.append(np.clip(theta + rng.normal(0.0, [0.05, 0.01, 0.01]), lo, hi))

    def to_loglik(val: float) -> float:
        return -0.5 * (n * math.log(2.0 * math.pi) + val)

    start_lls = tuple(to_loglik(neg2ll(t)) for t in starts)
    runs = [_slsqp(values, gradients, theta0, lo, hi) for theta0 in starts]
    _, best_idx = min((values(x)[0], idx) for idx, (x, _) in enumerate(runs))
    best, mode = runs[best_idx]
    theta = np.clip(best, lo, hi)  # the kernel may step an ulp past a bound
    sig2 = sigma2_series(theta)
    omega, alpha, beta = math.exp(theta[0]), float(theta[1]), float(theta[2])
    forecast = omega + alpha * eps2[-1] + beta * sig2[-1]
    model = GarchModel(
        omega=omega, arch=alpha, garch_coef=beta,
        steps=steps_ahead, init_var=float(forecast), drift=drift,
    )
    fit = GarchFit(model, to_loglik(neg2ll(theta)), mode == 0, best_idx, start_lls)
    if not fit.converged:
        raise CalibrationError("garch fit did not converge", fit=fit)
    return fit


def synthesize_chain(
    model: LognormalMixture,
    strikes,
    rel_spread: float = 0.0,
    include_bond: bool = True,
) -> list[InstrumentQuote]:
    """Quote chain priced by the model itself: call and put at every strike,
    mid = discounted closed-form value, bid/ask = mid (1 -+ rel_spread/2).
    Quotes whose mid rounds to zero are dropped (a zero ask on a payoff with
    positive-probability value would plant a free lunch)."""
    if rel_spread < 0:
        raise ValueError("rel_spread must be >= 0")
    disc = math.exp(-model.rate * model.maturity)
    half = 0.5 * rel_spread
    quotes = []
    for k in np.asarray(strikes, dtype=float).ravel():
        for kind in ("call", "put"):
            value = model.call_value(float(k)) if kind == "call" else model.put_value(float(k))
            mid = disc * value
            if mid > 1e-12 * model.spot:
                quotes.append(
                    InstrumentQuote(kind, float(k), mid * (1.0 - half), mid * (1.0 + half))
                )
    if include_bond:
        quotes.append(InstrumentQuote("bond", None, disc * (1.0 - half), disc * (1.0 + half)))
    return quotes
