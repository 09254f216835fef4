"""Closed-form arbitrage criteria and synthetic markets built from them.

Covers the Gaussian tail factor and normal ES, the capital-market-line
gradient test for one-period Markowitz markets, complete-market verdicts from
the decreasing rearrangement q of the density ratio dQ/dP, the two-level step
payoff that realizes those verdicts, and discretizers that turn either
criterion into a MarketSnapshot the LP detector can be run against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import linalg
from scipy.special import ndtr, ndtri

from .market import MarketSnapshot, ScenarioSet, TradableLeg, _as_readonly, _require_draws
from .risk import RiskLevel, as_level


def normal_tail_factor(level: RiskLevel | float) -> float:
    """E(p) = phi(Phi^-1(p)) / p, the ES of a standard normal at level p."""
    p = as_level(level).p
    z = np.array([ndtri(p)])  # exp on an array, as scipy.stats does: bitwise its pdf
    return float(np.exp(-(z**2) / 2.0)[0] / np.sqrt(2 * np.pi) / p)


def normal_es(level: RiskLevel | float, mean: float = 0.0, sd: float = 1.0) -> float:
    if not (math.isfinite(mean) and 0.0 <= sd < math.inf):
        raise ValueError("need a finite mean and a finite sd >= 0")
    return sd * normal_tail_factor(level) - mean


@dataclass(frozen=True)
class MarkowitzMarket:
    """One-period market: risky assets with payoff mean mu and covariance
    sigma, asset prices c, and a risk-free return rf per horizon."""

    mu: np.ndarray
    sigma: np.ndarray
    c: np.ndarray
    rf: float

    def __post_init__(self) -> None:
        mu = _as_readonly(np.atleast_1d(self.mu))
        c = _as_readonly(np.atleast_1d(self.c))
        sigma = _as_readonly(self.sigma)
        if sigma.ndim == 0:
            sigma = sigma.reshape(1, 1)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "rf", float(self.rf))
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ValueError("sigma must be a square matrix")
        if mu.shape != c.shape or mu.shape[0] != sigma.shape[0]:
            raise ValueError("mu, c and sigma sizes disagree")
        if not (np.isfinite(mu).all() and np.isfinite(sigma).all() and np.isfinite(c).all()
                and math.isfinite(self.rf)):
            raise ValueError("non-finite market data")
        scale = max(float(np.abs(sigma).max()), 1.0)
        if not np.allclose(sigma, sigma.T, rtol=0.0, atol=1e-10 * scale):
            raise ValueError("sigma not symmetric")
        if np.linalg.eigvalsh(sigma).min() < -1e-10 * scale:
            raise ValueError("sigma not positive semidefinite")

    @property
    def n_assets(self) -> int:
        return self.mu.shape[0]

    def excess(self) -> np.ndarray:
        return self.mu - (1.0 + self.rf) * self.c


def _require_nondegenerate(sigma: np.ndarray) -> None:
    """Reject a covariance whose least eigenvalue is 0 relative to its largest."""
    eigs = np.linalg.eigvalsh(sigma)
    if eigs.min() <= 1e-10 * max(float(eigs.max()), 0.0):
        raise ValueError("degenerate risky assets")


def capital_line_gradient(market: MarkowitzMarket) -> float:
    """Slope sqrt(m' sigma^-1 m) of the capital market line, m = mu - (1+rf) c.

    This is the maximum of (mu'a - (1+rf) c'a) / sqrt(a' sigma a) over
    portfolios a, the best Sharpe-type ratio reachable with the risky assets.
    """
    _require_nondegenerate(market.sigma)
    m = market.excess()
    z = linalg.cho_solve(linalg.cho_factor(market.sigma, lower=True), m)
    return float(math.sqrt(max(m @ z, 0.0)))


@dataclass(frozen=True)
class MarkowitzVerdict:
    arbitrage: bool
    reason: str  # "negative_gross_rf" | "gradient" | "none"
    gradient: float | None
    threshold: float

    def __bool__(self) -> bool:
        return self.arbitrage


def markowitz_arbitrage(
    market: MarkowitzMarket, level: RiskLevel | float
) -> MarkowitzVerdict:
    """ES_p-arbitrage test for a Gaussian market with a risk-free asset.

    Valid for p < 1/2 only. Arbitrage holds when the gross risk-free return
    is negative, or when the capital-market-line gradient reaches the normal
    tail factor E(p).
    """
    p = as_level(level).p
    if p >= 0.5:
        raise ValueError("theorem hypothesis violated: level must be below one half")
    threshold = normal_tail_factor(p)
    if 1.0 + market.rf < 0.0:
        return MarkowitzVerdict(True, "negative_gross_rf", None, threshold)
    g = capital_line_gradient(market)
    if g >= threshold:
        return MarkowitzVerdict(True, "gradient", g, threshold)
    return MarkowitzVerdict(False, "none", g, threshold)


@dataclass(frozen=True)
class CompleteMarketDensity:
    """Decreasing rearrangement q of a density ratio dQ/dP on (0, 1].

    kind "step": grid holds the right endpoints of the cells (last must be 1)
    and values the constant cell values. kind "linear": grid holds nodes from
    0 to 1 and values the node values, interpolated linearly. Either way q
    must be nonnegative, nonincreasing and integrate to 1 within 1e-10.
    rate and horizon carry the discounting context of the market q came from.
    """

    kind: str
    grid: np.ndarray
    values: np.ndarray
    rate: float = 0.0
    horizon: float = 1.0

    def __post_init__(self) -> None:
        grid = _as_readonly(self.grid)
        values = _as_readonly(self.values)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if self.kind not in ("step", "linear"):
            raise ValueError(f"bad density: unknown kind {self.kind!r}")
        if grid.ndim != 1 or values.ndim != 1 or grid.size != values.size:
            raise ValueError("bad density: grid and values must be 1-d, same length")
        if grid.size == 0 or not (np.isfinite(grid).all() and np.isfinite(values).all()):
            raise ValueError("bad density: empty or non-finite data")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("bad density: grid must be strictly increasing")
        if self.kind == "step":
            if grid[0] <= 0 or abs(grid[-1] - 1.0) > 1e-12:
                raise ValueError("bad density: step grid must lie in (0, 1] and end at 1")
        else:
            if grid.size < 2 or abs(grid[0]) > 1e-12 or abs(grid[-1] - 1.0) > 1e-12:
                raise ValueError("bad density: linear grid must run from 0 to 1")
        if values.min() < 0:
            raise ValueError("bad density: negative values")
        slack = 1e-12 * max(1.0, float(values.max()))
        if np.any(np.diff(values) > slack):
            raise ValueError("bad density: values must be nonincreasing")
        if not math.isfinite(self.rate):
            raise ValueError("bad density: rate must be finite")
        if not 0 < self.horizon < math.inf:
            raise ValueError("bad density: horizon must be finite and positive")
        total = self._knot_cumulative[-1]
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"bad density: integral is {total!r}, expected 1")

    @cached_property
    def _edges(self) -> np.ndarray:
        if self.kind == "step":
            return np.concatenate([[0.0], self.grid])
        return self.grid

    @cached_property
    def _knot_cumulative(self) -> np.ndarray:
        if self.kind == "step":
            seg = self.values * np.diff(self._edges)
        else:
            seg = 0.5 * (self.values[:-1] + self.values[1:]) * np.diff(self.grid)
        return np.concatenate([[0.0], np.cumsum(seg)])

    @property
    def sup_density(self) -> float:
        """q(0+)."""
        return float(self.values[0])

    @property
    def discount(self) -> float:
        return math.exp(-self.rate * self.horizon)

    def value_at(self, u):
        """q(u); step cells are right-closed."""
        u = np.asarray(u, dtype=float)
        if self.kind == "linear":
            out = np.interp(u, self.grid, self.values)
        else:
            idx = np.clip(
                np.searchsorted(self.grid, u, side="left"), 0, self.values.size - 1
            )
            out = self.values[idx]
        return out if out.ndim else float(out)

    def integral_to(self, t):
        """Cumulative integral of q over (0, t]."""
        t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
        edges, cum = self._edges, self._knot_cumulative
        idx = np.clip(np.searchsorted(edges, t, side="right") - 1, 0, edges.size - 2)
        left = edges[idx]
        if self.kind == "step":
            out = cum[idx] + self.values[idx] * (t - left)
        else:
            q_t = np.interp(t, self.grid, self.values)
            out = cum[idx] + 0.5 * (t - left) * (self.values[idx] + q_t)
        return out if out.ndim else float(out)

    def plateau_measure(self) -> float:
        """Length of the leading set where q equals its supremum."""
        sup = self.sup_density
        flat = self.values >= sup - 1e-12 * max(sup, 1.0)
        run = int(np.argmin(flat)) if not flat.all() else flat.size
        return float(self.grid[run - 1]) if run else 0.0


@dataclass(frozen=True)
class CompleteMarketVerdict:
    arbitrage: bool
    sup_density: float
    threshold: float  # 1/p
    boundary: bool
    plateau: float

    def __bool__(self) -> bool:
        return self.arbitrage


def complete_market_arbitrage(
    density: CompleteMarketDensity, level: RiskLevel | float
) -> CompleteMarketVerdict:
    """Arbitrage iff {q >= 1/p} has positive measure. For a tabulated q this
    is q(0+) >= 1/p, except at exact equality where the supremum must also be
    attained on a plateau of positive length; a supremum only approached near
    0 admits no payoff realizing the boundary value."""
    p = as_level(level).p
    threshold = 1.0 / p
    sup = density.sup_density
    band = 1e-12 * max(threshold, sup)
    plateau = density.plateau_measure()
    if abs(sup - threshold) <= band:
        return CompleteMarketVerdict(plateau > 0.0, sup, threshold, True, plateau)
    return CompleteMarketVerdict(sup > threshold, sup, threshold, False, plateau)


@dataclass(frozen=True)
class StepArbitrageCandidate:
    """Two-level payoff: alpha on the worst set (0, p_tilde], beta above it.

    p_tilde = beta p / (beta - alpha) pins ES_p at zero: the worst p-tail
    averages (p_tilde alpha + (p - p_tilde) beta) / p = 0.
    """

    level: RiskLevel
    alpha: float
    beta: float
    p_tilde: float

    def payoff(self, u):
        u = np.asarray(u, dtype=float)
        out = np.where(u <= self.p_tilde, self.alpha, self.beta)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class StepCandidateResult:
    candidate: StepArbitrageCandidate
    price: float

    @property
    def is_arbitrage(self) -> bool:
        return self.price <= 0.0


def step_candidate(
    density: CompleteMarketDensity,
    level: RiskLevel | float,
    alpha: float,
    beta: float,
) -> StepCandidateResult:
    """Price the ES-flat two-level payoff under q.

    Discounted price is exp(-r T) beta (1 - (p / p_tilde) integral of q over
    (0, p_tilde]); as alpha -> -inf, p_tilde -> 0 and the price tends to
    beta (1 - p sup q), which is negative exactly when q(0+) > 1/p.
    """
    lvl = as_level(level)
    p = lvl.p
    if beta == alpha:
        raise ValueError("need beta > alpha")
    if not (-math.inf < alpha <= 0.0 < beta < math.inf):
        raise ValueError("need finite alpha <= 0 < beta")
    p_tilde = beta * p / (beta - alpha)
    mass = density.integral_to(p_tilde)
    price = density.discount * beta * (1.0 - (p / p_tilde) * mass)
    return StepCandidateResult(StepArbitrageCandidate(lvl, alpha, beta, p_tilde), price)


def bs_ratio_density(
    drift: float,
    rate: float,
    sigma: float,
    maturity: float = 1.0,
    cells: int = 512,
) -> CompleteMarketDensity:
    """Cell-averaged decreasing rearrangement of the Black-Scholes density
    ratio, q(u) = exp(lam Phi^-1(1-u) - lam^2/2), lam = |r - drift| sqrt(T) / sigma.

    Cell averages come from the closed form
    integral over (a, b] = Phi(Phi^-1(1-a) - lam) - Phi(Phi^-1(1-b) - lam),
    so the tabulation telescopes and integrates to 1 exactly. The first-cell
    average grows without bound as the grid refines whenever lam != 0: the
    true ratio is unbounded near 0.
    """
    if sigma <= 0 or maturity <= 0:
        raise ValueError("sigma and maturity must be positive")
    if cells < 1:
        raise ValueError("cells must be >= 1")
    lam = abs((rate - drift) * math.sqrt(maturity) / sigma)
    edges = np.linspace(0.0, 1.0, cells + 1)
    z = ndtri(1.0 - edges)
    tail = ndtr(z - lam)
    masses = tail[:-1] - tail[1:]
    values = masses / np.diff(edges)
    return CompleteMarketDensity("step", edges[1:], values, rate=rate, horizon=maturity)


def _digital_market(
    density: CompleteMarketDensity,
    thresholds: np.ndarray,
    scen: ScenarioSet,
    upper_bound: float,
) -> MarketSnapshot:
    """Frictionless market over scen: a bond and a digital pair 1{U <= t}
    per threshold t, priced by exact integrals of q.

    Every payoff comes from one broadcast compare (one row per threshold)
    and every price from one integral_to call on the threshold array; both
    are elementwise, so each leg has the bits a per-threshold call gives."""
    disc = density.discount
    pays = (scen.points <= thresholds[:, None]).astype(float)
    prices = disc * density.integral_to(thresholds)
    ones = np.ones_like(scen.points)
    legs = [TradableLeg("bond", disc, ones), TradableLeg("-bond", -disc, -ones)]
    for t, price, pay in zip(thresholds.tolist(), prices.tolist(), pays):
        legs.append(TradableLeg(f"digital<={t:g}", price, pay))
        legs.append(TradableLeg(f"-digital<={t:g}", -price, -pay))
    return MarketSnapshot(
        scenarios=scen,
        legs=tuple(legs),
        spot=1.0,
        rate=density.rate,
        maturity=density.horizon,
        upper_bound=upper_bound,
    )


def _cell_thresholds(density: CompleteMarketDensity) -> np.ndarray:
    edges = density._edges
    return edges[1:-1] if edges.size > 2 else edges[1:]


def density_market(density: CompleteMarketDensity, upper_bound: float = 1.0) -> MarketSnapshot:
    """Frictionless digital market over the density's own cells.

    Scenarios are the cells (uniform P, weight = cell length); legs are a
    bond and a digital pair 1{U <= t} per threshold, priced by exact
    integrals of q. For a step density this reproduces the continuum
    criterion exactly: the cheapest ES-flat step payoff is replicable on the
    cell grid.
    """
    edges = density._edges
    mids = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    scen = ScenarioSet(mids, widths / widths.sum())
    return _digital_market(density, _cell_thresholds(density), scen, upper_bound)


def density_market_mc(
    density: CompleteMarketDensity,
    n_draws: int,
    rng: np.random.Generator,
    upper_bound: float = 1.0,
) -> MarketSnapshot:
    """Monte Carlo variant: scenarios are uniform draws of U under P, legs
    and prices are the same exact digitals.

    Every leg payoff is constant between adjacent thresholds, so only the
    number of draws in each threshold cell matters (weight = empirical
    frequency, point = cell midpoint). The counts of n_draws uniforms binned
    into cells follow the multinomial(n_draws, cell lengths) law exactly, so
    they come from one rng.multinomial call: no uniform is drawn, and time
    and memory are O(cells) for any n_draws up to 2**63 - 1."""
    _require_draws(n_draws, "n_draws")
    thr = _cell_thresholds(density)  # strictly increasing, as the density grid is
    edges = np.concatenate([[0.0], thr[(thr > 0.0) & (thr < 1.0)], [1.0]])
    counts = rng.multinomial(n_draws, np.diff(edges))
    mids = 0.5 * (edges[:-1] + edges[1:])
    keep = counts > 0
    scen = ScenarioSet(mids[keep], counts[keep] / n_draws)
    return _digital_market(density, thr, scen, upper_bound)


def markowitz_market(
    market: MarkowitzMarket, n_draws: int, rng: np.random.Generator
) -> MarketSnapshot:
    """Monte Carlo one-period Gaussian market matching the closed-form test:
    one long/short leg pair per risky asset plus a cash pair returning 1 + rf."""
    _require_draws(n_draws, "n_draws", least=2)
    _require_nondegenerate(market.sigma)
    chol = np.linalg.cholesky(market.sigma)
    draws = market.mu + rng.standard_normal((n_draws, market.n_assets)) @ chol.T
    points = np.arange(n_draws, dtype=float)
    scen = ScenarioSet(points, np.full(n_draws, 1.0 / n_draws))
    gross = (1.0 + market.rf) * np.ones(n_draws)
    legs = [TradableLeg("cash", 1.0, gross), TradableLeg("-cash", -1.0, -gross)]
    for i in range(market.n_assets):
        cost = float(market.c[i])
        legs.append(TradableLeg(f"asset{i}", cost, draws[:, i]))
        legs.append(TradableLeg(f"-asset{i}", -cost, -draws[:, i]))
    return MarketSnapshot(
        scenarios=scen,
        legs=tuple(legs),
        spot=1.0,
        rate=market.rf,
        maturity=1.0,
    )
