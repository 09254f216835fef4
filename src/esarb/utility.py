"""Utility specifications and the numerical experiments built on them.

Three trader types: limited liability (x+), S-shaped power (convex on
losses, concave power on gains), and the risk-averse power manager
-((-x)+)^eta. Scans evaluate expected utility along scaled arbitrage rays;
the constrained-sup experiment maximizes the limited-liability utility under
a risk-manager floor, whose boundedness in the position cap separates true
arbitrage from its absence. Its SLSQP runs go straight to scipy's compiled
kernel (the private `scipy.optimize._slsqplib`), driven by `_slsqp` alone,
which evaluates each point the kernel asks for once. Scenarios of weight 0
are left out of every expected utility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .market import MarketSnapshot, Portfolio, WeightedSample
from .risk import RiskLevel, as_level, es_p
from .seeding import substream

_KINDS = ("limited_liability", "s_shaped_power", "risk_manager_power")


@dataclass(frozen=True)
class UtilitySpec:
    kind: str
    c1: float = 1.0
    c2: float = 0.0
    a1: float = 1.0
    a2: float = 0.5
    eta: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown utility kind {self.kind!r}")
        if self.kind == "s_shaped_power":
            if not 0.0 < self.c1 < math.inf:
                raise ValueError("need finite C1 > 0")
            if not 0.0 <= self.c2 < math.inf:
                raise ValueError("need finite C2 >= 0")
            if not 0.0 < self.a2 < self.a1 <= 1.0:
                raise ValueError("need 0 < a2 < a1 <= 1")
        elif self.kind == "risk_manager_power":
            if not 1.0 < self.eta < math.inf:
                raise ValueError("need finite eta > 1")

    @classmethod
    def limited_liability(cls) -> "UtilitySpec":
        return cls("limited_liability")

    @classmethod
    def s_shaped_power(cls, c1: float, c2: float, a1: float, a2: float) -> "UtilitySpec":
        return cls("s_shaped_power", c1=c1, c2=c2, a1=a1, a2=a2)

    @classmethod
    def risk_manager_power(cls, eta: float) -> "UtilitySpec":
        return cls("risk_manager_power", eta=eta)

    @property
    def label(self) -> str:
        if self.kind == "s_shaped_power":
            return f"s_shaped_power(C1={self.c1:g},C2={self.c2:g},a1={self.a1:g},a2={self.a2:g})"
        if self.kind == "risk_manager_power":
            return f"risk_manager_power(eta={self.eta:g})"
        return self.kind

    def evaluate(self, values) -> np.ndarray:
        x = np.asarray(values, dtype=float)
        gain = np.maximum(x, 0.0)
        loss = np.maximum(-x, 0.0)
        if self.kind == "limited_liability":
            return gain
        if self.kind == "risk_manager_power":
            return -(loss**self.eta)
        return self.c1 * gain**self.a1 - self.c2 * loss**self.a2


def _positive_rows(weights: np.ndarray, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The weights and each array's rows where the weight is positive, the
    arrays themselves when every weight is: a weight-0 scenario cannot add
    0 * inf = NaN to an expectation."""
    positive = weights > 0
    if positive.all():
        return (weights, *arrays)
    return (weights[positive], *(a[positive] for a in arrays))


def expected_utility(sample: WeightedSample, spec: UtilitySpec) -> float:
    if not isinstance(spec, UtilitySpec):
        raise ValueError("spec must be a UtilitySpec")
    weights, values = _positive_rows(sample.weights, sample.values)
    return float(weights @ spec.evaluate(values))


@dataclass(frozen=True)
class ScanRow:
    lam: float
    spec: str
    expected_utility: float
    price: float
    es_p: float


def scaling_scan(
    market: MarketSnapshot,
    base: Portfolio,
    ray: Portfolio,
    lambdas,
    specs,
    level: RiskLevel | float,
) -> list[ScanRow]:
    """Expected utilities of payoff(base) + lam * payoff(ray) for each lam
    and spec, with the price and ES of the combined position alongside.

    The combined position is evaluated on the payoff arrays directly: the
    scan deliberately ignores the per-leg box, since its point is behavior
    as lam grows without bound.
    """
    lams = np.asarray(lambdas, dtype=float)
    if lams.ndim != 1 or lams.size == 0:
        raise ValueError("lambdas must be a nonempty 1-d list")
    if not np.isfinite(lams).all():
        raise ValueError("lambdas must be finite")
    if (lams < 0).any() or np.any(np.diff(lams) < 0):
        raise ValueError("lambdas must be ascending and nonnegative")
    lvl = as_level(level).p
    q_base, q_ray = base.quantities, ray.quantities
    if len(q_base) != market.n_legs or len(q_ray) != market.n_legs:
        raise ValueError("portfolio length does not match market legs")
    payoffs = market.payoff_matrix()
    prices = market.prices()
    y_base, y_ray = payoffs @ q_base, payoffs @ q_ray
    cost_base, cost_ray = float(prices @ q_base), float(prices @ q_ray)
    weights = market.scenarios.weights
    rows: list[ScanRow] = []
    for lam in lams:
        combined = WeightedSample(y_base + lam * y_ray, weights)
        cost = float(cost_base + lam * cost_ray)
        risk = float(es_p(combined, lvl))
        for spec in specs:
            rows.append(
                ScanRow(float(lam), spec.label, expected_utility(combined, spec), cost, risk)
            )
    return rows


@dataclass(frozen=True)
class CapResult:
    cap: float
    value: float
    quantities: np.ndarray


def _slsqp(values, gradients, x0: np.ndarray) -> tuple[np.ndarray, int]:
    """Minimize f over the unit box subject to two rows c(x) >= 0 with
    scipy's SLSQP kernel; return the last iterate and the exit mode.

    `values(x)` returns (f, c) and `gradients(x)` the gradient of f and the
    two rows' normals. The loop is scipy 1.17's `_minimize_slsqp` for this
    case (same state, workspace sizes, `maxiter=200` and `ftol=1e-12`), so
    the iterates are bit for bit those of `minimize(method="SLSQP")`, but
    each point the kernel asks for is evaluated once, with no wrapper.
    Mode 1 asks for f and c, mode -1 for the gradient and the normals, and
    any other mode ends the run (0 converged, 8 a failed line search, 9 the
    iteration limit)."""
    from scipy.optimize._slsqplib import slsqp

    x = np.clip(np.asarray(x0, dtype=float), 0.0, 1.0)
    n, m = len(x), 2
    acc = 1e-12
    state = {
        "acc": acc, "alpha": 0.0, "f0": 0.0, "gs": 0.0, "h1": 0.0, "h2": 0.0, "h3": 0.0,
        "h4": 0.0, "t": 0.0, "t0": 0.0, "tol": 10.0 * acc, "exact": 0, "inconsistent": 0,
        "reset": 0, "iter": 0, "itermax": 200, "line": 0, "m": m, "meq": 0, "mode": 0, "n": n,
    }
    indices = np.zeros(m + 2 * n + 2, dtype=np.int32)
    buffer = np.zeros(n * (n + 1) // 2 + 3 * m * n + 9 * m + 8 * n * n + 35 * n + 28)
    mult = np.zeros(m + 2 * n + 2)
    lower, upper = np.zeros(n), np.ones(n)
    C = np.zeros((m, n), order="F")
    d = np.zeros(m)
    f, d[:] = values(x)
    g, C[:] = gradients(x)
    while True:
        slsqp(state, f, g, C, d, x, mult, lower, upper, buffer, indices)
        if state["mode"] == 1:
            f, d[:] = values(x)
        elif state["mode"] == -1:
            g, C[:] = gradients(x)
        else:
            return x, state["mode"]


def classic_constraint_sup(
    market: MarketSnapshot,
    spec: UtilitySpec,
    floor: float,
    qty_caps,
    seed: int = 0,
    n_starts: int = 20,
) -> list[CapResult]:
    """sup E[(payoff)+] over 0 <= x <= B, price <= 0, E[u_R(payoff)] >= floor,
    for each cap B.

    Both the objective and the floor are positively homogeneous (degrees 1
    and eta), so every candidate splits into a direction d on the unit box
    and a scale t, and the best scale for a fixed direction is closed-form:
    the smaller of the box limit B / max(d) and the floor limit
    (floor / E[u_R(d)])^(1/eta). Directions come from `n_starts` seeded
    SLSQP runs on the unit box (`_slsqp`, each start shared across caps, so
    values are monotone in B by construction), plus the zero portfolio,
    every nonpositive-price corner, and each cap's best direction carried
    forward. Each point an SLSQP run asks for costs one product F z, which
    gives the objective and the floor row (or their gradients) together.
    Scenarios of weight 0 are left out. Bounded values as B grows mean the
    floor is effective; linear growth flags a true arbitrage.
    """
    if spec.kind != "risk_manager_power":
        raise ValueError("constraint spec must be risk_manager_power")
    if floor > 0:
        raise ValueError("floor excludes zero portfolio")
    if not np.isfinite(floor):
        raise ValueError(f"floor must be finite, got {floor!r}")
    caps = np.asarray(qty_caps, dtype=float)
    if not np.isfinite(caps).all():
        raise ValueError("qty_caps must be finite")
    if caps.ndim != 1 or caps.size == 0 or (caps <= 0).any() or np.any(np.diff(caps) < 0):
        raise ValueError("qty_caps must be ascending and positive")
    if isinstance(n_starts, bool) or not isinstance(n_starts, (int, np.integer)) or n_starts < 0:
        raise ValueError(f"n_starts must be an integer >= 0, got {n_starts!r}")
    weights, payoffs = _positive_rows(market.scenarios.weights, market.payoff_matrix())
    prices = market.prices()
    n = market.n_legs
    eta = spec.eta
    price_tol = 1e-9 * (1.0 + float(np.abs(prices).max()))

    def terms(z: np.ndarray) -> tuple[float, float]:
        """E_w[(F z)+] and E_w[u_R(F z)], from one F z."""
        X = payoffs @ z
        return float(weights @ np.maximum(X, 0.0)), -float(weights @ np.maximum(-X, 0.0) ** eta)

    def gradients(z: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """The gradient of -E_w[(F z)+], and the normals of the price row
        and the floor row, from one F z."""
        X = payoffs @ z
        loss = np.maximum(-X, 0.0)
        floor_normal = payoffs.T @ (weights * eta * loss ** (eta - 1.0))
        return -(payoffs.T @ (weights * (X > 0.0))), (-prices, floor_normal)

    def direction_value(d: np.ndarray, cap: float) -> tuple[float, np.ndarray]:
        top = float(d.max(initial=0.0))
        if top <= 0.0:
            return 0.0, np.zeros(n)
        # normalise first: the price test must be relative to the
        # direction's own scale, or a near-zero optimizer output with a
        # large *relative* violation sneaks through and gets blown up
        u = d / top
        if prices @ u > price_tol:
            return 0.0, np.zeros(n)
        fu, gu = terms(u)
        t = cap if gu >= 0.0 else min(cap, (floor / gu) ** (1.0 / eta))
        return t * fu, t * u

    starts = [np.zeros(n)]
    for j in range(n):
        if prices[j] <= 0:
            corner = np.zeros(n)
            corner[j] = 1.0
            starts.append(corner)
    rng = substream(seed, "classic-sup")
    starts.extend(rng.uniform(0.0, 1.0, n) for _ in range(n_starts))

    results: list[CapResult] = []
    carried: list[np.ndarray] = []
    for cap in caps:
        # floor seen from the unit box: g(B z) = B^eta g(z)
        floor_z = floor / cap**eta

        # minimize -E_w[(F z)+]; rows: price <= 0, then the floor
        def values(z: np.ndarray) -> tuple[float, tuple[float, float]]:
            fz, gz = terms(z)
            return -fz, (-(prices @ z), gz - floor_z)

        polished = [np.clip(_slsqp(values, gradients, z0)[0], 0.0, 1.0) for z0 in starts]
        best_val, best_x, best_dir = 0.0, np.zeros(n), np.zeros(n)
        for d in starts + carried + polished:
            val, x = direction_value(d, float(cap))
            if val > best_val * (1.0 + 1e-12) + 1e-15:
                best_val, best_x, best_dir = val, x, d
        results.append(CapResult(float(cap), best_val, best_x))
        carried.append(best_dir)
    return results
