"""Utility specifications and the numerical experiments built on them.

Three trader types: limited liability (x+), S-shaped power (convex on
losses, concave power on gains), and the risk-averse power manager
-((-x)+)^eta. Scans evaluate expected utility along scaled arbitrage rays;
the constrained-sup experiment maximizes the limited-liability utility under
a risk-manager floor, whose boundedness in the position cap separates true
arbitrage from its absence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

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


def expected_utility(sample: WeightedSample, spec: UtilitySpec) -> float:
    if not isinstance(spec, UtilitySpec):
        raise ValueError("spec must be a UtilitySpec")
    return float(sample.weights @ spec.evaluate(sample.values))


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
    (floor / E[u_R(d)])^(1/eta). Directions come from seeded SLSQP starts on
    the unit box (shared across caps, so values are monotone in B by
    construction), plus the zero portfolio, every nonpositive-price corner,
    and each cap's best direction carried forward. Bounded values as B grows
    mean the floor is effective; linear growth flags a true arbitrage.
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
    payoffs = market.payoff_matrix()
    prices = market.prices()
    weights = market.scenarios.weights
    n = market.n_legs
    eta = spec.eta
    price_tol = 1e-9 * (1.0 + float(np.abs(prices).max()))

    def f_value(z: np.ndarray) -> float:
        return float(weights @ np.maximum(payoffs @ z, 0.0))

    def f_grad(z: np.ndarray) -> np.ndarray:
        return payoffs.T @ (weights * (payoffs @ z > 0.0))

    def g_value(z: np.ndarray) -> float:
        return float(weights @ spec.evaluate(payoffs @ z))

    def g_grad(z: np.ndarray) -> np.ndarray:
        loss = np.maximum(-(payoffs @ z), 0.0)
        return payoffs.T @ (weights * eta * loss ** (eta - 1.0))

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
        gu = g_value(u)
        t = cap if gu >= 0.0 else min(cap, (floor / gu) ** (1.0 / eta))
        return t * f_value(u), t * u

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
        # rows: price <= 0, then the floor
        constraint = {
            "type": "ineq",
            "fun": lambda z: np.array([-(prices @ z), g_value(z) - floor_z]),
            "jac": lambda z: np.vstack([-prices, g_grad(z)]),
        }
        polished = []
        for z0 in starts:
            res = minimize(
                lambda z: -f_value(z),
                z0,
                jac=lambda z: -f_grad(z),
                method="SLSQP",
                bounds=[(0.0, 1.0)] * n,
                constraints=constraint,
                options={"maxiter": 200, "ftol": 1e-12},
            )
            polished.append(np.clip(res.x, 0.0, 1.0))
        best_val, best_x, best_dir = 0.0, np.zeros(n), np.zeros(n)
        for d in starts + carried + polished:
            val, x = direction_value(d, float(cap))
            if val > best_val * (1.0 + 1e-12) + 1e-15:
                best_val, best_x, best_dir = val, x, d
        results.append(CapResult(float(cap), best_val, best_x))
        carried.append(best_dir)
    return results
