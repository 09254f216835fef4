"""Discretized markets: scenario grids, quoted instruments, legs, portfolios.

A market here is the positive-homogeneous object of the detection problem:
finitely many scenarios with probability weights, and tradable legs that can
be bought in non-negative quantities. Shorting is modelled by expanding each
quote into a long leg (price = ask) and a short leg (negated payoff,
price = -bid), which keeps the feasible set a box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

QuoteKind = Literal["call", "put", "bond", "underlying"]

_WEIGHT_SUM_TOL = 1e-12
_INFINITE_BOUND = 1e20  # HiGHS reads a bound this large as infinite: the LPs would be unbounded
_MAX_DRAWS = 2**63 - 1  # the largest count numpy's samplers take (int64)


def _as_readonly(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _require_draws(n, name: str = "n", least: int = 1) -> None:
    """Reject a draw count that is not an integer from least to 2**63 - 1.

    Python and numpy integers pass; bool and float do not, though numpy's
    samplers would take both."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, not {type(n).__name__}")
    if n < least:
        raise ValueError(f"{name} must be >= {least}")
    if n > _MAX_DRAWS:
        raise ValueError(f"{name} must be <= 2**63 - 1")


@dataclass(frozen=True)
class ScenarioSet:
    """Weighted sample of terminal states: the discrete P-measure."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        points = _as_readonly(self.points)
        weights = _as_readonly(self.weights)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        if points.ndim != 1 or weights.ndim != 1 or len(points) != len(weights):
            raise ValueError("bad scenario set: points and weights must be 1-d and equal length")
        if len(points) == 0:
            raise ValueError("bad scenario set: empty")
        if not np.isfinite(points).all():
            raise ValueError("bad scenario set: non-finite points")
        if not np.isfinite(weights).all() or (weights < 0).any():
            raise ValueError("bad scenario set: weights must be finite and >= 0")
        if abs(weights.sum() - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError("bad scenario set: weights must sum to 1")
        if len(points) > 1 and not (np.diff(points) > 0).all():
            raise ValueError("bad scenario set: points must be strictly increasing")

    def __len__(self) -> int:
        return len(self.points)

    @classmethod
    def from_draws(cls, draws: np.ndarray) -> "ScenarioSet":
        """Equal-weight scenario set from i.i.d. draws.

        Draws are sorted and exact duplicates merged (weights summed) so the
        strict-increase invariant holds even for pathological float ties.
        """
        draws = np.asarray(draws, dtype=float)
        points, counts = np.unique(draws, return_counts=True)
        weights = counts / len(draws)
        s = weights.sum()
        if abs(s - 1.0) > _WEIGHT_SUM_TOL:
            weights = weights / s
        return cls(points, weights)


@dataclass(frozen=True)
class WeightedSample:
    """A random variable on a finite probability space: values with weights."""

    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        values = _as_readonly(self.values)
        weights = _as_readonly(self.weights)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)
        if values.ndim != 1 or weights.ndim != 1 or len(values) != len(weights):
            raise ValueError("values and weights must be 1-d and equal length")
        if len(values) == 0:
            raise ValueError("empty sample")
        if not np.isfinite(values).all():
            raise ValueError("sample values must be finite")
        # a NaN sum is not > the tolerance, so finiteness is checked on its own
        bad = not np.isfinite(weights).all() or (weights < 0).any()
        if bad or abs(weights.sum() - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError("weights must be finite, >= 0 and sum to 1")

    def __len__(self) -> int:
        return len(self.values)

    def mean(self) -> float:
        return float(self.values @ self.weights)


@dataclass(frozen=True)
class InstrumentQuote:
    kind: QuoteKind
    strike: float | None = None
    bid: float = 0.0
    ask: float = math.inf

    def __post_init__(self):
        if self.kind not in ("call", "put", "bond", "underlying"):
            raise ValueError(f"unknown instrument kind {self.kind!r}")
        if self.kind in ("call", "put"):
            if self.strike is None or not self.strike > 0:
                raise ValueError("strike must be > 0 for options")
        elif self.strike is not None:
            raise ValueError(f"{self.kind} quote must not carry a strike")
        if not (0 <= self.bid <= self.ask):
            raise ValueError("need ask >= bid >= 0")

    def payoff(self, points: np.ndarray) -> np.ndarray:
        """Unit payoff of the instrument at each scenario point."""
        if self.kind == "call":
            return np.maximum(points - self.strike, 0.0)
        if self.kind == "put":
            return np.maximum(self.strike - points, 0.0)
        if self.kind == "bond":
            return np.ones_like(points)
        return np.asarray(points, dtype=float).copy()

    def describe(self) -> str:
        if self.kind in ("call", "put"):
            return f"{self.kind} K={self.strike:g}"
        return self.kind


@dataclass(frozen=True)
class TradableLeg:
    label: str
    price: float
    payoff: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "payoff", _as_readonly(self.payoff))
        if not np.isfinite(self.price):
            raise ValueError("leg price must be finite")
        if not np.isfinite(self.payoff).all():
            raise ValueError("leg payoff must be finite")


@dataclass(frozen=True)
class MarketSnapshot:
    """Scenario measure plus tradable legs; quantities live in [0, upper_bound]."""

    scenarios: ScenarioSet
    legs: tuple[TradableLeg, ...]
    spot: float = 0.0
    rate: float = 0.0
    maturity: float = 1.0
    upper_bound: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "legs", tuple(self.legs))
        if not self.legs:
            raise ValueError("market needs at least one leg")
        n = len(self.scenarios)
        for leg in self.legs:
            if len(leg.payoff) != n:
                raise ValueError(f"leg {leg.label!r} has {len(leg.payoff)} payoffs for {n} scenarios")
        if not 0 < self.upper_bound < _INFINITE_BOUND:
            raise ValueError(f"upper_bound must be > 0 and below {_INFINITE_BOUND:g}")
        for name in ("spot", "rate", "maturity"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")

    @property
    def n_legs(self) -> int:
        return len(self.legs)

    def prices(self) -> np.ndarray:
        return np.array([leg.price for leg in self.legs])

    def payoff_matrix(self) -> np.ndarray:
        """Scenario-by-leg payoff matrix f(Omega_i) as rows."""
        return np.column_stack([leg.payoff for leg in self.legs])

    def labels(self) -> list[str]:
        return [leg.label for leg in self.legs]


@dataclass(frozen=True)
class Portfolio:
    quantities: np.ndarray
    upper_bound: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "quantities", _as_readonly(self.quantities))
        q = self.quantities
        if q.ndim != 1:
            raise ValueError("quantities must be 1-d")
        if not np.isfinite(q).all():
            raise ValueError("quantities must be finite")
        if not self.upper_bound > 0:
            raise ValueError(f"upper_bound must be > 0, got {self.upper_bound!r}")
        if (q < 0).any() or (q > self.upper_bound * (1 + 1e-12)).any():
            raise ValueError(f"quantities must lie in [0, {self.upper_bound}]")


def expand_quotes(
    quotes: list[InstrumentQuote],
    scenarios: ScenarioSet,
    spot: float,
    rate: float,
    maturity: float,
) -> list[TradableLeg]:
    """Expand quotes into long/short legs over the scenario grid.

    Each quote with a finite ask yields a long leg (instrument payoff, price
    = ask); each quote with bid > 0 yields a short leg (negated payoff, price
    = -bid). If no bond is quoted, a fair one at e^{-rT} is synthesized so the
    market always prices the constants.
    """
    if not quotes:
        raise ValueError("no instruments")
    points = scenarios.points
    legs: list[TradableLeg] = []
    for quote in quotes:
        pay = quote.payoff(points)
        name = quote.describe()
        if math.isfinite(quote.ask):
            legs.append(TradableLeg(f"long {name}", float(quote.ask), pay))
        if quote.bid > 0:
            legs.append(TradableLeg(f"short {name}", -float(quote.bid), -pay))
    if not any(q.kind == "bond" for q in quotes):
        disc = math.exp(-rate * maturity)
        ones = np.ones_like(points)
        legs.append(TradableLeg("long bond", disc, ones))
        legs.append(TradableLeg("short bond", -disc, -ones))
    if not legs:
        raise ValueError("no instruments produced tradable legs")
    return legs


def price(market: MarketSnapshot, portfolio: Portfolio) -> float:
    """Cost of the portfolio: dot product of leg prices and quantities."""
    q = portfolio.quantities
    if len(q) != market.n_legs:
        raise ValueError(f"portfolio has {len(q)} quantities for {market.n_legs} legs")
    return float(market.prices() @ q)


def payoff_distribution(market: MarketSnapshot, portfolio: Portfolio) -> WeightedSample:
    """Portfolio payoff as a weighted sample over the market's scenarios."""
    q = portfolio.quantities
    if len(q) != market.n_legs:
        raise ValueError(f"portfolio has {len(q)} quantities for {market.n_legs} legs")
    values = market.payoff_matrix() @ q
    return WeightedSample(values, market.scenarios.weights)
