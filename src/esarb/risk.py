"""Value at risk, expected shortfall, and the hinge objective whose minimum is ES.

Conventions: payoffs are profits, losses are negated payoffs. VaR_p is the
negated p-quantile under the strict-CDF convention; ES_p is the exact average
of VaR_u over u in (0, p], evaluated on discrete distributions by splitting
the atom that straddles the p boundary. ES at p >= 1 is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .market import WeightedSample


@dataclass(frozen=True)
class RiskLevel:
    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"risk level must lie in (0, 1), got {self.p}")


def as_level(level: RiskLevel | float) -> RiskLevel:
    return level if isinstance(level, RiskLevel) else RiskLevel(float(level))


def _level(level: RiskLevel | float) -> float:
    return as_level(level).p


def var_p(sample: WeightedSample, level: RiskLevel | float) -> float:
    """VaR_p = -inf{x : F_X(x) > p} on the discrete distribution."""
    return tail_envelope(sample.values, sample.weights, _level(level))[2]


def lex_order(columns: np.ndarray | Sequence[np.ndarray]) -> np.ndarray:
    """Row order sorting equal-length key columns lexicographically, the
    first column major, with ties by row index: np.lexsort(columns[::-1]).
    `columns` is a (k, n) array whose rows are the keys (a view such as
    `matrix.T` is not copied), or k 1-D arrays, which are stacked into one.

    The first column is sorted once with numpy's default (unstable) sort;
    only the rows that tie on it are then re-sorted, with a stable lexsort
    over (run id, remaining columns, row index). The remaining columns of
    those rows are gathered in one (k - 1, tied) block, not one array per
    column: on a wide market of 0/1 payoffs every row ties, and a thousand
    small gathers left the process's peak RSS differing from run to run.
    Ties by index make the permutation unique, so it does not depend on the
    sort numpy dispatches to. As in numpy's sorts, -0.0 ties with +0.0 and
    NaN ties with NaN after every other value.
    """
    columns = np.asarray(columns)
    first = columns[0]
    order = np.argsort(first)
    s = first[order]
    nan = s != s
    # link[i]: sorted position i ties with position i - 1
    link = np.concatenate([[False], (s[1:] == s[:-1]) | (nan[1:] & nan[:-1]), [False]])
    tied = np.flatnonzero(link[:-1] | link[1:])
    rows = order[tied]
    run = np.cumsum(~link[tied])  # a tied position that ties with no predecessor starts a run
    rest = columns[1:, rows]
    order[tied] = rows[np.lexsort((rows, *rest[::-1], run))]
    return order


def tail_envelope(
    values: np.ndarray, weights: np.ndarray, p: float
) -> tuple[float, np.ndarray, float]:
    """ES_p of raw payoff values and weights, the envelope point q attaining
    it, and VaR_p, all from one sort.

    Losses are sorted descending, in the ascending order of values that
    `lex_order` gives (equal values by index); each loss contributes its
    weight until the cumulative mass reaches p, with the straddling atom
    taken fractionally. q is that split divided by p: the maximizer of
    E_w[-values q] over the ES dual set {0 <= q <= 1/p, E_w q = 1}. VaR_p
    is the loss at the first sorted position whose cumulative mass exceeds
    p (strict CDF).
    """
    order = lex_order(values[None, :])
    losses = -values[order]  # descending
    sorted_w = weights[order]
    cum = np.cumsum(sorted_w)
    prev = cum - sorted_w
    take = np.clip(p - prev, 0.0, sorted_w)
    q = np.zeros_like(weights)
    q[order] = take / p
    idx = min(int(np.searchsorted(cum, p, side="right")), len(losses) - 1)
    return float(losses @ take) / p, q, float(losses[idx])


def es_p(sample: WeightedSample, level: RiskLevel | float) -> float:
    """ES_p = (1/p) * integral of VaR_u over (0, p], exact by tail splitting."""
    return tail_envelope(sample.values, sample.weights, _level(level))[0]


def ru_objective(sample: WeightedSample, level: RiskLevel | float, alpha: float) -> float:
    """The hinge objective F_p(alpha) = alpha + (1/p) E[(-X - alpha)^+].

    Its minimum over alpha equals ES_p and is attained at alpha = VaR_p.
    """
    p = _level(level)
    hinge = np.maximum(-sample.values - alpha, 0.0)
    return float(alpha + (sample.weights @ hinge) / p)


@dataclass(frozen=True)
class CoherenceReport:
    """Worst observed violation per coherence axiom, and the tolerance used."""

    tolerance: float
    violations: dict[str, float]

    @property
    def passed(self) -> bool:
        return all(v <= self.tolerance for v in self.violations.values())

    def failures(self) -> list[str]:
        return [name for name, v in self.violations.items() if v > self.tolerance]


def coherence_check(
    measure: Callable[[WeightedSample], float],
    samples: Sequence[WeightedSample],
    tolerance: float = 1e-9,
) -> CoherenceReport:
    """Check the five coherence axioms of the measure on the given samples.

    All samples must share one scenario grid (identical weights) so sums of
    random variables are defined pointwise. Monotonicity is exercised through
    pointwise minima, which always yields comparable pairs.
    """
    if not samples:
        raise ValueError("need at least one sample")
    weights = samples[0].weights
    for s in samples[1:]:
        if len(s) != len(weights) or not np.array_equal(s.weights, weights):
            raise ValueError("samples must share a common scenario grid")

    worst = {
        "normalization": 0.0,
        "monotonicity": 0.0,
        "subadditivity": 0.0,
        "translation_invariance": 0.0,
        "positive_homogeneity": 0.0,
    }

    zero = WeightedSample(np.zeros(len(weights)), weights)
    worst["normalization"] = abs(measure(zero))

    shifts = (1.0, -0.75)
    scales = (0.5, 2.0, 7.5)
    for s in samples:
        rho = measure(s)
        for a in shifts:
            shifted = WeightedSample(s.values + a, weights)
            worst["translation_invariance"] = max(
                worst["translation_invariance"], abs(measure(shifted) - (rho - a))
            )
        for lam in scales:
            scaled = WeightedSample(lam * s.values, weights)
            worst["positive_homogeneity"] = max(
                worst["positive_homogeneity"], abs(measure(scaled) - lam * rho)
            )

    pairs = list(zip(samples, samples[1:]))
    if len(samples) >= 2:
        pairs.append((samples[0], samples[-1]))
    for x, y in pairs:
        rho_x, rho_y = measure(x), measure(y)
        both = WeightedSample(x.values + y.values, weights)
        worst["subadditivity"] = max(worst["subadditivity"], measure(both) - rho_x - rho_y)
        floor = WeightedSample(np.minimum(x.values, y.values), weights)
        rho_floor = measure(floor)
        # floor <= x and floor <= y pointwise, so rho(floor) must dominate both
        worst["monotonicity"] = max(worst["monotonicity"], rho_x - rho_floor, rho_y - rho_floor)

    return CoherenceReport(tolerance=tolerance, violations=worst)
