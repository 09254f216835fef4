"""Value at risk, expected shortfall, and the hinge objective whose minimum is ES.

Conventions: payoffs are profits, losses are negated payoffs. VaR_p is the
negated p-quantile under the strict-CDF convention; ES_p is the exact average
of VaR_u over u in (0, p], evaluated on discrete distributions by splitting
the atom that straddles the p boundary. ES at p >= 1 is rejected.

`tail_envelope` evaluates all three (ES_p, VaR_p and the envelope point
attaining ES_p) on exactly judged masses, by one of two rules. With equal
weights it counts: the atom's sorted position is an integer quotient, and
one `np.partition` selects it, so nothing is sorted. Otherwise it takes
one stable order of the values (`lex_order`) and places the atom by the
running sum of their weights, checked with `math.fsum`. ES_p follows from
the weights below the atom and the atom's share of p (Rockafellar and
Uryasev).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .market import WeightedSample


@dataclass(frozen=True)
class RiskLevel:
    """A risk level p in (0, 1), stored as a float (a Fraction or Decimal
    is converted), the binary float that `tail_envelope` reads exactly."""

    p: float

    def __post_init__(self):
        object.__setattr__(self, "p", float(self.p))
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"risk level must lie in (0, 1), got {self.p}")


def as_level(level: RiskLevel | float) -> RiskLevel:
    return level if isinstance(level, RiskLevel) else RiskLevel(level)


def var_p(sample: WeightedSample, level: RiskLevel | float) -> float:
    """VaR_p = -inf{x : F_X(x) > p} on the discrete distribution."""
    return tail_envelope(sample.values, sample.weights, as_level(level).p)[2]


def lex_order(columns: np.ndarray | Sequence[np.ndarray]) -> np.ndarray:
    """Row order sorting equal-length key columns lexicographically, the
    first column major, with ties by row index: np.lexsort(columns[::-1]).
    `columns` is a (k, n) array whose rows are the keys (a view such as
    `matrix.T` is not copied), or k 1-D arrays, which are stacked into one.

    The first column is sorted once with numpy's default (unstable) sort.
    When no two sorted neighbours tie, that argsort is returned at once:
    with distinct values the order is unique, so it is the lexsort's
    permutation (continuous draws). One key whose values all tie (a
    constant column, such as F x at x = 0) gives the index order at once.
    Otherwise only the rows that tie on it are re-sorted, with a stable lexsort
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
    # one key whose sorted ends tie (NaN sorts last) is constant: index order
    if len(columns) == 1 and s.size and (s[0] == s[-1] or s[0] != s[0]):
        return np.arange(s.size)
    nan = s != s
    # link[i]: sorted position i ties with position i - 1
    link = np.concatenate([[False], (s[1:] == s[:-1]) | (nan[1:] & nan[:-1]), [False]])
    if not link.any():  # no ties: the argsort is the one order
        return order
    tied = np.flatnonzero(link[:-1] | link[1:])
    rows = order[tied]
    run = np.cumsum(~link[tied])  # a tied position that ties with no predecessor starts a run
    rest = columns[1:, rows]
    order[tied] = rows[np.lexsort((rows, *rest[::-1], run))]
    return order


def tail_envelope(
    values: np.ndarray, weights: np.ndarray, p: float
) -> tuple[float, np.ndarray, float]:
    """ES_p of raw (finite) payoff values and weights, the envelope point q
    attaining it, and VaR_p, on exact masses of the float inputs.

    VaR_p = -t for the strict-CDF atom t, mass(< t) <= p < mass(<= t), or
    for the largest value when all of them hold at most p; a zero atom
    reads +0.0. In the stable order of the values (ties by index) each
    scenario takes its whole weight until one takes the rest of p, p minus
    the mass before it, exactly rounded; those after it take nothing.
    q = take / p, so q / w is the density in the ES dual set
    {0 <= q / w <= 1/p, E_w[q / w] = 1} that attains ES_p, and
    ES_p = -sum q X = (E_w[-X; X < t] + (p - mass(< t)) (-t)) / p, Rockafellar
    and Uryasev's VaR_p + E_w[(-X - VaR_p)^+] / p.

    Two rules place that split, by whether the weights are equal. With
    equal weights w, p = P / D and w = W / D over one power of two D, so t
    is the value at sorted position k = min(P // W, n - 1), which one
    `np.partition` selects (nothing is sorted); of the ties at t, after
    the m values below it, the first j = min((P - m W) // W, #ties) take
    their whole weight and the next one (P - (m + j) W) / D. Otherwise one
    stable order (`lex_order`) is taken, and the float running sum of its
    weights places the split where it first exceeds p. That sum errs by
    under n eps of the total, so only positions whose sum lies that close
    to p are in doubt (almost always none); `math.fsum`, whose exactly
    rounded p - mass has the exact sign, bisects them. The split's rest
    of p is one more `fsum`. So q and VaR are bit for bit those of exact
    arithmetic on the inputs, and ES, numpy's pairwise sum of q X, is
    within 16 eps of sum q |X|.
    """
    n, w0 = len(values), weights[0]
    if (weights == w0).all():  # k values hold k w0: count them
        (a, u), (b, v) = p.as_integer_ratio(), float(w0).as_integer_ratio()
        D = max(u, v)  # both powers of two
        P, W = a * (D // u), b * (D // v)  # p = P / D and w0 = W / D
        k = min(P // W, n - 1)  # the values before sorted position k hold at most p
        t = np.partition(values, k)[k]
        taken = values < t
        m = int(np.count_nonzero(taken))
        ties = np.flatnonzero(values == t)  # in index order
        j = min((P - m * W) // W, len(ties))  # the ties that take their whole weight
        taken[ties[:j]] = True
        split, share = ties[j : j + 1], (P - (m + j) * W) / D
    else:
        order = lex_order(values[None, :])
        w = weights[order]

        def rest(i):  # p - the mass before sorted position i, exactly rounded
            return math.fsum([p, *(-w[:i]).tolist()])

        # a running float sum of n terms >= 0 errs by under n eps of the total,
        # so the split lies in [i, k]: the positions whose sum may be near p
        cum = np.cumsum(w)
        err = n * np.finfo(float).eps * cum[-1]
        i = min(int(np.searchsorted(cum, p - err, side="right")), n - 1)
        k = min(int(np.searchsorted(cum, p + err, side="right")), n - 1)
        while i < k:  # bisect on the exact sign of p - mass(up to position j)
            j = (i + k) // 2
            i, k = (i, j) if rest(j + 1) < 0.0 else (j + 1, k)
        t, taken, split, share = values[order[i]], np.zeros(n, bool), order[i : i + 1], rest(i)
        taken[order[:i]] = True
    q = np.where(taken, weights, 0.0)
    q /= p
    # the split's share, or its whole weight when every value holds at most p
    q[split] = np.minimum(share, weights[split]) / p
    return 0.0 - float((q * values).sum()), q, 0.0 - float(t)


def es_p(sample: WeightedSample, level: RiskLevel | float) -> float:
    """ES_p = (1/p) * integral of VaR_u over (0, p], exact by tail splitting."""
    return tail_envelope(sample.values, sample.weights, as_level(level).p)[0]


def ru_objective(sample: WeightedSample, level: RiskLevel | float, alpha: float) -> float:
    """The hinge objective F_p(alpha) = alpha + (1/p) E[(-X - alpha)^+].

    Its minimum over alpha equals ES_p and is attained at alpha = VaR_p.
    """
    p = as_level(level).p
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
