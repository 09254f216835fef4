"""Value at risk, expected shortfall, and the hinge objective whose minimum is ES.

Conventions: payoffs are profits, losses are negated payoffs. VaR_p is the
negated p-quantile under the strict-CDF convention; ES_p is the exact average
of VaR_u over u in (0, p], evaluated on discrete distributions by splitting
the atom that straddles the p boundary. ES at p >= 1 is rejected.

`tail_envelope` evaluates all three (ES_p, VaR_p and the envelope point
attaining ES_p) by selection, without sorting the tail: `np.partition`
finds VaR_p's atom, judged on exactly rounded masses, and ES_p follows from
the weights below it and the share of the atom (Rockafellar and Uryasev).
`lex_order` sorts rows for the LP's scenario merge, not for the tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .market import WeightedSample

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class RiskLevel:
    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"risk level must lie in (0, 1), got {self.p}")


def as_level(level: RiskLevel | float) -> RiskLevel:
    return level if isinstance(level, RiskLevel) else RiskLevel(float(level))


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
    permutation (continuous draws). Otherwise only
    the rows that tie on it are re-sorted, with a stable lexsort
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
    if not link.any():  # no ties: the argsort is the one order
        return order
    tied = np.flatnonzero(link[:-1] | link[1:])
    rows = order[tied]
    run = np.cumsum(~link[tied])  # a tied position that ties with no predecessor starts a run
    rest = columns[1:, rows]
    order[tied] = rows[np.lexsort((rows, *rest[::-1], run))]
    return order


def _guess(lo: int, hi: int, left: float, extra: float, misses: int) -> int:
    """A position in [lo, hi) at which a running mass may first exceed p,
    when the mass before lo is p - left (left >= 0) and the mass before hi
    is p + extra (extra > 0): linear interpolation, or the middle after
    every third miss, so a search takes O(log(hi - lo)) steps at worst."""
    share = 0.5 if misses % 3 == 2 else left / (left + extra)
    return lo + min(int(share * (hi - lo)), hi - lo - 1)


def tail_envelope(
    values: np.ndarray, weights: np.ndarray, p: float
) -> tuple[float, np.ndarray, float]:
    """ES_p of raw (finite) payoff values and weights, the envelope point q
    attaining it, and VaR_p, by selection alone: nothing is sorted.

    VaR_p = -t for the strict-CDF atom t, mass(< t) <= p < mass(<= t), or
    for the largest value when all of them hold at most p; a zero atom
    reads +0.0. Each scenario takes a part of its weight: all of it below
    t, none above, and the ties at t take the rest of p in index order,
    each its whole weight until one takes p - mass(< t) - mass(earlier
    ties). q = take / p, so q / w is the density in the ES dual set
    {0 <= q / w <= 1/p, E_w[q / w] = 1} that attains ES_p, and
    ES_p = -sum q X = (E_w[-X; X < t] + (p - mass(< t)) (-t)) / p, Rockafellar
    and Uryasev's VaR_p + E_w[(-X - VaR_p)^+] / p.

    t is the value at a sorted position k, which `np.partition` finds in a
    copy of the values. Each t is judged on exact masses: with equal
    weights, k w against p as integers over one power of two (so the
    first k, the exact count p / w, is the atom's); otherwise by a float
    sum, whose error bound settles the sign unless the mass lies that
    close to p, and then by `math.fsum`, whose once-rounded p - mass has
    the exact sign. A miss narrows the positions to the atom's side of t,
    partitions only that slice of the copy, and places the next k by
    linear interpolation of the masses at its ends (`_guess`). The ties'
    split is searched the same way over prefixes of the ties, and the last
    tie taken gets the exactly rounded p - mass. So q and VaR are bit for
    bit those of exact arithmetic on the inputs, and ES, numpy's pairwise
    sum of q X in the copy's memory, is within 16 eps of sum q |X|.
    """
    n, w0 = len(values), weights[0]
    if (weights == w0).all():  # k values hold k w0: count them
        (a, u), (b, v) = p.as_integer_ratio(), float(w0).as_integer_ratio()
        D = max(u, v)  # both powers of two
        P, W = a * (D // u), b * (D // v)  # p = P / D and w0 = W / D

        def over(mask, exact=True):  # the mass mask picks, minus p, exactly rounded
            return (int(np.count_nonzero(mask)) * W - P) / D

        k = min(P // W, n - 1)  # the values before position k hold at most p
    else:
        def over(mask, exact=False):  # with the exact sign, and exactly rounded if exact
            if not exact:
                mass = float(weights @ mask)
                # a float sum of m terms >= 0, in any order, errs by under m eps / 2 of it
                if abs(mass - p) > (np.count_nonzero(mask) + 1) * _EPS * mass:
                    return mass - p
            terms = weights[mask].tolist()
            terms.append(-p)
            return math.fsum(terms)

        k = min(int(p * n), n - 1)
    work = values.copy()  # partitioned in place, one slice at a time
    # the atom's position lies in [lo, hi), inside the slice [start, stop);
    # the values before lo hold p - left, those before hi p + extra
    lo, hi, start, stop, left, extra, misses = 0, n, 0, n, p, 1.0 - p, 0
    while True:
        work[start:stop].partition(k - start)
        t = work[k]
        below = values < t
        if (under := over(below)) > 0.0:  # the atom lies below t
            hi, stop, extra = np.count_nonzero(below), k, under
        else:
            upto = values <= t
            if (top := over(upto)) > 0.0:  # t is the atom
                break
            lo, start, left = np.count_nonzero(upto), k + 1, 0.0 - top
            if lo == n:  # every value holds at most p: t is the largest
                break
        misses += 1
        k = _guess(lo, hi, left, extra, misses)
    # the first j ties take their whole weight and tie j takes the share of
    # p left, p - mass(< t) - mass(ties[:j]), exactly rounded: j is the
    # longest prefix of ties that leaves a share >= 0, lo <= j < hi. Each
    # probe computes a share; one below the next tie's weight ends the
    # search there. The first probe assumes ties of equal weight, or takes
    # every tie when all values hold at most p
    ties = (values == t).nonzero()[0]  # in index order
    lo, hi, share, probed, misses = 0, len(ties), 0.0 - under, False, 0
    j = hi if top <= 0.0 else _guess(0, hi, share, top, misses)
    while True:
        prefix = below.copy()
        prefix[ties[:j]] = True
        if (r := over(prefix, exact=True)) > 0.0:
            hi, top = j, r
        else:
            lo, share, probed = j, 0.0 - r, True
            if j == len(ties) or share < weights[ties[j]]:
                hi = j + 1
        if hi - lo == 1 and probed:  # share is exact at lo
            break
        misses += 1
        j = lo if hi - lo == 1 else _guess(lo + 1, hi, share, top, misses)
    below[ties[:lo]] = True
    q = np.where(below, weights, 0.0)
    q /= p
    if lo < len(ties):
        q[ties[lo]] = share / p
    np.multiply(q, values, out=work)
    return 0.0 - float(work.sum()), q, 0.0 - float(t)


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
