"""Shows that every check in ``oracles`` accepts a right answer and
rejects a wrong one: a flipped verdict, a p* three cells off, a witness
whose cost is above 0, and so on for each check.

    python3 perfbench/selftest.py

Uses no esarb code. Exits 1 when a check rejects a right answer or lets a
wrong one through.
"""

import math
import sys

import numpy as np
from scipy.special import ndtr

import oracles


def _lognormal_pl_weights(m: float, s: float, points) -> np.ndarray:
    """Weights on the grid that integrate exactly every payoff linear
    between grid points and beyond the second-to-last, for log S ~ N(m, s^2)."""

    def cum(x):
        if x <= 0.0:
            return 0.0, 0.0
        if math.isinf(x):
            return 1.0, math.exp(m + 0.5 * s * s)
        z = (math.log(x) - m) / s
        return float(ndtr(z)), math.exp(m + 0.5 * s * s) * float(ndtr(z - s))

    n = len(points)
    w = np.zeros(n)
    for j in range(n - 1):
        lo = 0.0 if j == 0 else points[j]
        hi = math.inf if j == n - 2 else points[j + 1]
        (mass_hi, mom_hi), (mass_lo, mom_lo) = cum(hi), cum(lo)
        mass, mom = mass_hi - mass_lo, mom_hi - mom_lo
        t = (mom - points[j] * mass) / (points[j + 1] - points[j])
        w[j] += mass - t
        w[j + 1] += t
    return w


def cases():
    """(name, result of the check on a right answer, on a wrong answer)."""
    out = []

    # Markowitz: g = 0.2 / 0.1 = 2 > E(0.1) = 1.755, so arbitrage
    mk = (np.array([1.2]), np.array([[0.01]]), np.array([1.0]), 0.0)
    out.append(("Markowitz verdict flipped",
                oracles.check_markowitz(True, *mk, 0.1), oracles.check_markowitz(False, *mk, 0.1)))

    q0 = oracles.bs_first_cell_density(-0.3, 0.0, 0.15, 512)
    cell = 1.0 / 512
    out.append(("p* three cells off",
                oracles.check_threshold(1.0 / q0 + 0.5 * cell, q0, cell),
                oracles.check_threshold(1.0 / q0 + 3.0 * cell, q0, cell)))
    out.append(("complete-market verdict flipped",
                oracles.check_complete_verdict(True, 2.0, 0.55),
                oracles.check_complete_verdict(False, 2.0, 0.55)))

    # four equal scenarios; leg 0 pays (0, 1, 1, 1), leg 1 (0.5, 1, 1, 1)
    w = np.full(4, 0.25)
    F = np.array([[0.0, 0.5], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    prices = np.array([0.0, 0.0])
    out.append(("witness cost above 0",
                oracles.check_witness(F, w, prices, [1.0, 0.0], 0.25, 1.0),
                oracles.check_witness(F, w, np.array([0.01, 0.0]), [1.0, 0.0], 0.25, 1.0)))
    out.append(("witness ES above 0",
                oracles.check_witness(F, w, prices, [1.0, 0.0], 0.25, 1.0),
                oracles.check_witness(F - 1.0, w, prices, [1.0, 0.0], 0.25, 1.0)))
    out.append(("witness misses the reported least ES",
                oracles.check_witness(F, w, prices, [0.0, 1.0], 0.25, 1.0, min_es=-0.5),
                oracles.check_witness(F, w, prices, [0.0, 1.0], 0.25, 1.0, min_es=-0.6)))
    es = oracles.expected_shortfall(np.array([3.0, -2.0, 1.0, 0.0]), w, 0.375)
    out.append(("sort-and-average ES",
                None if abs(es - 2.0 / 3.0 * 2.0) < 1e-12 else f"ES {es}",
                None if abs(es - 2.0) < 1e-12 else f"ES {es}"))

    m, s = math.log(100.0) - 0.5 * 0.04, 0.2
    mixture = (np.array([1.0]), np.array([m]), np.array([s]))
    strikes = [90.0, 100.0, 110.0]
    grid = np.array([0.0, 50.0, 90.0, 100.0, 110.0, 200.0, 400.0])
    weights = _lognormal_pl_weights(m, s, grid)
    shifted = weights.copy()
    shifted[2] -= 1e-6
    shifted[3] += 1e-6
    out.append(("quadrature misprices a vanilla",
                oracles.check_pl_prices(grid, weights, mixture, strikes),
                oracles.check_pl_prices(grid, shifted, mixture, strikes)))

    out.append(("sweep not monotone",
                oracles.check_monotone([False, False, True, True]),
                oracles.check_monotone([False, True, False, True])))

    # one leg paying (1, 2) at price 0: least ES at p = 0.5 is -1
    lp = oracles.min_es_lp(np.array([[1.0], [2.0]]), np.array([0.5, 0.5]), np.array([0.0]), 0.5, 1.0)
    out.append(("least ES off the oracle LP",
                oracles.check_min_es(-1.0, lp, 1.0), oracles.check_min_es(-0.9, lp, 1.0)))

    spot, rate, T = 100.0, 0.0, 1.0
    mix = (np.array([1.0]), np.array([math.log(spot) - 0.5 * s * s]), np.array([s]))
    drifted = (mix[0], mix[1] + 0.01, mix[2])

    def quotes_of(model, shift=1.0):
        quotes = []
        for k in strikes:
            call, put = oracles.mixture_vanillas(*model, k)
            quotes += [(kind, k, 0.99 * shift * v, 1.01 * shift * v)
                       for kind, v in (("call", call), ("put", put))]
        return quotes

    out.append(("calibration far outside the spread",
                oracles.check_calibration(mix, quotes_of(mix), spot, rate, T),
                oracles.check_calibration(mix, quotes_of(mix, 1.05), spot, rate, T)))
    # the drifted mixture fits its own quotes exactly but misses the forward
    out.append(("mixture off the forward",
                oracles.check_calibration(mix, quotes_of(mix), spot, rate, T),
                oracles.check_calibration(drifted, quotes_of(drifted), spot, rate, T)))
    out.append(("GARCH persistence off",
                oracles.check_persistence(0.97, 0.98), oracles.check_persistence(0.90, 0.98)))

    ray, pw, lams = np.array([-1.0, 2.0]), np.array([0.5, 0.5]), [1.0, 10.0, 100.0]
    trader = [lam * 1.0 for lam in lams]
    manager = [-(lam**2) * 0.5 for lam in lams]
    out.append(("utility scan wrong",
                oracles.check_scan(lams, trader, manager, np.zeros(2), ray, pw, 2.0),
                oracles.check_scan(lams, trader[::-1], manager, np.zeros(2), ray, pw, 2.0)))
    out.append(("capped supremum unbounded without arbitrage",
                oracles.check_bounded([1.0, 1.001, 1.002]), oracles.check_bounded([1.0, 2.0, 3.0])))
    out.append(("planted supremum grows too slowly",
                oracles.check_growth([1.0, 10.0, 100.0]), oracles.check_growth([1.0, 5.0, 25.0])))
    out.append(("repeated run not byte-identical",
                oracles.check_same_bytes(b"{}\n", b"{}\n"), oracles.check_same_bytes(b"{}\n", b"{} \n")))
    return out


def main() -> int:
    bad = 0
    for name, right, wrong in cases():
        ok = right is None and wrong is not None
        bad += not ok
        detail = f"rejected: {wrong}" if ok else f"right answer: {right!r}, wrong answer: {wrong!r}"
        print(f"{'ok  ' if ok else 'FAIL'} {name} -- {detail}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
