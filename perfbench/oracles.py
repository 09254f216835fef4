"""Checks of esarb's outputs against computations made apart from esarb.

Every check takes plain numbers and arrays and returns None when the
output is right, or a one-line reason when it is wrong. Nothing here
imports esarb: the closed forms, the expected shortfall and the hinge LP
are written again from their definitions, so a fault in the program
cannot hide in its own oracle. ``selftest.py`` shows that each check
rejects a wrong answer.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog
from scipy.special import ndtr, ndtri


# ---------------------------------------------------------------- closed forms

def normal_tail_factor(p: float) -> float:
    """E(p) = phi(Phi^-1(p)) / p, the expected shortfall of N(0, 1)."""
    z = float(ndtri(p))
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) / p


def capital_line_gradient(mu, sigma, c, rf: float) -> float:
    """g = sqrt(m' sigma^-1 m) with m = mu - (1 + rf) c."""
    m = np.asarray(mu, float) - (1.0 + rf) * np.asarray(c, float)
    return math.sqrt(float(m @ np.linalg.solve(np.asarray(sigma, float), m)))


def bs_first_cell_density(drift: float, rate: float, sigma: float, cells: int) -> float:
    """q(0+) of the cell-averaged Black-Scholes density ratio: the mass of
    the first cell (0, 1/cells] divided by its width."""
    lam = abs(rate - drift) / sigma
    mass = 1.0 - float(ndtr(float(ndtri(1.0 - 1.0 / cells)) - lam))
    return mass * cells


def mixture_vanillas(weights, log_means, log_sds, strike: float) -> tuple[float, float]:
    """Undiscounted call and put values of a lognormal mixture at one strike."""
    w, m, s = (np.asarray(a, float) for a in (weights, log_means, log_sds))
    fwd = np.exp(m + 0.5 * s * s)
    d2 = (m - math.log(strike)) / s
    call = float(w @ (fwd * ndtr(d2 + s) - strike * ndtr(d2)))
    return call, call - float(w @ fwd) + strike


def mixture_mean(weights, log_means, log_sds) -> float:
    w, m, s = (np.asarray(a, float) for a in (weights, log_means, log_sds))
    return float(w @ np.exp(m + 0.5 * s * s))


def expected_shortfall(values, weights, p: float) -> float:
    """ES_p by sort and average: the mean of the worst p of the mass, with
    the atom on the boundary taken in part."""
    order = np.argsort(values, kind="stable")
    v = np.asarray(values, float)[order]
    w = np.asarray(weights, float)[order]
    before = np.cumsum(w) - w
    take = np.clip(p - before, 0.0, w)
    return -float(v @ take) / p


def min_es_lp(payoffs, weights, prices, p: float, upper: float) -> float:
    """Least ES_p at non-positive cost over 0 <= x <= upper, as the
    Rockafellar-Uryasev LP in (a, x, u), solved densely with HiGHS."""
    F = np.asarray(payoffs, float)
    n_s, n_l = F.shape
    c = np.concatenate([[1.0], np.zeros(n_l), np.asarray(weights, float) / p])
    A = np.zeros((n_s + 1, 1 + n_l + n_s))
    A[0, 1 : 1 + n_l] = prices
    A[1:, 0] = -1.0
    A[1:, 1 : 1 + n_l] = -F
    A[1:, 1 + n_l :] = -np.eye(n_s)
    bounds = [(None, None)] + [(0.0, upper)] * n_l + [(0.0, None)] * n_s
    res = linprog(c, A_ub=A, b_ub=np.zeros(n_s + 1), bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"oracle LP failed: {res.message}")
    return float(res.fun)


# ---------------------------------------------------------------- checks

def check_verdict(got: bool, truth: bool, what: str) -> str | None:
    if bool(got) != bool(truth):
        return f"{what}: verdict {bool(got)}, expected {bool(truth)}"
    return None


def check_markowitz(got: bool, mu, sigma, c, rf: float, p: float) -> str | None:
    """The LP verdict against g >= E(p); the case must keep |g - E(p)| > 0.2
    so that sampling error cannot decide it."""
    g, e = capital_line_gradient(mu, sigma, c, rf), normal_tail_factor(p)
    if abs(g - e) <= 0.2:
        return f"case too close to the threshold: g={g:.4f}, E(p)={e:.4f}"
    return check_verdict(got, g >= e, f"Markowitz g={g:.4f} E({p:g})={e:.4f}")


def check_witness(payoffs, weights, prices, x, p: float, scale: float,
                  min_es: float | None = None) -> str | None:
    """An arbitrage witness costs at most 0 and has ES_p at most 0, both
    recomputed here. When the verdict came from a strictly negative least
    ES (min_es given), the witness must attain it; otherwise its expected
    payoff must be positive."""
    x = np.asarray(x, float)
    tol = 1e-9 * scale
    cost = float(np.asarray(prices, float) @ x)
    y = np.asarray(payoffs, float) @ x
    es = expected_shortfall(y, weights, p)
    if cost > tol:
        return f"witness costs {cost:.3e} > 0"
    if es > tol:
        return f"witness ES {es:.3e} > 0"
    if min_es is not None:
        if abs(es - min_es) > 1e-7 * max(scale, abs(min_es)):
            return f"witness ES {es:.9e} differs from reported {min_es:.9e}"
    elif float(np.asarray(weights, float) @ y) <= tol:
        return "witness has no positive expected payoff"
    return None


def check_threshold(p_star: float | None, q0: float, cell: float) -> str | None:
    """p* within max(2 cells, 1e-3) of 1/q(0+)."""
    if p_star is None:
        return "no threshold found"
    tol = max(2.0 * cell, 1e-3)
    if abs(p_star - 1.0 / q0) > tol:
        return f"p*={p_star:.6f} is {abs(p_star - 1.0 / q0):.2e} from 1/q(0+)={1.0 / q0:.6f}"
    return None


def check_complete_verdict(got: bool, q0: float, p: float) -> str | None:
    return check_verdict(got, q0 >= 1.0 / p, f"complete market q(0+)={q0:.4f} p={p:.4f}")


def check_pl_prices(points, weights, mixture, strikes) -> str | None:
    """The quadrature prices every call and put at the quoted strikes to
    1e-9 relative (absolute below a value of 1) against the closed form."""
    points, weights = np.asarray(points, float), np.asarray(weights, float)
    for k in strikes:
        call, put = mixture_vanillas(*mixture, k)
        q_call = float(weights @ np.maximum(points - k, 0.0))
        q_put = float(weights @ np.maximum(k - points, 0.0))
        for got, want, kind in ((q_call, call, "call"), (q_put, put, "put")):
            if abs(got - want) > 1e-9 * max(want, 1.0):
                return f"{kind} K={k:g}: quadrature {got:.12g}, closed form {want:.12g}"
    return None


def check_monotone(verdicts) -> str | None:
    """Verdicts along an ascending p grid never fall back from True."""
    seen = False
    for i, v in enumerate(verdicts):
        if seen and not v:
            return f"verdict drops back to no arbitrage at grid point {i}"
        seen = seen or bool(v)
    return None


def check_min_es(got: float, oracle: float, scale: float) -> str | None:
    if abs(got - oracle) > 1e-7 * max(scale, abs(oracle)):
        return f"least ES {got:.9e}, oracle LP {oracle:.9e}"
    return None


def check_calibration(mixture, quotes, spot: float, rate: float, maturity: float) -> str | None:
    """Priced by the fitted mixture, the quotes (kind, strike, bid, ask)
    have an RMSE to their mids of at most half the mean quoted spread, and
    the mixture mean sits on the forward to 1e-9 of spot."""
    disc = math.exp(-rate * maturity)
    errors, spreads = [], []
    for kind, strike, bid, ask in quotes:
        call, put = mixture_vanillas(*mixture, strike)
        errors.append(disc * (call if kind == "call" else put) - 0.5 * (bid + ask))
        spreads.append(ask - bid)
    rmse = math.sqrt(float(np.mean(np.square(errors))))
    half_spread = 0.5 * float(np.mean(spreads))
    if rmse > half_spread:
        return f"RMSE {rmse:.4e} above half the mean spread {half_spread:.4e}"
    gap = mixture_mean(*mixture) - spot * math.exp(rate * maturity)
    if abs(gap) > 1e-9 * spot:
        return f"martingale gap {gap:.3e}"
    return None


def check_persistence(got: float, truth: float) -> str | None:
    if abs(got - truth) > 0.05:
        return f"GARCH persistence {got:.4f}, simulated with {truth:.4f}"
    return None


def check_scan(lams, trader, manager, payoff_base, payoff_ray, weights, eta: float) -> str | None:
    """Along the ray the limited-liability utility rises and the risk
    manager's falls, and both match a recomputation to 1e-9."""
    w = np.asarray(weights, float)
    for lam, t, m in zip(lams, trader, manager):
        y = np.asarray(payoff_base, float) + lam * np.asarray(payoff_ray, float)
        t_ref = float(w @ np.maximum(y, 0.0))
        m_ref = -float(w @ np.maximum(-y, 0.0) ** eta)
        if abs(t - t_ref) > 1e-9 * max(1.0, abs(t_ref)) or abs(m - m_ref) > 1e-9 * max(1.0, abs(m_ref)):
            return f"utilities at lam={lam:g} differ from recomputation"
    if not all(b > a for a, b in zip(trader, trader[1:])):
        return "trader utility does not grow along the ray"
    if not all(b < a for a, b in zip(manager, manager[1:])):
        return "risk manager utility does not fall along the ray"
    return None


def check_bounded(values) -> str | None:
    """Capped suprema over caps decades apart stay bounded (under 1 %
    growth end to end) when the market has no true arbitrage."""
    if values[-1] / values[0] - 1.0 >= 0.01:
        return f"capped supremum grows {values[-1] / values[0]:.4f}x without a true arbitrage"
    return None


def check_growth(values) -> str | None:
    """With a true arbitrage planted they grow at least 8x per decade."""
    ratios = [b / a for a, b in zip(values, values[1:])]
    if min(ratios) < 8.0:
        return f"planted supremum grows only {min(ratios):.2f}x per decade"
    return None


def check_same_bytes(first: bytes, second: bytes) -> str | None:
    if first != second:
        return "repeated seeded run wrote different bytes"
    return None
