"""ES_p-arbitrage detection: hinge LP construction, solvers, verdicts, thresholds.

The detection LP minimizes alpha + (1/p) sum w_i u_i over (alpha, x, u) with
u_i >= -f(Omega_i).x - alpha, u_i >= 0, prices.x <= 0 and box bounds on x;
its optimum is the least expected shortfall reachable at non-positive
cost. Verdicts use a two-phase rule: a strictly negative optimum is an
arbitrage outright, an optimum at the zero boundary is confirmed by a second
LP maximizing expected payoff subject to the linearized ES <= 0 rows.
Markets with many scenarios and few legs solve both LPs with one Kelley
cutting-plane loop over the portfolio block; the confirmation starts from
the cuts phase 1 found.

The smallest arbitrage level comes from the dual side: over the ES dual set
{0 <= q <= 1/p, E_w q = 1}, the least ES is strictly negative iff no pricing
density q has max q <= 1/p, so one LP for the least max q gives the
threshold and `detect` settles the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sparse
from scipy.optimize import linprog

from .market import MarketSnapshot, Portfolio
from .risk import RiskLevel, as_level, tail_envelope

_CUT_LEGS = 64
_CUT_SCENARIOS = 600
_HIGHS_OPTS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}
_GAP_TOL = 1e-10
_MAX_CUTS = 2000


class SolverError(RuntimeError):
    """Raised when no solver path produces a certified solution."""


@dataclass(frozen=True)
class LpProblem:
    """The materializable LP plus the structured blocks it was built from.

    Variable layout: index 0 is alpha (free), the next n_legs entries are the
    portfolio block, the remaining n_scenarios entries are the hinge
    auxiliaries (lower bound 0). Rows: one cost row then one hinge row per
    scenario; for kind "max_expected" an ES row is appended.

    cuts pools the ES support lines (g, h), es(x') >= g.x' + h, that the
    cutting-plane path finds for this problem; `_confirmation_lp` hands
    them on to the confirmation LP at the same level.
    """

    kind: str  # "min_es" | "max_expected"
    payoffs: np.ndarray  # n_scenarios x n_legs
    weights: np.ndarray
    prices: np.ndarray
    level: RiskLevel
    upper_bound: float
    cuts: list = field(default_factory=list, init=False, compare=False, repr=False)

    @property
    def n_legs(self) -> int:
        return self.payoffs.shape[1]

    @property
    def n_scenarios(self) -> int:
        return self.payoffs.shape[0]

    @property
    def n_variables(self) -> int:
        return 1 + self.n_legs + self.n_scenarios

    @cached_property
    def objective(self) -> np.ndarray:
        n_s = self.n_scenarios
        if self.kind == "min_es":
            return np.concatenate([[1.0], np.zeros(self.n_legs), self.weights / self.level.p])
        # maximize expected payoff == minimize its negation
        return np.concatenate([[0.0], -(self.payoffs.T @ self.weights), np.zeros(n_s)])

    @cached_property
    def constraint_matrix(self) -> sparse.csr_matrix:
        n_s, n_l = self.n_scenarios, self.n_legs
        cost = sparse.csr_matrix(
            (self.prices, (np.zeros(n_l, dtype=int), 1 + np.arange(n_l))),
            shape=(1, self.n_variables),
        )
        hinge = sparse.hstack(
            [
                sparse.csr_matrix(-np.ones((n_s, 1))),
                sparse.csr_matrix(-self.payoffs),
                -sparse.eye(n_s, format="csr"),
            ],
            format="csr",
        )
        blocks = [cost, hinge]
        if self.kind == "max_expected":
            es_row = np.concatenate([[1.0], np.zeros(n_l), self.weights / self.level.p])
            blocks.append(sparse.csr_matrix(es_row[None, :]))
        return sparse.vstack(blocks, format="csr")

    @cached_property
    def rhs(self) -> np.ndarray:
        extra = 1 if self.kind == "max_expected" else 0
        return np.zeros(1 + self.n_scenarios + extra)

    @cached_property
    def lower_bounds(self) -> np.ndarray:
        lo = np.zeros(self.n_variables)
        lo[0] = -math.inf
        return lo

    @cached_property
    def upper_bounds(self) -> np.ndarray:
        hi = np.full(self.n_variables, math.inf)
        hi[1 : 1 + self.n_legs] = self.upper_bound
        return hi


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    optimal_value: float
    x: np.ndarray | None
    method: str


@dataclass(frozen=True)
class Confirmation:
    max_expected_payoff: float


@dataclass(frozen=True)
class DetectionResult:
    level: RiskLevel
    min_es: float
    portfolio: Portfolio
    alpha_star: float
    arbitrage: bool
    confirmation: Confirmation | None


@dataclass(frozen=True)
class MinPResult:
    p_star: float | None
    status: str  # "found" | "none in bracket" | "at or below bracket"
    evaluations: int


def _merged_blocks(market: MarketSnapshot, merge: bool):
    payoffs = market.payoff_matrix() + 0.0  # normalize -0.0 so merged rows carry +0.0
    weights = market.scenarios.weights
    if merge:
        # sort rows lexicographically (first column major), then sum the
        # weights of each run of equal adjacent rows
        order = np.lexsort(payoffs.T[::-1])
        rows = payoffs[order]
        starts = np.flatnonzero(
            np.concatenate([[True], (rows[1:] != rows[:-1]).any(axis=1)])
        )
        merged_w = np.add.reduceat(weights[order], starts)
        keep = merged_w > 0
        payoffs, weights = rows[starts[keep]], merged_w[keep]
    return payoffs, weights


def build_lp(
    market: MarketSnapshot,
    level: RiskLevel | float,
    merge_scenarios: bool = True,
) -> LpProblem:
    """Assemble the hinge LP for the market at the given level.

    Scenarios with identical payoff rows are merged by summing their weights
    (identical hinge rows share one auxiliary variable, which is exact); pass
    merge_scenarios=False to keep the raw one-row-per-scenario form.
    """
    level = as_level(level)
    payoffs, weights = _merged_blocks(market, merge_scenarios)
    return LpProblem(
        kind="min_es",
        payoffs=payoffs,
        weights=weights,
        prices=market.prices(),
        level=level,
        upper_bound=market.upper_bound,
    )


def _confirmation_lp(problem: LpProblem) -> LpProblem:
    conf = replace(problem, kind="max_expected")
    conf.cuts.extend(problem.cuts)  # every support line of ES also cuts ES <= 0
    return conf


def _full_vector(problem: LpProblem, x: np.ndarray, alpha: float) -> np.ndarray:
    """Assemble (alpha, x, u); alpha is VaR_p of the payoff at x, the
    attaining quantile, taken from the sort that priced x."""
    u = np.maximum(-(problem.payoffs @ x) - alpha, 0.0)
    return np.concatenate([[alpha], x, u])


def _check_residuals(problem: LpProblem, v: np.ndarray) -> None:
    """Certify (alpha, x, u) row block by row block, without the matrix:
    each row's residual is scaled by 1 + sum |a_ij v_j| over its entries."""
    n_l = problem.n_legs
    alpha, x, u = float(v[0]), v[1 : 1 + n_l], v[1 + n_l :]
    abs_x = np.abs(x)
    resid = [[problem.prices @ x], -alpha - problem.payoffs @ x - u]
    scale = [
        [np.abs(problem.prices) @ abs_x],
        abs(alpha) + np.abs(problem.payoffs) @ abs_x + np.abs(u),
    ]
    if problem.kind == "max_expected":
        tail = problem.weights / problem.level.p
        resid.append([alpha + tail @ u])
        scale.append([abs(alpha) + tail @ np.abs(u)])
    worst = float((np.concatenate(resid) / (1.0 + np.concatenate(scale))).max(initial=0.0))
    bound_viol = max(
        float((-v[1:]).max(initial=0.0)), float((x - problem.upper_bound).max(initial=0.0))
    )
    if worst > 1e-9 or bound_viol > 1e-9 * (1.0 + float(np.abs(v).max())):
        raise SolverError(
            f"numerical failure: residual {worst:.3e}, bound violation {bound_viol:.3e}"
        )


def _linprog_highs(c, A_ub, b_ub, bounds, **equalities):
    """HiGHS at tight tolerances, retried once at stock tolerances when it
    ends without a verdict (neither optimal, infeasible nor unbounded)."""
    for opts in (dict(_HIGHS_OPTS), {}):
        res = linprog(
            c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs", options=opts, **equalities
        )
        if res.status in (0, 2, 3):
            break
    return res


def _solve_highs(problem: LpProblem) -> LpSolution:
    bounds = np.column_stack([problem.lower_bounds, problem.upper_bounds])
    res = _linprog_highs(problem.objective, problem.constraint_matrix, problem.rhs, bounds)
    if res.status == 2:
        return LpSolution("infeasible", math.nan, None, "highs")
    if res.status == 3:
        return LpSolution("unbounded", -math.inf, None, "highs")
    if res.status == 0:
        return LpSolution("optimal", float(res.fun), res.x, "highs")
    raise SolverError(f"numerical failure: HiGHS status {res.status}: {res.message}")


def _solve_cuts(problem: LpProblem) -> LpSolution | None:
    """Kelley cutting planes on the portfolio block, for either LP kind.

    Each cut is the support line es(x') >= g.x' + h of ES at an iterate,
    g = -(F.T q) from the envelope point q there; it joins the problem's
    pool, and an empty pool is seeded at x = 0. The master over (x, t) has
    rows g.x - t <= -h and prices.x <= 0 with x in the box. "min_es"
    minimizes t (free) and stops once the best ES seen is within the gap
    tolerance of the master's lower bound: the master dual mixes envelope
    points into a dual-feasible certificate. "max_expected" fixes t = 0,
    maximizes expected payoff and stops at the first master point whose ES
    is <= 0 up to 1e-10 of the payoff scale. None means a master failed or
    the cut budget ran out; the caller falls back to HiGHS.
    """
    F, w, p = problem.payoffs, problem.weights, problem.level.p
    n_l = problem.n_legs
    min_es = problem.kind == "min_es"
    if min_es:
        c, t_bounds = np.concatenate([np.zeros(n_l), [1.0]]), (None, None)
    else:
        c, t_bounds = np.concatenate([-(F.T @ w), [0.0]]), (0.0, 0.0)
    bounds = [(0.0, problem.upper_bound)] * n_l + [t_bounds]
    cost_row = np.concatenate([problem.prices, [0.0]])
    es_tol = 1e-10 * (1.0 + float(np.abs(F).max(initial=0.0)) * problem.upper_bound)
    cuts = problem.cuts
    x = None if cuts else np.zeros(n_l)
    lower, best, best_x, best_alpha = None, math.inf, None, None
    for _ in range(_MAX_CUTS):
        if x is not None:
            es, q, alpha = tail_envelope(F @ x, w, p)
            if es < best:
                best, best_x, best_alpha = es, x, alpha
            if min_es:
                done = lower is not None and best - lower <= _GAP_TOL * max(1.0, abs(best))
            else:  # never accept the unsolved start
                done = lower is not None and es <= es_tol
            if done:
                if min_es:
                    x, alpha = best_x, best_alpha
                v = _full_vector(problem, x, alpha)
                return LpSolution("optimal", float(problem.objective @ v), v, "cutting_plane")
            g = -(F.T @ q)
            cuts.append((g, es - g @ x))
        A = np.array([np.append(g, -1.0) for g, _ in cuts] + [cost_row])
        b = np.array([-h for _, h in cuts] + [0.0])
        res = _linprog_highs(c, A, b, bounds)
        if res.status != 0:
            return None
        x, lower = res.x[:n_l], float(res.fun)
    return None


def solve_lp(problem: LpProblem, solver: str = "auto") -> LpSolution:
    """Solve the LP to a certified optimum (objective within 1e-9, residuals
    within 1e-9 relative), deterministically.

    solver: "auto" takes the cutting-plane path (`_solve_cuts`, one loop for
    both LP kinds) for markets with many scenarios and few legs: its master
    LPs stay tiny while each cut is one sort of the scenarios, and a
    confirmation LP from `_confirmation_lp` starts from the cuts its
    detection LP found. Sparse HiGHS takes everything else; "cuts" and
    "highs" force a path. HiGHS also answers when the cutting planes fail.
    """
    if solver not in ("auto", "cuts", "highs"):
        raise ValueError(f"unknown solver {solver!r}")
    solution: LpSolution | None = None
    if solver == "cuts" or (
        solver == "auto"
        and problem.n_legs <= _CUT_LEGS
        and problem.n_scenarios >= _CUT_SCENARIOS
    ):
        solution = _solve_cuts(problem)
    if solution is None:
        solution = _solve_highs(problem)
    if solution.status == "optimal":
        _check_residuals(problem, solution.x)
    return solution


def arbitrage_epsilon(market: MarketSnapshot) -> float:
    """Strict-negativity threshold: 1e-6 of the market's payoff scale."""
    biggest = max((float(np.abs(leg.payoff).max(initial=0.0)) for leg in market.legs), default=0.0)
    return 1e-6 * max(market.spot, biggest)


def detect(
    market: MarketSnapshot,
    level: RiskLevel | float,
    solver: str = "auto",
) -> DetectionResult:
    """Decide whether the market admits an ES_p-arbitrage at the given level.

    Phase 1 minimizes ES at non-positive cost; a strictly negative optimum
    settles the verdict (ES_p >= E[-X], so negative ES forces positive
    expected payoff). A boundary optimum within epsilon of zero is passed to
    the confirmation LP, which maximizes expected payoff subject to ES <= 0;
    arbitrage holds iff that maximum is positive. When the verdict comes from
    the confirmation phase, the reported portfolio is the confirmation
    maximizer so that it always witnesses the verdict.
    """
    level = as_level(level)
    problem = build_lp(market, level)
    solution = solve_lp(problem, solver=solver)
    if solution.status != "optimal":
        raise SolverError(f"detection LP ended with status {solution.status}")
    eps = arbitrage_epsilon(market)
    n_l = problem.n_legs
    min_es = solution.optimal_value
    alpha_star = float(solution.x[0])
    quantities = np.clip(solution.x[1 : 1 + n_l], 0.0, market.upper_bound)
    confirmation = None
    if min_es < -eps:
        arbitrage = True
    else:
        conf = solve_lp(_confirmation_lp(problem), solver=solver)
        if conf.status != "optimal":
            raise SolverError(f"confirmation LP ended with status {conf.status}")
        max_expected = 0.0 - conf.optimal_value  # a zero maximum reads +0.0, not -0.0
        confirmation = Confirmation(max_expected_payoff=max_expected)
        arbitrage = max_expected > eps
        if arbitrage:
            quantities = np.clip(conf.x[1 : 1 + n_l], 0.0, market.upper_bound)
    return DetectionResult(
        level=level,
        min_es=min_es,
        portfolio=Portfolio(quantities, upper_bound=market.upper_bound),
        alpha_star=alpha_star,
        arbitrage=arbitrage,
        confirmation=confirmation,
    )


def _check_density(problem: LpProblem, q: np.ndarray, lam: float) -> None:
    """Certify a pricing density without trusting the solver: q >= 0,
    lam >= 0, E_w q = 1 and E_w[q f_j] <= lam price_j for every leg, each
    within 1e-9 relative."""
    F, w, prices = problem.payoffs, problem.weights, problem.prices
    priced = F.T @ (w * q) - lam * prices
    scale = 1.0 + np.abs(F).T @ (w * np.abs(q)) + abs(lam) * np.abs(prices)
    worst = float((priced / scale).max(initial=0.0))
    mass_err = abs(float(w @ q) - 1.0) / (1.0 + float(w @ np.abs(q)))
    sign_viol = max(float((-q).max(initial=0.0)), -lam)
    if worst > 1e-9 or mass_err > 1e-9 or sign_viol > 1e-9 * (1.0 + float(np.abs(q).max())):
        raise SolverError(
            f"numerical failure: pricing residual {worst:.3e}, mass error {mass_err:.3e}, "
            f"sign violation {sign_viol:.3e}"
        )


def _threshold_density(problem: LpProblem) -> np.ndarray:
    """Checked pricing density q with the least max_i q_i.

    Solves min t over (q, lam, t) subject to q_i <= t, E_w q = 1 and
    E_w[q f_j] <= lam price_j for every leg, with q, lam >= 0. Any such q
    with max q <= 1/p lies in the ES dual set at level p and prices every
    portfolio of non-positive cost at <= 0, so it certifies ES >= 0 there;
    by LP duality the least ES at non-positive cost is strictly negative
    exactly when p > 1/t*.
    """
    F, w, prices = problem.payoffs, problem.weights, problem.prices
    n_s, n_l = problem.n_scenarios, problem.n_legs
    A_ub = sparse.vstack(
        [
            sparse.hstack(
                [sparse.eye(n_s), sparse.csr_matrix((n_s, 1)), -np.ones((n_s, 1))]
            ),
            sparse.hstack(
                [sparse.csr_matrix(F.T * w), -prices[:, None], sparse.csr_matrix((n_l, 1))]
            ),
        ],
        format="csr",
    )
    res = _linprog_highs(
        np.concatenate([np.zeros(n_s + 1), [1.0]]),
        A_ub,
        np.zeros(n_s + n_l),
        [(0.0, None)] * (n_s + 1) + [(None, None)],
        A_eq=np.concatenate([w, [0.0, 0.0]])[None, :],
        b_eq=[1.0],
    )
    if res.status != 0:
        raise SolverError(f"threshold LP ended with HiGHS status {res.status}: {res.message}")
    q, lam = res.x[:n_s], float(res.x[n_s])
    _check_density(problem, q, lam)
    return q


def min_p(
    market: MarketSnapshot,
    bracket: tuple[float, float] = (1e-4, 0.5),
    tol: float = 1e-4,
) -> MinPResult:
    """Smallest level in the bracket admitting arbitrage, from the threshold LP.

    Above p0 = 1 / min max q (see `_threshold_density`) the least ES at
    non-positive cost is strictly negative. Below p0 only a true arbitrage
    (X >= 0, cost <= 0, E X > 0) is possible, and it exists at every level
    once it exists at all, so `detect` at lo settles "at or below bracket".
    Otherwise p* is p0 when `detect` confirms arbitrage there, else
    min(p0 + tol, hi) when `detect` confirms it there: tol bounds how far p*
    sits above the threshold. A threshold that no `detect` confirms raises
    SolverError. `evaluations` counts the LPs and detects solved (at most 4).
    """
    lo, hi = bracket
    if not (0.0 < lo < hi < 1.0):
        raise ValueError(f"invalid bracket {bracket}")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if detect(market, lo).arbitrage:
        return MinPResult(p_star=lo, status="at or below bracket", evaluations=1)
    p0 = max(1.0 / float(_threshold_density(build_lp(market, lo)).max()), lo)
    evals = 2
    if p0 > hi:
        return MinPResult(p_star=None, status="none in bracket", evaluations=evals)
    for p in (p0, min(p0 + tol, hi)):
        evals += 1
        if detect(market, p).arbitrage:
            return MinPResult(p_star=p, status="found", evaluations=evals)
    raise SolverError(f"no arbitrage confirmed at the threshold p0 = {p0!r} or tol above it")
