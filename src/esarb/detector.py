"""ES_p-arbitrage detection: hinge LP construction, solvers, verdicts, thresholds.

The detection LP minimizes alpha + (1/p) sum w_i u_i over (alpha, x, u) with
u_i >= -f(Omega_i).x - alpha, u_i >= 0, prices.x <= 0 and box bounds on x;
its optimum is the least expected shortfall reachable at non-positive
cost. Every LP trades one column per frictionless long/short pair (payoffs
and prices exact negations, payoffs not constant), a net quantity in
[-B, B]; the pair's two legs enter every row only through their
difference, so this is exact. Verdicts
use a two-phase rule: a strictly negative optimum is an arbitrage outright,
an optimum at the zero boundary is confirmed by a second LP maximizing
expected payoff subject to the linearized ES <= 0 rows.
The solver path follows from the market's size alone, with no override:
markets with at most 64 columns and at least 600 scenarios (after merging
identical payoff rows) solve both LPs with one Kelley cutting-plane loop
over the portfolio block, and the confirmation starts from the cuts phase 1
found. Every other market goes to sparse HiGHS, which is also the fallback
when the cutting planes fail.

The smallest arbitrage level comes from the dual side, over the ES dual set
{0 <= q <= 1/p, E_w q = 1}. There is no arbitrage at p iff some pricing
density lies strictly inside it, 0 < q < 1/p (the margin LP decides this
at the bracket's lower end), and the least ES at non-positive cost is
strictly negative iff no pricing density has max q <= 1/p, so one LP for
the least max q gives the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sparse
from scipy.optimize import linprog

from .market import MarketSnapshot, Portfolio
from .risk import RiskLevel, as_level, lex_order, tail_envelope

_CUT_LEGS = 64
_CUT_SCENARIOS = 600
_HIGHS_OPTS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}
_GAP_TOL = 1e-10
_MARGIN_TOL = 1e-7  # least margin s that the margin LP trusts over `detect`
_MAX_CUTS = 2000


class SolverError(RuntimeError):
    """Raised when no solver path produces a certified solution."""


@dataclass(frozen=True)
class LpProblem:
    """The materializable LP plus the structured blocks it was built from.

    Variable layout: index 0 is alpha (free), the next n_legs entries are the
    portfolio columns, the remaining n_scenarios entries are the hinge
    auxiliaries (lower bound 0). Column k trades market leg legs[k] in
    [0, upper_bound]; when shorts[k] >= 0 it is the net position of the
    frictionless pair (legs[k], shorts[k]) and its lower bound is
    -upper_bound. Rows: one cost row then one hinge row per scenario; for
    kind "max_expected" an ES row is appended.

    cuts pools the ES support lines (g, h), es(x') >= g.x' + h, that the
    cutting-plane path finds for this problem; `_confirmation_lp` hands
    them on to the confirmation LP at the same level.
    """

    kind: str  # "min_es" | "max_expected"
    payoffs: np.ndarray  # n_scenarios x n_legs (portfolio columns)
    weights: np.ndarray
    prices: np.ndarray
    level: RiskLevel
    upper_bound: float
    legs: np.ndarray  # column -> market leg (a pair's long leg)
    shorts: np.ndarray  # column -> the pair's short leg, -1 for a single leg
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
    def x_lower(self) -> np.ndarray:
        return np.where(self.shorts >= 0, -self.upper_bound, 0.0)

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
        lo[1 : 1 + self.n_legs] = self.x_lower
        return lo

    @cached_property
    def upper_bounds(self) -> np.ndarray:
        hi = np.full(self.n_variables, math.inf)
        hi[1 : 1 + self.n_legs] = self.upper_bound
        return hi

    def leg_quantities(self, x: np.ndarray) -> np.ndarray:
        """Per-leg quantities in [0, upper_bound] for portfolio columns x: a
        pair's positive net value goes to its long leg, a negative one to
        its short leg, and the other leg holds +0.0."""
        x = np.clip(x, self.x_lower, self.upper_bound)
        net = self.shorts >= 0
        qty = np.zeros(self.n_legs + int(net.sum()))
        qty[self.legs] = np.maximum(x, 0.0)
        qty[self.shorts[net]] = np.maximum(-x[net], 0.0)
        return qty + 0.0  # a zero quantity reads +0.0, never -0.0


@dataclass(frozen=True)
class LpSolution:
    """An optimum of one LP; `solve_lp` certifies it. Both LP kinds are
    feasible at x = 0 and bounded (x lies in a box and p < 1), so a solve
    returns an optimum or raises SolverError."""

    optimal_value: float
    x: np.ndarray
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


def _merged_blocks(market: MarketSnapshot):
    """Distinct payoff rows and their summed weights, dropping rows whose
    weight sums to 0. Rows come in lexicographic order (first column
    major, equal rows by scenario index), and -0.0 entries read +0.0.

    The order comes from `lex_order` on a view of the columns from the
    first one that varies (a constant column never breaks a tie, and
    leading constant ones would make every row tie on the first key);
    runs of equal rows are found from those columns, and only the kept
    rows are gathered, so no sorted copy of the whole matrix is made."""
    payoffs = market.payoff_matrix() + 0.0  # normalize -0.0 so merged rows carry +0.0
    varies = (payoffs != payoffs[:1]).any(axis=0)
    keys = payoffs.T[np.argmax(varies) :]  # every column when none varies: one run
    order = lex_order(keys)
    new_run = np.zeros(len(order) - 1, dtype=bool)
    for col in keys:
        s = col[order]
        new_run |= s[1:] != s[:-1]
    starts = np.flatnonzero(np.concatenate([[True], new_run]))
    merged_w = np.add.reduceat(market.scenarios.weights[order], starts)
    keep = merged_w > 0
    return np.take(payoffs, order[starts[keep]], axis=0), merged_w[keep]


def _net_columns(payoffs: np.ndarray, prices: np.ndarray):
    """Pair each leg with an earlier unpaired leg whose (merged) payoff
    column and price are its exact negation. Returns (legs, shorts): one
    entry per LP column, at its first leg's position; shorts is -1 for a
    leg left single.

    A pair with a constant payoff (cash, a bond) stays two legs: its net
    column would be parallel to alpha's in every hinge row, and at the
    exact threshold HiGHS then returned vertices that miss a bound by up
    to 4e-8 (15 of 3596 random 40-scenario option markets)."""
    cols = np.ascontiguousarray(payoffs.T)
    varies = (cols != cols[:, :1]).any(axis=1)
    waiting: dict = {}  # (price, payoff bytes) -> columns whose leg awaits its negation
    legs, shorts = [], []
    for j, price in enumerate(prices.tolist()):
        match = None
        if varies[j]:
            # +0.0: a zero entry or price of either sign keys as +0.0
            match = waiting.get((-price + 0.0, (-cols[j] + 0.0).tobytes()))
            if not match:
                waiting.setdefault((price + 0.0, cols[j].tobytes()), []).append(len(legs))
        if match:
            shorts[match.pop(0)] = j
        else:
            legs.append(j)
            shorts.append(-1)
    return np.array(legs, dtype=int), np.array(shorts, dtype=int)


def build_lp(market: MarketSnapshot, level: RiskLevel | float) -> LpProblem:
    """Assemble the hinge LP for the market at the given level.

    Scenarios with identical payoff rows are merged by summing their weights
    (identical hinge rows share one auxiliary variable, which is exact), and
    each frictionless pair of legs becomes one net column (see `LpProblem`).
    """
    level = as_level(level)
    payoffs, weights = _merged_blocks(market)
    prices = market.prices()
    legs, shorts = _net_columns(payoffs, prices)
    return LpProblem(
        kind="min_es",
        payoffs=payoffs[:, legs],
        weights=weights,
        prices=prices[legs],
        level=level,
        upper_bound=market.upper_bound,
        legs=legs,
        shorts=shorts,
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
        float((problem.lower_bounds[1:] - v[1:]).max(initial=0.0)),
        float((v[1:] - problem.upper_bounds[1:]).max(initial=0.0)),
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
    if res.status != 0:
        raise SolverError(f"numerical failure: HiGHS status {res.status}: {res.message}")
    return LpSolution(float(res.fun), res.x, "highs")


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
    bounds = [(lo, problem.upper_bound) for lo in problem.x_lower] + [t_bounds]
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
                return LpSolution(float(problem.objective @ v), v, "cutting_plane")
            g = -(F.T @ q)
            cuts.append((g, es - g @ x))
        A = np.array([np.append(g, -1.0) for g, _ in cuts] + [cost_row])
        b = np.array([-h for _, h in cuts] + [0.0])
        res = _linprog_highs(c, A, b, bounds)
        if res.status != 0:
            return None
        x, lower = res.x[:n_l], float(res.fun)
    return None


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve the LP to a certified optimum (objective within 1e-9, residuals
    within 1e-9 relative), deterministically.

    The path follows from the problem's size, with no override. At most 64
    legs and at least 600 (merged) scenarios take the cutting-plane path
    (`_solve_cuts`, one loop for both LP kinds): its master LPs stay tiny
    while each cut is one sort of the scenarios, and a confirmation LP from
    `_confirmation_lp` starts from the cuts its detection LP found. Sparse
    HiGHS takes everything else, and also answers when the cutting planes
    fail. Every solution passes `_check_residuals` or raises SolverError.
    """
    solution = None
    if problem.n_legs <= _CUT_LEGS and problem.n_scenarios >= _CUT_SCENARIOS:
        solution = _solve_cuts(problem)
    if solution is None:
        solution = _solve_highs(problem)
    _check_residuals(problem, solution.x)
    return solution


def arbitrage_epsilon(market: MarketSnapshot) -> float:
    """Strict-negativity threshold: 1e-6 of the market's payoff scale."""
    biggest = max((float(np.abs(leg.payoff).max(initial=0.0)) for leg in market.legs), default=0.0)
    return 1e-6 * max(market.spot, biggest)


def detect(market: MarketSnapshot, level: RiskLevel | float) -> DetectionResult:
    """Decide whether the market admits an ES_p-arbitrage at the given level.

    Phase 1 minimizes ES at non-positive cost; a strictly negative optimum
    settles the verdict (ES_p >= E[-X], so negative ES forces positive
    expected payoff). A boundary optimum within epsilon of zero is passed to
    the confirmation LP, which maximizes expected payoff subject to ES <= 0;
    arbitrage holds iff that maximum is positive. When the verdict comes from
    the confirmation phase, the reported portfolio is the confirmation
    maximizer so that it always witnesses the verdict. Both LPs take the
    solver path `solve_lp` picks from the market's size; there is no override.
    """
    level = as_level(level)
    problem = build_lp(market, level)
    solution = solve_lp(problem)
    eps = arbitrage_epsilon(market)
    n_l = problem.n_legs
    min_es = solution.optimal_value + 0.0  # +0.0: no field reads -0.0
    alpha_star = float(solution.x[0]) + 0.0
    quantities = problem.leg_quantities(solution.x[1 : 1 + n_l])
    confirmation = None
    if min_es < -eps:
        arbitrage = True
    else:
        conf = solve_lp(_confirmation_lp(problem))
        max_expected = 0.0 - conf.optimal_value  # a zero maximum reads +0.0, not -0.0
        confirmation = Confirmation(max_expected_payoff=max_expected)
        arbitrage = max_expected > eps
        if arbitrage:
            quantities = problem.leg_quantities(conf.x[1 : 1 + n_l])
    return DetectionResult(
        level=level,
        min_es=min_es,
        portfolio=Portfolio(quantities, upper_bound=market.upper_bound),
        alpha_star=alpha_star,
        arbitrage=arbitrage,
        confirmation=confirmation,
    )


def _check_density(problem: LpProblem, q: np.ndarray, lam: float, strict: bool = False) -> None:
    """Certify a pricing density without trusting the solver: q >= 0,
    lam >= 0, E_w q = 1 and E_w[q f_j] <= lam price_j for every column
    (with equality for a netted pair, whose short leg prices -f_j), each
    within 1e-9 relative. With strict, q must also lie strictly inside the
    ES dual set at the problem's level: 0 < q_i < 1/p. O(n_scenarios *
    n_legs)."""
    F, w, prices = problem.payoffs, problem.weights, problem.prices
    priced = F.T @ (w * q) - lam * prices
    priced = np.where(problem.shorts >= 0, np.abs(priced), priced)
    scale = 1.0 + np.abs(F).T @ (w * np.abs(q)) + abs(lam) * np.abs(prices)
    worst = float((priced / scale).max(initial=0.0))
    mass_err = abs(float(w @ q) - 1.0) / (1.0 + float(w @ np.abs(q)))
    sign_viol = max(float((-q).max(initial=0.0)), -lam)
    if worst > 1e-9 or mass_err > 1e-9 or sign_viol > 1e-9 * (1.0 + float(np.abs(q).max())):
        raise SolverError(
            f"numerical failure: pricing residual {worst:.3e}, mass error {mass_err:.3e}, "
            f"sign violation {sign_viol:.3e}"
        )
    if strict and not (q.min() > 0.0 and q.max() < 1.0 / problem.level.p):
        raise SolverError(
            f"numerical failure: density range [{q.min():.3e}, {q.max():.3e}] is not strictly "
            f"inside (0, 1/p) at p = {problem.level.p!r}"
        )


def _density_lp(problem: LpProblem, rows, rhs, z_cost: float):
    """HiGHS over (q, lam, z) with q, lam >= 0 and z free: minimize
    z_cost * z subject to the caller's rows over (q, lam, z) <= rhs, the
    pricing rows E_w[q f_j] <= lam price_j (equalities for netted pairs)
    and the mass row E_w q = 1."""
    F, w, prices = problem.payoffs, problem.weights, problem.prices
    n_s = problem.n_scenarios
    net = problem.shorts >= 0
    pricing = sparse.hstack(
        [sparse.csr_matrix(F.T * w), -prices[:, None], sparse.csr_matrix((problem.n_legs, 1))],
        format="csr",
    )
    return _linprog_highs(
        np.concatenate([np.zeros(n_s + 1), [z_cost]]),
        sparse.vstack([rows, pricing[~net]], format="csr"),
        np.concatenate([rhs, np.zeros(int((~net).sum()))]),
        [(0.0, None)] * (n_s + 1) + [(None, None)],
        A_eq=sparse.vstack([pricing[net], np.concatenate([w, [0.0, 0.0]])[None, :]], format="csr"),
        b_eq=np.concatenate([np.zeros(int(net.sum())), [1.0]]),
    )


def _threshold_density(problem: LpProblem) -> np.ndarray:
    """Checked pricing density q with the least max_i q_i.

    Solves min t over (q, lam, t) subject to q_i <= t and the pricing and
    mass rows of `_density_lp`. Any such q with max q <= 1/p lies in the ES
    dual set at level p and prices every portfolio of non-positive cost at
    <= 0, so it certifies ES >= 0 there; by LP duality the least ES at
    non-positive cost is strictly negative exactly when p > 1/t*.
    """
    n_s = problem.n_scenarios
    rows = sparse.hstack([sparse.eye(n_s), sparse.csr_matrix((n_s, 1)), -np.ones((n_s, 1))])
    res = _density_lp(problem, rows, np.zeros(n_s), 1.0)
    if res.status != 0:
        raise SolverError(f"threshold LP ended with HiGHS status {res.status}: {res.message}")
    q, lam = res.x[:n_s], float(res.x[n_s])
    _check_density(problem, q, lam)
    return q


def _margin_density(problem: LpProblem) -> np.ndarray | None:
    """Checked pricing density strictly inside the ES dual set at the
    problem's level, or None when the margin LP finds none.

    Solves max s over (q, lam, s) subject to s <= q_i <= 1/p - (1/p - 1) s
    and the pricing and mass rows of `_density_lp`. With s > 0, for small
    eps the density (1 + eps) q - eps also lies in the dual set, so
    ES_p(F x) >= eps E[F x] for every x at non-positive cost: no
    ES_p-arbitrage at p. Conversely, with no arbitrage at p some density
    has s > 0. None (no optimum, or a gap s or (1/p - 1) s to either end of
    (0, 1/p) within _MARGIN_TOL) leaves the verdict to `detect`; a q that
    fails `_check_density` raises SolverError.
    """
    n_s, inv_p = problem.n_scenarios, 1.0 / problem.level.p
    eye, lam_col = sparse.eye(n_s), sparse.csr_matrix((n_s, 1))
    rows = sparse.vstack(
        [
            sparse.hstack([-eye, lam_col, np.ones((n_s, 1))]),
            sparse.hstack([eye, lam_col, np.full((n_s, 1), inv_p - 1.0)]),
        ],
        format="csr",
    )
    res = _density_lp(problem, rows, np.concatenate([np.zeros(n_s), np.full(n_s, inv_p)]), -1.0)
    # both sides of the range must clear q by more than the tolerance
    if res.status != 0 or min(1.0, inv_p - 1.0) * res.x[-1] <= _MARGIN_TOL:
        return None
    q, lam = res.x[:n_s], float(res.x[n_s])
    _check_density(problem, q, lam, strict=True)
    return q


def min_p(
    market: MarketSnapshot,
    bracket: tuple[float, float] = (1e-4, 0.5),
    tol: float = 1e-4,
) -> MinPResult:
    """Smallest level in the bracket admitting arbitrage, from pricing densities.

    At lo, the margin LP (`_margin_density`) either certifies no arbitrage
    with a density strictly inside the ES dual set or leaves the verdict to
    `detect(lo)`, whose arbitrage means "at or below bracket". Otherwise
    the threshold LP (`_threshold_density`) gives p0 = 1 / min max q: above
    p0 the least ES at non-positive cost is strictly negative, at p0 no
    density lies strictly inside the dual set, so p0 itself admits
    arbitrage. p* = p0 once the confirmation LP at p0 (maximum expected
    payoff subject to ES <= 0, on the LP built at lo) exceeds
    `arbitrage_epsilon`, else SolverError. `detect`'s phase 1 is not
    needed there: the threshold density certifies ES >= 0 at p0, and a
    portfolio with ES < -eps would also have expected payoff > eps.
    p0 > hi is "none in bracket". tol must be > 0 but no longer moves p*;
    it stays for callers that pass it. `evaluations` counts the LPs and
    detects solved: 3 when the margin LP certifies lo, at most 4.
    """
    lo, hi = bracket
    if not (0.0 < lo < hi < 1.0):
        raise ValueError(f"invalid bracket {bracket}")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    problem = build_lp(market, lo)
    evals = 1
    if _margin_density(problem) is None:
        evals += 1
        if detect(market, lo).arbitrage:
            return MinPResult(p_star=lo, status="at or below bracket", evaluations=evals)
    p0 = max(1.0 / float(_threshold_density(problem).max()), lo)
    evals += 1
    if p0 > hi:
        return MinPResult(p_star=None, status="none in bracket", evaluations=evals)
    confirmation = solve_lp(replace(problem, level=as_level(p0), kind="max_expected"))
    if not 0.0 - confirmation.optimal_value > arbitrage_epsilon(market):
        raise SolverError(f"no arbitrage confirmed at the threshold p0 = {p0!r}")
    return MinPResult(p_star=p0, status="found", evaluations=evals + 1)
