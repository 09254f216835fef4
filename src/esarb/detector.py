"""ES_p-arbitrage detection: hinge LP construction, solvers, verdicts, thresholds.

The detection LP minimizes alpha + (1/p) sum w_i u_i over (alpha, x, u) with
u_i >= -f(Omega_i).x - alpha, u_i >= 0, prices.x <= 0 and box bounds on x;
its optimum is the least expected shortfall reachable at non-positive
cost. Every LP trades one column per frictionless long/short pair (payoffs
and prices exact negations, payoffs not constant), a net quantity in
[-B, B]; the pair's two legs enter every row only through their
difference, so this is exact. The rows are the same at every level, so
`build_lp` makes one LP per market (and hands a HiGHS-path market's LP back
on later calls), and `solve_lp` takes the level and the LP kind. HiGHS sees
the ES objective scaled by p, p alpha + sum w_i u_i, so the level enters
one coefficient, and `LpProblem.highs_args` alone poses each LP kind.
Sparse HiGHS solves the LP, or, on many scenarios, one Kelley
cutting-plane loop over the portfolio block (`LpProblem.on_highs` states
the rule). `_HighsModel` alone drives scipy's HiGHS binding: one warm model
per HiGHS-path LP, which serves every level as an edit of itself
(`_WarmModel`); a cold model per level-free LP; and one master LP per cut
loop, which gains each new cut as a row. Both re-solve from their last
basis. Either path returns only the portfolio columns x. `_certify` checks
x's box, its cost and, for an arbitrage witness, ES_p(F x) without the
solver, and reports the value and VaR_p of x from one `tail_envelope` of
x (`_evaluate`, which the cut loop hands back with its answer), so every
arbitrage verdict rests on a portfolio checked with the ES formula.
With equal scenario weights `tail_envelope` sorts nothing, so each cut
costs O(scenarios); with unequal weights it sorts the values once.
On HiGHS, sorted payoff rows that differ from their predecessor in few
entries (digital and step payoffs) are difference-encoded: free chain
variables carry F x from row to row, so the LP holds the row differences
instead of the dense payoff block. The chain form is used exactly when it
has at most half the constraint nonzeros of the plain form.

Verdicts use a two-phase rule: a strictly negative phase-1 optimum is an
arbitrage outright, and an optimum at the zero boundary goes to
`_boundary`. There is no arbitrage at p iff some pricing density lies
strictly inside the ES dual set {0 <= q <= 1/p, E_w q = 1}. On HiGHS two
level-free LPs that the LpProblem holds decide every level (see
`_dual_density`), each verdict resting on a density `_check_density`
accepts or a portfolio `_check_witness` accepts. The cutting-plane path,
where a threshold LP is slow, keeps the confirmation LP: the largest
expected payoff subject to ES <= 0. `min_p` returns the threshold p0 and
decides the bracket's lower end as `detect` decides a boundary optimum.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sparse
from scipy.optimize._highspy._core import HighsLp, HighsModelStatus, MatrixFormat, _Highs

from .market import MarketSnapshot, Portfolio
from .risk import RiskLevel, as_level, lex_order, tail_envelope

_CUT_SCENARIOS = 600
_HIGHS_OPTS = {
    "output_flag": False,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}
_GAP_TOL = 1e-10
_SIGN_TOL = 1e-9  # `_check_density` takes q_i >= -_SIGN_TOL (1 + max |q|) for q_i >= 0
_MAX_CUTS = 2000
_MERGE_BLOCK = 1 << 16  # key entries gathered per compare in _merged_rows


class SolverError(RuntimeError):
    """Raised when an LP's one solver path ends without a certified solution."""


@dataclass(frozen=True)
class LpProblem:
    """The market's hinge LP, the same at every level and for every LP kind.

    Column k of the portfolio block trades market leg legs[k] in
    [0, upper_bound]; when shorts[k] >= 0 it is the net position of the
    frictionless pair (legs[k], shorts[k]) and its lower bound is
    -upper_bound. `constraint_matrix` holds the rows every LP shares, and
    `highs_args` states the column layout and gives each LP kind's costs
    and bounds, so one LpProblem serves a whole `detect` or `min_p` call.
    It holds its warm model and the level-free LPs' answers
    (`threshold`, `interior`), so a sweep over levels solves each once.
    """

    payoffs: np.ndarray  # n_scenarios x n_legs (portfolio columns)
    weights: np.ndarray
    prices: np.ndarray
    upper_bound: float
    legs: np.ndarray  # column -> market leg (a pair's long leg)
    shorts: np.ndarray  # column -> the pair's short leg, -1 for a single leg

    @property
    def n_legs(self) -> int:
        return self.payoffs.shape[1]

    @property
    def n_scenarios(self) -> int:
        return self.payoffs.shape[0]

    @cached_property
    def x_lower(self) -> np.ndarray:
        return np.where(self.shorts >= 0, -self.upper_bound, 0.0)

    @cached_property
    def payoff_scale(self) -> float:
        """max |F|: the payoff scale of the tolerances and of the
        arbitrage epsilon, read once per LP."""
        return float(np.abs(self.payoffs).max(initial=0.0))

    @cached_property
    def chain(self) -> sparse.csr_matrix | None:
        """The payoff rows' differences D (D_0 = F_0, D_i = F_i - F_{i-1})
        when the chain form of the constraints takes at most half the
        nonzeros of the plain form, else None. The merged rows come in
        lexicographic order, so on digital and step payoffs D is nearly
        empty while F is a dense triangle. A problem with a chain form
        stays on HiGHS (see `solve_lp`)."""
        F, n_s = self.payoffs, self.n_scenarios
        nnz_cost = np.count_nonzero(self.prices)
        # cost row, then the hinge rows: alpha, F x, u (plain) or alpha, y,
        # u and the chain rows y_i, y_{i-1}, D_i x
        chain_nnz = nnz_cost + 5 * n_s - 1
        # first with F dense and D empty, which reads no entry of F
        if 2 * chain_nnz > nnz_cost + n_s * (2 + self.n_legs):
            return None
        steps = F[1:] != F[:-1]
        chain_nnz += np.count_nonzero(F[0]) + np.count_nonzero(steps)
        if 2 * chain_nnz > nnz_cost + 2 * n_s + np.count_nonzero(F):
            return None
        first = np.flatnonzero(F[0])
        i, j = np.nonzero(steps)
        values = np.concatenate([F[0, first], F[i + 1, j] - F[i, j]])
        rows = np.concatenate([np.zeros(first.size, dtype=int), i + 1])
        return sparse.csr_matrix((values, (rows, np.concatenate([first, j]))), shape=F.shape)

    @cached_property
    def constraint_matrix(self) -> sparse.csr_matrix:
        """Cost, hinge and chain rows, every one <= 0. In the chain form
        (when `chain` is not None) free columns y follow (alpha, x, u):
        hinge row i reads -alpha - y_i - u_i and chain row i
        y_i - y_{i-1} - D_i x, so y_i <= F_i x. Whatever y the solver picks,
        (alpha, x, u) is then feasible in the plain form, and y = F x
        attains every plain point, so both forms have the same optimum."""
        n_s, n_l = self.n_scenarios, self.n_legs
        chain = self.chain
        n_y = 0 if chain is None else n_s
        cost = sparse.csr_matrix(
            (self.prices, (np.zeros(n_l, dtype=int), 1 + np.arange(n_l))),
            shape=(1, 1 + n_l + n_s + n_y),
        )
        hinge = [
            sparse.csr_matrix(-np.ones((n_s, 1))),
            sparse.csr_matrix(-self.payoffs) if chain is None else sparse.csr_matrix((n_s, n_l)),
            -sparse.eye(n_s, format="csr"),
        ]
        if chain is not None:
            hinge.append(-sparse.eye(n_s, format="csr"))
        blocks = [cost, sparse.hstack(hinge, format="csr")]
        if chain is not None:
            shift = sparse.eye(n_s, format="csr") - sparse.eye(n_s, k=-1, format="csr")
            blocks.append(
                sparse.hstack(
                    [sparse.csr_matrix((n_s, 1)), -chain, sparse.csr_matrix((n_s, n_s)), shift],
                    format="csr",
                )
            )
        return sparse.vstack(blocks, format="csr")

    @property
    def on_highs(self) -> bool:
        """Whether `solve_lp` hands this LP to sparse HiGHS: fewer than 600
        (merged) scenarios, or a `chain` form. Every other LP takes the
        cutting-plane path."""
        return self.n_scenarios < _CUT_SCENARIOS or self.chain is not None

    @cached_property
    def warm(self) -> _WarmModel:
        """The detection LP's one HiGHS model, which `_solve_highs` builds at
        its first solve and edits for every later level, so one thread at a
        time solves an LpProblem (`build_lp` holds one per thread)."""
        return _WarmModel()

    @cached_property
    def threshold(self) -> tuple:
        """`_dual_density(self, "threshold")`, solved once per LP."""
        return _dual_density(self, "threshold")

    @cached_property
    def interior(self) -> tuple:
        """`_dual_density(self, "interior")`, solved once per LP."""
        return _dual_density(self, "interior")

    def highs_args(self, kind: str, p: float | None = None) -> tuple:
        """HiGHS's (c, A_ub, b_ub, bounds) for the LP of this kind at level p.

        Columns: alpha, the n_legs portfolio columns x, the n_scenarios
        hinge auxiliaries u >= 0 and, when `chain` is not None, the
        n_scenarios free chain columns y. "min_es" costs p alpha +
        sum w_i u_i, p times the ES objective, with alpha free and x in
        [x_lower, upper_bound], so the level enters alpha's cost alone. The
        two level-free kinds take x >= 0 on single columns, free on netted
        ones, unbounded above. "threshold" costs sum w_i u_i with alpha
        fixed at -1. "interior" costs alpha, with alpha free and u fixed at
        0, so that alpha bounds every loss -F_i x, and appends to
        `constraint_matrix` the row alpha + E_w[F x] >= 1 (posed as
        -alpha - E_w[F x] <= -1)."""
        A, n_l, n_s = self.constraint_matrix, self.n_legs, self.n_scenarios
        x, u = slice(1, 1 + n_l), slice(1 + n_l, 1 + n_l + n_s)
        c, b = np.zeros(A.shape[1]), np.zeros(A.shape[0])
        bounds = np.full((A.shape[1], 2), [-math.inf, math.inf])
        bounds[u, 0] = 0.0
        if kind == "min_es":
            c[0], c[u] = p, self.weights
            bounds[x, 0], bounds[x, 1] = self.x_lower, self.upper_bound
            return c, A, b, bounds
        bounds[x, 0] = np.where(self.shorts >= 0, -math.inf, 0.0)
        if kind == "threshold":
            c[u], bounds[0] = self.weights, -1.0
            return c, A, b, bounds
        c[0], bounds[u, 1] = 1.0, 0.0
        row = np.zeros(A.shape[1])
        row[0], row[x] = -1.0, -(self.payoffs.T @ self.weights)
        A = sparse.vstack([A, sparse.csr_matrix(row[None, :])], format="csr")
        return c, A, np.append(b, -1.0), bounds

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
    """A certified answer to one LP, built by `_certify` alone: the
    portfolio columns x a solver path returned, their value (ES_p(F x) for
    "min_es", -E_w[F x] for "max_expected" and a witness) and alpha =
    VaR_p(F x), both recomputed from x without the solver, and the path's
    name. Both LP kinds are feasible at x = 0 and bounded (x lies in a box
    and p < 1), so a solve returns an optimum or raises SolverError."""

    optimal_value: float
    alpha: float
    x: np.ndarray
    method: str


@dataclass(frozen=True)
class Confirmation:
    """The expected payoff behind a boundary verdict. No arbitrage reads
    0.0 on HiGHS, where a density strictly inside the ES dual set proves
    that no portfolio with ES_p <= 0 and cost <= 0 has a positive expected
    payoff; an arbitrage reads its checked witness's, a lower bound on the
    maximum. On the cutting-plane path it is the confirmation LP's maximum."""

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
    portfolio: Portfolio | None  # an arbitrage at p_star, None when p_star is None


def _merged_rows(market: MarketSnapshot, keys: np.ndarray):
    """Scenario indices of the distinct payoff rows and their summed
    weights, dropping rows whose weight sums to 0. Rows come in
    lexicographic order (first leg major, equal rows by scenario index, and
    -0.0 ties with +0.0).

    The order comes from `lex_order` on the payoff columns of the legs
    `keys`, stacked as key rows: the LP columns that vary (`_net_columns`).
    The other LP columns are constant, and a pair's short leg negates its
    long one wherever the weight is positive, so rows that tie on every key
    hold one LP row. A run of equal rows ends where a sorted row differs
    from the one before it: on the first key, or else on any other key,
    compared for one block of adjacent sorted rows (at most _MERGE_BLOCK
    gathered entries) at a time, and only in blocks where the first key
    ties. When every run is one row (continuous draws), the weights need no
    summing."""
    keys = np.stack([market.legs[j].payoff for j in keys])
    order = lex_order(keys)
    s = keys[0, order]
    new_run = np.concatenate([[True], s[1:] != s[:-1]])
    step = max(1, _MERGE_BLOCK // len(keys))
    for start in range(1, len(order), step):
        stop = start + step
        if not new_run[start:stop].all():
            block = np.take(keys[1:], order[start - 1 : stop], axis=1)
            new_run[start:stop] |= np.logical_or.reduce(block[:, 1:] != block[:, :-1], axis=0)
    starts = np.flatnonzero(new_run)
    merged_w = market.scenarios.weights[order]
    if len(starts) < len(order):  # some run holds more than one row
        merged_w = np.add.reduceat(merged_w, starts)
    keep = merged_w > 0
    return order[starts[keep]], merged_w[keep]


def _net_columns(market: MarketSnapshot, prices: np.ndarray):
    """Pair each leg with an earlier unpaired leg whose payoffs where the
    weight is positive (so on every merged row) and price are its exact
    negation. Returns (legs, shorts, varies): one entry per LP column, at
    its first leg's position; shorts is -1 for a leg left single, and
    varies tells whether the column's payoffs differ on any scenario. Each
    leg's column is read on its own (gathered when some weight is 0), so
    no copy of the matrix is made. A leg waits under its price and payoff
    sum, which negate exactly with the payoffs, and a match under that key
    is confirmed entry by entry.

    A pair with a constant payoff (cash, a bond) stays two legs: its net
    column would be parallel to alpha's in every hinge row, and at the
    exact threshold HiGHS then returned vertices that miss a bound by up
    to 4e-8 (15 of 3596 random 40-scenario option markets)."""
    positive = market.scenarios.weights > 0
    rows = slice(None) if positive.all() else np.flatnonzero(positive)
    waiting: dict = {}  # (price, payoff sum) -> [(payoffs, LP column)] of legs awaiting their negation
    legs, shorts, varies = [], [], []
    for j, (leg, price) in enumerate(zip(market.legs, prices.tolist())):
        col = leg.payoff[rows]
        match = None
        if varying := bool((col != col[0]).any()):
            key = (price + 0.0, float(col.sum()) + 0.0)  # + 0.0: a zero of either sign keys as +0.0
            pending = waiting.get((0.0 - key[0], 0.0 - key[1]), [])
            match = next((i for i, (other, _) in enumerate(pending) if (other == -col).all()), None)
            if match is None:
                waiting.setdefault(key, []).append((col, len(legs)))
        if match is not None:
            shorts[pending.pop(match)[1]] = j
        else:
            legs.append(j)
            shorts.append(-1)
            varies.append(varying or bool((leg.payoff != col[0]).any()))
    return np.array(legs, dtype=int), np.array(shorts, dtype=int), np.array(varies)


_last = threading.local()  # per thread: the most recent HiGHS-path market (by weakref) and its LP


def build_lp(market: MarketSnapshot) -> LpProblem:
    """Assemble the market's hinge LP, for every level and LP kind.

    A market whose LP goes to HiGHS (`LpProblem.on_highs`) gets the same
    LpProblem, and so the same warm HiGHS model, on each call in a thread
    until that thread builds the LP of another market. The LP is held only
    while the market lives, and cut-path LPs are never held.

    Scenarios with identical payoff rows are merged by summing their weights
    (identical hinge rows share one auxiliary variable, which is exact), and
    each frictionless pair of legs becomes one net column (see `LpProblem`).
    The payoff matrix is gathered once, from the legs straight into a
    column-major block: only the merged rows of the kept columns, with -0.0
    read as +0.0. That layout fixes the order in which BLAS sums each
    product with the matrix, and so the bits of every result computed
    from it.
    """
    held = getattr(_last, "held", [])
    if held and held[0]() is market:
        return held[1]
    held.clear()  # free the last LP now: the list and its weakref's callback form a cycle
    prices = market.prices()
    legs, shorts, varies = _net_columns(market, prices)
    # with no column varying, every row is one run
    rows, weights = _merged_rows(market, legs[varies] if varies.any() else legs[:1])
    payoffs = np.empty((len(rows), len(legs)), order="F")
    for k, j in enumerate(legs):
        np.add(market.legs[j].payoff[rows], 0.0, out=payoffs[:, k])
    problem = LpProblem(payoffs, weights, prices[legs], market.upper_bound, legs, shorts)
    held = []
    if problem.on_highs:  # emptied when the market dies
        held += [weakref.ref(market, lambda _: held.clear()), problem]
    _last.held = held
    return problem


def _evaluate(problem: LpProblem, x: np.ndarray, p: float) -> tuple[tuple, np.ndarray]:
    """The evaluation (ES_p, VaR_p) of X = F x for portfolio columns x, and
    the envelope point q attaining ES_p, from one `tail_envelope` of X: the
    one evaluation of a portfolio, made once per x, by selection alone when
    the weights are equal and over one stable order of X otherwise. Only
    the cut loop reads q; the evaluation holds no array, so the loop keeps
    two floats for its best iterate."""
    es, q, var = tail_envelope(problem.payoffs @ x, problem.weights, p)
    return (es, var), q


def _certify(
    problem: LpProblem, x: np.ndarray, evaluation: tuple, p: float, kind: str, method: str
) -> LpSolution:
    """The LpSolution of portfolio columns x for the LP of this kind at
    level p, checked without trusting the solver: x lies in the box within
    1e-9 of B, prices.x <= tol and, for "max_expected", ES_p(F x) <= tol,
    tol being 1e-9 of `payoff_scale` (or of the largest price) times
    sum |x|; otherwise SolverError. `evaluation` is the (ES_p, VaR_p) of
    F x that `_evaluate` made once for this x (in the cut loop, or after a
    HiGHS solve), so the certificate's (ES_p, VaR_p) come from one
    `tail_envelope` of the returned x: the value is its ES_p ("min_es") or
    -E_w[F x] ("max_expected", the one kind that reads the mean), alpha its
    VaR_p. No value of the solver (a master's t, its lower bound or the
    scaled objective of a HiGHS LP) enters."""
    B = problem.upper_bound
    es, alpha = evaluation
    cost = float(problem.prices @ x)
    top = max(problem.payoff_scale, float(np.abs(problem.prices).max(initial=0.0)))
    tol = 1e-9 * (1.0 + top * float(np.abs(x).sum()))
    outside = max(float((problem.x_lower - x).max(initial=0.0)), float((x - B).max(initial=0.0)))
    if not (outside <= 1e-9 * (1.0 + B) and cost <= tol and (kind == "min_es" or es <= tol)):
        raise SolverError(f"portfolio fails its check at p = {p!r}: box excess {outside:.3e}, "
                          f"cost {cost:.3e}, ES {es:.3e}")
    value = es if kind == "min_es" else 0.0 - float(problem.weights @ (problem.payoffs @ x))
    return LpSolution(value, alpha, x, method)


class _HighsModel:
    """One HiGHS LP, min c.x over A x <= b and the (n, 2) column bounds, at
    _HIGHS_OPTS: the one owner of scipy's HiGHS binding. A is a sparse
    matrix, or None for a model that starts with no rows. `add_row` appends
    a row in place and `set_cost` edits one cost; each `solve` runs the
    model from its last basis. Every LP esarb solves is feasible and
    bounded, so any model status but optimal raises SolverError."""

    def __init__(self, c, A, b, bounds):
        lp, n = HighsLp(), len(c)
        lp.num_col_ = lp.a_matrix_.num_col_ = n
        lp.col_cost_, lp.col_lower_, lp.col_upper_ = c, bounds[:, 0], bounds[:, 1]
        lp.a_matrix_.format_ = MatrixFormat.kColwise
        if A is None:
            lp.a_matrix_.start_ = np.zeros(n + 1, dtype=np.int32)
        else:
            A = A.tocsc()
            lp.num_row_ = lp.a_matrix_.num_row_ = A.shape[0]
            lp.row_lower_, lp.row_upper_ = np.full(A.shape[0], -math.inf), b
            lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = A.indptr, A.indices, A.data
        self._highs = _Highs()
        for name, value in _HIGHS_OPTS.items():
            self._highs.setOptionValue(name, value)
        self._highs.passModel(lp)

    def add_row(self, a: np.ndarray, b: float) -> None:
        """Append the row a.x <= b (a dense over every column)."""
        self._highs.addRow(-math.inf, b, len(a), np.arange(len(a), dtype=np.int32), a)

    def set_cost(self, col: int, value: float) -> None:
        self._highs.changeColCost(col, value)

    def solve(self) -> tuple[np.ndarray, np.ndarray, float]:
        """The column values, row duals and objective of an optimum."""
        self._highs.run()
        status = self._highs.getModelStatus()
        if status != HighsModelStatus.kOptimal:
            raise SolverError(f"numerical failure: HiGHS status {int(status)}: "
                              f"{self._highs.modelStatusToString(status)}")
        solution = self._highs.getSolution()
        return (np.array(solution.col_value), np.array(solution.row_dual),
                self._highs.getObjectiveValue())


class _WarmModel:
    """The one HiGHS model of a HiGHS-path LpProblem's detection LP
    (`LpProblem.warm`), which serves every level as an edit of itself. Its
    first solve builds it from `highs_args("min_es", p)`, so a first solve
    is a cold one; a later level changes alpha's cost alone, and HiGHS
    re-solves from the last basis. `drop` forgets the model, so the next
    solve is cold."""

    def __init__(self):
        self.model, self.p = None, None

    def drop(self) -> None:
        self.model = None

    def solve(self, problem: LpProblem, p: float) -> np.ndarray:
        """The column values of an optimum of the detection LP at level p."""
        if self.model is None:
            self.model = _HighsModel(*problem.highs_args("min_es", p))
        elif p != self.p:
            self.model.set_cost(0, p)
        self.p = p
        return self.model.solve()[0]


def _solve_highs(problem: LpProblem, p: float) -> np.ndarray:
    """HiGHS on the detection LP at level p, as `highs_args("min_es", p)`
    poses it, solved on the LP's one warm model (`_WarmModel`); the
    portfolio columns of its optimum."""
    return problem.warm.solve(problem, p)[1 : 1 + problem.n_legs]


def _solve_cuts(problem: LpProblem, p: float, kind: str, cuts: list) -> tuple[np.ndarray, tuple]:
    """Kelley cutting planes on the portfolio block, for either LP kind;
    the portfolio columns x of the answer and the loop's own `_evaluate`
    of that x, the one its cut and stopping test used, for `_certify` to
    read: each iterate is evaluated once.

    Each cut is the support line es(x') >= g.x' + h of ES_p at an iterate,
    g = -(F.T q) from the envelope point q there; it joins the caller's pool
    `cuts` (one level, both LP kinds), and an empty pool is seeded at x = 0.
    One master LP over (x, t) serves the whole loop: it starts with a row
    g.x - t <= -h for each pooled cut and prices.x <= 0, with x in the box,
    and each new cut is added to it as a row, so HiGHS re-solves it from
    the last basis. "min_es" minimizes t (free) and returns the best
    iterate once its ES is within the gap tolerance of the master's lower
    bound: the master dual mixes envelope points into a dual-feasible
    certificate. "max_expected" fixes t = 0, maximizes expected payoff and
    returns the first master point whose ES is <= 0 up to 1e-10 of
    `payoff_scale` times B. A spent cut budget (_MAX_CUTS masters) raises
    SolverError.
    """
    F, w, n_l = problem.payoffs, problem.weights, problem.n_legs
    min_es = kind == "min_es"
    c = np.append(np.zeros(n_l) if min_es else -(F.T @ w), float(min_es))  # t costs 1 for "min_es"
    bounds = np.column_stack([np.append(problem.x_lower, 0.0), np.full(n_l + 1, problem.upper_bound)])
    bounds[-1] = (-math.inf, math.inf) if min_es else 0.0  # t
    master = _HighsModel(c, None, None, bounds)
    for g, h in cuts:
        master.add_row(np.append(g, -1.0), -h)
    master.add_row(np.append(problem.prices, 0.0), 0.0)
    es_tol = 1e-10 * (1.0 + problem.payoff_scale * problem.upper_bound)
    x = None if cuts else np.zeros(n_l)
    lower, best, answer = None, math.inf, None
    for _ in range(_MAX_CUTS):
        if x is not None:
            evaluation, q = _evaluate(problem, x, p)
            es = evaluation[0]
            if es < best:
                best, answer = es, (x, evaluation)
            if min_es and lower is not None and best - lower <= _GAP_TOL * max(1.0, abs(best)):
                return answer
            if not min_es and lower is not None and es <= es_tol:  # never the unsolved start
                return x, evaluation
            g = -(F.T @ q)
            h = es - g @ x
            cuts.append((g, h))
            master.add_row(np.append(g, -1.0), -h)
        x, _, lower = master.solve()
        x = x[:n_l]
    raise SolverError(f"cutting planes did not converge in {_MAX_CUTS} master LPs")


def solve_lp(
    problem: LpProblem, level: RiskLevel | float, kind: str = "min_es", cuts: list | None = None
) -> LpSolution:
    """Solve the LP of this kind at the level, deterministically, and
    certify the portfolio it finds (`_certify`): the reported value and
    alpha come from one evaluation of that portfolio (`_evaluate`, made
    once per x), not from the solver. "min_es" is the detection LP;
    "max_expected", the confirmation LP, runs on the cutting-plane path
    alone and raises ValueError on a HiGHS-path LP.

    The path follows from the LP (`LpProblem.on_highs`), with no override.
    At least 600 (merged) scenarios and no `chain` form take the
    cutting-plane path (`_solve_cuts`, one loop for both LP kinds), whatever
    the number of legs: its one master LP stays small, gains each cut as a
    row and is re-solved from its last basis, while each cut selects the
    ES tail without sorting it. It adds the cuts it finds to `cuts`, the
    caller's pool at this level (None: a fresh one), so a confirmation LP
    handed its detection LP's pool starts its master from those. Sparse
    HiGHS takes fewer scenarios and the chain form, whose few nonzeros make
    it fast, on the LP's one warm model (`_WarmModel`), re-solved from its
    last basis. Each LP has this one path: a failure on it raises
    SolverError, and so does a portfolio that fails its certificate; on
    HiGHS the failure also drops the warm model, so the next solve is cold.
    """
    if kind not in ("min_es", "max_expected"):
        raise ValueError(f"unknown LP kind {kind!r}")
    if kind != "min_es" and problem.on_highs:
        raise ValueError(f"LP kind {kind!r} is solved on the cutting-plane path alone")
    p = as_level(level).p
    if not problem.on_highs:
        x, evaluation = _solve_cuts(problem, p, kind, [] if cuts is None else cuts)
        return _certify(problem, x, evaluation, p, kind, "cutting_plane")
    try:
        x = _solve_highs(problem, p)
        return _certify(problem, x, _evaluate(problem, x, p)[0], p, kind, "highs")
    except SolverError:
        problem.warm.drop()  # the next solve on this LP starts cold
        raise


def arbitrage_epsilon(market: MarketSnapshot) -> float:
    """Strict-negativity threshold: 1e-6 of the market's payoff scale, read
    on its LP (`_epsilon`)."""
    return _epsilon(market, build_lp(market))


def _epsilon(market: MarketSnapshot, problem: LpProblem) -> float:
    """1e-6 max(spot, `payoff_scale`) of the market's LP, which `detect`
    and `min_p` read off the LP they build. The LP's merged rows and kept
    columns hold every absolute payoff of the positive-weight scenarios (a
    short leg negates its long one there), so a weight-0 scenario sets no
    part of it."""
    return 1e-6 * max(market.spot, problem.payoff_scale)


def detect(market: MarketSnapshot, level: RiskLevel | float) -> DetectionResult:
    """Decide whether the market admits an ES_p-arbitrage at the given level.

    Phase 1 minimizes ES at non-positive cost on the one LP `build_lp`
    makes, on the solver path `solve_lp` picks from it (there is no
    override); a strictly negative optimum settles the verdict (ES_p >=
    E[-X], so negative ES forces positive expected payoff). A boundary
    optimum within epsilon of zero goes to `_boundary`: the LP's level-free
    LPs on HiGHS, the confirmation LP from phase 1's pool of cuts on the
    cutting-plane path (every support line of ES also cuts ES <= 0).
    `confirmation` is None exactly when phase 1 settled the verdict. The
    portfolio witnesses the verdict: `_boundary`'s arbitrage when it found
    one, else phase 1's. min_es and alpha_star are ES_p and VaR_p of phase
    1's portfolio, as `solve_lp` recomputes them.
    """
    level = as_level(level)
    problem, cuts = build_lp(market), []
    solution = solve_lp(problem, level, "min_es", cuts)
    eps = _epsilon(market, problem)
    min_es = solution.optimal_value + 0.0  # +0.0: no field reads -0.0
    x, arbitrage, confirmation = solution.x, min_es < -eps, None
    if not arbitrage:
        gain, witness, _ = _boundary(problem, level.p, eps, cuts)
        confirmation, arbitrage = Confirmation(max_expected_payoff=gain), gain > eps
        if arbitrage:
            x = witness
    return DetectionResult(
        level=level,
        min_es=min_es,
        portfolio=Portfolio(problem.leg_quantities(x), upper_bound=market.upper_bound),
        alpha_star=solution.alpha + 0.0,
        arbitrage=arbitrage,
        confirmation=confirmation,
    )


def _check_density(problem: LpProblem, q: np.ndarray, lam: float) -> None:
    """Certify a pricing density without trusting the solver: q >= 0,
    lam >= 0, E_w q = 1 and E_w[q f_j] <= lam price_j for every column
    (with equality for a netted pair, whose short leg prices -f_j), each
    within 1e-9 relative; a NaN anywhere fails. O(n_scenarios * n_legs)."""
    F, w, prices = problem.payoffs, problem.weights, problem.prices
    priced = F.T @ (w * q) - lam * prices
    priced = np.where(problem.shorts >= 0, np.abs(priced), priced)
    scale = 1.0 + np.abs(F).T @ (w * np.abs(q)) + abs(lam) * np.abs(prices)
    worst = float((priced / scale).max(initial=0.0))
    mass_err = abs(float(w @ q) - 1.0) / (1.0 + float(w @ np.abs(q)))
    sign_viol = float(np.append(-q, -lam).max(initial=0.0))
    # written as not (x <= tol), so that a NaN fails each check
    if not (worst <= 1e-9 and mass_err <= 1e-9
            and sign_viol <= _SIGN_TOL * (1.0 + float(np.abs(q).max()))):
        raise SolverError(
            f"numerical failure: pricing residual {worst:.3e}, mass error {mass_err:.3e}, "
            f"sign violation {sign_viol:.3e}"
        )


def _inside(q: np.ndarray, p: float, floor: float = 0.0) -> bool:
    """Whether density q lies strictly inside the ES dual set at level p,
    p max q < 1 and min q > floor (1 + max q); p = 0 tests the floor alone."""
    top = float(q.max())
    return float(q.min()) > floor * (1.0 + top) and p * top < 1.0


def _check_witness(
    problem: LpProblem, x: np.ndarray, p: float, eps: float
) -> tuple[float, np.ndarray]:
    """Portfolio columns x, scaled by min(1, B / max|x|) into the box and
    certified as an ES_p-arbitrage without trusting the solver: `_certify`'s
    "max_expected" checks (cost and ES_p at most its tolerance) and
    E_w[F x] > eps. Returns (E_w[F x], x) of the scaled x."""
    B = problem.upper_bound
    x = x * (B / max(float(np.abs(x).max(initial=0.0)), B))
    solution = _certify(problem, x, _evaluate(problem, x, p)[0], p, "max_expected", "highs")
    gain = 0.0 - solution.optimal_value
    if not gain > eps:
        raise SolverError(f"no arbitrage witnessed at p = {p!r}: expected payoff {gain:.3e}")
    return gain, x


def _dual_density(problem: LpProblem, kind: str) -> tuple[np.ndarray | None, np.ndarray, float]:
    """(q, x, lam) of the level-free LP of this kind ("threshold" or
    "interior"), solved on a cold HiGHS model as `highs_args(kind)` poses
    it: the pricing density q and multiplier lam from its duals, checked
    against the dense F by `_check_density`, or None and 0.0 when the
    duals carry no mass (no pricing density exists), and its portfolio
    columns x. `LpProblem.threshold` and `LpProblem.interior` hold them.

    The threshold LP is p0 = min E_w[(1 - F x)^+] over prices.x <= 0. Its
    dual is max sum r over 0 <= r <= w and F^T r <= lam' prices
    (equalities for netted pairs), r the hinge rows' duals and lam' the
    cost row's, so q* = r / (w sum r) is a pricing density with the least
    max q = 1 / p0: no arbitrage at p < p0 when q* > 0. At every p >= p0
    X = F x* has ES_p(X) <= -1 + p0 / p <= 0 (Rockafellar-Uryasev at
    alpha = -1) and E_w[X] >= 1 - p0 > 0. The interior LP, min alpha over
    alpha >= -F_i x and alpha + E_w[F x] >= 1, has as dual max t over
    q = mu / w + t (mu the hinge rows' duals, t the extra row's) with
    E_w q = 1 and q pricing every leg, so q+ is the pricing density with
    the largest least entry, min q+ = alpha. When that is 0, x has
    F x >= 0, E_w[F x] >= 1 and prices.x <= 0: a classical arbitrage. It
    is solved only when a pricing density exists, so it is bounded.
    """
    n_l, n_s = problem.n_legs, problem.n_scenarios
    x, row_duals, _ = _HighsModel(*problem.highs_args(kind)).solve()
    duals, x = -row_duals, x[1 : 1 + n_l]
    r = duals[1 : 1 + n_s]
    if kind == "interior":
        r = r + duals[-1] * problem.weights
    mass = float(r.sum())
    if mass == 0.0:
        return None, x, 0.0
    q, lam = r / (problem.weights * mass), float(duals[0]) / mass
    _check_density(problem, q, lam)
    return q, x, lam


def _boundary(
    problem: LpProblem, p: float, eps: float, cuts: list | None = None
) -> tuple[float, np.ndarray | None, int]:
    """The verdict at level p when the least ES at non-positive cost is
    not below -eps: (gain, x, lps), an arbitrage exactly when gain > eps,
    x its portfolio columns, lps the LPs it rests on besides the threshold
    LP. On the cutting-plane path the confirmation LP at p decides, from
    the caller's pool of cuts (gain its maximum). On HiGHS the LP's
    level-free LPs decide (`_dual_density`). With no pricing density, or
    p >= p0 = 1 / max q*, the threshold LP's x* is the arbitrage, checked
    by `_check_witness`. Below p0 there is no arbitrage (gain 0.0) when q*
    is positive beyond the sign tolerance (a rounded 0 must not hide a
    classical arbitrage). Else the interior LP's q+ decides: if positive,
    the mixture (1 - theta) q* + theta q+, theta = min(1, (1/p - max q*) /
    (2 (max q+ - max q*))), has max below 1/p and min at least
    theta min q+ > 0, and is checked by `_check_density` and `_inside`; if
    not, the interior LP's x, a classical arbitrage, is checked by
    `_check_witness`. A failed check raises SolverError.
    """
    if not problem.on_highs:
        conf = solve_lp(problem, p, "max_expected", cuts)
        return 0.0 - conf.optimal_value, conf.x, 1
    q, x, lam = problem.threshold
    if q is None or p >= 1.0 / float(q.max()):
        return (*_check_witness(problem, x, p, eps), 0)
    if _inside(q, p, _SIGN_TOL):
        return 0.0, None, 0
    q_plus, x_plus, lam_plus = problem.interior
    if q_plus is None or not _inside(q_plus, 0.0, _SIGN_TOL):
        return (*_check_witness(problem, x_plus, p, eps), 1)
    rise, top = float(q_plus.max() - q.max()), float(q.max())
    theta = min(1.0, 0.5 * (1.0 / p - top) / rise) if rise > 0.0 else 1.0
    mixed = (1.0 - theta) * q + theta * q_plus
    _check_density(problem, mixed, (1.0 - theta) * lam + theta * lam_plus)
    if not _inside(mixed, p):
        raise SolverError(f"numerical failure: no pricing density strictly inside at p = {p!r}")
    return 0.0, None, 1


def min_p(
    market: MarketSnapshot,
    bracket: tuple[float, float] = (1e-4, 0.5),
    tol: float = 1e-4,
) -> MinPResult:
    """Smallest level in the bracket admitting arbitrage, from the threshold LP.

    The threshold LP (`LpProblem.threshold`, see `_dual_density`) gives
    p0 = 1 / max q*, or 0 when no pricing density exists, and a portfolio
    x* that is an arbitrage at every p >= p0. When p0 > lo, lo is decided
    as `detect` decides a boundary optimum (`_boundary`): an arbitrage
    there is "at or below bracket" at lo. p0 > hi is "none in bracket".
    Otherwise `_check_witness` checks x* at max(p0, lo): "found" at p0, or
    "at or below bracket" when p0 <= lo; a failed check raises
    SolverError. tol must be finite and > 0 but no longer moves p*; it
    stays for callers that pass it. `evaluations` counts the LPs the
    answer rests on, held from an earlier call or not: 1, or 2 when lo
    needs the interior LP (HiGHS) or the confirmation LP (cutting planes).
    The portfolio is the arbitrage behind p*: x* or `_boundary`'s at lo.
    """
    lo, hi = bracket
    if not (0.0 < lo < hi < 1.0):
        raise ValueError(f"invalid bracket {bracket}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    problem = build_lp(market)
    eps = _epsilon(market, problem)
    q, x, _ = problem.threshold
    p0 = 0.0 if q is None else 1.0 / float(q.max())
    evals = 1
    if p0 > lo:
        gain, witness, lps = _boundary(problem, lo, eps)
        evals += lps
        if gain > eps:
            witness = Portfolio(problem.leg_quantities(witness), upper_bound=market.upper_bound)
            return MinPResult(lo, "at or below bracket", evals, witness)
        if p0 > hi:
            return MinPResult(None, "none in bracket", evals, None)
    _, x = _check_witness(problem, x, max(p0, lo), eps)
    witness = Portfolio(problem.leg_quantities(x), upper_bound=market.upper_bound)
    return MinPResult(max(p0, lo), "found" if p0 > lo else "at or below bracket", evals, witness)
