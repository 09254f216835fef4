"""ES_p-arbitrage detection: hinge LP construction, solvers, verdicts, thresholds.

The detection LP minimizes alpha + (1/p) sum w_i u_i over (alpha, x, u) with
u_i >= -f(Omega_i).x - alpha, u_i >= 0, prices.x <= 0 and box bounds on x;
its optimum is the least expected shortfall reachable at non-positive
cost. Every LP trades one column per frictionless long/short pair (payoffs
and prices exact negations, payoffs not constant), a net quantity in
[-B, B]; the pair's two legs enter every row only through their
difference, so this is exact. Verdicts use a two-phase rule: a strictly
negative optimum is an arbitrage outright, an optimum at the zero boundary
is confirmed by a second LP maximizing expected payoff subject to the
linearized ES <= 0 rows. The rows are the same at every level, so
`build_lp` makes one LP per market (and hands a HiGHS-path market's LP back
on later calls), and `solve_lp` takes the level and the LP kind. HiGHS sees
the ES objective and the ES row scaled by p, p alpha + sum w_i u_i, so the
level enters one coefficient. The detection, confirmation and threshold
LPs differ only in costs and bounds (and the confirmation's ES row), and
`LpProblem.highs_args` alone poses each of them for HiGHS. Sparse HiGHS
solves the LP, or, on many scenarios, one Kelley cutting-plane loop over
the portfolio block (`LpProblem.on_highs` states the rule). `_HighsModel`
alone drives scipy's HiGHS binding: one warm model per HiGHS-path LP, so
per market, which serves every level and both LP kinds as edits of itself
and re-solves from the last basis of each kind (`_WarmModel`); a cold
model per threshold LP; and one master LP per cut loop, to which each new
cut is added as a row and which HiGHS re-solves from its last basis.
Either path returns only the portfolio columns x. `_certify` checks x's
box, its cost and, for the confirmation LP, ES_p(F x) without the solver,
and reports the value and VaR_p of x, so every arbitrage verdict rests on
a portfolio checked with the ES formula. The certificate's (F x, ES_p,
VaR_p) come from one `tail_envelope` of the returned x, computed once by
`_evaluate`: the cut loop returns its own evaluation of the x it hands
back, and the HiGHS path evaluates its x after the solve. `tail_envelope`
selects VaR_p's atom with `np.partition` and sorts nothing, so each cut
costs O(scenarios).
On HiGHS, sorted payoff rows that differ from their predecessor in few
entries (digital and step payoffs) are difference-encoded: free chain
variables carry F x from row to row, so the LP holds the row differences
instead of the dense payoff block. The chain form is used exactly when it
has at most half the constraint nonzeros of the plain form.

The smallest arbitrage level comes from the dual side, over the ES dual set
{0 <= q <= 1/p, E_w q = 1}. There is no arbitrage at p iff some pricing
density lies strictly inside it, 0 < q < 1/p, and the least ES at
non-positive cost is strictly negative iff no pricing density has
max q <= 1/p. The detection LP at alpha = -1 with weights w gives the
threshold p0, its hinge-row duals the density q* with the least max q,
and its portfolio an arbitrage at every p >= p0, which `min_p` checks
without the solver and returns with p*. q* also settles the bracket's
lower end when it lies strictly inside the dual set there; otherwise the
confirmation LP decides.
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
_MARGIN_TOL = 1e-7  # least gap from q* to 0 and to 1/lo that certifies min_p's lo
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
        """The LP's one HiGHS model, which `_solve_highs` builds at its first
        solve and edits for every later level and LP kind, so one thread at a
        time solves an LpProblem (`build_lp` holds one per thread)."""
        return _WarmModel()

    def objective(self, kind: str, p: float | None = None) -> np.ndarray:
        """The costs of the LP of this kind at level p (see `highs_args`)."""
        n_l, n_s = self.n_legs, self.n_scenarios
        x, u = slice(1, 1 + n_l), slice(1 + n_l, 1 + n_l + n_s)
        c = np.zeros(self.constraint_matrix.shape[1])
        if kind == "threshold":
            c[u] = self.weights
        elif kind == "max_expected":
            c[x] = -(self.payoffs.T @ self.weights)
        else:
            c[0], c[u] = p, self.weights
        return c

    def highs_args(self, kind: str, p: float | None = None) -> tuple:
        """HiGHS's (c, A_ub, b_ub, bounds) for the LP of this kind at level p.

        Columns: alpha, the n_legs portfolio columns x, the n_scenarios
        hinge auxiliaries u >= 0 and, when `chain` is not None, the
        n_scenarios free chain columns y. "min_es" costs p alpha + sum w_i
        u_i, p times the ES objective, with alpha free and x in
        [x_lower, upper_bound]; "max_expected" costs -E_w[F x] under the
        same bounds, with the "min_es" costs appended to `constraint_matrix`
        as the ES row <= 0; "threshold" costs sum w_i u_i with alpha fixed
        at -1 and x >= 0 on single columns, free on netted ones, unbounded
        above. The level thus enters one coefficient: alpha's cost, or
        alpha's entry in the ES row."""
        A, n_l, n_s = self.constraint_matrix, self.n_legs, self.n_scenarios
        x, u = slice(1, 1 + n_l), slice(1 + n_l, 1 + n_l + n_s)
        bounds = np.full((A.shape[1], 2), [-math.inf, math.inf])
        bounds[u, 0] = 0.0
        if kind == "threshold":
            bounds[0] = -1.0
            bounds[x, 0] = np.where(self.shorts >= 0, -math.inf, 0.0)
        else:
            bounds[x, 0], bounds[x, 1] = self.x_lower, self.upper_bound
            if kind == "max_expected":
                es_row = sparse.csr_matrix(self.objective("min_es", p)[None, :])
                A = sparse.vstack([A, es_row], format="csr")
        return self.objective(kind, p), A, np.zeros(A.shape[0]), bounds

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
    "min_es", -E_w[F x] for "max_expected") and alpha = VaR_p(F x), both
    recomputed from x without the solver, and the path's name. Both LP
    kinds are feasible at x = 0 and bounded (x lies in a box and p < 1),
    so a solve returns an optimum or raises SolverError."""

    optimal_value: float
    alpha: float
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
    one evaluation of a portfolio, made once per x. Only the cut loop reads
    q; the evaluation holds no array, so the loop keeps two floats for its
    best iterate."""
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
    a row in place, the `set_*` methods edit costs, one coefficient or a
    row's bound, `basis` and `set_basis` save and restore a basis and
    `clear_basis` forgets it; each `solve` runs the model from its last
    basis. Every LP esarb solves is feasible and bounded, so any model
    status but optimal raises SolverError."""

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

    def set_costs(self, c: np.ndarray) -> None:
        self._highs.changeColsCost(len(c), np.arange(len(c), dtype=np.int32), c)

    def set_cost(self, col: int, value: float) -> None:
        self._highs.changeColCost(col, value)

    def set_coeff(self, row: int, col: int, value: float) -> None:
        self._highs.changeCoeff(row, col, value)

    def set_row_upper(self, row: int, b: float) -> None:
        """Make row `row` read a.x <= b (b = inf frees it)."""
        self._highs.changeRowBounds(row, -math.inf, b)

    def basis(self):
        """A copy of the model's current basis, for `set_basis`."""
        return self._highs.getBasis()

    def set_basis(self, basis) -> None:
        self._highs.setBasis(basis)

    def clear_basis(self) -> None:
        """Forget the basis and solution: the next `solve` starts cold."""
        self._highs.clearSolver()

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
    """The one HiGHS model of a HiGHS-path LpProblem (`LpProblem.warm`),
    which serves both LP kinds at every level as edits of itself.

    Its first solve builds it from `highs_args` of that solve's kind and
    level, so a first solve is a cold one. "max_expected" is the "min_es"
    model with the ES row (the "min_es" costs) bounded by 0; a model built
    for "min_es" gains that row at its first "max_expected" solve, and
    "min_es" frees it. Within a kind a level change is one edit: alpha's
    cost ("min_es") or alpha's entry in the ES row ("max_expected"), so
    HiGHS re-solves from the last basis. On a kind switch the model saves
    its basis for the kind it leaves and restores the one saved for the kind
    it enters, so each kind re-solves from its own last vertex, and a kind's
    first solve on the model starts cold. From the other kind's vertex a
    solve took hundreds of simplex iterations, and on the 512-cell chain LP
    ended at HiGHS status "Unknown". `drop` forgets the model, so the next
    solve is cold."""

    def __init__(self):
        self.model = None

    def drop(self) -> None:
        self.model = None

    def solve(self, problem: LpProblem, p: float, kind: str) -> np.ndarray:
        """The column values of an optimum of the LP of this kind at level p."""
        if self.model is None:
            self.model = _HighsModel(*problem.highs_args(kind, p))
            # kind -> the level its coefficient (alpha's cost, or alpha's
            # entry in the ES row) holds now
            self.kind, self.levels, self.bases = kind, {kind: p}, {}
            return self.model.solve()[0]
        model, es_row = self.model, problem.constraint_matrix.shape[0]
        if kind != self.kind:
            if "max_expected" not in self.levels:  # it enters the basis as basic
                model.add_row(problem.objective("min_es", p), 0.0)
                self.levels["max_expected"] = p
            self.bases[self.kind] = model.basis()
            model.set_costs(problem.objective(kind, p))
            if kind == "min_es":  # alpha's cost is p now
                self.levels[kind] = p
            model.set_row_upper(es_row, math.inf if kind == "min_es" else 0.0)
            if kind in self.bases:
                model.set_basis(self.bases[kind])
            else:
                model.clear_basis()
            self.kind = kind
        if self.levels[kind] != p:
            if kind == "min_es":
                model.set_cost(0, p)
            else:
                model.set_coeff(es_row, 0, p)
            self.levels[kind] = p
        return model.solve()[0]


def _solve_highs(problem: LpProblem, p: float, kind: str) -> np.ndarray:
    """HiGHS on the LP of this kind at level p, as `highs_args(kind, p)`
    poses it, solved on the LP's one warm model (`_WarmModel`); the
    portfolio columns of its optimum."""
    return problem.warm.solve(problem, p, kind)[1 : 1 + problem.n_legs]


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
    """Solve the LP of this kind ("min_es" or "max_expected") at the level,
    deterministically, and certify the portfolio it finds (`_certify`): the
    reported value and alpha come from one evaluation of that portfolio
    (`_evaluate`, made once per x), not from the solver.

    The path follows from the LP (`LpProblem.on_highs`), with no override.
    At least 600 (merged) scenarios and no `chain` form take the
    cutting-plane path (`_solve_cuts`, one loop for both LP kinds), whatever
    the number of legs: its one master LP stays small, gains each cut as a
    row and is re-solved from its last basis, while each cut selects the
    ES tail without sorting it. It adds the cuts it finds to `cuts`, the caller's pool
    at this level (None: a fresh one), so a confirmation LP handed its
    detection LP's pool starts its master from those. Sparse HiGHS takes
    fewer scenarios and the chain form, whose few nonzeros make it fast, on
    the LP's one warm model (`_WarmModel`), re-solved from the last basis of
    this kind. Each LP has this one path: a failure on it raises
    SolverError, and so does a portfolio that fails its certificate; on
    HiGHS the failure also drops the warm model, so the next solve is cold.
    """
    if kind not in ("min_es", "max_expected"):
        raise ValueError(f"unknown LP kind {kind!r}")
    p = as_level(level).p
    if not problem.on_highs:
        x, evaluation = _solve_cuts(problem, p, kind, [] if cuts is None else cuts)
        return _certify(problem, x, evaluation, p, kind, "cutting_plane")
    try:
        x = _solve_highs(problem, p, kind)
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

    Phase 1 minimizes ES at non-positive cost; a strictly negative optimum
    settles the verdict (ES_p >= E[-X], so negative ES forces positive
    expected payoff). A boundary optimum within epsilon of zero is passed to
    the confirmation LP, which maximizes expected payoff subject to ES <= 0;
    arbitrage holds iff that maximum is positive. When the verdict comes from
    the confirmation phase, the reported portfolio is the confirmation
    maximizer so that it always witnesses the verdict. Both phases solve the
    one LP `build_lp` makes, on the solver path `solve_lp` picks from it
    (there is no override), and share one pool of cuts: every support line
    of ES from phase 1 also cuts ES <= 0. min_es and alpha_star are ES_p
    and VaR_p of phase 1's portfolio, as `solve_lp` recomputes them.
    """
    level = as_level(level)
    problem, cuts = build_lp(market), []
    solution = solve_lp(problem, level, "min_es", cuts)
    eps = _epsilon(market, problem)
    min_es = solution.optimal_value + 0.0  # +0.0: no field reads -0.0
    alpha_star = solution.alpha + 0.0
    quantities = problem.leg_quantities(solution.x)
    confirmation = None
    if min_es < -eps:
        arbitrage = True
    else:
        conf = solve_lp(problem, level, "max_expected", cuts)
        max_expected = 0.0 - conf.optimal_value  # a zero maximum reads +0.0, not -0.0
        confirmation = Confirmation(max_expected_payoff=max_expected)
        arbitrage = max_expected > eps
        if arbitrage:
            quantities = problem.leg_quantities(conf.x)
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
            and sign_viol <= 1e-9 * (1.0 + float(np.abs(q).max()))):
        raise SolverError(
            f"numerical failure: pricing residual {worst:.3e}, mass error {mass_err:.3e}, "
            f"sign violation {sign_viol:.3e}"
        )


def _check_witness(problem: LpProblem, x: np.ndarray, p: float, eps: float) -> np.ndarray:
    """Portfolio columns x, scaled by min(1, B / max|x|) into the box and
    certified as an ES_p-arbitrage without trusting the solver: `_certify`'s
    "max_expected" checks (the threshold LP is a HiGHS solve) and
    E_w[F x] > eps."""
    B = problem.upper_bound
    x = x * (B / max(float(np.abs(x).max(initial=0.0)), B))
    solution = _certify(problem, x, _evaluate(problem, x, p)[0], p, "max_expected", "highs")
    gain = 0.0 - solution.optimal_value
    if not gain > eps:
        raise SolverError(f"no arbitrage witnessed at p = {p!r}: expected payoff {gain:.3e}")
    return x


def _threshold_density(problem: LpProblem) -> tuple[np.ndarray | None, np.ndarray]:
    """The checked pricing density q with the least max_i q_i, or None when
    the hinge rows' duals r sum to 0 (no pricing density exists), and the
    threshold LP's portfolio columns x*.

    HiGHS solves the detection LP's `constraint_matrix` (chain form
    included) as `highs_args("threshold")` poses it: objective
    sum w_i u_i, alpha fixed at -1, x unbounded above and netted columns
    free: p0 = min E_w[(1 - F x)^+] over prices.x <= 0. Its dual is
    max sum r over 0 <= r <= w and F^T r <= lam prices (equalities for
    netted pairs), lam the cost row's dual, so q = r / (w sum r) is a pricing density (multiplier
    lam / sum r) with the least max q = 1 / p0. Such a q certifies ES >= 0
    at non-positive cost for every p <= p0, and at every p >= p0 X = F x*
    has ES_p(X) <= -1 + p0 / p <= 0 (Rockafellar-Uryasev at alpha = -1)
    and E_w[X] >= 1 - p0 > 0. `_check_density` checks q against the dense
    F; `min_p` checks x* with `_check_witness`.
    """
    n_l, n_s = problem.n_legs, problem.n_scenarios
    x, row_duals, _ = _HighsModel(*problem.highs_args("threshold")).solve()
    duals, x = -row_duals, x[1 : 1 + n_l]
    mass = float(duals[1 : 1 + n_s].sum())
    if mass == 0.0:
        return None, x
    q = duals[1 : 1 + n_s] / (problem.weights * mass)
    _check_density(problem, q, float(duals[0]) / mass)
    return q, x


def min_p(
    market: MarketSnapshot,
    bracket: tuple[float, float] = (1e-4, 0.5),
    tol: float = 1e-4,
) -> MinPResult:
    """Smallest level in the bracket admitting arbitrage, from one threshold LP.

    The threshold LP (`_threshold_density`) gives p0 = 1 / max q*, or 0 when
    no pricing density exists, and a portfolio x* that is an arbitrage at
    every p >= p0. When p0 > lo and q* misses either end of (0, 1/lo) by
    _MARGIN_TOL or less, q* does not certify lo, and the confirmation LP at
    lo (maximum expected payoff subject to ES <= 0, on the one LP
    `build_lp` makes) decides: a maximum above `arbitrage_epsilon` means
    "at or below bracket", the verdict of `detect(lo)`. p0 > hi is "none in
    bracket". Otherwise `_check_witness` checks x* at max(p0, lo), and the
    answer is "found" at p0, or "at or below bracket" when p0 <= lo; a
    failed check raises SolverError. tol must be finite and > 0 but no
    longer moves p*; it stays for callers that pass it. `evaluations`
    counts the LPs solved: 1, or 2 with the confirmation at lo. The
    result's portfolio is the arbitrage behind p*: the checked x*, or the
    confirmation LP's maximizer when that LP decides.
    """
    lo, hi = bracket
    if not (0.0 < lo < hi < 1.0):
        raise ValueError(f"invalid bracket {bracket}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    problem = build_lp(market)
    eps = _epsilon(market, problem)
    q, x = _threshold_density(problem)
    p0 = 0.0 if q is None else 1.0 / float(q.max())
    evals = 1
    if p0 > lo and not (q.min() > _MARGIN_TOL and 1.0 / lo - q.max() > _MARGIN_TOL):
        evals += 1
        conf = solve_lp(problem, lo, "max_expected")
        if 0.0 - conf.optimal_value > eps:
            witness = Portfolio(problem.leg_quantities(conf.x), upper_bound=market.upper_bound)
            return MinPResult(lo, "at or below bracket", evals, witness)
    if p0 > hi:
        return MinPResult(None, "none in bracket", evals, None)
    x = _check_witness(problem, x, max(p0, lo), eps)
    witness = Portfolio(problem.leg_quantities(x), upper_bound=market.upper_bound)
    return MinPResult(max(p0, lo), "found" if p0 > lo else "at or below bracket", evals, witness)
