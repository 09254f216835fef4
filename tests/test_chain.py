"""The chain form of the HiGHS LPs against the plain assembly.

On sorted digital and step payoffs, consecutive merged rows differ in a
few entries, and `LpProblem.chain` holds those differences. The detection
LP then carries free chain variables in place of the dense payoff block,
and so do the level-free threshold and interior LPs, which are the
detection LP's own `constraint_matrix` at alpha = -1, and with u = 0 and
one more row. Here the chain LPs are compared with the plain assembly kept
below, the threshold with an independent density LP over (q, lam, t), and
verdicts with the plain two-phase rule (the plain confirmation LP, which
HiGHS-path `detect` does not solve, stays here as a reference). The
arguments HiGHS gets are checked byte for byte against `_highs_args`,
which builds each LP kind's costs and bounds from the LP's data alone: on
the chain rows for the 512-cell market, and on the plain assembly for the
markets that stay plain.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sparse
from scipy.optimize import linprog
from hypothesis import given, settings
from hypothesis import strategies as st

from esarb import MarketSnapshot, ScenarioSet, TradableLeg
from esarb import detector
from esarb.analytic import CompleteMarketDensity, bs_ratio_density, density_market
from esarb.detector import (
    SolverError,
    _check_density,
    _dual_density,
    _HighsModel,
    _solve_highs,
    arbitrage_epsilon,
    build_lp,
    detect,
    solve_lp,
)

from conftest import checked_min_p as min_p  # every result's portfolio is checked
from test_detector import _certified, _two_asset_markowitz


# ------------------------------------------------------- the plain assembly


def _plain_constraint_matrix(lp):
    """Rows (cost, hinge) with the dense payoff block."""
    n_s, n_l = lp.payoffs.shape
    cost = sparse.csr_matrix(
        (lp.prices, (np.zeros(n_l, dtype=int), 1 + np.arange(n_l))),
        shape=(1, 1 + n_l + n_s),
    )
    hinge = sparse.hstack(
        [
            sparse.csr_matrix(-np.ones((n_s, 1))),
            sparse.csr_matrix(-lp.payoffs),
            -sparse.eye(n_s, format="csr"),
        ],
        format="csr",
    )
    return sparse.vstack([cost, hinge], format="csr")


def _highs_args(lp, kind, p=None, A=None):
    """The arguments HiGHS should get for the LP of this kind at level p,
    from the payoffs, weights, prices, shorts and upper bound alone, on the
    shared rows A (the plain assembly by default; chain columns y are the
    ones A has beyond (alpha, x, u), all free). "min_es": objective
    (p, 0, w, 0), alpha free, x in the box, u >= 0; "max_expected" (the
    confirmation LP, a reference here): the same bounds, objective
    (0, -F^T w, 0, 0) and the "min_es" objective as an extra row;
    "threshold": objective (0, 0, w, 0), alpha = -1, x >= 0 on single
    columns and free on netted ones, u >= 0; "interior": objective
    (1, 0, 0, 0), alpha free, x as in "threshold", u = 0, and the extra row
    (-1, -F^T w, 0, 0) <= -1."""
    F, w, B = lp.payoffs, lp.weights, lp.upper_bound
    n_s, n_l = F.shape
    A = _plain_constraint_matrix(lp) if A is None else A
    n_y = A.shape[1] - (1 + n_l + n_s)
    net = lp.shorts >= 0
    b = np.zeros(A.shape[0])
    if kind == "threshold":
        c = np.concatenate([np.zeros(1 + n_l), w, np.zeros(n_y)])
        lower = np.concatenate([[-1.0], np.where(net, -np.inf, 0.0), np.zeros(n_s),
                                np.full(n_y, -np.inf)])
        upper = np.concatenate([[-1.0], np.full(n_l + n_s + n_y, np.inf)])
    elif kind == "interior":
        c = np.concatenate([[1.0], np.zeros(n_l + n_s + n_y)])
        lower = np.concatenate([[-np.inf], np.where(net, -np.inf, 0.0), np.zeros(n_s),
                                np.full(n_y, -np.inf)])
        upper = np.concatenate([[np.inf], np.full(n_l, np.inf), np.zeros(n_s), np.full(n_y, np.inf)])
        row = np.concatenate([[-1.0], -(F.T @ w), np.zeros(n_s + n_y)])
        A = sparse.vstack([A, sparse.csr_matrix(row[None, :])], format="csr")
        b = np.append(b, -1.0)
    else:
        c = np.concatenate([[p], np.zeros(n_l), w, np.zeros(n_y)])
        lower = np.concatenate([[-np.inf], np.where(net, -B, 0.0), np.zeros(n_s),
                                np.full(n_y, -np.inf)])
        upper = np.concatenate([[np.inf], np.full(n_l, B), np.full(n_s + n_y, np.inf)])
        if kind == "max_expected":
            A = sparse.vstack([A, sparse.csr_matrix(c[None, :])], format="csr")
            c = np.concatenate([[0.0], -(F.T @ w), np.zeros(n_s + n_y)])
            b = np.zeros(A.shape[0])
    return (c, A, b, np.column_stack([lower, upper])), {}


def _plain_threshold_args(lp):
    """The least max q density LP over (q, lam, t), with the dense pricing
    rows: an independent reference for the threshold."""
    F, w, prices = lp.payoffs, lp.weights, lp.prices
    n_s = lp.n_scenarios
    net = lp.shorts >= 0
    pricing = sparse.hstack(
        [sparse.csr_matrix(F.T * w), -prices[:, None], sparse.csr_matrix((lp.n_legs, 1))],
        format="csr",
    )
    cap = sparse.hstack([sparse.eye(n_s), sparse.csr_matrix((n_s, 1)), -np.ones((n_s, 1))])
    args = (
        np.concatenate([np.zeros(n_s + 1), [1.0]]),
        sparse.vstack([cap, pricing[~net]], format="csr"),
        np.zeros(n_s + int((~net).sum())),
        [(0.0, None)] * (n_s + 1) + [(None, None)],
    )
    kwargs = dict(
        A_eq=sparse.vstack([pricing[net], np.concatenate([w, [0.0, 0.0]])[None, :]], format="csr"),
        b_eq=np.concatenate([np.zeros(int(net.sum())), [1.0]]),
    )
    return args, kwargs


def _plain_value(lp, p, kind):
    """Optimal value of the plain LP of this kind at level p, certified
    and recomputed from its portfolio; for "interior", HiGHS's optimum,
    the largest least entry of a pricing density."""
    args, kwargs = _highs_args(lp, kind, p)
    x, _, value = _HighsModel(*args, **kwargs).solve()  # a non-optimal status raises
    if kind == "interior":
        return value
    return _certified(lp, x[1 : 1 + lp.n_legs], p, kind).optimal_value


# the detector's HiGHS tolerances, as `linprog` options
_LINPROG_OPTIONS = {name: detector._HIGHS_OPTS[name]
                    for name in ("primal_feasibility_tolerance", "dual_feasibility_tolerance")}


def _plain_p0(lp):
    """1 / max q* from the plain threshold LP (certified), or None when no
    pricing density exists."""
    (c, A_ub, b_ub, bounds), kwargs = _plain_threshold_args(lp)
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs",
                  options=_LINPROG_OPTIONS, **kwargs)
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    q = res.x[: lp.n_scenarios]
    _check_density(lp, q, float(res.x[lp.n_scenarios]))
    return 1.0 / float(q.max())


def _plain_nnz(lp):
    return _plain_constraint_matrix(lp).nnz


def _assert_same_args(got, want):
    """HiGHS got exactly these arguments: equal dtypes, shapes and bytes."""
    (args, kwargs), (ref_args, ref_kwargs) = got, want
    assert len(args) == len(ref_args) and sorted(kwargs) == sorted(ref_kwargs)
    for a, b in zip(args + tuple(kwargs.values()), ref_args + tuple(ref_kwargs[k] for k in kwargs)):
        if sparse.issparse(b):
            assert a.format == b.format == "csr" and a.shape == b.shape
            for attr in ("data", "indices", "indptr"):
                x, y = getattr(a, attr), getattr(b, attr)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        else:
            a, b = np.asarray(a), np.asarray(b)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def _recording(monkeypatch):
    """Record the arguments of every HiGHS model the detector builds."""
    calls = []

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return _HighsModel(*args, **kwargs)

    monkeypatch.setattr(detector, "_HighsModel", recorded)
    return calls


# ------------------------------------------------------------------ markets


def _ladder_market(rng):
    """Digital ladder over 40-70 cells with 1-3 scenarios per cell (duplicate
    rows), some zero weights, a bond pair, netted digital pairs, 1-ulp near
    pairs (bid one ulp under the ask) and single long digitals, priced by a
    random density; in half the markets a tenth of the legs are marked up
    or down."""
    n_cells = int(rng.integers(40, 71))
    per_cell = rng.integers(1, 4, n_cells)
    edges = np.sort(rng.uniform(0.0, 1.0, n_cells - 1))
    cell = np.repeat(np.arange(n_cells), per_cell)
    points = np.concatenate([[0.0], edges])[cell] + 1e-9 * (1 + np.arange(cell.size))
    weights = rng.random(cell.size) + 0.05
    weights[rng.random(cell.size) < 0.1] = 0.0
    weights /= weights.sum()
    q = rng.uniform(0.2, 3.0, cell.size)
    q /= weights @ q
    scale = float(rng.choice([1.0, 100.0]))
    markup = float(rng.choice([0.0, 0.1]))  # share of legs priced off the density
    legs = [TradableLeg("bond", scale, np.full(cell.size, scale)),
            TradableLeg("-bond", -scale, np.full(cell.size, -scale))]
    for k in range(n_cells - 1):
        pay = scale * (cell <= k).astype(float)
        price = float(weights @ (q * pay))
        if rng.random() < markup:
            price *= float(rng.uniform(0.5, 1.5))
        kind = rng.random()
        legs.append(TradableLeg(f"d{k}", price, pay))
        if kind < 0.6:
            legs.append(TradableLeg(f"-d{k}", -price, -pay))
        elif kind < 0.8:
            legs.append(TradableLeg(f"-d{k}", -np.nextafter(price, 0.0), -pay))
    scen = ScenarioSet(points, weights)
    return MarketSnapshot(scen, tuple(legs), spot=scale, upper_bound=float(rng.choice([1.0, 3.0])))


def _step_market(rng):
    """Criterion 5's construction on a random nonincreasing step density of
    40-70 cells."""
    n_cells = int(rng.integers(40, 71))
    grid = np.concatenate([np.sort(rng.uniform(0.0, 1.0, n_cells - 1)), [1.0]])
    values = np.sort(rng.uniform(0.1, 4.0, n_cells))[::-1]
    values /= values @ np.diff(grid, prepend=0.0)
    return density_market(CompleteMarketDensity("step", grid, values))


def _solved(solve):
    """The solve's result, or the SolverError it raised."""
    try:
        return solve()
    except SolverError as err:
        return err


def _pl_market():
    """A 200-scenario x 54-leg piecewise-linear quadrature market."""
    from esarb.market import expand_quotes
    from esarb.models import LognormalMixture, default_pl_grid, pl_quadrature, synthesize_chain

    spot, rate, maturity = 100.0, 0.02, 1.0

    def mixture(weights, forwards, sds):
        sds = np.asarray(sds)
        return LognormalMixture(
            np.asarray(weights), np.log(forwards) - 0.5 * sds**2, sds, spot, rate, maturity
        )

    fwd = spot * math.exp(rate * maturity)
    pricing = mixture((0.6, 0.4), (0.95 * fwd, (fwd - 0.6 * 0.95 * fwd) / 0.4), (0.15, 0.35))
    strikes = np.arange(70.0, 131.0, 5.0)
    chain = synthesize_chain(pricing, strikes, rel_spread=0.02)
    model = mixture((0.2, 0.8), (70.0, 108.0), (0.3, 0.15))
    scen = pl_quadrature(model, default_pl_grid(model, strikes))
    return MarketSnapshot(scen, tuple(expand_quotes(chain, scen, spot, rate, maturity)),
                          spot, rate, maturity)


def _quick_start_market():
    """The README quick start's market."""
    rng = np.random.default_rng(0)
    draws = np.sort(1.25 + 0.1 * rng.standard_normal(5000))
    scen = ScenarioSet(draws, np.full(5000, 1.0 / 5000))
    legs = (
        TradableLeg("asset", 1.0, draws.copy()),
        TradableLeg("short cash", -1.0, -np.ones(5000)),
    )
    return MarketSnapshot(scen, legs, spot=1.0)


# -------------------------------------------------------------------- tests


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.booleans())
def test_chain_matches_plain_reference(seed, steps):
    rng = np.random.default_rng(seed)
    market = _step_market(rng) if steps else _ladder_market(rng)
    p = float(rng.uniform(0.02, 0.9))
    prob = build_lp(market)
    assert prob.chain is not None
    assert 2 * prob.constraint_matrix.nnz <= _plain_nnz(prob)
    payoff_scale = 1.0 + float(np.abs(prob.payoffs).max()) * prob.upper_bound
    ref = _plain_value(prob, p, "min_es")
    got = _solved(lambda: _certified(prob, _solve_highs(prob, p), p, "min_es"))
    if not isinstance(got, SolverError):  # never a wrong answer, but no answer
        assert got.x.shape == (prob.n_legs,)
        assert abs(got.optimal_value - ref) <= 1e-9 * payoff_scale
        eps = arbitrage_epsilon(market)
        ref_arbitrage = ref < -eps or -_plain_value(prob, p, "max_expected") > eps
        assert detect(market, p).arbitrage == ref_arbitrage
    ref_p0 = _plain_p0(prob)
    q = _solved(lambda: _dual_density(prob, "threshold"))
    if isinstance(q, SolverError):
        return
    q = q[0]
    assert (q is None) == (ref_p0 is None)
    if q is not None:
        assert abs(1.0 / float(q.max()) - ref_p0) <= 1e-12 * ref_p0
        # the chain-form interior LP's density has the plain LP's least entry
        q_plus = _dual_density(prob, "interior")[0]
        assert abs(float(q_plus.min()) - _plain_value(prob, None, "interior")) <= 1e-9
    if steps:  # complete markets: p* = 1 / sup q exactly
        res = _solved(lambda: min_p(market, bracket=(1e-4, 0.99)))
        if not isinstance(res, SolverError) and ref_p0 < 0.99:
            assert res.status == "found"
            assert abs(res.p_star - ref_p0) <= 1e-12 * ref_p0


def test_chain_form_on_the_512_cell_market(monkeypatch):
    # each sorted row of the digital ladder differs from the one before in
    # one entry: 3585 constraint nonzeros in place of 133377
    market = density_market(bs_ratio_density(drift=-0.3, rate=0.0, sigma=0.15, cells=512))
    prob = build_lp(market)
    assert prob.chain is not None and prob.chain.nnz == 513
    assert (prob.constraint_matrix.nnz, _plain_nnz(prob)) == (3585, 133377)
    calls = _recording(monkeypatch)
    q, _, _ = _dual_density(prob, "threshold")
    assert abs(1.0 / float(q.max()) - _plain_p0(prob)) <= 1e-12 * _plain_p0(prob)
    # the threshold LP is the detection LP's chain-form matrix itself
    assert len(calls) == 1 and calls[0][0][1] is prob.constraint_matrix
    _assert_same_args(calls[0], _highs_args(prob, "threshold", A=prob.constraint_matrix))
    # the interior LP is that matrix and one row, and its least density
    # entry is the plain LP's optimum
    calls.clear()
    q_plus, _, _ = _dual_density(prob, "interior")
    assert abs(float(q_plus.min()) - _plain_value(prob, None, "interior")) <= 1e-9
    _assert_same_args(calls[0], _highs_args(prob, "interior", A=prob.constraint_matrix))
    assert calls[0][0][1].shape == (2 + 2 * 512, 1 + 513 + 2 * 512)  # its row, y columns
    # the detection LP reaches HiGHS as the reference poses it: a fresh
    # LP's first solve builds its one model from those arguments, and the
    # next level is an edit of that model
    fresh = build_lp(density_market(bs_ratio_density(drift=-0.3, rate=0.0, sigma=0.15, cells=512)))
    calls.clear()
    _solve_highs(fresh, 1e-4)
    _solve_highs(fresh, 0.05)
    assert len(calls) == 1
    _assert_same_args(calls[0], _highs_args(fresh, "min_es", 1e-4, fresh.constraint_matrix))


@pytest.mark.parametrize("name", ["pl", "quick start", "markowitz"])
def test_plain_markets_hand_highs_the_plain_assembly(monkeypatch, name):
    # the chain would not halve the nonzeros here (6255 vs 6028, 30002 vs
    # 20002, 3505 vs 3004), so HiGHS must see the plain LP, bit for bit,
    # and so must the threshold and interior LPs, with their own objective,
    # bounds and rows; the first solve of a fresh LP builds its model from
    # the detection LP's arguments
    make = {"pl": _pl_market, "quick start": _quick_start_market,
            "markowitz": lambda: _two_asset_markowitz(500)}[name]
    calls = _recording(monkeypatch)
    prob = build_lp(make())
    assert prob.chain is None
    _solve_highs(prob, 0.05)
    assert len(calls) == 1
    _assert_same_args(calls[0], _highs_args(prob, "min_es", 0.05))
    for kind in ("threshold", "interior"):
        calls.clear()
        _dual_density(prob, kind)
        _assert_same_args(calls[0], _highs_args(prob, kind))


@pytest.mark.parametrize("name", ["bs512", "step", "pl"])
def test_highs_answers_match_linprog_byte_for_byte(name):
    # `linprog` hands HiGHS the same LP at the same tolerances: as a
    # test-only reference it gives the same columns, row duals and value,
    # so the portfolio columns of a model's first (cold) solve, on a fresh
    # LP, and the threshold density are unchanged
    density = {"bs512": bs_ratio_density(drift=-0.3, rate=0.0, sigma=0.15, cells=512),
               "step": CompleteMarketDensity("step", [0.1, 1.0], [4.0, 0.6 / 0.9])}.get(name)
    for kind, p in (("min_es", 0.05), ("min_es", 0.3), ("threshold", None), ("interior", None)):
        prob = build_lp(_pl_market() if density is None else density_market(density))
        n_l, n_s = prob.n_legs, prob.n_scenarios
        assert (prob.chain is not None) == (name == "bs512")
        c, A, b, bounds = prob.highs_args(kind, p)
        ref = linprog(c, A_ub=A, b_ub=b, bounds=bounds, method="highs", options=_LINPROG_OPTIONS)
        assert ref.status == 0, ref.message
        x, row_duals, value = _HighsModel(c, A, b, bounds).solve()
        assert x.tobytes() == ref.x.tobytes() and value == ref.fun
        assert row_duals.tobytes() == ref.ineqlin.marginals.tobytes()
        if kind == "min_es":
            assert _solve_highs(prob, p).tobytes() == ref.x[1 : 1 + n_l].tobytes()
            continue
        r = -ref.ineqlin.marginals[1 : 1 + n_s]
        if kind == "interior":  # plus the extra row's dual times w
            r = r - ref.ineqlin.marginals[-1] * prob.weights
        q, x_star, _ = _dual_density(prob, kind)
        assert q.tobytes() == (r / (prob.weights * float(r.sum()))).tobytes()
        assert x_star.tobytes() == ref.x[1 : 1 + n_l].tobytes()
