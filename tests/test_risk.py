import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from esarb import (
    RiskLevel,
    WeightedSample,
    coherence_check,
    es_p,
    ru_objective,
    var_p,
)
from esarb.risk import as_level, tail_envelope

from conftest import random_sample


def sample(values, weights):
    return WeightedSample(np.asarray(values, float), np.asarray(weights, float))


# -------------------------------------------------------------------- levels


def test_risk_level_domain():
    assert RiskLevel(0.3).p == 0.3
    for bad in (0.0, 1.0, -0.2, 1.5, math.nan):
        with pytest.raises(ValueError):
            RiskLevel(bad)


def test_as_level_passthrough():
    lvl = RiskLevel(0.25)
    assert as_level(lvl) is lvl
    assert as_level(0.25).p == 0.25


@pytest.mark.parametrize("level", [Fraction(1, 3), Decimal("0.3"), np.float32(0.3)])
def test_risk_level_of_other_numbers_is_their_float(level):
    # the level is stored as the float of the number, so ES and VaR are the
    # float level's, with equal and with unequal weights
    p = float(level)
    assert type(RiskLevel(level).p) is float and RiskLevel(level).p == p
    assert as_level(level) == RiskLevel(p)
    rng = np.random.default_rng(4)
    values = np.round(rng.normal(size=300), 1)
    for weights in (np.full(300, 1 / 300), rng.random(300)):
        s = sample(values, weights / weights.sum())
        assert es_p(s, RiskLevel(level)) == es_p(s, p) and es_p(s, level) == es_p(s, p)
        assert var_p(s, RiskLevel(level)) == var_p(s, p) and var_p(s, level) == var_p(s, p)
    for bad in (Fraction(0), Fraction(1), Decimal("1.5"), Decimal("NaN")):
        with pytest.raises(ValueError):
            RiskLevel(bad)


def test_es_rejects_p_at_one():
    s = sample([0.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        es_p(s, 1.0)


# --------------------------------------------------------------------- var_p


def test_var_constant_sample():
    for c in (-3.0, 0.0, 2.5):
        for p in (0.01, 0.5, 0.99):
            assert var_p(sample([c], [1.0]), p) == pytest.approx(-c)


def test_var_two_point_quarter():
    assert var_p(sample([-1.0, 1.0], [0.5, 0.5]), 0.25) == pytest.approx(1.0)


def test_var_three_point():
    assert var_p(sample([-2.0, 0.0, 3.0], [0.2, 0.3, 0.5]), 0.1) == pytest.approx(2.0)


def test_var_strict_cdf_at_atom_boundary():
    # F(-2) = 0.25 exactly is not > p = 0.25, so the quantile is the next atom
    assert var_p(sample([-2.0, 0.0, 3.0], [0.25, 0.25, 0.5]), 0.25) == 0.0


def test_var_empty_sample_rejected():
    with pytest.raises(ValueError):
        WeightedSample(np.array([]), np.array([]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_sample_rejected(bad):
    # ES and VaR read finite values only: the tail selection orders them
    with pytest.raises(ValueError, match="finite"):
        WeightedSample(np.array([0.0, bad]), np.array([0.5, 0.5]))
    # nor weights: a NaN weight made the sum check pass, VaR read 1.0, ES NaN
    with pytest.raises(ValueError, match="finite"):
        WeightedSample(np.array([-1.0, 2.0, 3.0]), np.array([bad, 0.5, 0.5]))


# ---------------------------------------------------------------------- es_p


def test_es_constant_sample():
    for c in (-3.0, 0.0, 2.5):
        assert es_p(sample([c], [1.0]), 0.37) == pytest.approx(-c)


def test_es_two_point_half():
    assert es_p(sample([-1.0, 1.0], [0.5, 0.5]), 0.5) == pytest.approx(1.0)


def test_es_large_normal_tail():
    rng = np.random.default_rng(1)
    values = rng.standard_normal(1_000_000)
    s = WeightedSample(values, np.full(values.size, 1e-6))
    assert es_p(s, 0.01) == pytest.approx(2.665, abs=0.02)


def test_es_tail_splitting_atom():
    # atom spans the p boundary: only the within-p share of the atom counts
    s = sample([-2.0, 1.0], [0.3, 0.7])
    # losses: 2 (w 0.3); p = 0.2 takes 0.2 of it -> ES = 2
    assert es_p(s, 0.2) == pytest.approx(2.0)
    # p = 0.4: 0.3 of loss 2 plus 0.1 of loss -1 -> (0.6 - 0.1) / 0.4
    assert es_p(s, 0.4) == pytest.approx((0.3 * 2.0 + 0.1 * -1.0) / 0.4)


# -------------------------------------------------------------- ru_objective


def test_ru_objective_hand_values():
    s = sample([-2.0, 1.0], [0.5, 0.5])
    assert ru_objective(s, 0.5, 2.0) == pytest.approx(2.0)


def test_ru_objective_constant_at_minimizer():
    for c in (-1.5, 0.0, 4.0):
        s = sample([c], [1.0])
        assert ru_objective(s, 0.3, -c) == pytest.approx(-c)


def test_ru_objective_alpha_tail_monotone(rng):
    s = random_sample(rng)
    vals = [ru_objective(s, 0.25, a) for a in (10.0, 100.0, 1000.0)]
    assert vals[0] < vals[1] < vals[2]


# ------------------------------------------------------- identity and shape


def _golden_min(f, lo, hi, iters=200):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return min(fc, fd)


def test_ru_identity_on_seeded_samples():
    rng = np.random.default_rng(42)
    for trial in range(100):
        size = int(rng.integers(3, 10_000))
        s = random_sample(rng, size=size)
        p = float(rng.uniform(0.01, 0.99))
        es = es_p(s, p)
        alpha_star = var_p(s, p)
        assert ru_objective(s, p, alpha_star) == pytest.approx(es, abs=1e-9)
        lo, hi = float(-s.values.max()) - 1.0, float(-s.values.min()) + 1.0
        assert _golden_min(lambda a: ru_objective(s, p, a), lo, hi) == pytest.approx(es, abs=1e-9)


def test_es_dominates_var_and_mean(rng):
    for _ in range(50):
        s = random_sample(rng)
        p = float(rng.uniform(0.01, 0.99))
        es = es_p(s, p)
        assert es >= var_p(s, p) - 1e-12
        assert es >= -s.mean() - 1e-12


def test_nonpositive_sample_with_zero_es_is_zero(rng):
    # zero ES on a nonpositive sample forces the constant 0
    s = sample([-1.0, 0.0], [0.25, 0.75])
    assert es_p(s, 0.2) > 0.0
    z = sample([0.0], [1.0])
    assert es_p(z, 0.2) == 0.0
    for _ in range(20):
        vals = -np.abs(np.append(random_sample(rng).values, 0.0))
        w = rng.random(vals.size) + 1e-3
        s = WeightedSample(vals, w / w.sum())
        p = float(rng.uniform(0.01, 0.99))
        if es_p(s, p) == 0.0:
            assert np.all(vals == 0.0)


def test_es_nonincreasing_in_p(rng):
    for _ in range(30):
        s = random_sample(rng)
        ps = np.sort(rng.uniform(0.01, 0.99, 5))
        es = [es_p(s, float(p)) for p in ps]
        assert all(a >= b - 1e-12 for a, b in zip(es, es[1:]))


def test_normal_sample_matches_sigma_scaling():
    rng = np.random.default_rng(7)
    mu, sigma, p = 0.3, 2.0, 0.05
    values = mu + sigma * rng.standard_normal(400_000)
    s = WeightedSample(values, np.full(values.size, 1.0 / values.size))
    # E(0.05) = phi(Phi^-1(0.05)) / 0.05
    e_p = 2.0627128
    assert es_p(s, p) == pytest.approx(sigma * e_p - mu, abs=0.02)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=1, max_size=30),
    st.floats(0.01, 0.99),
    st.floats(-20, 20),
    st.floats(0.1, 10),
)
def test_es_translation_and_scaling_properties(values, p, shift, scale):
    vals = np.asarray(values)
    s = WeightedSample(vals, np.full(vals.size, 1.0 / vals.size))
    base = es_p(s, p)
    shifted = WeightedSample(vals + shift, s.weights)
    scaled = WeightedSample(vals * scale, s.weights)
    assert es_p(shifted, p) == pytest.approx(base - shift, abs=1e-9 * (1 + abs(base) + abs(shift)))
    assert es_p(scaled, p) == pytest.approx(scale * base, abs=1e-9 * (1 + scale * abs(base)))


# ------------------------------------------------------------ tail_envelope

_FIXED = 1074  # every finite float is an integer multiple of 2**-1074


def _fixed(x: float) -> int:
    """x * 2**1074, exactly."""
    num, den = float(x).as_integer_ratio()
    return num << (_FIXED + 1 - den.bit_length())


def _tail_envelope_exact(values, weights, p):
    """Reference: ES_p, q and VaR_p in exact integer arithmetic on the float
    inputs, over a stable sort (equal values by index), and the scale
    sum q |X| of the ES bound. Each value takes its weight w, or what is
    left of p if that is less: take = min(w, max(p - mass before it, 0)),
    and q = float(take) / p, so a whole weight gives w / p. VaR_p is minus
    the first value whose mass up to it exceeds p (the last value when
    none does), with a zero read as +0.0."""
    P, cum, loss, scale, var = _fixed(p), 0, 0, 0, None
    q = np.zeros(len(values))
    for i in np.argsort(values, kind="stable").tolist():
        w, x = _fixed(weights[i]), _fixed(values[i])
        take = min(w, max(P - cum, 0))
        cum += w
        q[i] = take / (1 << _FIXED) / p  # int / int rounds once
        loss -= take * x
        scale += take * abs(x)
        if cum > P:
            var = 0.0 - float(values[i])
            break
    if var is None:
        var = 0.0 - float(values.max())
    unit = Fraction(1 << 2 * _FIXED) * Fraction(p)
    return Fraction(loss) / unit, q, var, Fraction(scale) / unit


# ES is -sum q X in numpy's pairwise sum: within 2**-48 (16 eps) of sum q |X|
# for the sizes below, the worst case for about 30 levels of rounded sums;
# the error seen is under 3 eps
_ES_ULPS = 16


def _assert_exact(values, weights, p):
    es, q, var = tail_envelope(values, weights, p)
    ref_es, ref_q, ref_var, scale = _tail_envelope_exact(values, weights, p)
    assert q.tobytes() == ref_q.tobytes()
    assert np.float64(var).tobytes() == np.float64(ref_var).tobytes()
    assert abs(Fraction(es) - ref_es) <= _ES_ULPS * np.finfo(float).eps * scale
    return es, q, var


@pytest.mark.parametrize("kind", ["continuous", "ties", "zero iterate"])
def test_tail_envelope_bitwise_equals_stable_sort(kind):
    # q and VaR bit for bit those of exact arithmetic over a stable sort,
    # ES within its stated bound, on the cut loop's payoff at an iterate x
    rng = np.random.default_rng(3)
    n = 20_000
    payoffs = rng.normal(size=(n, 3))
    if kind == "ties":
        payoffs = np.round(payoffs, 1)
    x = np.zeros(3) if kind == "zero iterate" else rng.normal(size=3)
    values = payoffs @ x
    for weights in (rng.random(n), np.ones(n)):
        weights /= weights.sum()
        for p in (0.01, 0.2, 0.5):
            _assert_exact(values, weights, p)


@st.composite
def _tails(draw):
    """(values, weights, p) for `tail_envelope`, made by numpy from a drawn
    seed: Hypothesis draws the size, the kind of values and weights, and p."""
    n = draw(st.integers(1, 50_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["continuous", "ties", "signed zeros", "all equal"]))
    if kind == "continuous":
        values = rng.normal(size=n)
    elif kind == "ties":  # long tie runs at and around every partition value
        values = np.round(rng.normal(size=n), 1)
    elif kind == "signed zeros":
        values = rng.choice(np.array([-1.0, -0.0, 0.0, 1.0]), n)
    else:
        values = np.full(n, rng.normal())
    if draw(st.booleans()):  # equal weights: the count rule
        return values, np.full(n, 1.0 / n), draw(st.floats(1e-6, 1.0 - 1e-9))
    weights = rng.random(n)
    weights[rng.random(n) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    if draw(st.booleans()):
        # mass piled on the largest values: the first p n values hold
        # little of it, so the selection has to move up
        weights *= np.argsort(np.argsort(values, kind="stable")) ** 8.0
    if weights.sum() == 0.0:
        weights[-1] = 1.0
    return values, weights / weights.sum(), draw(st.floats(1e-6, 1.0 - 1e-9))


@settings(max_examples=150, deadline=None)
@given(_tails())
# the first k = 2 values hold exactly p: VaR_p lies past them, so k moves up
@example((np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.25, 0.0, 0.0, 0.75]), 0.25))
# the first p n values hold more than p: k moves down
@example((np.arange(8.0), np.array([0.5, 0.3, 0.1, 0.04, 0.03, 0.02, 0.005, 0.005]), 0.45))
# the float sum of the first two weights is p, their exact sum exceeds it
@example((np.array([0.0, 1.0, 2.0]), np.array([0.5, 2.0**-60, 0.5]), 0.5))
# all values hold less than p (weights off their sum of 1): every one is taken
@example((np.array([2.0, 0.0, 1.0, 2.0]), np.array([0.3, 0.0, 0.3, 0.0]), 0.9))
# p - mass(< 1.0) = 0.5 - 2**-60 rounds to the weight of 1.0, 0.5, yet
# the exact mass up to 1.0 exceeds p: 1.0 is the atom
@example((np.array([0.0, 1.0, 2.0]), np.array([2.0**-60, 0.5, 0.5]), 0.5))
# a run of weights far below the running sum's rounding: the float sum reads
# p over all of it, and the atom is its first value
@example((np.arange(3000.0), np.r_[0.5, np.full(2998, 1e-20), 0.5], 0.5))
def test_tail_envelope_selection_bitwise_equals_stable_sort(case):
    _assert_exact(*case)


@pytest.mark.parametrize("p", [0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4])
def test_tail_envelope_var_at_integer_p_n_is_exact(p):
    # 1e5 equal weights, as a Monte Carlo market has them: the first p n
    # of them hold more than p in exact arithmetic, so VaR_p is minus the
    # (p n)-th smallest value; a rounded running sum of the weights read
    # 0.00999999999999976 < 0.01 and took the next value at p = 0.01, 0.02
    # and 0.1
    n = 100_000
    values = np.random.default_rng(11).normal(size=n)
    weights = np.full(n, 1.0 / n)
    k = round(p * n)
    assert k * Fraction(weights[0]) > Fraction(p)
    _, _, var = _assert_exact(values, weights, p)
    assert var == -np.sort(values)[k - 1]


def test_tail_envelope_zero_weights_and_duplicates():
    # weight-0 scenarios take no mass, even where they tie with the atom or
    # precede it; a scenario split into duplicates keeps ES and VaR
    values = np.array([1.0, 1.0, 0.0, 0.0, 2.0, -1.0, 1.0])
    weights = np.array([0.25, 0.0, 0.25, 0.0, 0.5, 0.0, 0.0])
    for p in (0.1, 0.25, 0.3, 0.5, 0.75, 0.9):
        es, q, var = _assert_exact(values, weights, p)
        assert (q[weights == 0.0] == 0.0).all()
    merged = tail_envelope(np.array([1.0, 0.0, 2.0]), np.array([0.25, 0.25, 0.5]), 0.3)
    es, q, var = tail_envelope(values, weights, 0.3)
    assert es == pytest.approx(merged[0], abs=1e-15) and var == merged[2]
    # the atom 1.0 is split over its duplicates in index order: the first
    # takes the rest of p, 0.3 - 0.25 (exact), and the second nothing
    es, q, var = _assert_exact(np.array([1.0, 0.0, 1.0, 2.0]), np.array([0.1, 0.25, 0.15, 0.5]), 0.3)
    assert q.tolist() == [(0.3 - 0.25) / 0.3, 0.25 / 0.3, 0.0, 0.0] and var == -1.0


@pytest.mark.parametrize("equal", [True, False])
def test_tail_envelope_all_values_tied(equal):
    # every value is the atom: the first ties in index order take their
    # whole weight and the next one the rest, so q is w / p on a prefix
    n, c = 1000, -0.75
    values = np.full(n, c)
    weights = np.full(n, 1.0 / n) if equal else np.random.default_rng(2).random(n)
    weights = weights / weights.sum()
    for p in (1e-4, 0.01, 0.37, 0.999):
        es, q, var = _assert_exact(values, weights, p)
        taken = np.flatnonzero(q)
        assert np.array_equal(taken, np.arange(len(taken)))
        assert (q[taken[:-1]] == weights[taken[:-1]] / p).all()
        assert var == -c and es == pytest.approx(-c, rel=1e-14)


def test_tail_envelope_makes_no_sort(monkeypatch):
    # equal weights: selection alone, no sort of the tail or of the ties;
    # unequal weights: exactly one stable argsort of the values and no
    # other sort
    rng = np.random.default_rng(8)
    n = 5000
    cases = []
    for values in (rng.normal(size=n), np.round(rng.normal(size=n), 1), np.zeros(n)):
        skewed = np.argsort(np.argsort(values, kind="stable")) ** 8.0 + rng.random(n)
        for weights in (np.full(n, 1.0 / n), rng.random(n), skewed):
            for p in (0.01, 0.3, 0.9):
                cases.append((values, weights / weights.sum(), p))
    expected = [tail_envelope(*case) for case in cases]
    sorts = []

    def counted(real, name):
        def sort(*args, **kwargs):
            sorts.append((name, kwargs.get("kind")))
            return real(*args, **kwargs)

        return sort

    for name in ("argsort", "sort", "lexsort"):
        monkeypatch.setattr(np, name, counted(getattr(np, name), name))
    for case, (es, q, var) in zip(cases, expected):
        sorts.clear()
        got = tail_envelope(*case)
        assert (got[0], got[2]) == (es, var) and got[1].tobytes() == q.tobytes()
        equal = (case[1] == case[1][0]).all()
        assert sorts == ([] if equal else [("argsort", "stable")])


# ----------------------------------------------------------- coherence_check


def test_coherence_es_passes_seeded_pairs():
    rng = np.random.default_rng(99)
    samples = [random_sample(rng, size=25) for _ in range(40)]
    # one shared grid: replace weights to a common vector so sums are defined
    w = samples[0].weights
    samples = [WeightedSample(s.values, w) for s in samples]
    rep = coherence_check(lambda s: es_p(s, 0.3), samples)
    assert rep.passed
    assert max(rep.violations.values()) <= 1e-9


def test_coherence_flags_non_subadditive_measure():
    rng = np.random.default_rng(5)
    w = np.full(10, 0.1)
    samples = [WeightedSample(rng.normal(size=10), w) for _ in range(8)]
    # variance is not positively homogeneous or subadditive in this sense
    rep = coherence_check(lambda s: float(np.var(s.values)) + 1.0, samples)
    assert not rep.passed
    assert rep.violations["normalization"] > 1e-9


def test_coherence_mismatched_grids_rejected():
    a = WeightedSample(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    b = WeightedSample(np.array([0.0, 1.0, 2.0]), np.full(3, 1 / 3))
    with pytest.raises(ValueError):
        coherence_check(lambda s: es_p(s, 0.5), [a, b])
