import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esarb import (
    RiskLevel,
    WeightedSample,
    coherence_check,
    es_p,
    ru_objective,
    var_p,
)
from esarb.risk import as_level

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
