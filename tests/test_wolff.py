import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wolffkit import wolff
from wolffkit import (AtomicWolffOperator, GrowthProfile, PointSet,
                      QuadratureConfig, QuadratureWarning, atomic,
                      ball_volume, combine, radial, riesz_potential, scale,
                      tail_exists, validate_params, wolff_field,
                      wolff_point_mass_value, wolff_potential, zero_measure)
from conftest import random_atomic, random_params


def test_point_mass_quadrature_matches_closed_form(rng):
    """The defining oracle: quadrature on a single atom reproduces
    ((p-1)/s) r^{-s/(p-1)} to 1e-10."""
    for _ in range(10):
        pr = random_params(rng)
        r = float(rng.uniform(0.3, 3.0))
        x = np.zeros(pr.n)
        y = np.zeros(pr.n)
        y[0] = r
        m = atomic(y[None, :], [1.0])
        exact = wolff_point_mass_value(pr, r)
        quad = wolff_potential(pr, m, x, method="quadrature", t_min=0.0)
        assert quad == pytest.approx(exact, rel=1e-10)
        assert wolff_potential(pr, m, x) == pytest.approx(exact, rel=1e-12)


def test_atomic_exact_matches_quadrature(rng):
    for _ in range(5):
        pr = random_params(rng)
        m = random_atomic(rng, n=pr.n, k=7)
        x = rng.normal(size=pr.n) * 2.0
        ex = wolff_potential(pr, m, x, method="exact", t_min=0.0)
        qd = wolff_potential(pr, m, x, method="quadrature", t_min=0.0)
        assert qd == pytest.approx(ex, rel=1e-9)


def test_wolff_radial_center_analytic():
    """sigma = Lebesgue on the unit ball, p = 2, alpha = 1, n = 3 (s = 1):
    at the origin sigma(B(0,t)) = v t^3 for t <= 1 so
    W sigma(0) = v/3 * 1 + v * 1 = (4/3)v with v = ball volume."""
    pr = validate_params(2.0, 0.5, 1.0, 3)
    m = radial([0.0, 1.0], [1.0], 3)
    v = ball_volume(1.0, 3)
    expected = v / (pr.n - pr.s) + v / pr.s
    got = wolff_potential(pr, m, np.zeros(3))
    assert got == pytest.approx(expected, rel=1e-10)


def test_wolff_tail_exact_far_away():
    """Far from the support the whole integral is the closed-form tail, and
    the quadrature part meets rel_tol at the n = 5 shell tangencies."""
    pr = validate_params(3.0, 1.0, 1.0, 5)  # s = 2, delta = 1/2
    m = radial([0.0, 1.0], [2.0], 5)
    x = np.zeros(5)
    x[0] = 50.0
    M = m.total_mass
    T = 50.0 + 1.0
    # W <= tail at |x|+R and >= tail at |x|-R; both converge as |x| grows
    lo = (pr.p - 1) / pr.s * M ** pr.delta * T ** (-pr.s * pr.delta)
    hi = (pr.p - 1) / pr.s * M ** pr.delta * (49.0) ** (-pr.s * pr.delta)
    with warnings.catch_warnings():
        warnings.simplefilter("error", QuadratureWarning)
        got = wolff_potential(pr, m, x)
    assert lo <= got <= hi
    assert got == pytest.approx(lo, rel=0.1)


def test_homogeneity_exact(rng):
    for _ in range(6):
        pr = random_params(rng)
        m = random_atomic(rng, n=pr.n, k=6)
        lam = float(rng.uniform(0.2, 9.0))
        x = rng.normal(size=pr.n) * 2.0
        w1 = wolff_potential(pr, m, x)
        w2 = wolff_potential(pr, scale(m, lam), x)
        assert w2 == pytest.approx(lam ** pr.delta * w1, rel=1e-12)


def test_monotone_in_measure(rng, pr213):
    m1 = random_atomic(rng, n=3, k=5)
    m2 = combine(m1, random_atomic(rng, n=3, k=4))
    for _ in range(10):
        x = rng.normal(size=3) * 2
        assert wolff_potential(pr213, m1, x) <= wolff_potential(pr213, m2, x) + 1e-12


def test_zero_measure_and_atom_singularity(pr213):
    assert wolff_potential(pr213, zero_measure(3), np.zeros(3)) == 0.0
    m = atomic(np.zeros((1, 3)), [1.0])
    assert wolff_potential(pr213, m, np.zeros(3)) == math.inf
    # truncated evaluation is finite
    assert wolff_potential(pr213, m, np.zeros(3), t_min=0.5) == pytest.approx(
        wolff_point_mass_value(pr213, 0.0, t_min=0.5))


def test_negative_s_gives_infinite_potential():
    from wolffkit import Params
    pr = Params(p=3.0, q=1.0, alpha=0.9, n=2)  # s = 2 - 2.7 < 0
    m = atomic(np.zeros((1, 2)), [1.0])
    assert wolff_potential(pr, m, np.array([5.0, 0.0])) == math.inf


def test_p2_wolff_is_linear_in_measure(rng):
    """p = 2: W(m1 + m2) = W m1 + W m2 exactly."""
    pr = validate_params(2.0, 0.5, 1.0, 3)
    m1 = random_atomic(rng, n=3, k=6, cell=0)
    m2 = random_atomic(rng, n=3, k=5, cell=0)
    both = combine(m1, m2)
    for _ in range(5):
        x = rng.normal(size=3) * 3
        assert wolff_potential(pr, both, x) == pytest.approx(
            wolff_potential(pr, m1, x) + wolff_potential(pr, m2, x), rel=1e-12)


def test_p2_wolff_riesz_constant_ratio(rng):
    """p = 2: W_{alpha,2} m = I_{2 alpha} m / s pointwise off atoms."""
    pr = validate_params(2.0, 0.5, 1.0, 3)
    for _ in range(5):
        m = random_atomic(rng, n=3, k=8)
        x = rng.normal(size=3) * 3
        w = wolff_potential(pr, m, x, t_min=0.0)
        i2 = riesz_potential(2.0 * pr.alpha, m, x)
        assert w == pytest.approx(i2 / pr.s, rel=1e-12)


def test_riesz_radial_matches_atomic_sum():
    m = radial([0.0, 1.0], [1.0], 3)
    x = np.array([2.5, 0.0, 0.0])
    from wolffkit import as_atomic
    fine = as_atomic(m, shells_per_bin=8, directions_per_shell=64)
    direct = riesz_potential(2.0, fine, x)
    layer = riesz_potential(2.0, m, x)
    # Newtonian exterior value: I_2 m(x) = M/|x| for radial m, n = 3
    assert layer == pytest.approx(m.total_mass / 2.5, rel=1e-8)
    assert direct == pytest.approx(layer, rel=2e-2)


def test_riesz_rejects_bad_order():
    m = atomic(np.zeros((1, 3)), [1.0])
    with pytest.raises(ValueError):
        riesz_potential(0.0, m, np.ones(3))
    with pytest.raises(ValueError):
        riesz_potential(3.0, m, np.ones(3))


def test_operator_rows_match_wolff_potential(rng, pr213):
    m = random_atomic(rng, n=3, k=9)
    evals = rng.normal(size=(6, 3)) * 2
    op = AtomicWolffOperator(pr213, m.points, evals, t_min=0.0)
    got = op.apply(m.weights)
    want = [wolff_potential(pr213, m, x, t_min=0.0) for x in evals]
    assert got == pytest.approx(want, rel=1e-13)


def test_operator_gradient_finite_difference(rng):
    pr = validate_params(2.5, 0.5, 1.0, 4)
    m = random_atomic(rng, n=4, k=5)
    evals = rng.normal(size=(3, 4)) * 2
    op = AtomicWolffOperator(pr, m.points, evals, t_min=0.0)
    w = m.weights.copy()
    vals, grad = op.apply_with_grad(w)
    eps = 1e-6
    for k in range(len(w)):
        wp = w.copy()
        wp[k] += eps
        fd = (op.apply(wp) - vals) / eps
        assert grad[:, k] == pytest.approx(fd, rel=1e-3, abs=1e-8)


def test_wolff_field_vectorizes(rng, pr213, monkeypatch):
    """The batched field equals wolff_potential point by point, exactly:
    atomic with a cell size, genuinely atomic (inf at its atoms), radial,
    and the zero measure.  Atomic fields run in row blocks of 4 here (5
    atoms), so the 6 points fill one block and part of a second."""
    monkeypatch.setattr(wolff, "_BLOCK_ENTRIES", 20)
    for m in (random_atomic(rng, n=3, k=5), random_atomic(rng, n=3, k=5, cell=0),
              radial([0.0, 0.5, 1.5], [1.0, 0.3], 3), zero_measure(3)):
        pts = rng.normal(size=(4, 3)) * 2
        if m.kind == "atomic":
            pts = np.vstack([pts, m.points[:2]])
        f = wolff_field(pr213, m, PointSet(pts))
        assert f.values.tolist() == [wolff_potential(pr213, m, x) for x in pts]
        if m.kind == "atomic" and m.cell_size is None and m.total_mass > 0:
            assert np.all(np.isinf(f.values[-2:]))


def test_tail_exists_classifier(pr213):
    m = atomic(np.ones((1, 3)), [1.0])
    assert tail_exists(pr213, m) == "finite"
    assert tail_exists(pr213, zero_measure(3)) == "finite"
    s = pr213.s  # = 1
    assert tail_exists(pr213, GrowthProfile(d=0.5)) == "finite"
    assert tail_exists(pr213, GrowthProfile(d=1.5)) == "infinite"
    # critical power: decided by the log exponent
    assert tail_exists(pr213, GrowthProfile(d=s, e=-2.0)) == "finite"
    assert tail_exists(pr213, GrowthProfile(d=s, e=-0.5)) == "infinite"
    assert tail_exists(pr213, GrowthProfile(d=s)) == "infinite"


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_wolff_translation_invariance(seed):
    """W m(x) depends only on distances to atoms."""
    rng = np.random.default_rng(seed)
    pr = validate_params(2.0, 0.5, 1.0, 3)
    m = random_atomic(rng, n=3, k=5)
    x = rng.normal(size=3)
    shift = rng.normal(size=3)
    m2 = atomic(m.points + shift, m.weights, cell_size=m.cell_size)
    a = wolff_potential(pr, m, x)
    b = wolff_potential(pr, m2, x + shift)
    assert b == pytest.approx(a, rel=1e-12)
