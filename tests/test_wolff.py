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
    """The defining oracle: the layer cake on a single atom reproduces
    ((p-1)/s) r^{-s/(p-1)} to 1e-10."""
    for _ in range(10):
        pr = random_params(rng)
        r = float(rng.uniform(0.3, 3.0))
        x = np.zeros(pr.n)
        y = np.zeros(pr.n)
        y[0] = r
        m = atomic(y[None, :], [1.0])
        exact = wolff_point_mass_value(pr, r)
        quad = wolff._layer_cake(m, x, pr.s, pr.p - 1.0, 0.0, QuadratureConfig())
        assert quad == pytest.approx(exact, rel=1e-10)
        assert wolff_potential(pr, m, x) == pytest.approx(exact, rel=1e-12)


def test_atomic_exact_matches_quadrature(rng):
    """Untruncated (t_min_policy "zero"), the closed-form atomic path agrees
    with the layer-cake quadrature on the same atoms."""
    cfg = QuadratureConfig(t_min_policy="zero")
    for _ in range(5):
        pr = random_params(rng)
        m = random_atomic(rng, n=pr.n, k=7)
        x = rng.normal(size=pr.n) * 2.0
        ex = wolff_potential(pr, m, x, cfg)
        qd = wolff._layer_cake(m, x, pr.s, pr.p - 1.0, 0.0, cfg)
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


def test_quadrature_error_judged_against_whole_potential():
    """Corpus seed 0, radial_bump_000 in n = 2 at p = 2.5: the estimate
    |Q12 - Q6| is 4.3e-8 of the quadrature part but 8.2e-9 of the whole
    potential, whose head and tail are exact (true error 9.7e-11), so no
    QuadratureWarning is raised."""
    from wolffkit.corpus import gen_corpus
    m = dict(gen_corpus(0, 2, 1))["radial_bump_000"]
    pr = validate_params(2.5, 0.75, 0.5, 2)
    x = np.array([-1.2590655321041202, 1.5139237747390626])
    with warnings.catch_warnings():
        warnings.simplefilter("error", QuadratureWarning)
        got = wolff_potential(pr, m, x)
    assert got == pytest.approx(0.4079739438764164, rel=1e-9)


def test_quadrature_config_rejects_non_finite_rel_tol():
    """err > rel_tol * total is never true for a nan or inf rel_tol, which
    would silence every QuadratureWarning."""
    for bad in (math.nan, math.inf, 0.0, -1e-8):
        with pytest.raises(ValueError, match="rel_tol"):
            QuadratureConfig(rel_tol=bad)


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
    # truncated at the atom's cell size, the evaluation is finite
    cell = atomic(np.zeros((1, 3)), [1.0], cell_size=0.5)
    assert wolff_potential(pr213, cell, np.zeros(3)) == pytest.approx(
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
        w = wolff_potential(pr, m, x, QuadratureConfig(t_min_policy="zero"))
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


def test_riesz_atomic_is_the_kernel_sum(rng):
    """On an atomic measure the p = 2 Wolff operator gives the direct sum
    of w |x - y|^{beta - n}, up to the roundings of / s * s and the sum
    order."""
    for n, beta in ((3, 2.0), (3, 0.5), (2, 1.3), (5, 4.0)):
        m = random_atomic(rng, n=n, k=12)
        for x in rng.normal(size=(4, n)):
            direct = float(np.sum(m.weights * np.linalg.norm(m.points - x, axis=1)
                                  ** (beta - n)))
            assert riesz_potential(beta, m, x) == pytest.approx(direct, rel=1e-15,
                                                                abs=0.0)


def test_riesz_atom_at_x():
    """An atom at x: of zero weight it adds nothing and raises no warning
    (it once computed 0 * inf); of positive weight it makes the value inf."""
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    x = np.zeros(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = riesz_potential(2.0, atomic(pts, [0.0, 0.5, 0.25]), x)
    assert val == pytest.approx(0.5 / 1.0 + 0.25 / 2.0, rel=1e-15)
    assert riesz_potential(2.0, atomic(pts, [0.1, 0.5, 0.25]), x) == math.inf


def test_riesz_radial_is_the_layer_cake_bit_for_bit():
    """Radial Riesz is (n - beta) times the layer cake at pm1 = 1, never
    truncated: the p = 2 Wolff route changes no bit."""
    cfg = QuadratureConfig()
    for m in (radial([0.0, 1.0], [1.0], 3),
              radial([0.0, 0.2, 0.5, 1.5], [0.0, 2.0, 0.5], 3),
              radial([0.0, 0.7, 1.0], [1.0, 3.0], 2)):
        n = m.dim
        for beta in (0.5, 1.0, n - 0.25):
            for x in ([0.0] * n, [0.3] + [0.0] * (n - 1), [1.0] * n):
                x = np.array(x)
                want = (n - beta) * wolff._layer_cake(m, x, n - beta, 1.0, 0.0, cfg)
                assert riesz_potential(beta, m, x, cfg) == want


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
    want = [wolff_potential(pr213, m, x, QuadratureConfig(t_min_policy="zero"))
            for x in evals]
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


def _p2_kernel(pr, atoms, evals, t_min):
    """K[z, k] = W delta_{y_k}(z) at p = 2, from the point-mass closed form."""
    return np.array([[wolff_point_mass_value(pr, float(np.linalg.norm(z - y)),
                                             1.0, t_min) for y in atoms]
                     for z in evals])


def test_p2_operator_matches_point_mass_sums(rng):
    """At p = 2 the operator is the kernel sum of point-mass potentials:
    1e-14 relative on random clouds, with and without t_min."""
    for n in (1, 3, 5):
        pr = validate_params(2.0, 0.5, 0.3 if n == 1 else 1.0, n)
        atoms = rng.normal(size=(40, n))
        evals = rng.normal(size=(25, n))
        w = rng.uniform(0.0, 1.0, 40)
        w[::7] = 0.0
        for t_min in (0.0, 0.3):
            op = AtomicWolffOperator(pr, atoms, evals, t_min)
            want = [math.fsum(w * row)
                    for row in _p2_kernel(pr, atoms, evals, t_min)]
            assert op.apply(w) == pytest.approx(want, rel=1e-14)


def test_p2_operator_at_coincident_points(pr213):
    """t_min = 0 with an eval point on an atom: inf under a positive weight,
    and no nan under a zero one (that atom then adds nothing)."""
    atoms = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    op = AtomicWolffOperator(pr213, atoms, atoms[:2], t_min=0.0)
    got = op.apply(np.array([0.0, 1.0, 0.5]))
    assert got[0] == pytest.approx(1.0 + 0.5 / 2.0, rel=1e-15)
    assert got[1] == math.inf
    vals, grad = op.apply_with_grad(np.array([0.5, 0.0, 0.0]))
    assert vals[0] == math.inf and vals[1] == pytest.approx(0.5, rel=1e-15)
    assert grad[0, 0] == grad[1, 1] == math.inf
    assert grad[0, 1] == pytest.approx(1.0, rel=1e-15)


def test_sorted_operator_at_coincident_atoms():
    """Two atoms on the eval point with t_min = 0 (p != 2): inf, not the
    nan of an inf - inf shell, when either weighs; finite when both weigh
    nothing."""
    pr = validate_params(2.5, 0.5, 1.0, 3)
    pts = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
    zero = QuadratureConfig(t_min_policy="zero")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for w in ([0.2, 0.3, 0.5], [0.0, 0.3, 0.5], [0.3, 0.0, 0.5]):
            assert wolff_potential(pr, atomic(pts, w), np.zeros(3), zero) == math.inf
        finite = wolff_potential(pr, atomic(pts, [0.0, 0.0, 0.5]), np.zeros(3), zero)
    assert finite == pytest.approx(wolff_point_mass_value(pr, 1.0, 0.5), rel=1e-14)


def test_p2_gradient_is_kernel(rng, pr213):
    """At p = 2 the Jacobian is the kernel K itself, also for atoms nearer
    to z than the first atom of positive weight (zero weights there), and
    it matches central finite differences."""
    evals = rng.normal(size=(4, 3))
    near = evals + 0.05 * rng.normal(size=(4, 3))
    atoms = np.vstack([near, rng.normal(size=(6, 3)) * 2.0])
    w = np.concatenate([np.zeros(4), rng.uniform(0.1, 1.0, 6)])
    t_min = 0.01
    op = AtomicWolffOperator(pr213, atoms, evals, t_min)
    _, grad = op.apply_with_grad(w)
    K = _p2_kernel(pr213, atoms, evals, t_min)
    assert grad == pytest.approx(K, rel=1e-14)
    eps = 1e-4
    for k in range(len(w)):
        step = np.where(np.arange(len(w)) == k, eps, 0.0)
        fd = (op.apply(w + step) - op.apply(w - step)) / (2.0 * eps)
        assert grad[:, k] == pytest.approx(fd, rel=1e-8)


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


def test_sq_distances_blocked_bit_equal_to_direct_formula(rng, monkeypatch):
    """Squared distances written in row blocks equal the direct sum of
    squared coordinate differences bit for bit, with the last block partial:
    7 rows in blocks of 3 (3 atoms per 10 entries), in 1, 2, 3 and 5
    dimensions."""
    monkeypatch.setattr(wolff, "_BLOCK_ENTRIES", 10)
    for n in (1, 2, 3, 5):
        a, b = rng.normal(size=(7, n)), rng.normal(size=(3, n))
        direct = sum((a[:, k, None] - b[None, :, k]) ** 2 for k in range(n))
        got = wolff._sq_distances(a, b)
        assert got.shape == (7, 3)
        assert np.array_equal(got, direct)
    assert wolff._sq_distances(np.zeros((0, 3)), np.ones((2, 3))).shape == (0, 2)


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
