import math

import numpy as np
import pytest

from wolffkit import (AtomicWolffOperator, PointSet, QuadratureConfig,
                      as_atomic, atomic, default_candidate_grid,
                      kappa_point_mass, kappa_profile, kappa_simplex_ascent,
                      radial, restrict, scale, validate_params, zero_measure)
from conftest import random_atomic, random_params

UNIT_BALL_KAPPA = (8.0 * math.pi / 5.0) ** 2
# closed-form lower bound for sigma = Lebesgue on the unit ball at
# p = 2, q = 1/2, alpha = 1, n = 3 with nu = delta_0:
# int_B |z|^{-1/2} dz = 8 pi / 5, kappa >= (8 pi/5)^{1/q}


@pytest.fixture
def unit_ball_sigma():
    return radial([0.0, 1.0], [1.0], 3)


def test_point_mass_scan_hits_radial_oracle(pr213, unit_ball_sigma):
    grid = default_candidate_grid(unit_ball_sigma, np.zeros(3), 1.0)
    est = kappa_point_mass(pr213, unit_ball_sigma, np.zeros(3), 1.0, grid)
    assert est.direction == "lower_bound"
    # the discretized sigma under-resolves the |z|^{-1/2} singularity, so the
    # scan sits slightly below the continuum value; 2% slack
    assert est.value == pytest.approx(UNIT_BALL_KAPPA, rel=2e-2)
    assert est.value <= UNIT_BALL_KAPPA * 1.005


def test_ascent_dominates_point_mass(pr213, unit_ball_sigma):
    grid = default_candidate_grid(unit_ball_sigma, np.zeros(3), 1.0)
    pm = kappa_point_mass(pr213, unit_ball_sigma, np.zeros(3), 1.0, grid)
    fw = kappa_simplex_ascent(pr213, unit_ball_sigma, np.zeros(3), 1.0, grid)
    assert fw.direction == "best_estimate"
    assert fw.concave_regime  # p = 2
    assert fw.value >= pm.value * (1.0 - 1e-12)


def _exp_gradient_kappa(pr, sigma, x, t, grid, iters=1000):
    """Independent oracle: exponentiated-gradient (mirror) ascent on the
    probability simplex, an entirely different update rule than the
    conditional-gradient path under test."""
    cfg = QuadratureConfig()
    sb = restrict(as_atomic(sigma), x, t)
    zpts, zw = sb.points, sb.weights
    t_min = cfg.resolve_t_min(sb.cell_size)
    op = AtomicWolffOperator(pr, grid.points, zpts, t_min=t_min)
    q = pr.q
    nu = np.full(len(grid), 1.0 / len(grid))
    best = 0.0
    for _ in range(iters):
        w, gw = op.apply_with_grad(nu)
        inner = float(np.sum(zw * w ** q))
        best = max(best, inner ** (1.0 / q))
        with np.errstate(divide="ignore"):
            coeff = np.where(w > 0, zw * w ** (q - 1.0), 0.0)
        grad = inner ** (1.0 / q - 1.0) * (coeff[:, None] * gw).sum(axis=0)
        eta = 2.0 / max(np.abs(grad).max(), 1e-300)
        nu = nu * np.exp(eta * grad)
        nu /= nu.sum()
    return best


def test_ascent_matches_exp_gradient_oracle(pr213, unit_ball_sigma):
    grid = default_candidate_grid(unit_ball_sigma, np.zeros(3), 1.0)
    fw = kappa_simplex_ascent(pr213, unit_ball_sigma, np.zeros(3), 1.0, grid)
    eg = _exp_gradient_kappa(pr213, unit_ball_sigma, np.zeros(3), 1.0, grid)
    assert fw.value == pytest.approx(eg, rel=1e-2)


def test_point_mass_homogeneity_exact(rng):
    """kappa(lambda sigma) = lambda^{1/q} kappa(sigma), exact for the scan."""
    for _ in range(3):
        pr = random_params(rng)
        sigma = random_atomic(rng, n=pr.n, k=8)
        lam = float(rng.uniform(0.3, 7.0))
        grid = default_candidate_grid(sigma, np.zeros(pr.n), 2.0)
        a = kappa_point_mass(pr, sigma, np.zeros(pr.n), 2.0, grid)
        b = kappa_point_mass(pr, scale(sigma, lam), np.zeros(pr.n), 2.0, grid)
        assert b.value == pytest.approx(lam ** (1.0 / pr.q) * a.value, rel=1e-12)


def test_ascent_homogeneity(rng, pr213):
    sigma = random_atomic(rng, n=3, k=8)
    lam = 5.0
    grid = default_candidate_grid(sigma, np.zeros(3), 2.0)
    a = kappa_simplex_ascent(pr213, sigma, np.zeros(3), 2.0, grid)
    b = kappa_simplex_ascent(pr213, scale(sigma, lam), np.zeros(3), 2.0, grid)
    assert b.value == pytest.approx(lam ** (1.0 / pr213.q) * a.value, rel=1e-2)


def test_zero_measure_kappa_is_zero(pr213):
    grid = PointSet(np.zeros((1, 3)))
    est = kappa_point_mass(pr213, zero_measure(3), np.zeros(3), 1.0, grid)
    assert est.value == 0.0


def test_kappa_infinite_at_genuine_atom(pr213):
    """A candidate sitting on a genuine atom of sigma (no cell size) makes
    the restricted integral diverge: the estimate is honestly +inf."""
    sigma = atomic(np.zeros((1, 3)), [1.0])
    grid = PointSet(np.zeros((1, 3)))
    est = kappa_point_mass(pr213, sigma, np.zeros(3), 1.0, grid)
    assert est.value == math.inf


def test_profile_monotone_and_saturates(pr213, unit_ball_sigma):
    radii = np.geomspace(0.1, 4.0, 8)
    prof = kappa_profile(pr213, unit_ball_sigma, np.zeros(3), radii)
    vals = prof.values
    assert np.all(np.diff(vals) >= -1e-14)
    assert prof.saturation_radius == pytest.approx(1.0)
    past = vals[radii >= 1.0]
    assert np.all(past == past[0])  # frozen past saturation


def test_profile_rejects_bad_radii(pr213, unit_ball_sigma):
    with pytest.raises(ValueError):
        kappa_profile(pr213, unit_ball_sigma, np.zeros(3), [2.0, 1.0])
    with pytest.raises(ValueError):
        kappa_profile(pr213, unit_ball_sigma, np.zeros(3), [-1.0, 1.0])
    with pytest.raises(ValueError):
        kappa_point_mass(pr213, unit_ball_sigma, np.zeros(3), 0.0,
                         PointSet(np.zeros((1, 3))))


def test_profile_direction_metadata(pr213, unit_ball_sigma):
    radii = np.geomspace(0.3, 2.0, 4)
    pm = kappa_profile(pr213, unit_ball_sigma, np.zeros(3), radii,
                       method="pointmass")
    assert pm.direction == "lower_bound"
    fw = kappa_profile(pr213, unit_ball_sigma, np.zeros(3), radii,
                       method="ascent", iters=10)
    assert fw.direction == "best_estimate"


def test_ascent_p_below_2_still_lower_bounded(rng):
    """p < 2 (non-concave regime): the ascent is still at least as good as
    the vertex scan."""
    pr = validate_params(1.6, 0.3, 1.0, 3)
    sigma = random_atomic(rng, n=3, k=8)
    grid = default_candidate_grid(sigma, np.zeros(3), 2.0)
    pm = kappa_point_mass(pr, sigma, np.zeros(3), 2.0, grid)
    fw = kappa_simplex_ascent(pr, sigma, np.zeros(3), 2.0, grid)
    assert not fw.concave_regime
    assert fw.value >= pm.value * (1.0 - 1e-12)


def test_profile_ignores_zero_weight_atoms(pr213):
    """An atom of zero weight under a candidate must not turn a rung into
    0 * inf = nan, which the running max would silently drop."""
    sigma = atomic([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]], [0.0, 1.0])
    prof = kappa_profile(pr213, sigma, [0.1, 0.0, 0.0], [0.05, 0.3, 1.0])
    assert prof.values.tolist() == [0.0, 0.0, math.inf]


def test_point_mass_ignores_zero_weight_atoms(pr213):
    sigma = atomic([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]], [1.0, 0.0])
    grid = default_candidate_grid(sigma, np.zeros(3), 1.0)
    est = kappa_point_mass(pr213, sigma, np.zeros(3), 1.0, grid)
    assert est.value == math.inf


def test_ascent_ignores_zero_weight_atoms(pr213):
    sigma = atomic([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]], [1.0, 0.0])
    grid = default_candidate_grid(sigma, np.zeros(3), 1.0)
    est = kappa_simplex_ascent(pr213, sigma, np.zeros(3), 1.0, grid)
    assert est.value == math.inf


def _per_rung_profile(pr, sigma, x, radii):
    """Running max of independent kappa_point_mass calls, one per rung."""
    vals = [kappa_point_mass(pr, sigma, x, t,
                             default_candidate_grid(sigma, x, t)).value
            for t in radii]
    return np.maximum.accumulate(vals)


def test_profile_equals_per_rung_point_mass(rng, pr213):
    """The one-pass ladder reads each closed ball as a prefix of the sorted
    atoms: two atoms at equal distance enter together, and an atom at
    exactly a rung's radius is inside that rung's ball."""
    x = np.array([0.25, 0.0, 0.0])
    g = rng.standard_normal((20, 3))
    far = x + g / np.linalg.norm(g, axis=1, keepdims=True) \
        * rng.uniform(0.6, 1.0, size=(20, 1))
    pts = np.vstack([[[0.75, 0.0, 0.0], [-0.25, 0.0, 0.0], [0.25, 0.5, 0.0]],
                     far])
    sigma = atomic(pts, rng.uniform(0.1, 1.0, len(pts)), cell_size=0.05)
    radii = np.array([0.02, 0.1, 0.3, 0.5, 0.8, 1.2])
    assert radii[-1] < np.linalg.norm(x) + sigma.support_radius
    prof = kappa_profile(pr213, sigma, x, radii)
    assert prof.values == pytest.approx(_per_rung_profile(pr213, sigma, x, radii),
                                        rel=1e-13)
    # only the three atoms at distance exactly 0.5 lie within 0.5 of x
    assert np.all(prof.values[:3] == 0.0) and prof.values[3] > 0.0


def test_radial_profile_equals_per_rung_point_mass(pr213):
    sigma = radial([0.0, 0.4, 1.0], [2.0, 0.5], 3)
    x = np.array([0.3, -0.2, 0.1])
    radii = np.geomspace(0.05, 1.2, 7)
    prof = kappa_profile(pr213, sigma, x, radii)
    assert prof.values == pytest.approx(_per_rung_profile(pr213, sigma, x, radii),
                                        rel=1e-13)
