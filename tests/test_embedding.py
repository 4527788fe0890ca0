import math

import numpy as np
import pytest

from wolffkit import (AtomicWolffOperator, PointSet, QuadratureConfig,
                      as_atomic, atomic, default_candidate_grid,
                      ball_mass, kappa_point_mass, kappa_profile,
                      kappa_simplex_ascent, radial, restrict, scale,
                      validate_params, zero_measure)
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


@pytest.mark.parametrize("call", [
    lambda pr, s, g, t: kappa_point_mass(pr, s, np.zeros(3), t, g),
    lambda pr, s, g, t: kappa_simplex_ascent(pr, s, np.zeros(3), t, g),
    lambda pr, s, g, t: restrict(s, np.zeros(3), t),
    lambda pr, s, g, t: ball_mass(s, np.zeros(3), t),
    lambda pr, s, g, t: ball_mass(s, np.zeros(3), [0.5, t]),
], ids=["point_mass", "ascent", "restrict", "ball_mass", "ball_mass_array"])
def test_nan_radius_rejected(pr213, call):
    """A nan radius is no ball: every one-ball function refuses it."""
    sigma = atomic([[0.2, 0.0, 0.0], [0.0, 0.7, 0.0]], [0.4, 0.6], cell_size=0.1)
    grid = default_candidate_grid(sigma, np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        call(pr213, sigma, grid, math.nan)


@pytest.mark.parametrize("tup,concave", [
    ((2.0, 0.5, 1.0, 3), True), ((2.5, 0.75, 1.0, 3), True),
    ((3.0, 1.5, 1.0, 5), False), ((1.6, 0.3, 1.0, 3), False)])
def test_concave_regime_needs_p_at_least_2_and_q_at_most_1(tup, concave):
    """W nu is concave in nu for p >= 2; the power mean over sigma keeps
    that only for q <= 1."""
    pr = validate_params(*tup)
    sigma = atomic(np.eye(tup[3])[:2] * 0.5, [0.5, 0.5], cell_size=0.1)
    x = np.zeros(tup[3])
    grid = default_candidate_grid(sigma, x, 1.0)
    ests = [kappa_point_mass(pr, sigma, x, 1.0, grid),
            kappa_simplex_ascent(pr, sigma, x, 1.0, grid, iters=2),
            kappa_simplex_ascent(pr, sigma, x, 0.1, grid)]  # empty ball
    assert [e.concave_regime for e in ests] == [concave] * 3


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


def test_point_mass_scan_rung_rows_match_prefix_sums():
    """The rung rows are prefix sums of zw (W delta_y)^q with the closed-form
    point-mass kernel, over more atoms than one block holds, with k = 0
    rungs, repeated ends and (t_min = 0) a candidate on an atom."""
    from wolffkit.embedding import _point_mass_scan
    from wolffkit.wolff import _BLOCK_ENTRIES
    rng = np.random.default_rng(4)
    pr = validate_params(2.5, 0.75, 1.0, 3)
    cands = np.vstack([rng.normal(size=(39, 3)), [[0.0, 0.0, 0.0]]])
    n_atoms = 2 * (_BLOCK_ENTRIES // len(cands)) + 7  # three blocks
    zpts = rng.normal(size=(n_atoms, 3))
    zpts[1500] = cands[-1]
    zw = rng.uniform(0.1, 1.0, n_atoms)
    ends = [0, 0, 5, 1500, 1501, 1501, n_atoms - 3, n_atoms]
    for t_min in (0.0, 0.05):
        dist = np.linalg.norm(zpts[:, None, :] - cands[None, :, :], axis=2)
        with np.errstate(divide="ignore"):
            kern = (pr.p - 1.0) / pr.s * np.maximum(dist, t_min) ** (
                -pr.s / (pr.p - 1.0))
        prefix = np.vstack([np.zeros(len(cands)),
                            np.cumsum(zw[:, None] * kern ** pr.q, axis=0)])
        got = _point_mass_scan(pr, zpts, zw, cands, t_min, ends)
        assert got.shape == (len(ends), len(cands))
        np.testing.assert_allclose(got, prefix[ends], rtol=1e-12, atol=0.0)
        assert np.all(got[:2] == 0.0)
        assert np.isinf(got[4:, -1]).all() == (t_min == 0.0)
        np.testing.assert_allclose(_point_mass_scan(pr, zpts, zw, cands, t_min),
                                   prefix[-1:], rtol=1e-12, atol=0.0)


def _inline_scan(pr, zpts, zw, candidates, t_min, ends, step):
    """The point-mass scan with its own inline squared-distance loop, as it
    was written before it shared wolff._sq_distances: the reference."""
    ends = np.asarray(ends, dtype=int)
    power = -0.5 * pr.s * pr.delta * pr.q
    out = np.zeros((len(ends), len(candidates)))
    row = np.zeros(len(candidates))
    cuts = np.union1d(np.arange(0, ends.max(initial=0), step), ends)
    for i, j in zip(cuts[:-1], cuts[1:]):
        blk = zpts[i:j]
        d2 = (blk[:, 0, None] - candidates[None, :, 0]) ** 2
        for k in range(1, blk.shape[1]):
            d2 += (blk[:, k, None] - candidates[None, :, k]) ** 2
        np.maximum(d2, t_min * t_min, out=d2)
        with np.errstate(divide="ignore"):
            d2 **= power
        row += zw[i:j] @ d2
        out[ends == j] = row
    return ((pr.p - 1.0) / pr.s) ** pr.q * out


def test_point_mass_scan_bit_equal_to_inline_distance_loop(monkeypatch):
    """Built on the shared blocked distance routine, the scan's rung rows
    equal the inline loop's bit for bit: scan blocks of 5 atoms, each built
    in distance blocks of 3 rows, t_min = 0 with an atom on a candidate."""
    from wolffkit import embedding, wolff
    monkeypatch.setattr(embedding, "_BLOCK_ENTRIES", 200)
    monkeypatch.setattr(wolff, "_BLOCK_ENTRIES", 120)
    rng = np.random.default_rng(9)
    cands = rng.normal(size=(40, 3))
    zpts = rng.normal(size=(23, 3))
    zpts[11] = cands[7]
    zw = rng.uniform(0.1, 1.0, 23)
    ends = [0, 4, 11, 12, 12, 23]
    for tup in ((2.0, 0.5, 1.0, 3), (2.5, 0.75, 1.0, 3), (3.0, 1.0, 0.75, 3)):
        pr = validate_params(*tup)
        for t_min in (0.0, 0.05):
            got = embedding._point_mass_scan(pr, zpts, zw, cands, t_min, ends)
            assert np.array_equal(got, _inline_scan(pr, zpts, zw, cands, t_min,
                                                    ends, 5))
            assert np.isinf(got[3:, 7]).all() == (t_min == 0.0)
