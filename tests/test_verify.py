import math

import numpy as np
import pytest
import sympy

from wolffkit import (GrowthProfile, Params, PointSet, ball_capacity_check,
                      bilateral_bound, bound_field, check_lemma_34,
                      default_bound_ladder, default_phi_family,
                      existence_check, intrinsic_potential, kappa_profile,
                      phi_nu, phi_sup, phi_sup_report, radial, scale,
                      solve_monotone, validate_params, verify_sandwich,
                      wolff_potential, zero_measure, atomic)
from wolffkit.corpus import gen_corpus
from conftest import random_atomic, random_params


# -- phi_nu scale invariance ----------------------------------------------

def test_phi_exponent_cancellation_symbolic():
    """phi_{lambda nu} = phi_nu: the lambda exponent cancels exactly.

    W(lambda nu) = lambda^{1/(p-1)} W nu, so the inner potential picks up
    lambda^{q/(p-1)^2} and phi picks up
    delta + gamma * delta * (q * delta - 1); that exponent is identically 0.
    """
    p, q, lam = sympy.symbols("p q lam", positive=True)
    delta = 1 / (p - 1)
    gamma = (p - 1) / (p - 1 - q)
    exponent = delta + gamma * (q * delta * delta - delta)
    assert sympy.simplify(exponent) == 0


def test_phi_scale_invariance_numeric(rng):
    for _ in range(5):
        pr = random_params(rng)
        sigma = random_atomic(rng, n=pr.n, k=8)
        nu = random_atomic(rng, n=pr.n, k=4)
        lam = float(rng.uniform(0.01, 100.0))
        x = rng.normal(size=pr.n) * 3.0
        a = phi_nu(pr, sigma, nu, x)
        b = phi_nu(pr, sigma, scale(nu, lam), x)
        assert b == pytest.approx(a, rel=1e-9)


def test_phi_rejects_degenerate_nu(pr213, rng):
    sigma = random_atomic(rng, n=3, k=5)
    with pytest.raises(ValueError, match="W nu"):
        phi_nu(pr213, sigma, zero_measure(3), np.zeros(3))
    spike = atomic(np.zeros((1, 3)), [1.0])  # genuine atom: W nu(0) = inf
    with pytest.raises(ValueError, match="W nu"):
        phi_nu(pr213, sigma, spike, np.zeros(3))


def test_phi_sup_skips_undefined_candidates(pr213, rng):
    sigma = random_atomic(rng, n=3, k=5)
    good = random_atomic(rng, n=3, k=3)
    family = [("zero", zero_measure(3)), ("good", good)]
    val, tag = phi_sup(pr213, sigma, np.ones(3), family)
    assert tag == "good" and math.isfinite(val)
    nothing, tag = phi_sup(pr213, sigma, np.ones(3), [("zero", zero_measure(3))])
    assert math.isnan(nothing) and tag == "undefined"


def test_default_phi_family_composition(pr213, rng):
    sigma = random_atomic(rng, n=3, k=6)
    rep = solve_monotone(pr213, sigma, zero_measure(3), u0_mode="seeded")
    fam = default_phi_family(pr213, sigma, u=rep.u,
                             probe_points=np.zeros((1, 3)))
    tags = [t for t, _ in fam]
    assert "sigma" in tags
    assert "u^q dsigma" in tags
    assert any(t.startswith("delta_") for t in tags)
    assert any(t.startswith("sigma|B") for t in tags)


def test_solution_below_phi_sup(pr213, rng):
    """Lemma 3.3 ordering: the homogeneous (mu = 0) solution is a subsolution
    dominated by phi_sup over the proof-guided family."""
    sigma = random_atomic(rng, n=3, k=8)
    rep = solve_monotone(pr213, sigma, zero_measure(3), u0_mode="seeded",
                         tol=1e-8)
    fam = default_phi_family(pr213, sigma, u=rep.u)
    report = phi_sup_report(pr213, sigma, rep.u.points, fam)
    ok = np.isfinite(report.phi_values)
    assert ok.all()
    assert np.all(rep.u.values[ok] <= report.phi_values[ok] * (1 + 1e-6))


# -- lemma 3.4 audit -------------------------------------------------------

def test_lemma_34_ratio_bounded(pr213, rng):
    sigma = random_atomic(rng, n=3, k=8)
    radii = np.geomspace(0.05, 6.0, 10)
    prof = kappa_profile(pr213, sigma, np.zeros(3), radii)
    K = intrinsic_potential(pr213, prof)
    ratios = []
    for _ in range(20):
        nu = random_atomic(rng, n=3, k=4)
        x = rng.normal(size=3) * 2
        ratios.append(check_lemma_34(pr213, sigma, nu, np.zeros(3), K))
    ratios = np.array(ratios)
    assert np.all(np.isfinite(ratios)) and np.all(ratios > 0)
    # bounded by an O(1) constant depending only on the exponents
    assert ratios.max() < 50.0


def test_lemma_34_rejects_degenerate(pr213, rng):
    sigma = random_atomic(rng, n=3, k=4)
    nu = random_atomic(rng, n=3, k=3)
    with pytest.raises(ValueError, match="finite"):
        check_lemma_34(pr213, sigma, nu, np.zeros(3), math.inf)


# -- sandwich --------------------------------------------------------------

def test_bilateral_bound_terms(pr213, rng):
    sigma = random_atomic(rng, n=3, k=8)
    mu = random_atomic(rng, n=3, k=3)
    x = np.zeros(3)
    radii = np.geomspace(0.05, 6.0, 10)
    prof = kappa_profile(pr213, sigma, x, radii)
    R, terms = bilateral_bound(pr213, sigma, mu, x, prof)
    assert set(terms) == {"wolff_term", "intrinsic_term", "mu_term",
                          "wolff_sigma"}
    assert R == terms["wolff_term"] + terms["intrinsic_term"] + terms["mu_term"]
    assert terms["wolff_term"] == terms["wolff_sigma"] ** pr213.gamma
    assert all(v >= 0 for v in terms.values())


def test_bilateral_bound_needs_no_profile_for_zero_sigma(pr213, rng):
    mu = random_atomic(rng, n=3, k=3)
    R, terms = bilateral_bound(pr213, zero_measure(3), mu, np.zeros(3), None)
    assert terms["wolff_sigma"] == terms["intrinsic_term"] == 0.0
    assert R == terms["mu_term"] == wolff_potential(pr213, mu, np.zeros(3))


def test_bound_field_matches_per_point_composition(pr213, cfg):
    """bound_field is bit-identical to the per-point ladder -> point-mass
    profile -> bilateral_bound chain, on a radial sigma away from the
    origin."""
    sigma = radial([0.0, 0.5, 1.0], [1.0, 0.5], 3)
    mu = zero_measure(3)
    pts = PointSet(np.array([[0.3, 0.1, 0.0], [0.0, -0.8, 0.2],
                             [1.5, 0.0, 0.0]]))
    field, rows = bound_field(pr213, sigma, mu, pts, 8, cfg)
    for x, R, row in zip(pts.points, field.values, rows):
        prof = kappa_profile(pr213, sigma, x,
                             default_bound_ladder(sigma, x, 8),
                             method="pointmass", cfg=cfg)
        R_ref, terms = bilateral_bound(pr213, sigma, mu, x, prof, cfg)
        assert R == R_ref
        assert row == {**terms, "kappa_total": float(prof.values[-1]),
                       "kappa_direction": prof.direction}


def test_bound_field_zero_sigma_builds_no_ladder(pr213, rng, cfg):
    """sigma = 0 has no kappa ladder (default_bound_ladder rejects the
    origin), so the bound is W mu, with the origin allowed."""
    sigma, mu = zero_measure(3), random_atomic(rng, n=3, k=3)
    pts = PointSet(np.array([[0.0, 0.0, 0.0], [0.7, 0.2, -0.1]]))
    field, rows = bound_field(pr213, sigma, mu, pts, 10, cfg)
    for x, R, row in zip(pts.points, field.values, rows):
        R_ref, terms = bilateral_bound(pr213, sigma, mu, x, None, cfg)
        assert R == R_ref
        assert row == {**terms, "kappa_total": 0.0, "kappa_direction": None}


def test_intrinsic_term_continuous_at_radial_origin(pr213, cfg):
    """A radial sigma's centre is no special case for the kappa ladder: K
    sigma at the origin matches a point 1e-9 away."""
    sigma = dict(gen_corpus(7, 3, 4))["annulus_001"]
    pts = PointSet(np.array([[0.0, 0.0, 0.0], [1e-9, 0.0, 0.0]]))
    _, rows = bound_field(pr213, sigma, zero_measure(3), pts, 10, cfg)
    assert rows[0]["intrinsic_term"] == pytest.approx(rows[1]["intrinsic_term"],
                                                      rel=1e-6)


def test_verify_sandwich_ratios(pr213, rng):
    sigma = random_atomic(rng, n=3, k=8)
    rep = solve_monotone(pr213, sigma, zero_measure(3), u0_mode="seeded")
    Rvals = []
    for x in rep.u.points.points:
        sat = float(np.linalg.norm(x)) + sigma.support_radius
        radii = np.geomspace(sat / 50, sat * 1.2, 10)
        prof = kappa_profile(pr213, sigma, x, radii)
        R, _ = bilateral_bound(pr213, sigma, zero_measure(3), x, prof)
        Rvals.append(R)
    from wolffkit import PotentialField
    bound = PotentialField(params=pr213, points=rep.u.points,
                           values=np.asarray(Rvals))
    br = verify_sandwich(pr213, sigma, zero_measure(3), rep, bound)
    assert 0 < br.c1_emp <= br.c2_emp < math.inf
    assert br.c2_emp / br.c1_emp < 100.0
    assert br.flagged == []


def test_verify_sandwich_point_set_mismatch(pr213, rng):
    sigma = random_atomic(rng, n=3, k=5)
    rep = solve_monotone(pr213, sigma, zero_measure(3), u0_mode="seeded")
    from wolffkit import PotentialField
    other = PotentialField(params=pr213, points=PointSet(np.ones((1, 3))),
                           values=np.array([1.0]))
    with pytest.raises(ValueError, match="point set"):
        verify_sandwich(pr213, sigma, zero_measure(3), rep, other)


def test_verify_sandwich_matches_points_exactly(pr213, rng):
    """A bound field on points shifted by 1e-9 is not u's point set."""
    sigma = random_atomic(rng, n=3, k=5)
    rep = solve_monotone(pr213, sigma, zero_measure(3), u0_mode="seeded")
    from wolffkit import PotentialField
    shifted = PotentialField(params=pr213,
                             points=PointSet(rep.u.points.points + 1e-9),
                             values=rep.u.values)
    with pytest.raises(ValueError, match="point set"):
        verify_sandwich(pr213, sigma, zero_measure(3), rep, shifted)


# -- existence classifier --------------------------------------------------

def test_existence_truth_table(pr213):
    s = pr213.s  # 1.0; kexp = 1.0
    sub = GrowthProfile(d=0.5)
    crit = GrowthProfile(d=s)
    sup_ = GrowthProfile(d=1.5)
    # sigma tail alone
    assert existence_check(pr213, sub, None, kappa_growth=sub) == "exists"
    assert existence_check(pr213, crit, None, kappa_growth=sub) == "not_exists"
    assert existence_check(pr213, sup_, None, kappa_growth=sub) == "not_exists"
    # intrinsic tail alone
    assert existence_check(pr213, sub, None, kappa_growth=crit) == "not_exists"
    # mu tail
    assert existence_check(pr213, sub, sub, kappa_growth=sub) == "exists"
    assert existence_check(pr213, sub, sup_, kappa_growth=sub) == "not_exists"
    # n <= p kills everything at alpha = 1
    low = validate_params(3.0, 1.0, 1.0, 3, preset="p-laplace")
    assert existence_check(low, sub, None, kappa_growth=sub) == "not_exists"


def test_existence_compact_sigma_defaults(pr213, rng):
    sigma = random_atomic(rng, n=3, k=5)
    assert existence_check(pr213, sigma, None) == "exists"


# -- capacity --------------------------------------------------------------

def test_capacity_check_radial_passes():
    pr = validate_params(2.0, 0.5, 1.0, 5)  # p < n required
    sigma = radial([0.0, 1.0], [1.0], 5)
    res = ball_capacity_check(pr, sigma, np.geomspace(0.05, 1.0, 8))
    assert res.verdict == "passes"
    assert math.isfinite(res.constant)


def test_capacity_check_atom_fails():
    pr = validate_params(2.0, 0.5, 1.0, 5)
    sigma = atomic(np.zeros((1, 5)), [1.0])
    res = ball_capacity_check(pr, sigma, np.geomspace(0.05, 1.0, 8))
    assert res.verdict == "fails"


def test_capacity_check_guards():
    pr = validate_params(2.0, 0.5, 0.5, 3)
    with pytest.raises(ValueError, match="alpha"):
        ball_capacity_check(pr, zero_measure(3), [0.5, 1.0])
    low = Params(p=3.0, q=1.0, alpha=1.0, n=3)
    with pytest.raises(ValueError, match="p < n"):
        ball_capacity_check(low, zero_measure(3), [0.5, 1.0])


def test_capacity_inequality_constant(pr213_5d=None):
    pr = validate_params(2.0, 0.5, 1.0, 5)
    sigma = radial([0.0, 1.0], [1.0], 5)
    rep = solve_monotone(pr, sigma, zero_measure(5), u0_mode="seeded")
    res = ball_capacity_check(pr, sigma, np.geomspace(0.1, 1.0, 6), u=rep.u)
    assert res.verdict == "passes"
    assert res.inequality_constant is not None
    assert math.isfinite(res.inequality_constant)
