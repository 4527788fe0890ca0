import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from wolffkit import (GrowthProfile, KappaEstimate, KappaProfile, atomic,
                      intrinsic_potential, intrinsic_tail_finite, kappa_profile,
                      radial, scale, validate_params)
from wolffkit.wolff import _power_integral


def _profile(radii, values, sat=None, direction="lower_bound"):
    radii = np.asarray(radii, dtype=float)
    ests = [KappaEstimate(value=float(v), direction=direction,
                          method="point_mass") for v in values]
    return KappaProfile(center=np.zeros(3), radii=radii, estimates=ests,
                        saturation_radius=sat if sat is not None else radii[-1])


def test_power_integral_against_scipy():
    """A log-linear kappa segment kappa(t) = c0 (t/r0)^b is the power piece
    kappa^kexp = c0^kexp (t/r0)^(b kexp)."""
    pr = validate_params(3.0, 1.0, 1.0, 5)  # s = 2
    c0, r0, b = 1.7, 0.3, 0.8

    def integrand(t):
        kap = c0 * (t / r0) ** b
        return (kap ** pr.kexp / t ** pr.s) ** (1.0 / (pr.p - 1.0)) / t

    got = _power_integral(c0 ** pr.kexp, r0, b * pr.kexp, 0.3, 1.2, pr.s,
                          pr.p - 1.0)
    want, _ = quad(integrand, 0.3, 1.2)
    assert got == pytest.approx(want, rel=1e-10)


def test_power_integral_log_case():
    # a == s: the integrand is exactly c/t
    got = _power_integral(4.0, 1.0, 1.0, 1.0, math.e, 1.0, 2.0)
    assert got == pytest.approx(2.0, rel=1e-10)


def test_power_integral_near_log_case():
    """e = (a - s)/pm1 = 1e-13, just above the exact-log threshold: the
    difference of powers would cancel to a 1.9e-3 error, the expm1 form
    keeps the log limit 2 log(1.8)."""
    got = _power_integral(1.0, 0.5, 1.0 + 1e-13, 0.5, 0.9, 1.0, 1.0)
    assert got == pytest.approx(2.0 * math.log(1.8), rel=1e-12)


def test_power_integral_open_ends():
    """lo = 0 under a growing power and hi = inf under a decaying one, with
    elementwise arrays: t^2 dt/t on [0, 2] and 5/t dt/t on [2, inf)."""
    got = _power_integral([8.0, 5.0], 2.0, [3.0, 0.0], [0.0, 2.0],
                          [2.0, math.inf], 1.0, 1.0)
    assert got == pytest.approx([2.0, 2.5], rel=1e-15)


@pytest.mark.parametrize("tup", [(2.0, 0.5, 1.0, 3), (3.0, 1.0, 1.0, 5),
                                 (2.5, 0.75, 0.8, 3)])
def test_density_scaling_head_closed_form(tup):
    """kappa(t) = c (t/T)^{a*}, a* = n/q - s/(p-1), up to T and c past it
    (the profile of a density-like sigma): the head below the first rung
    continues the same law, so K is c^{kexp delta} T^{-s delta} (1/e +
    1/(s delta)), head and ladder up to T plus tail, e = (a* kexp - s) delta."""
    pr = validate_params(*tup)
    c, T = 1.7, 0.9
    a_star = pr.n / pr.q - pr.s / (pr.p - 1.0)
    radii = np.sort(np.append(np.geomspace(0.05, 2.0, 9), T))
    prof = _profile(radii, c * np.minimum(radii / T, 1.0) ** a_star, sat=2.0)
    d = pr.delta
    e = (a_star * pr.kexp - pr.s) * d
    want = c ** (pr.kexp * d) * T ** (-pr.s * d) * (1.0 / e + 1.0 / (pr.s * d))
    assert intrinsic_potential(pr, prof) == pytest.approx(want, rel=1e-12)


def test_scaling_law_exact():
    """K(lambda sigma) = lambda^{1/(p-1-q)} K sigma: kappa scales by
    lambda^{1/q} and the intrinsic integral raises it to kexp/(p-1)."""
    pr = validate_params(2.0, 0.5, 1.0, 3)
    radii = np.geomspace(0.01, 2.0, 40)
    vals = np.minimum(radii, 1.0) ** 1.8
    lam = 3.7
    prof = _profile(radii, vals, sat=2.0)
    prof_lam = _profile(radii, vals * lam ** (1.0 / pr.q), sat=2.0)
    k1 = intrinsic_potential(pr, prof)
    k2 = intrinsic_potential(pr, prof_lam)
    assert k2 == pytest.approx(lam ** (1.0 / (pr.p - 1.0 - pr.q)) * k1,
                               rel=1e-10)


def test_scaling_law_through_kappa_profiles(pr213):
    sigma = radial([0.0, 1.0], [1.0], 3)
    lam = 2.5
    radii = np.geomspace(0.05, 1.5, 12)
    p1 = kappa_profile(pr213, sigma, np.zeros(3), radii)
    p2 = kappa_profile(pr213, scale(sigma, lam), np.zeros(3), radii)
    k1 = intrinsic_potential(pr213, p1)
    k2 = intrinsic_potential(pr213, p2)
    assert k2 == pytest.approx(
        lam ** (1.0 / (pr213.p - 1.0 - pr213.q)) * k1, rel=1e-8)


def test_refinement_stability(pr213):
    sigma = radial([0.0, 1.0], [1.0], 3)
    coarse = kappa_profile(pr213, sigma, np.zeros(3), np.geomspace(0.05, 1.5, 8))
    fine = kappa_profile(pr213, sigma, np.zeros(3), np.geomspace(0.05, 1.5, 16))
    k1 = intrinsic_potential(pr213, coarse)
    k2 = intrinsic_potential(pr213, fine)
    assert k2 == pytest.approx(k1, rel=0.2)


def test_zero_and_degenerate_profiles(pr213):
    assert intrinsic_potential(pr213, _profile([0.5, 1.0], [0.0, 0.0])) == 0.0
    with pytest.raises(ValueError, match="2 radii"):
        intrinsic_potential(pr213, _profile([1.0], [1.0]))
    with pytest.raises(ValueError, match="saturated"):
        intrinsic_potential(pr213, _profile([0.5, 1.0], [1.0, 1.0], sat=2.0))


def test_flat_head_is_finite(pr213):
    """kappa = k on a whole ladder from r0: the head below r0 still decays
    by the density law, k^{kexp delta} r0^{-s delta} (p-1-q)/(alpha p), and
    the flat ladder and tail add k^{kexp delta} r0^{-s delta}/(s delta)."""
    pr, k, r0 = pr213, 2.0, 0.01
    prof = _profile([r0, 0.1, 1.0], [k, k, k])
    head = (pr.p - 1 - pr.q) / (pr.alpha * pr.p)
    want = k ** (pr.kexp * pr.delta) * r0 ** (-pr.s * pr.delta) * (
        head + 1.0 / (pr.s * pr.delta))
    assert intrinsic_potential(pr, prof) == pytest.approx(want, rel=1e-12)


def test_atom_at_center_is_infinite(pr213):
    """A genuinely atomic sigma (no cell size, t_min = 0) with x on an atom:
    the point mass there has kappa = +inf on every rung, and K = +inf
    without nan or a floating-point warning."""
    sigma = atomic([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.7, 0.0]],
                   [1.0, 2.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prof = kappa_profile(pr213, sigma, np.zeros(3), np.geomspace(0.1, 1.2, 5))
        assert np.all(prof.values == math.inf)
        assert intrinsic_potential(pr213, prof) == math.inf


@pytest.mark.parametrize("radii, values", [
    ([0.1, 0.1, 1.0], [1.0, 1.0, 2.0]),
    ([0.1, 0.5, 0.3], [1.0, 2.0, 1.5]),
    ([0.0, 0.5, 1.0], [1.0, 2.0, 2.0]),
    ([0.1, 0.5, math.inf], [1.0, 2.0, 2.0]),
    ([0.1, 0.5, 1.0], [1.0, -2.0, 2.0]),
    ([0.1, 0.5, 1.0], [1.0, math.nan, 2.0]),
])
def test_malformed_profile_rejected(radii, values):
    """Repeated, unsorted, nonpositive or non-finite radii and negative or
    nan values are refused when the profile is built."""
    with pytest.raises(ValueError, match="radii|nonnegative"):
        _profile(radii, values)


def test_tail_classifier(pr213):
    # s = 1, kexp = 1: finite iff a < 1 (log refinement at equality)
    assert intrinsic_tail_finite(pr213, GrowthProfile(d=0.5)) == "finite"
    assert intrinsic_tail_finite(pr213, GrowthProfile(d=1.5)) == "infinite"
    assert intrinsic_tail_finite(pr213, GrowthProfile(d=1.0)) == "infinite"
    assert intrinsic_tail_finite(pr213, GrowthProfile(d=1.0, e=-2.0)) == "finite"


def test_tail_classifier_cross_checks_numeric(pr213):
    """Growing ladders for sub- and super-critical kappa growth move toward
    the classifier's verdict."""
    a_fin, a_inf = 0.5, 1.4

    def K_on_ladder(a, tmax):
        radii = np.geomspace(0.5, tmax, 120)
        return intrinsic_potential(pr213, _profile(radii, radii ** a, sat=0.5))

    fin = [K_on_ladder(a_fin, t) for t in (1e2, 1e4)]
    inf_ = [K_on_ladder(a_inf, t) for t in (1e2, 1e4)]
    assert fin[1] / fin[0] < 1.1  # converging
    # diverging like (tmax)^{a kexp - s}: ratio (1e4/1e2)^{0.4} ~ 6.3
    assert inf_[1] / inf_[0] > 5.0
    assert intrinsic_tail_finite(pr213, GrowthProfile(d=a_fin)) == "finite"
    assert intrinsic_tail_finite(pr213, GrowthProfile(d=a_inf)) == "infinite"
