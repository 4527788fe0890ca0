"""Intrinsic Wolff-type potential built from localized embedding constants.

K sigma(x) integrates [kappa(B(x,t))^{q(p-1)/(p-1-q)} / t^s]^{1/(p-1)} dt/t.
kappa is known on a finite radius ladder; between ladder nodes it is
interpolated log-linearly (a power law per segment, integrated in closed
form), below the smallest radius it is extrapolated by a fitted power, and
past the saturation radius the exact constant-kappa tail applies.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .embedding import KappaProfile
from .params import Params
from .quadrature import QuadratureConfig
from .wolff import GrowthProfile, tail_exists


class ExtrapolationWarning(UserWarning):
    """Emitted when the small-t exponent had to be clamped for integrability."""


def _segment_integral(c0: float, r0: float, b: float, kprime: float,
                      sexp: float, lo: float, hi: float) -> float:
    """Closed-form integral of [kappa(t)^kexp / t^s]^{1/(p-1)} dt/t over
    [lo, hi] where kappa(t) = c0 (t/r0)^b; kprime = kexp/(p-1),
    sexp = s/(p-1)."""
    if c0 == 0.0 or lo >= hi:
        return 0.0
    e = b * kprime - sexp
    amp = c0 ** kprime * r0 ** (-b * kprime)
    if abs(e) < 1e-14:
        return amp * math.log(hi / lo)
    return amp * (hi ** e - lo ** e) / e


def intrinsic_potential(pr: Params, profile: KappaProfile,
                        cfg: QuadratureConfig | None = None) -> float:
    """K sigma at the profile's center, from its kappa radius ladder.

    Requires a saturated profile (largest radius at or past the saturation
    radius) so the constant-kappa tail is exact.  The head extrapolation
    exponent is fitted from the two smallest positive-kappa radii; if the
    fitted power makes the head non-integrable it is clamped (with a
    warning), and a flat fit (no decay toward 0) yields +inf.
    """
    radii = np.asarray(profile.radii, dtype=float)
    values = profile.values
    if len(radii) < 2:
        raise ValueError("profile needs at least 2 radii")
    if radii[-1] < profile.saturation_radius:
        raise ValueError(
            f"profile not saturated: max radius {radii[-1]} < "
            f"saturation radius {profile.saturation_radius}")
    kappa_total = float(values[-1])
    if kappa_total == 0.0:
        return 0.0
    s = pr.s
    if s <= 0.0:
        return math.inf
    kprime = pr.kexp / (pr.p - 1.0)
    sexp = s / (pr.p - 1.0)

    pos = np.nonzero(values > 0)[0]
    i0 = int(pos[0])
    total = 0.0

    # head: power extrapolation below the first positive-kappa radius.  The
    # slope is fitted to the first strictly larger node: a flat prefix of
    # equal estimates is a resolution artifact of discrete surrogates (the
    # smallest balls all see the same nearest atoms), not genuine non-decay.
    r0, k0 = float(radii[i0]), float(values[i0])
    grow = np.nonzero(values[i0:] > k0)[0]
    if len(grow):
        i1 = i0 + int(grow[0])
        r1, k1 = float(radii[i1]), float(values[i1])
        a = math.log(k1 / k0) / math.log(r1 / r0)
    else:
        a = 0.0
    if i0 > 0:
        # kappa vanished on smaller ladder radii: no head contribution
        head = 0.0
    elif a <= 0.0:
        # no decay toward 0: the head integral diverges
        return math.inf
    else:
        if a * pr.kexp < 1.5 * s:
            # clamp with a margin: exponents just above the integrability
            # threshold s/kexp put 1/(a kexp - s) on a pole and make the
            # head wildly sensitive to the ladder resolution
            a_clamped = 1.5 * s / pr.kexp
            warnings.warn(
                f"small-t kappa exponent {a:.3g} clamped to {a_clamped:.3g} "
                f"for integrability", ExtrapolationWarning)
            a = a_clamped
        e = a * kprime - sexp
        head = k0 ** kprime * r0 ** (-sexp) / e
    total += head

    # interior: log-linear (power-law) segments between ladder nodes
    # (start one node early so a kappa turn-on segment is not dropped)
    for i in range(max(0, i0 - 1), len(radii) - 1):
        lo, hi = float(radii[i]), float(radii[i + 1])
        klo, khi = float(values[i]), float(values[i + 1])
        if khi == 0.0:
            continue
        if klo == 0.0:
            # kappa turns on inside this segment; treat as constant khi
            total += _segment_integral(khi, hi, 0.0, kprime, sexp, lo, hi)
            continue
        b = math.log(khi / klo) / math.log(hi / lo)
        total += _segment_integral(klo, lo, b, kprime, sexp, lo, hi)

    # exact constant-kappa tail past saturation
    tstar = max(float(radii[-1]), profile.saturation_radius)
    total += (pr.p - 1.0) / s * kappa_total ** kprime * tstar ** (-sexp)
    return total


def intrinsic_tail_finite(pr: Params, kappa_growth: GrowthProfile) -> str:
    """Classify the large-t tail of the intrinsic integral for a symbolic
    power-log profile kappa(B(0,t)) ~ C t^a (log t)^e (exponent a stored in
    the profile's d field): the Wolff tail rule of tail_exists for the
    growth kappa^kexp ~ t^(a kexp) (log t)^(e kexp)."""
    if not isinstance(kappa_growth, GrowthProfile):
        raise ValueError(f"unsupported profile {kappa_growth!r}")
    return tail_exists(pr, GrowthProfile(kappa_growth.d * pr.kexp,
                                         kappa_growth.e * pr.kexp))
