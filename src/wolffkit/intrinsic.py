"""Intrinsic Wolff-type potential built from localized embedding constants.

K sigma(x) is the Wolff integral of kappa(B(x,t))^kexp, kexp = q(p-1)/(p-1-q):
the dt/t integral of [kappa(B(x,t))^kexp / t^s]^{1/(p-1)}.  kappa is known on
a finite radius ladder; between ladder nodes it is interpolated log-linearly,
past the saturation radius it is constant, and below the smallest radius it
follows the scaling law of a density: if sigma has density c near x, dilation
gives kappa(B(x,t)) = c^{1/q} kappa_1 t^{a*} with a* = n/q - s/(p-1).  Since
a* kexp - s = alpha p (p-1)/(p-1-q) > 0 the head is always integrable.  Every
piece is a power law, integrated in closed form by wolff._power_integral.
"""

from __future__ import annotations

import math

import numpy as np

from .embedding import KappaProfile
from .params import Params
from .wolff import GrowthProfile, _power_integral, tail_exists


def intrinsic_potential(pr: Params, profile: KappaProfile) -> float:
    """K sigma at the profile's center, from its kappa radius ladder.

    Requires a saturated profile (largest radius at or past the saturation
    radius) so the constant-kappa tail is exact.  Below the first radius, if
    kappa is positive there, the head is kappa(r0) (t/r0)^{a*} with the
    density scaling exponent a* = n/q - s/(p-1).  A profile holding an
    infinite kappa (a genuine atom in the ball, untruncated) yields +inf.
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
    s, kexp = pr.s, pr.kexp
    if s <= 0.0 or math.isinf(values.max()):
        return math.inf

    # (m0, r0, a, lo, hi): kappa^kexp = m0 (t/r0)^a on [lo, hi]
    pieces = []
    if values[0] > 0.0:
        # head: the density scaling law below the first radius, matched
        # there; a ladder whose first rung holds no mass has no head
        a_star = pr.n / pr.q - s / (pr.p - 1.0)
        r0, k0 = float(radii[0]), float(values[0])
        pieces.append((k0 ** kexp, r0, a_star * kexp, 0.0, r0))

    # log-linear (power-law) segments between ladder nodes; a segment where
    # kappa turns on is constant at its right end
    for lo, hi, klo, khi in zip(radii[:-1], radii[1:], values[:-1], values[1:]):
        if khi == 0.0:
            continue
        if klo == 0.0:
            pieces.append((khi ** kexp, hi, 0.0, lo, hi))
        else:
            b = math.log(khi / klo) / math.log(hi / lo)
            pieces.append((klo ** kexp, lo, b * kexp, lo, hi))

    # exact constant-kappa tail past saturation
    tstar = max(float(radii[-1]), profile.saturation_radius)
    pieces.append((kappa_total ** kexp, tstar, 0.0, tstar, math.inf))
    return float(sum(_power_integral(*np.array(pieces).T, s, pr.p - 1.0)))


def intrinsic_tail_finite(pr: Params, kappa_growth: GrowthProfile) -> str:
    """Classify the large-t tail of the intrinsic integral for a symbolic
    power-log profile kappa(B(0,t)) ~ C t^a (log t)^e (exponent a stored in
    the profile's d field): the Wolff tail rule of tail_exists for the
    growth kappa^kexp ~ t^(a kexp) (log t)^(e kexp)."""
    if not isinstance(kappa_growth, GrowthProfile):
        raise ValueError(f"unsupported profile {kappa_growth!r}")
    return tail_exists(pr, GrowthProfile(kappa_growth.d * pr.kexp,
                                         kappa_growth.e * pr.kexp))
