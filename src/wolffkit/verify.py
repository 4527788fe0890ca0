"""Audits of the bilateral bounds, the comparison lemmas, and the existence
criteria.

All the theory's constants are existential (they depend only on the exponent
tuple), so every audit reports empirical constants and their stability across
a measure corpus and under refinement, never asserting particular values.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .embedding import KappaProfile, kappa_profile
from .intrinsic import intrinsic_potential, intrinsic_tail_finite
from .measure import (Measure, PointSet, _match_rows, as_atomic, atomic,
                      ball_mass, restrict)
from .params import Params
from .quadrature import QuadratureConfig
from .solver import SolveReport
from .wolff import (GrowthProfile, PotentialField, _wolff_rows, tail_exists,
                    wolff_potential)


@dataclasses.dataclass(frozen=True)
class BilateralReport:
    """Empirical sandwich constants for u against
    R = (W sigma)^gamma + K sigma + W mu."""

    R: PotentialField
    ratios: np.ndarray
    c1_emp: float
    c2_emp: float
    flagged: list[int]


@dataclasses.dataclass(frozen=True)
class PhiReport:
    phi_values: np.ndarray
    best_nu_tag: list[str]
    candidates: list[str]


def phi_nu(pr: Params, sigma: Measure, nu: Measure, x,
           cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """The comparison quantity
    W nu(x) * (W[(W nu)^q dsigma](x) / W nu(x))^{(p-1)/(p-1-q)}.

    Invariant under scaling of nu (the homogeneity powers cancel exactly).
    Rejects W nu(x) = 0 or +inf.
    """
    x = np.asarray(x, dtype=float)
    wnu_x = wolff_potential(pr, nu, x, cfg)
    if wnu_x == 0.0:
        raise ValueError("phi_nu undefined: W nu(x) = 0")
    if not math.isfinite(wnu_x):
        raise ValueError("phi_nu undefined: W nu(x) = +inf")
    inner = _wolff_of_wnu_q_dsigma(pr, sigma, nu, x, cfg)
    if inner == 0.0:
        return 0.0
    return wnu_x * (inner / wnu_x) ** pr.gamma


def _wolff_of_wnu_q_dsigma(pr: Params, sigma: Measure, nu: Measure, x,
                           cfg: QuadratureConfig) -> float:
    """W[(W nu)^q dsigma](x): W nu evaluated at sigma's atoms defines the
    inner atomic measure."""
    sa = as_atomic(sigma)
    if sa.weights.sum() == 0.0:
        return 0.0
    wnu_at_atoms = _wolff_rows(pr, nu, sa.points,
                               cfg.resolve_t_min(nu.cell_size), cfg)
    live = sa.weights > 0
    if np.any(~np.isfinite(wnu_at_atoms) & live):
        return math.inf
    # an atom of zero weight adds 0, also where W nu is +inf on it
    weights = np.zeros_like(sa.weights)
    weights[live] = wnu_at_atoms[live] ** pr.q * sa.weights[live]
    return wolff_potential(pr, atomic(sa.points, weights, cell_size=sa.cell_size),
                           x, cfg)


def phi_sup(pr: Params, sigma: Measure, x, family: list[tuple[str, Measure]],
            cfg: QuadratureConfig = QuadratureConfig()) -> tuple[float, str]:
    """Pointwise sup of phi_nu over a tagged candidate family; returns
    (value, winning tag).  Candidates where phi_nu is undefined are skipped;
    if all are, the value is nan."""
    if not family:
        raise ValueError("candidate family must be non-empty")
    best, tag = -math.inf, "undefined"
    for name, nu in family:
        try:
            val = phi_nu(pr, sigma, nu, x, cfg)
        except ValueError:
            continue
        if val > best:
            best, tag = val, name
    if best == -math.inf:
        return math.nan, "undefined"
    return best, tag


def default_phi_family(pr: Params, sigma: Measure,
                       u: PotentialField | None = None,
                       probe_points: np.ndarray | None = None
                       ) -> list[tuple[str, Measure]]:
    """The proof-guided candidate family: sigma itself, point masses on a
    probe grid, the solver measure u^q dsigma, and truncations
    sigma|_{B(0,rR)}, r = 0.5, 1, 2, R the support radius."""
    family: list[tuple[str, Measure]] = []
    if sigma.total_mass > 0:
        family.append(("sigma", sigma))
    if probe_points is not None:
        for i, y in enumerate(np.atleast_2d(probe_points)):
            family.append((f"delta_{i}", atomic(y[None, :], [1.0])))
    if u is not None:
        sa = as_atomic(sigma)
        w = _uq_sigma_weights(pr, sa, u)
        if np.all(np.isfinite(w)) and w.sum() > 0:
            family.append(("u^q dsigma",
                           atomic(sa.points, w, cell_size=sa.cell_size)))
    R0 = sigma.support_radius
    for r in (0.5, 1.0, 2.0):
        try:
            trunc = restrict(sigma, np.zeros(sigma.dim), r * max(R0, 1e-9))
        except ValueError:
            continue
        if trunc.total_mass > 0:
            family.append((f"sigma|B(0,{r:g}R)", trunc))
    return family


def _uq_sigma_weights(pr: Params, sa: Measure, u: PotentialField) -> np.ndarray:
    """Atom weights of u^q dsigma, from u's values at the atoms of sa."""
    idx = _match_rows(sa.points, u.points.points)
    if np.any(idx < 0):
        raise ValueError("field does not cover every sigma atom")
    return u.values[idx] ** pr.q * sa.weights


def phi_sup_report(pr: Params, sigma: Measure, points: PointSet,
                   family: list[tuple[str, Measure]],
                   cfg: QuadratureConfig = QuadratureConfig()) -> PhiReport:
    vals, tags = [], []
    for x in points.points:
        v, t = phi_sup(pr, sigma, x, family, cfg)
        vals.append(v)
        tags.append(t)
    return PhiReport(phi_values=np.asarray(vals), best_nu_tag=tags,
                     candidates=[name for name, _ in family])


def check_lemma_34(pr: Params, sigma: Measure, nu: Measure, x,
                   Ksigma_value: float,
                   cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """Ratio of W[(W nu)^q dsigma](x) to
    (W nu(x))^{q/(p-1)} [W sigma(x) + (K sigma(x))^{(p-1-q)/(p-1)}].
    The comparison lemma asserts this is bounded by a constant depending only
    on the exponent tuple; corpora of draws audit boundedness and stability.
    """
    x = np.asarray(x, dtype=float)
    wnu = wolff_potential(pr, nu, x, cfg)
    wsig = wolff_potential(pr, sigma, x, cfg)
    if not (math.isfinite(wnu) and math.isfinite(wsig)
            and math.isfinite(Ksigma_value)):
        raise ValueError("lemma audit requires finite W nu, W sigma, K sigma")
    denom = wnu ** (pr.q / (pr.p - 1.0)) * (
        wsig + Ksigma_value ** ((pr.p - 1.0 - pr.q) / (pr.p - 1.0)))
    if denom == 0.0:
        raise ValueError("degenerate lemma audit: zero denominator")
    num = _wolff_of_wnu_q_dsigma(pr, sigma, nu, x, cfg)
    return num / denom


def default_bound_ladder(sigma: Measure, x, n_ladder: int) -> np.ndarray:
    """Radius ladder for the kappa profile feeding the bilateral bound:
    n_ladder rungs from sat/30 to 1.2 sat, sat = |x| + support radius.

    Starts no lower than the measure's cell scale: below it kappa reflects
    only the truncated point-mass floor of the discrete surrogate, not the
    density scaling law the intrinsic head continues from the first rung.
    """
    sat = float(np.linalg.norm(np.asarray(x, dtype=float))) + sigma.support_radius
    if sat <= 0.0:
        raise ValueError("degenerate ladder: measure and center at the origin")
    lo = sat / 30.0
    if sigma.cell_size:
        lo = max(lo, float(sigma.cell_size))
    lo = min(lo, sat / 2.0)  # keep part of the ladder below saturation
    return np.geomspace(lo, sat * 1.2, n_ladder)


def bilateral_bound(pr: Params, sigma: Measure, mu: Measure, x,
                    profile: KappaProfile | None,
                    cfg: QuadratureConfig = QuadratureConfig()
                    ) -> tuple[float, dict]:
    """R(x) = (W sigma(x))^gamma + K sigma(x) + W mu(x), with the three terms
    and W sigma(x) reported separately (the responsible term is identifiable
    when R = inf).  profile, the kappa profile about x, may be None when
    sigma has no mass."""
    x = np.asarray(x, dtype=float)
    wsig = wolff_potential(pr, sigma, x, cfg)
    wterm = wsig ** pr.gamma if math.isfinite(wsig) else math.inf
    kterm = intrinsic_potential(pr, profile) if sigma.total_mass > 0 else 0.0
    mterm = wolff_potential(pr, mu, x, cfg)
    terms = {"wolff_term": wterm, "intrinsic_term": kterm, "mu_term": mterm,
             "wolff_sigma": wsig}
    return wterm + kterm + mterm, terms


def bound_field(pr: Params, sigma: Measure, mu: Measure, points: PointSet,
                n_ladder: int, cfg: QuadratureConfig = QuadratureConfig()
                ) -> tuple[PotentialField, list[dict]]:
    """R over a point set: at each point a point-mass kappa profile on
    default_bound_ladder (none when sigma has no mass) feeds bilateral_bound.
    Each row holds that point's terms plus the profile's kappa_total and
    kappa_direction (None without a profile)."""
    vals, rows = [], []
    for x in points.points:
        prof = None
        if sigma.total_mass > 0.0:
            prof = kappa_profile(pr, sigma, x,
                                 default_bound_ladder(sigma, x, n_ladder),
                                 method="pointmass", cfg=cfg)
        R, terms = bilateral_bound(pr, sigma, mu, x, prof, cfg)
        vals.append(R)
        rows.append({**terms, "kappa_total": float(prof.values[-1]) if prof else 0.0,
                     "kappa_direction": prof.direction if prof else None})
    return PotentialField(params=pr, points=points, values=vals), rows


def verify_sandwich(pr: Params, sigma: Measure, mu: Measure,
                    solve_report: SolveReport, bound: PotentialField
                    ) -> BilateralReport:
    """Ratios u/R per point with empirical sandwich constants c1 = min,
    c2 = max.  The theory guarantees both are positive and finite with
    values depending only on the exponents; stability across a corpus is the
    assertable invariant, not particular numbers.  Ratios outside
    [1e-6, 1e6] are flagged as implausible."""
    u = solve_report.u
    if not np.array_equal(u.points.points, bound.points.points):
        raise ValueError("solution and bound fields must share a point set")
    uv, rv = u.values, bound.values
    ok = np.isfinite(uv) & np.isfinite(rv) & (rv > 0)
    ratios = np.full(len(uv), math.nan)
    ratios[ok] = uv[ok] / rv[ok]
    finite = ratios[np.isfinite(ratios)]
    if len(finite) == 0:
        raise ValueError("no finite ratios to audit")
    c1, c2 = float(finite.min()), float(finite.max())
    flagged = [int(i) for i in np.nonzero(
        np.isfinite(ratios) & ((ratios < 1e-6) | (ratios > 1e6)))[0]]
    return BilateralReport(R=bound, ratios=ratios, c1_emp=c1, c2_emp=c2,
                           flagged=flagged)


def existence_check(pr: Params, sigma_profile, mu_profile,
                    kappa_growth: GrowthProfile | None = None) -> str:
    """Existence classifier: conjunction of the three tail conditions (sigma
    Wolff tail, intrinsic tail, mu Wolff tail).  The alpha = 1 scale with
    n <= p has no nontrivial solutions regardless."""
    if pr.no_nontrivial_solutions:
        return "not_exists"
    checks = [tail_exists(pr, sigma_profile)]
    if kappa_growth is not None:
        checks.append(intrinsic_tail_finite(pr, kappa_growth))
    elif isinstance(sigma_profile, Measure):
        # compactly supported sigma: kappa(B(0,t)) is eventually constant
        checks.append(intrinsic_tail_finite(pr, GrowthProfile(d=0.0)))
    if mu_profile is not None:
        checks.append(tail_exists(pr, mu_profile))
    return "exists" if all(c == "finite" for c in checks) else "not_exists"


@dataclasses.dataclass(frozen=True)
class CapacityCheckResult:
    verdict: str  # "passes" | "fails"
    constant: float
    ratios: np.ndarray
    radii: np.ndarray
    inequality_constant: float | None


def ball_capacity_check(pr: Params, sigma: Measure, radii,
                        u: PotentialField | None = None) -> CapacityCheckResult:
    """Audit sigma(B(0,r)) <= C cap_p(B_r) on a ball ladder, with
    cap_p(B_r) proportional to r^{n-p} (alpha = 1 scale, p < n only).

    Fails when the ratio sigma(B_r)/r^{n-p} blows up as r -> 0 (probed on a
    refined sub-ladder: the smallest probe exceeds 4 times the ladder's
    largest ratio), the signature of an atom violating capacity
    absolute continuity.  When a solution field u is supplied, the
    subsolution mass inequality
    sigma(B_r) <= (c r^{n-p})^{q/(p-1)} (int_{B_r} u^q dsigma)^{(p-1-q)/(p-1)}
    is audited and its empirical constant reported.
    """
    if pr.alpha != 1.0:
        raise ValueError("capacity check applies to the alpha = 1 scale only")
    if pr.p >= pr.n:
        raise ValueError("capacity check requires p < n")
    radii = np.asarray(radii, dtype=float)
    if not np.all(np.isfinite(radii) & (radii > 0)):
        raise ValueError("capacity check radii must be positive and finite")
    origin = np.zeros(sigma.dim)
    probe = np.unique(np.concatenate(
        [radii, radii.min() / 2 ** np.arange(1, 8)]))
    ratios = ball_mass(sigma, origin, probe) / probe ** (pr.n - pr.p)
    sup = float(np.nanmax(ratios))
    # blow-up probe: mass persisting at vanishing radius
    small = ratios[probe <= radii.min()]
    verdict = "passes"
    if len(small) >= 2 and small[0] > 4.0 * max(ratios[probe >= radii.min()].max(), 1e-300):
        verdict = "fails"
        sup = float(small[0])
    ineq_c = None
    if u is not None and verdict == "passes":
        sa = as_atomic(sigma)
        mass = ball_mass(sigma, origin, radii)
        integral = ball_mass(atomic(sa.points, _uq_sigma_weights(pr, sa, u)),
                             origin, radii)
        ok = (mass != 0.0) & (integral != 0.0)
        if np.any(ok):
            # solve mass = (c r^{n-p})^{q/(p-1)} integral^{(p-1-q)/(p-1)}
            c = (mass[ok] / integral[ok] ** ((pr.p - 1.0 - pr.q) / (pr.p - 1.0))) \
                ** ((pr.p - 1.0) / pr.q) / radii[ok] ** (pr.n - pr.p)
            ineq_c = float(np.max(c))
    keep = np.isin(probe, radii)
    return CapacityCheckResult(verdict=verdict, constant=sup,
                               ratios=ratios[keep], radii=probe[keep],
                               inequality_constant=ineq_c)
