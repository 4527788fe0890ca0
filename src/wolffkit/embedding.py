"""Embedding constants kappa(B): the least constant bounding the L^q(sigma_B)
norm of Wolff potentials by the total mass of the input measure.

The true constant is a supremum over all nonnegative measures nu; we optimize
over probability vectors supported on a finite candidate grid, so every
reported value carries direction metadata: point-mass scans are always lower
bounds, the conditional-gradient ascent is the best estimate found (a certified
discrete maximum in the concave regime p >= 2).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .measure import Measure, PointSet, as_atomic, restrict
from .params import Params
from .quadrature import QuadratureConfig
from .wolff import AtomicWolffOperator


@dataclasses.dataclass(frozen=True)
class KappaEstimate:
    value: float
    direction: str  # "lower_bound" | "best_estimate"
    method: str     # "point_mass" | "simplex_ascent"
    iterations: int = 0
    concave_regime: bool = False


@dataclasses.dataclass(frozen=True)
class KappaProfile:
    """kappa(B(x, t)) over an increasing radius ladder."""

    center: np.ndarray
    radii: np.ndarray
    estimates: list[KappaEstimate]
    saturation_radius: float

    @property
    def values(self) -> np.ndarray:
        return np.array([e.value for e in self.estimates])

    @property
    def direction(self) -> str:
        dirs = {e.direction for e in self.estimates}
        return "lower_bound" if dirs == {"lower_bound"} else "best_estimate"


def default_candidate_grid(sigma: Measure, center, radius: float) -> PointSet:
    """Union of sigma's atoms (quadrature nodes for radial sigma) and a
    log-radial grid of 8 shells from radius/256 to radius around the ball
    center, one seeded random direction each: extremal nu concentrates
    where sigma is heavy and near kernel foci."""
    center = np.asarray(center, dtype=float)
    atoms = as_atomic(sigma).points
    radii = np.geomspace(radius / 256, radius, 8)
    g = np.random.default_rng(0).standard_normal((8, atoms.shape[1]))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    shells = center + radii[:, None] * g
    pts = np.vstack([atoms, shells, center[None, :]])
    return PointSet(points=np.unique(pts, axis=0), tag="kappa-candidates")


def _restricted_atoms(sigma: Measure, x, t: float):
    """sigma|_B(x,t) as atom locations/weights, plus the truncation scale."""
    sb = as_atomic(restrict(sigma, x, t))
    return sb.points, sb.weights, sb.cell_size


def kappa_point_mass(pr: Params, sigma: Measure, x, t: float, grid: PointSet,
                     cfg: QuadratureConfig | None = None) -> KappaEstimate:
    """Lower bound for kappa(B(x,t)) from the best single point mass on the
    grid, using the closed-form point-mass Wolff potential."""
    cfg = cfg or QuadratureConfig()
    if t <= 0:
        raise ValueError("ball radius must be positive")
    zpts, zw, cell = _restricted_atoms(sigma, x, t)
    if zw.sum() == 0.0:
        return KappaEstimate(0.0, "lower_bound", "point_mass", 0, pr.p >= 2.0)
    t_min = cfg.resolve_t_min(cell)
    vals = _point_mass_scan(pr, zpts, zw, grid.points, t_min)
    return KappaEstimate(float(vals.max()), "lower_bound", "point_mass",
                         len(grid), pr.p >= 2.0)


def _point_mass_scan(pr: Params, zpts, zw, candidates, t_min: float) -> np.ndarray:
    """F(delta_y) for every candidate y, via the closed-form point-mass
    kernel W delta_y(z) = ((p-1)/s) max(|z-y|, t_min)^{-s/(p-1)}."""
    s, delta, q = pr.s, pr.delta, pr.q
    D = np.linalg.norm(zpts[:, None, :] - candidates[None, :, :], axis=2)
    a = np.maximum(D, t_min)
    with np.errstate(divide="ignore"):
        w = (pr.p - 1.0) / s * a ** (-s * delta)
    inner = (zw[:, None] * w ** q).sum(axis=0)
    return inner ** (1.0 / q)


def kappa_simplex_ascent(pr: Params, sigma: Measure, x, t: float, grid: PointSet,
                         iters: int = 50, restarts: int = 3,
                         cfg: QuadratureConfig | None = None) -> KappaEstimate:
    """Conditional-gradient (Frank-Wolfe) ascent of
    F(nu) = (int_B (W nu)^q dsigma)^{1/q} over the probability simplex on the
    grid.  Linear oracle: best vertex of the directional derivative; step by
    backtracking line search on F itself.  For p >= 2 the objective is
    concave, so the best value is the global discrete maximum up to
    line-search tolerance; for p < 2 multi-restart keeps it an honest lower
    bound of the discrete problem.  A restart stops when the Frank-Wolfe gap
    falls to 1e-8 of F.
    """
    cfg = cfg or QuadratureConfig()
    if iters < 1 or restarts < 1:
        raise ValueError("iters and restarts must be >= 1")
    q = pr.q
    zpts, zw, cell = _restricted_atoms(sigma, x, t)
    K = len(grid)
    if zw.sum() == 0.0:
        return KappaEstimate(0.0, "best_estimate", "simplex_ascent", 0, pr.p >= 2.0)
    t_min = cfg.resolve_t_min(cell)
    op = AtomicWolffOperator(pr, grid.points, zpts, t_min=t_min)

    def F(nu: np.ndarray) -> float:
        w = op.apply(nu)
        return float(np.sum(zw * w ** q)) ** (1.0 / q)

    def F_grad(nu: np.ndarray):
        w, gw = op.apply_with_grad(nu)
        inner = float(np.sum(zw * w ** q))
        f = inner ** (1.0 / q)
        # d/d nu_k of inner^{1/q}; W > 0 everywhere once nu != 0
        with np.errstate(divide="ignore"):
            coeff = np.where(w > 0, zw * w ** (q - 1.0), 0.0)
        grad = inner ** (1.0 / q - 1.0) * (coeff[:, None] * gw).sum(axis=0)
        return f, grad

    # vertex values double as restart ranking and as the point-mass floor
    vertex_vals = _point_mass_scan(pr, zpts, zw, grid.points, t_min)
    order = np.argsort(vertex_vals)[::-1]

    starts = []
    for k in order[:restarts]:
        v = np.zeros(K)
        v[k] = 1.0
        starts.append(v)
    starts.append(np.full(K, 1.0 / K))

    best_val = float(vertex_vals.max())
    total_iters = 0
    for nu in starts:
        fv = F(nu)
        if not np.isfinite(fv):
            best_val = fv
            break
        for _ in range(iters):
            total_iters += 1
            fv, grad = F_grad(nu)
            if not np.isfinite(fv):
                break
            k_star = int(np.argmax(grad))
            direction = -nu.copy()
            direction[k_star] += 1.0
            gap = float(grad @ direction)
            if gap <= 1e-8 * max(fv, 1e-300):
                break
            step = 1.0
            improved = False
            while step > 1e-10:
                cand = nu + step * direction
                fc = F(cand)
                if fc > fv * (1.0 + 1e-15):
                    nu, fv = cand, fc
                    improved = True
                    break
                step *= 0.5
            if not improved:
                break
        best_val = max(best_val, fv)
    return KappaEstimate(best_val, "best_estimate", "simplex_ascent",
                         total_iters, pr.p >= 2.0)


def kappa_profile(pr: Params, sigma: Measure, x, radii, method: str = "pointmass",
                  cfg: QuadratureConfig | None = None,
                  **ascent_kwargs) -> KappaProfile:
    """kappa(B(x,t)) on an increasing radius ladder, with running maxima
    enforcing monotonicity and the estimate frozen past saturation."""
    cfg = cfg or QuadratureConfig()
    x = np.asarray(x, dtype=float)
    radii = np.asarray(radii, dtype=float)
    if len(radii) == 0 or np.any(radii <= 0) or np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be positive and strictly increasing")
    sat = float(np.linalg.norm(x)) + sigma.support_radius
    estimates: list[KappaEstimate] = []
    prev: KappaEstimate | None = None
    running = 0.0
    for t in radii:
        if prev is not None and radii[len(estimates) - 1] >= sat:
            estimates.append(prev)  # ball already covers supp sigma
            continue
        g = default_candidate_grid(sigma, x, t)
        if method == "pointmass":
            est = kappa_point_mass(pr, sigma, x, t, g, cfg)
        elif method == "ascent":
            est = kappa_simplex_ascent(pr, sigma, x, t, g, cfg=cfg, **ascent_kwargs)
        else:
            raise ValueError(f"unknown method {method!r}")
        running = max(running, est.value)
        est = dataclasses.replace(est, value=running)
        estimates.append(est)
        prev = est
    return KappaProfile(center=x, radii=radii, estimates=estimates,
                        saturation_radius=sat)
