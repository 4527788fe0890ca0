"""Embedding constants kappa(B): the least constant bounding the L^q(sigma_B)
norm of Wolff potentials by the total mass of the input measure.

The true constant is a supremum over all nonnegative measures nu; we optimize
over probability vectors supported on a finite candidate grid, so every
reported value carries direction metadata: point-mass scans are always lower
bounds, the conditional-gradient ascent is the best estimate found (a certified
discrete maximum in the concave regime p >= 2, q <= 1).
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from .measure import Measure, PointSet, as_atomic, restrict
from .params import Params
from .quadrature import QuadratureConfig
from .wolff import _BLOCK_ENTRIES, AtomicWolffOperator, _sq_distances


@dataclasses.dataclass(frozen=True)
class KappaEstimate:
    value: float
    direction: str  # "lower_bound" | "best_estimate"
    method: str     # "point_mass" | "simplex_ascent"
    iterations: int = 0
    concave_regime: bool = False


def _check_ladder(radii) -> np.ndarray:
    """radii as floats, if finite, positive and strictly increasing."""
    radii = np.asarray(radii, dtype=float)
    if (len(radii) == 0 or not np.all(np.isfinite(radii)) or np.any(radii <= 0)
            or np.any(np.diff(radii) <= 0)):
        raise ValueError("radii must be positive and strictly increasing")
    return radii


def _concave_regime(pr: Params) -> bool:
    """F(nu) = (int (W nu)^q dsigma)^{1/q} is concave on the simplex: W nu is
    concave in nu for p >= 2, and the power mean (sum w v^q)^{1/q} is
    concave and nondecreasing in v for q <= 1."""
    return pr.p >= 2.0 and pr.q <= 1.0


@dataclasses.dataclass(frozen=True)
class KappaProfile:
    """kappa(B(x, t)) over an increasing radius ladder: finite positive,
    strictly increasing radii and nonnegative values (+inf allowed)."""

    center: np.ndarray
    radii: np.ndarray
    estimates: list[KappaEstimate]
    saturation_radius: float

    def __post_init__(self):
        _check_ladder(self.radii)
        if not np.all(self.values >= 0):
            raise ValueError("kappa values must be nonnegative")

    @property
    def values(self) -> np.ndarray:
        return np.array([e.value for e in self.estimates])

    @property
    def direction(self) -> str:
        dirs = {e.direction for e in self.estimates}
        return "lower_bound" if dirs == {"lower_bound"} else "best_estimate"


def _candidates(atoms: np.ndarray, center: np.ndarray, radii):
    """The union of default_candidate_grid's grids for the balls
    B(center, t), t in radii, and each grid's columns in it."""
    g = np.random.default_rng(0).standard_normal((8, len(center)))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    shells = [center + np.geomspace(t / 256, t, 8)[:, None] * g for t in radii]
    cands, inv = np.unique(np.vstack([atoms, center[None, :]] + shells), axis=0,
                           return_inverse=True)
    inv, nb = inv.reshape(-1), len(atoms) + 1
    return cands, [np.union1d(inv[:nb], r) for r in np.split(inv[nb:], len(shells))]


def default_candidate_grid(sigma: Measure, center, radius: float) -> PointSet:
    """Union of sigma's atoms (quadrature nodes for radial sigma), the ball
    center and a log-radial grid of 8 shells from radius/256 to radius
    around it, one seeded random direction each: extremal nu concentrates
    where sigma is heavy and near kernel foci."""
    cands, _ = _candidates(as_atomic(sigma).points, np.asarray(center, dtype=float),
                           [radius])
    return PointSet(points=cands, tag="kappa-candidates")


def _point_mass_ladder(pr: Params, sa: Measure, x, radii, candidates: np.ndarray,
                       columns, cfg: QuadratureConfig) -> list[KappaEstimate]:
    """Point-mass lower bounds for kappa(B(x, t)), t in increasing radii, from
    one scan: sorted by distance from x, sa's atoms of positive weight in
    B(x, t) are a prefix, and rung j maximises over candidates[columns[j]]."""
    live = np.nonzero(sa.weights > 0)[0]
    d = np.linalg.norm(sa.points[live] - x, axis=1)
    order = np.argsort(d, kind="stable")
    ks = np.searchsorted(d[order], radii, side="right")
    ball = live[order[: ks[-1]]]
    sums = _point_mass_scan(pr, sa.points[ball], sa.weights[ball], candidates,
                            cfg.resolve_t_min(sa.cell_size), ks)
    return [KappaEstimate(float(row[c].max()) ** (1.0 / pr.q), "lower_bound",
                          "point_mass", len(c) if k else 0, _concave_regime(pr))
            for row, k, c in zip(sums, ks, columns)]


def kappa_point_mass(pr: Params, sigma: Measure, x, t: float, grid: PointSet,
                     cfg: QuadratureConfig = QuadratureConfig()) -> KappaEstimate:
    """Lower bound for kappa(B(x,t)) from the best single point mass on the
    grid, using the closed-form point-mass Wolff potential."""
    _check_ladder([t])
    return _point_mass_ladder(pr, as_atomic(sigma), x, [t], grid.points,
                              [np.arange(len(grid))], cfg)[0]


def _point_mass_scan(pr: Params, zpts, zw, candidates, t_min: float,
                     ends=None) -> np.ndarray:
    """Rung rows: row j sums zw (W delta_y)^q over the first ends[j] atoms
    of zpts, for each candidate y (F(delta_y) is its 1/q power), with the
    kernel W delta_y(z) = ((p-1)/s) max(|z-y|, t_min)^{-s/(p-1)}.  ends
    defaults to the whole ball, one row.

    The atoms are walked in blocks of _BLOCK_ENTRIES entries, split at the
    ends; a block's kernel is one power of the clamped squared distances."""
    ends = np.asarray([len(zw)] if ends is None else ends, dtype=int)
    power = -0.5 * pr.s * pr.delta * pr.q
    step = max(1, _BLOCK_ENTRIES // len(candidates))
    out = np.zeros((len(ends), len(candidates)))
    row = np.zeros(len(candidates))
    cuts = np.union1d(np.arange(0, ends.max(initial=0), step), ends)
    for i, j in zip(cuts[:-1], cuts[1:]):
        d2 = _sq_distances(zpts[i:j], candidates)
        np.maximum(d2, t_min * t_min, out=d2)
        with np.errstate(divide="ignore"):
            d2 **= power
        row += zw[i:j] @ d2
        out[ends == j] = row
    return ((pr.p - 1.0) / pr.s) ** pr.q * out


def kappa_simplex_ascent(pr: Params, sigma: Measure, x, t: float, grid: PointSet,
                         iters: int = 50, restarts: int = 3,
                         cfg: QuadratureConfig = QuadratureConfig()) -> KappaEstimate:
    """Conditional-gradient (Frank-Wolfe) ascent of
    F(nu) = (int_B (W nu)^q dsigma)^{1/q} over the probability simplex on the
    grid.  Linear oracle: best vertex of the directional derivative; step by
    backtracking line search on F itself.  For p >= 2 and q <= 1 the
    objective is concave (_concave_regime), so the best value is the global
    discrete maximum up to line-search tolerance; otherwise multi-restart
    keeps it an honest lower bound of the discrete problem.  A restart stops
    when the Frank-Wolfe gap falls to 1e-8 of F.
    """
    if iters < 1 or restarts < 1:
        raise ValueError("iters and restarts must be >= 1")
    _check_ladder([t])
    q, concave = pr.q, _concave_regime(pr)
    sb = restrict(as_atomic(sigma), x, t)
    live = sb.weights > 0  # in sigma's order, so the sums below keep theirs
    zpts, zw = sb.points[live], sb.weights[live]
    K = len(grid)
    if len(zw) == 0:
        return KappaEstimate(0.0, "best_estimate", "simplex_ascent", 0, concave)
    t_min = cfg.resolve_t_min(sb.cell_size)
    op = AtomicWolffOperator(pr, grid.points, zpts, t_min=t_min)

    def F(nu: np.ndarray) -> float:
        return float(np.sum(zw * op.apply(nu) ** q)) ** (1.0 / q)

    def F_grad(nu: np.ndarray):
        w, gw = op.apply_with_grad(nu)
        inner = float(np.sum(zw * w ** q))
        # d/d nu_k of inner^{1/q}; W > 0 everywhere once nu != 0
        with np.errstate(divide="ignore"):
            coeff = np.where(w > 0, zw * w ** (q - 1.0), 0.0)
        grad = inner ** (1.0 / q - 1.0) * (coeff[:, None] * gw).sum(axis=0)
        return inner ** (1.0 / q), grad

    # vertex values double as restart ranking and as the point-mass floor
    vertex_vals = _point_mass_scan(pr, zpts, zw, grid.points, t_min)[-1] ** (1.0 / q)
    order = np.argsort(vertex_vals)[::-1]
    starts = [np.where(np.arange(K) == k, 1.0, 0.0) for k in order[:restarts]]
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
            direction = -nu
            direction[k_star] += 1.0
            gap = float(grad @ direction)
            if gap <= 1e-8 * max(fv, 1e-300):
                break
            step = 1.0
            while step > 1e-10:
                cand = nu + step * direction
                fc = F(cand)
                if fc > fv * (1.0 + 1e-15):
                    nu, fv = cand, fc
                    break
                step *= 0.5
            else:  # no step improved F
                break
        best_val = max(best_val, fv)
    return KappaEstimate(best_val, "best_estimate", "simplex_ascent",
                         total_iters, concave)


def kappa_profile(pr: Params, sigma: Measure, x, radii, method: str = "pointmass",
                  cfg: QuadratureConfig = QuadratureConfig(),
                  **ascent_kwargs) -> KappaProfile:
    """kappa(B(x,t)) on an increasing radius ladder, with running maxima
    enforcing monotonicity and the estimate frozen past saturation."""
    x = np.asarray(x, dtype=float)
    radii = _check_ladder(radii)  # before the scan, not only at construction
    if method not in ("pointmass", "ascent"):
        raise ValueError(f"unknown method {method!r}")
    sat = float(np.linalg.norm(x)) + sigma.support_radius
    # rungs past the first one at or beyond saturation repeat it
    live = radii[: int(np.searchsorted(radii, sat)) + 1]
    sa = as_atomic(sigma)
    cands, cols = _candidates(sa.points, x, live)
    if method == "pointmass":
        raw = _point_mass_ladder(pr, sa, x, live, cands, cols, cfg)
    else:
        grids = [PointSet(cands[c], "kappa-candidates") for c in cols]
        raw = [kappa_simplex_ascent(pr, sa, x, t, g, cfg=cfg, **ascent_kwargs)
               for t, g in zip(live, grids)]
    running = list(itertools.accumulate([e.value for e in raw], max, initial=0.0))
    estimates = [dataclasses.replace(e, value=v) for e, v in zip(raw, running[1:])]
    estimates += estimates[-1:] * (len(radii) - len(live))
    return KappaProfile(center=x, radii=radii, estimates=estimates,
                        saturation_radius=sat)
