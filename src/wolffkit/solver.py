"""Monotone iteration for the sublinear integral equation
u = W(u^q dsigma) + W mu on a coupled point set.

u is represented by its values at sigma's atoms (which close the scheme,
since the measure u^q dsigma only needs u there) plus any user evaluation
points.  T is monotone, and both admissible starts produce a pointwise
nondecreasing iterate sequence: u0 = 0, or the seeded start
u0 = c (W sigma)^{(p-1)/(p-1-q)} with c halved until T u0 >= u0.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .measure import Measure, PointSet, _match_rows, as_atomic
from .params import Params
from .quadrature import QuadratureConfig
from .wolff import AtomicWolffOperator, PotentialField, wolff_field

RESIDUAL_FLOOR = 1e-300
DIVERGENCE_CEILING_FACTOR = 1e12


@dataclasses.dataclass(frozen=True)
class SolveReport:
    u: PotentialField
    iterations: int
    residual_history: list[float]
    status: str  # "converged" | "max_iter" | "diverged_to_infinity"
    u0_mode: str  # "zero" | "seeded"
    seed_constant: float | None = None
    n_sigma_atoms: int = 0


class SolveGeometry:
    """Frozen geometry of a solve: sigma's atomic representation, the coupled
    point set, and the precomputed Wolff operator plus W mu on it."""

    def __init__(self, pr: Params, sigma: Measure, mu: Measure,
                 points: PointSet | None, cfg: QuadratureConfig):
        self.pr = pr
        sa = as_atomic(sigma)
        # merge coincident atoms, summing weights, in first-occurrence order
        first = _match_rows(sa.points, sa.points)
        keep = first == np.arange(len(first))
        apts = sa.points[keep]
        self.sigma_weights = np.bincount(first, sa.weights, len(first))[keep]
        self.n_atoms = len(apts)
        extra = np.empty((0, apts.shape[1]))
        if points is not None:
            # keep only eval points that are not sigma atoms
            extra = points.points[_match_rows(points.points, apts) < 0]
        self.all_points = np.vstack([apts, extra])
        self.points = PointSet(points=self.all_points, tag="solve")
        self.t_min = cfg.resolve_t_min(sa.cell_size)
        self.op = AtomicWolffOperator(pr, apts, self.all_points, t_min=self.t_min)
        self.w_mu = wolff_field(pr, mu, self.points, cfg).values

    def apply(self, u_vals: np.ndarray) -> np.ndarray:
        """One application T u = W(u^q dsigma) + W mu on the coupled set."""
        u_atoms = u_vals[: self.n_atoms]
        if np.any(~np.isfinite(u_atoms) & (self.sigma_weights > 0)):
            return np.full_like(u_vals, math.inf)
        weights = u_atoms ** self.pr.q * self.sigma_weights
        return self.op.apply(weights) + self.w_mu


def apply_T(pr: Params, sigma: Measure, mu: Measure, u: PotentialField,
            cfg: QuadratureConfig | None = None) -> PotentialField:
    """u -> W(u^q dsigma) + W mu evaluated on u's point set.

    u's point set must contain every sigma atom (those values close the
    measure u^q dsigma); monotone in u.
    """
    geo = SolveGeometry(pr, sigma, mu, u.points, cfg or QuadratureConfig())
    # position in u of each point of the coupled set (atoms first)
    perm = _match_rows(geo.all_points, u.points.points)
    if np.any(perm < 0):
        raise ValueError("u must be defined at every sigma atom")
    vals = np.empty(len(u.points))
    vals[perm] = geo.apply(u.values[perm])
    return PotentialField(params=pr, points=u.points, values=vals, t_min=geo.t_min)


def solve_monotone(pr: Params, sigma: Measure, mu: Measure,
                   points: PointSet | None = None, u0_mode: str = "zero",
                   tol: float = 1e-6, max_iter: int = 500,
                   cfg: QuadratureConfig | None = None) -> SolveReport:
    """Iterate u_{j+1} = T u_j to a fixed point of the sublinear equation.

    u0_mode "zero" starts from 0 (converges to W mu's branch; the trivial
    fixed point when mu = 0).  "seeded" starts from c (W sigma)^gamma with c
    halved until T u0 >= u0 pointwise, which produces the nontrivial branch
    for mu = 0.  Convergence: sup |u_{j+1} - u_j| / sup u_{j+1} < tol.
    """
    if tol <= 0 or max_iter < 1:
        raise ValueError("need tol > 0 and max_iter >= 1")
    cfg = cfg or QuadratureConfig()
    geo = SolveGeometry(pr, sigma, mu, points, cfg)
    m = len(geo.all_points)

    seed_c = None
    if u0_mode == "zero":
        u = np.zeros(m)
    elif u0_mode == "seeded":
        wsig = geo.op.apply(geo.sigma_weights)
        base = wsig ** pr.gamma
        c = 1.0
        u = c * base
        # halve until the first iterate dominates the seed (monotone scheme)
        for _ in range(60):
            tu = geo.apply(u)
            if np.all(tu >= u * (1.0 - 1e-12)):
                break
            c *= 0.5
            u = c * base
        else:
            raise RuntimeError("could not find a subsolution seed constant")
        seed_c = c
    else:
        raise ValueError(f"unknown u0_mode {u0_mode!r}")

    ceiling = DIVERGENCE_CEILING_FACTOR * max(float(np.max(u)), float(np.max(geo.w_mu)), 1.0)
    history: list[float] = []
    status = "max_iter"
    it = 0
    for it in range(1, max_iter + 1):
        u_next = geo.apply(u)
        u_next = np.maximum(u_next, u)  # guard fp noise; T is monotone
        sup = float(np.max(u_next))
        res = float(np.max(u_next - u)) / max(sup, RESIDUAL_FLOOR)
        history.append(res)
        u = u_next
        if not np.isfinite(sup) or sup > ceiling:
            status = "diverged_to_infinity"
            break
        if res < tol:
            status = "converged"
            break

    field = PotentialField(params=pr, points=geo.points, values=u,
                           t_min=geo.t_min)
    return SolveReport(u=field, iterations=it, residual_history=history,
                       status=status, u0_mode=u0_mode, seed_constant=seed_c,
                       n_sigma_atoms=geo.n_atoms)


def classify_sub_super(pr: Params, sigma: Measure, mu: Measure,
                       u: PotentialField, cfg: QuadratureConfig | None = None,
                       tol: float = 1e-6) -> list[str]:
    """Pointwise classification of u against T u with tolerance band
    tol * (1 + |Tu|): "solution", "sub", "super", or "neither" (non-finite)."""
    cfg = cfg or QuadratureConfig()
    tu = apply_T(pr, sigma, mu, u, cfg)
    out = []
    for uv, tv in zip(u.values, tu.values):
        if not (np.isfinite(uv) and np.isfinite(tv)):
            out.append("neither")
        elif abs(uv - tv) <= tol * (1.0 + abs(tv)):
            out.append("solution")
        elif uv <= tv:
            out.append("sub")
        else:
            out.append("super")
    return out
