"""Composite Gauss quadrature on logarithmic grids for dt/t integrals.

The potential integrands are powers of piecewise-smooth nondecreasing ball-mass
functions; substituting u = log t, inserting the representation breakpoints
(atom distances, shell tangency radii) as panel boundaries and grading the
panels toward them keeps the composite Gauss rule accurate at the algebraic
endpoint behaviour there.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np


class QuadratureWarning(UserWarning):
    """Emitted when the panel-refinement error estimate misses rel_tol."""


@dataclasses.dataclass(frozen=True)
class QuadratureConfig:
    """Quadrature controls shared by all potential evaluations.

    t_min_policy: "zero" integrates from t = 0 and accepts +inf at atoms;
    "cell" truncates at the measure's recorded cell size, the discrete
    surrogate for absolutely continuous data.  The default is "cell": genuine
    atomic measures carry no cell size and still integrate from 0, while
    quadrature discretizations of densities are truncated at their own scale.
    """

    rel_tol: float = 1e-8
    panels_per_decade: int = 32
    t_min_policy: str = "cell"  # "zero" | "cell"

    def __post_init__(self):
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if self.panels_per_decade < 4:
            raise ValueError("panels_per_decade must be >= 4")
        if self.t_min_policy not in ("zero", "cell"):
            raise ValueError(f"unknown t_min_policy {self.t_min_policy!r}")

    def resolve_t_min(self, cell_size: float | None) -> float:
        if self.t_min_policy == "cell" and cell_size:
            return float(cell_size)
        return 0.0


def log_panels(a: float, b: float, breakpoints, panels_per_decade: int) -> np.ndarray:
    """Panel boundaries on [a, b]: log-spaced, with breakpoints inserted and
    graded toward a, b and every breakpoint t0 by extra edges at
    t0 -+ h 4^-k (k = 1..4), h the width of the neighbouring panel.

    The grading resolves the algebraic endpoint singularities of the
    integrand there, such as (t - t0)^{(n+1)/2} of a cap volume at a shell
    tangency radius.
    """
    if not (0 < a < b):
        raise ValueError(f"need 0 < a < b, got [{a}, {b}]")
    decades = math.log10(b / a)
    k = max(1, int(math.ceil(decades * panels_per_decade)))
    bps = np.asarray([t for t in breakpoints if a < t < b], dtype=float)
    edges = np.unique(np.concatenate([np.geomspace(a, b, k + 1), bps]))
    graded = np.isin(edges, bps)
    graded[[0, -1]] = True
    steps = np.diff(edges)[:, None] * 4.0 ** -np.arange(1, 5)
    return np.unique(np.concatenate([edges,
                                     (edges[:-1, None] + steps)[graded[:-1]].ravel(),
                                     (edges[1:, None] - steps)[graded[1:]].ravel()]))


def integrate_dt_over_t(g, a: float, b: float, breakpoints=(),
                        cfg: QuadratureConfig | None = None) -> float:
    """Compute integral of g(t) dt/t over [a, b] by composite Gauss panels in log t.

    g must accept a numpy array of radii.  A 6-point pass on the same panels
    as the 12-point rule supplies the error estimate; a QuadratureWarning
    carries the achieved estimate when cfg.rel_tol is missed.
    """
    cfg = cfg or QuadratureConfig()
    if b <= a:
        return 0.0
    edges = np.log(log_panels(a, b, breakpoints, cfg.panels_per_decade))

    def composite(order: int) -> float:
        xg, wg = np.polynomial.legendre.leggauss(order)
        lo, hi = edges[:-1], edges[1:]
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        # nodes: (panels, order)
        u = mid[:, None] + half[:, None] * xg[None, :]
        t = np.exp(u)
        vals = g(t.ravel()).reshape(t.shape)
        return float(np.sum(half[:, None] * wg[None, :] * vals))

    hi_val = composite(12)
    lo_val = composite(6)
    denom = max(abs(hi_val), 1e-300)
    err = abs(hi_val - lo_val) / denom
    if err > cfg.rel_tol:
        warnings.warn(
            f"quadrature error estimate {err:.3e} exceeds rel_tol {cfg.rel_tol:.3e}",
            QuadratureWarning,
        )
    return hi_val
