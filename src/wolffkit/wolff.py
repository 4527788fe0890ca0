"""Wolff and Riesz potentials of finite-mass measures, with tail classifiers.

The Wolff potential of m at x is the dt/t integral of
[m(B(x,t)) / t^s]^{1/(p-1)} with s = n - alpha*p.  For compactly supported m
the integrand is an exact power once t exceeds T = |x| + support_radius, so
the evaluation splits into a small-t head (closed-form power when the measure
is density-like at x), composite log-panel quadrature on [start, T], and the
exact tail (p-1)/s * M^{1/(p-1)} * T^{-s/(p-1)}.

For atomic measures the ball-mass map is a step function and the whole
integral has a closed form; AtomicWolffOperator exposes that fast path for
the optimizer and solver loops.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .measure import Measure, PointSet, ball_mass
from .params import Params
from .quadrature import QuadratureConfig, integrate_dt_over_t

_BIG_GRAD = 1e100
_BLOCK_ENTRIES = 1 << 16  # rows x atoms per operator in _wolff_rows


@dataclasses.dataclass(frozen=True)
class PotentialField:
    """Values of a potential (or solution) on an evaluation point set."""

    params: Params
    points: PointSet
    values: np.ndarray
    t_min: float = 0.0

    def __post_init__(self):
        vals = np.atleast_1d(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", vals)
        if len(vals) != len(self.points):
            raise ValueError("values/points length mismatch")
        if np.any(vals < 0):
            raise ValueError("potential values must be nonnegative")


@dataclasses.dataclass(frozen=True)
class GrowthProfile:
    """Symbolic ball-mass growth m(B(0,t)) ~ C t^d (log t)^e for large t; the
    constant C > 0 decides no convergence question and is not stored."""

    d: float
    e: float = 0.0


def _breakpoints(m: Measure, x: np.ndarray) -> np.ndarray:
    if m.kind == "atomic":
        return np.unique(np.linalg.norm(m.points[m.weights > 0] - x, axis=1))
    r = float(np.linalg.norm(x))
    e = m.bin_edges
    return np.unique(np.concatenate([np.abs(r - e), r + e]))


def _support_distance(m: Measure, x: np.ndarray) -> float:
    if m.kind == "atomic":
        live = m.weights > 0
        if not np.any(live):
            return math.inf
        return float(np.min(np.linalg.norm(m.points[live] - x, axis=1)))
    r = float(np.linalg.norm(x))
    best = math.inf
    for j, rho in enumerate(m.densities):
        if rho == 0.0:
            continue
        lo, hi = m.bin_edges[j], m.bin_edges[j + 1]
        if lo <= r <= hi:
            return 0.0
        best = min(best, abs(r - lo), abs(r - hi))
    return best


def _layer_cake(m: Measure, x: np.ndarray, s: float, pm1: float, t_min: float,
                cfg: QuadratureConfig) -> float:
    """Integral of [m(B(x,t)) / t^s]^{1/pm1} dt/t over t > t_min: the Wolff
    integrand with pm1 = p - 1, the Riesz one (over n - beta) with pm1 = 1.

    Closed-form power head below the first breakpoint when m is density-like
    at x, log-panel quadrature up to T = |x| + support_radius, exact tail.
    """
    delta = 1.0 / pm1
    M = m.total_mass
    T = float(np.linalg.norm(x)) + m.support_radius
    d0 = _support_distance(m, x)
    if m.kind == "atomic" and t_min == 0.0 and d0 == 0.0:
        return math.inf

    tail_start = max(T, t_min)
    if tail_start == 0.0:
        return math.inf  # all mass at x itself, untruncated
    tail = pm1 / s * M ** delta * tail_start ** (-s * delta)

    start = max(t_min, d0)
    bps = _breakpoints(m, x)
    head = 0.0
    if start == 0.0:
        # density-like at x: m(B(x,t)) = c t^n exactly below the first
        # breakpoint, giving a closed-form power head
        pos = bps[bps > 0]
        h0 = float(pos[0]) if len(pos) else T
        h0 = min(h0, T)
        c = ball_mass(m, x, h0) / h0 ** m.dim
        if c > 0.0:
            head = c ** delta * pm1 / (m.dim - s) * h0 ** ((m.dim - s) * delta)
        start = h0
    if start < T:
        def g(ts):
            masses = ball_mass(m, x, ts)
            out = np.zeros_like(ts)
            live = masses > 0
            out[live] = (masses[live] / ts[live] ** s) ** delta
            return out

        quad = integrate_dt_over_t(g, start, T, bps, cfg)
    else:
        quad = 0.0
        tail = pm1 / s * M ** delta * max(start, tail_start) ** (-s * delta)
    return head + quad + tail


def wolff_potential(pr: Params, m: Measure, x, cfg: QuadratureConfig | None = None,
                    t_min: float | None = None, method: str = "auto") -> float:
    """Wolff potential of m at x.

    t_min overrides the config's truncation policy; method is "auto"
    (closed form for atomic, quadrature for radial), "exact", or
    "quadrature".
    """
    cfg = cfg or QuadratureConfig()
    x = np.asarray(x, dtype=float)
    if t_min is None:
        t_min = cfg.resolve_t_min(m.cell_size)
    return float(_wolff_rows(pr, m, x[None, :], t_min, cfg, method)[0])


def _wolff_rows(pr: Params, m: Measure, pts: np.ndarray, t_min: float,
                cfg: QuadratureConfig, method: str) -> np.ndarray:
    """Wolff potential of m at each row of pts: zeros for zero mass, inf
    for s <= 0, closed-form operators over blocks of rows for an atomic m,
    the layer-cake quadrature row by row otherwise."""
    if m.total_mass == 0.0:
        return np.zeros(len(pts))
    if pr.s <= 0.0:
        return np.full(len(pts), math.inf)
    if method == "auto":
        method = "exact" if m.kind == "atomic" else "quadrature"
    if method == "exact":
        if m.kind != "atomic":
            raise ValueError("exact evaluation requires an atomic measure")
        # blocks of rows bound each operator's rows x atoms arrays
        step = max(1, _BLOCK_ENTRIES // len(m.points))
        out = np.empty(len(pts))
        for i in range(0, len(pts), step):
            op = AtomicWolffOperator(pr, m.points, pts[i:i + step], t_min)
            out[i:i + step] = op.apply(m.weights)
        return out
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    return np.array([_layer_cake(m, x, pr.s, pr.p - 1.0, t_min, cfg)
                     for x in pts])


class AtomicWolffOperator:
    """Precomputed closed-form Wolff evaluation of atomic measures on fixed
    geometry: eval points and atom locations are frozen, weights vary.

    Used by the simplex ascent (vary nu weights) and the monotone solver
    (vary u^q * sigma weights) where thousands of evaluations share one
    distance structure.
    """

    def __init__(self, pr: Params, atom_points: np.ndarray, eval_points: np.ndarray,
                 t_min: float = 0.0):
        self.pr = pr
        self.t_min = float(t_min)
        atom_points = np.atleast_2d(np.asarray(atom_points, dtype=float))
        eval_points = np.atleast_2d(np.asarray(eval_points, dtype=float))
        D = np.linalg.norm(eval_points[:, None, :] - atom_points[None, :, :], axis=2)
        self.idx = np.argsort(D, axis=1)
        dsort = np.take_along_axis(D, self.idx, axis=1)
        a = np.maximum(dsort, self.t_min)
        s, delta = pr.s, pr.delta
        if s <= 0.0:
            raise ValueError("AtomicWolffOperator requires s > 0")
        with np.errstate(divide="ignore"):
            b = a ** (-s * delta)
        b_next = np.concatenate([b[:, 1:], np.zeros((len(b), 1))], axis=1)
        self.coef = (pr.p - 1.0) / s * (b - b_next)

    def _shell_terms(self, weights: np.ndarray):
        """Cumulative ball masses M along each sorted row, their live mask
        M > 0, and the per-shell terms coef * M^delta (0 where M = 0)."""
        Mcum = np.cumsum(weights[self.idx], axis=1)
        live = Mcum > 0
        with np.errstate(invalid="ignore"):
            terms = self.coef * np.where(live, Mcum, 1.0) ** self.pr.delta
        return Mcum, live, np.where(live, terms, 0.0)

    def apply(self, weights: np.ndarray) -> np.ndarray:
        """Wolff potential of the measure with given atom weights, at every
        eval point."""
        return self._shell_terms(weights)[2].sum(axis=1)

    def apply_with_grad(self, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values plus the Jacobian d W(z) / d w_k (clipped where the
        one-sided derivative is infinite for p > 2 at zero mass)."""
        delta = self.pr.delta
        Mcum, live, terms = self._shell_terms(weights)
        vals = terms.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            mpow = np.where(live, np.where(live, Mcum, 1.0) ** (delta - 1.0),
                            0.0 if delta > 1.0 else _BIG_GRAD)
        G = delta * self.coef * mpow
        G = np.minimum(G, _BIG_GRAD)
        rc = np.cumsum(G[:, ::-1], axis=1)[:, ::-1]
        grad = np.empty_like(rc)
        np.put_along_axis(grad, self.idx, rc, axis=1)
        return vals, grad


def wolff_field(pr: Params, m: Measure, points: PointSet,
                cfg: QuadratureConfig | None = None) -> PotentialField:
    """Wolff potential evaluated over a point set, with the special cases
    of wolff_potential; an atomic m builds one operator per block of points."""
    cfg = cfg or QuadratureConfig()
    t_min = cfg.resolve_t_min(m.cell_size)
    vals = _wolff_rows(pr, m, points.points, t_min, cfg, "auto")
    return PotentialField(params=pr, points=points, values=vals, t_min=t_min)


def riesz_potential(beta: float, m: Measure, x,
                    cfg: QuadratureConfig | None = None) -> float:
    """Riesz potential of order beta: integral of |x-y|^{beta-n} dm(y)."""
    n = m.dim
    if not (0.0 < beta < n):
        raise ValueError(f"Riesz order must satisfy 0 < beta < n, got {beta}")
    x = np.asarray(x, dtype=float)
    if m.total_mass == 0.0:
        return 0.0
    if m.kind == "atomic":
        d = np.linalg.norm(m.points - x, axis=1)
        live = m.weights > 0
        if np.any(live & (d == 0.0)):
            return math.inf
        with np.errstate(divide="ignore"):
            vals = np.where(live, m.weights * d ** (beta - n), 0.0)
        return float(vals.sum())
    # layer-cake form: (n - beta) * int m(B(x,t)) t^{beta-n} dt/t
    return (n - beta) * _layer_cake(m, x, n - beta, 1.0, 0.0, cfg or QuadratureConfig())


def tail_exists(pr: Params, profile: Measure | GrowthProfile) -> str:
    """Classify convergence of the large-t tail of the Wolff integral.

    Returns "finite" or "infinite".  Finite-mass measures have ball-mass
    exponent d = 0 at infinity, so the tail converges exactly when s > 0;
    symbolic power-log profiles C t^d (log t)^e converge when
    (d - s)/(p-1) < 0, or zero with e/(p-1) < -1.
    """
    s = pr.s
    if isinstance(profile, Measure):
        if profile.total_mass == 0.0:
            return "finite"
        return "finite" if s > 0.0 else "infinite"
    if isinstance(profile, GrowthProfile):
        expo = (profile.d - s) / (pr.p - 1.0)
        if expo < 0.0:
            return "finite"
        if expo == 0.0 and profile.e / (pr.p - 1.0) < -1.0:
            return "finite"
        return "infinite"
    raise ValueError(f"unsupported profile {profile!r}")
