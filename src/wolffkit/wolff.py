"""Wolff and Riesz potentials of finite-mass measures, with tail classifiers.

The Wolff potential of m at x is the dt/t integral of
[m(B(x,t)) / t^s]^{1/(p-1)} with s = n - alpha*p.  For compactly supported m
the integrand is an exact power once t exceeds T = |x| + support_radius, so
the evaluation splits into a small-t head (closed-form power when the measure
is density-like at x), composite log-panel quadrature on [start, T], and the
exact tail (p-1)/s * M^{1/(p-1)} * T^{-s/(p-1)}.

For atomic measures the ball-mass map is a step function and the whole
integral has a closed form (a kernel sum at p = 2, where the potential is
linear in the measure); AtomicWolffOperator exposes that fast path for the
optimizer and solver loops.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from .measure import Measure, PointSet, ball_mass
from .params import Params
from .quadrature import QuadratureConfig, QuadratureWarning, integrate_dt_over_t

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
    live = m.densities > 0
    lo, hi = m.bin_edges[:-1][live], m.bin_edges[1:][live]
    if np.any((lo <= r) & (r <= hi)):
        return 0.0
    return float(np.abs(r - np.concatenate([lo, hi])).min(initial=math.inf))


def _power_integral(m0, r0, a, lo, hi, s: float, pm1: float):
    """Integral of [m0 (t/r0)^a / t^s]^{1/pm1} dt/t over [lo, hi], elementwise.

    With e = (a - s)/pm1 the integrand is m0^{1/pm1} r0^{-s/pm1} (t/r0)^e dt/t,
    which integrates to ((hi/r0)^e - (lo/r0)^e)/e, or log(hi/lo) where a = s.
    Near that log case the difference cancels, so where |e log(hi/lo)| < 1
    it is taken as (lo/r0)^e expm1(e log(hi/lo))/e.  lo = 0 (for e > 0) and
    hi = inf (for e < 0) are allowed: the power vanishes there.
    """
    # [()] keeps scalar input scalar: numpy's array power rounds differently
    m0, r0, a, lo, hi = (np.asarray(v, dtype=float)[()]
                         for v in (m0, r0, a, lo, hi))
    delta = 1.0 / pm1
    e = (a - s) * delta
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_ratio = np.log(hi / lo)
        power = np.where(np.abs(e * log_ratio) < 1.0,
                         (lo / r0) ** e * np.expm1(e * log_ratio),
                         (hi / r0) ** e - (lo / r0) ** e)
        shape = np.where(np.abs(e) < 1e-14, log_ratio, pm1 / (a - s) * power)
        return m0 ** delta * r0 ** (-s * delta) * shape


def _layer_cake(m: Measure, x: np.ndarray, s: float, pm1: float, t_min: float,
                cfg: QuadratureConfig) -> float:
    """Integral of [m(B(x,t)) / t^s]^{1/pm1} dt/t over t > t_min: the Wolff
    integrand with pm1 = p - 1, the Riesz one (over n - beta) with pm1 = 1.

    Closed-form power head below the first breakpoint when m is density-like
    at x, log-panel quadrature up to T = |x| + support_radius, exact tail.
    A QuadratureWarning reports a quadrature error estimate above rel_tol
    relative to the whole integral.
    """
    T = float(np.linalg.norm(x)) + m.support_radius
    start = max(t_min, _support_distance(m, x))
    if start == 0.0 and m.kind == "atomic":
        return math.inf  # an atom at x itself, untruncated
    bps = _breakpoints(m, x)
    head = 0.0
    if start == 0.0:
        # density-like at x: m(B(x,t)) = m(B(x,h0)) (t/h0)^n exactly below
        # the first breakpoint h0
        pos = bps[bps > 0]
        start = min(float(pos[0]) if len(pos) else T, T)
        head = float(_power_integral(ball_mass(m, x, start), start, m.dim,
                                     0.0, start, s, pm1))

    def g(ts):
        masses = ball_mass(m, x, ts)
        out = np.zeros_like(ts)
        live = masses > 0
        out[live] = (masses[live] / ts[live] ** s) ** (1.0 / pm1)
        return out

    quad, err = integrate_dt_over_t(g, start, T, bps, cfg)
    lo = max(start, T)
    tail = float(_power_integral(m.total_mass, lo, 0.0, lo, math.inf, s, pm1))
    total = head + quad + tail
    if err > cfg.rel_tol * total:
        warnings.warn(f"quadrature error estimate {err / total:.3e} exceeds "
                      f"rel_tol {cfg.rel_tol:.3e}", QuadratureWarning)
    return total


def wolff_potential(pr: Params, m: Measure, x,
                    cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """Wolff potential of m at x, truncated below cfg's t_min for m."""
    x = np.asarray(x, dtype=float)
    t_min = cfg.resolve_t_min(m.cell_size)
    return float(_wolff_rows(pr, m, x[None, :], t_min, cfg)[0])


def _wolff_rows(pr: Params, m: Measure, pts: np.ndarray, t_min: float,
                cfg: QuadratureConfig) -> np.ndarray:
    """Wolff potential of m at each row of pts: zeros for zero mass, inf
    for s <= 0, closed-form operators over blocks of rows for an atomic m,
    the layer-cake quadrature row by row otherwise."""
    if m.total_mass == 0.0:
        return np.zeros(len(pts))
    if pr.s <= 0.0:
        return np.full(len(pts), math.inf)
    if m.kind != "atomic":
        return np.array([_layer_cake(m, x, pr.s, pr.p - 1.0, t_min, cfg)
                         for x in pts])
    # blocks of rows bound each operator's rows x atoms arrays
    step = max(1, _BLOCK_ENTRIES // len(m.points))
    out = np.empty(len(pts))
    for i in range(0, len(pts), step):
        op = AtomicWolffOperator(pr, m.points, pts[i:i + step], t_min)
        out[i:i + step] = op.apply(m.weights)
    return out


def _sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a_i - b_j|^2 for every row pair, written in place block by block of
    about _BLOCK_ENTRIES entries: one coordinate at a time through a
    single block-sized scratch array, no len(a) x len(b) temporary."""
    out = np.empty((len(a), len(b)))
    step = max(1, _BLOCK_ENTRIES // max(1, len(b)))
    scratch = np.empty((min(step, len(a)), len(b)))
    for i in range(0, len(a), step):
        rows, block = a[i:i + step], out[i:i + step]
        np.subtract(rows[:, 0, None], b[None, :, 0], out=block)
        block *= block
        sq = scratch[:len(rows)]
        for k in range(1, a.shape[1]):
            np.subtract(rows[:, k, None], b[None, :, k], out=sq)
            sq *= sq
            block += sq
    return out


class AtomicWolffOperator:
    """Precomputed closed-form Wolff evaluation of atomic measures on fixed
    geometry: eval points and atom locations are frozen, weights vary.

    Used by the simplex ascent (vary nu weights) and the monotone solver
    (vary u^q * sigma weights) where thousands of evaluations share one
    distance structure.

    At p = 2 the potential is linear in the weights,
    W nu(z) = sum_k w_k K[z, k] with K = max(|z - y_k|, t_min)^{-s} / s, and
    coef holds K itself (idx is the identity order).  Otherwise each row is
    sorted by distance once, and coef holds the shell differences of the
    closed form sum_k coef_k M_k^delta over the cumulative ball masses M_k.
    """

    def __init__(self, pr: Params, atom_points: np.ndarray, eval_points: np.ndarray,
                 t_min: float):
        self.pr = pr
        self.t_min = float(t_min)
        atom_points = np.atleast_2d(np.asarray(atom_points, dtype=float))
        eval_points = np.atleast_2d(np.asarray(eval_points, dtype=float))
        s, delta = pr.s, pr.delta
        if s <= 0.0:
            raise ValueError("AtomicWolffOperator requires s > 0")
        D = _sq_distances(eval_points, atom_points)
        np.sqrt(D, out=D)
        self.linear = delta == 1.0
        if self.linear:
            K = np.maximum(D, self.t_min, out=D)  # in place: one E x A array
            with np.errstate(divide="ignore"):
                K **= -s
            K /= s
            # an atom at an eval point with t_min = 0: its kernel entry is
            # inf, kept apart so that a zero weight there contributes 0
            self._at_atom = np.nonzero(np.isinf(K))
            K[self._at_atom] = 0.0
            K.flags.writeable = False  # apply_with_grad hands it out
            self.coef = K
            self.idx = np.broadcast_to(np.arange(D.shape[1], dtype=np.int32),
                                       D.shape)
            return
        self.idx = np.argsort(D, axis=1)
        dsort = np.take_along_axis(D, self.idx, axis=1)
        a = np.maximum(dsort, self.t_min)
        with np.errstate(divide="ignore"):
            b = a ** (-s * delta)
        b_next = np.concatenate([b[:, 1:], np.zeros((len(b), 1))], axis=1)
        # b is nonincreasing along a row; an empty shell between equal b
        # (atoms at one distance, inf for atoms on the eval point) gets 0
        self.coef = np.subtract(b, b_next, out=np.zeros_like(b), where=b > b_next)
        self.coef *= (pr.p - 1.0) / s

    def _kernel_apply(self, weights: np.ndarray) -> np.ndarray:
        # einsum, unlike a BLAS matvec, sums each row the same way whatever
        # the number of rows, so row blocks agree bit for bit
        vals = np.einsum("ij,j->i", self.coef, weights)
        rows, cols = self._at_atom
        vals[rows[weights[cols] > 0]] = math.inf
        return vals

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
        if self.linear:
            return self._kernel_apply(weights)
        return self._shell_terms(weights)[2].sum(axis=1)

    def apply_with_grad(self, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values plus the Jacobian d W(z) / d w_k: the kernel K at p = 2
        (inf at an atom on an eval point when t_min = 0); clipped where the
        one-sided derivative is infinite for p > 2 at zero mass."""
        if self.linear:
            grad = self.coef
            if len(self._at_atom[0]):
                grad = grad.copy()
                grad[self._at_atom] = math.inf
            return self._kernel_apply(weights), grad
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
                cfg: QuadratureConfig = QuadratureConfig()) -> PotentialField:
    """Wolff potential evaluated over a point set, with the special cases
    of wolff_potential; an atomic m builds one operator per block of points."""
    t_min = cfg.resolve_t_min(m.cell_size)
    vals = _wolff_rows(pr, m, points.points, t_min, cfg)
    return PotentialField(params=pr, points=points, values=vals, t_min=t_min)


def riesz_potential(beta: float, m: Measure, x,
                    cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """Riesz potential of order beta: integral of |x-y|^{beta-n} dm(y),
    never truncated.  It is (n - beta) W_{beta/2,2} m(x): at p = 2 the
    Wolff integrand is m(B(x,t)) t^{-s}, s = n - beta, and its dt/t
    integral is the Riesz potential over s."""
    n = m.dim
    if not (0.0 < beta < n):
        raise ValueError(f"Riesz order must satisfy 0 < beta < n, got {beta}")
    x = np.asarray(x, dtype=float)
    # the Wolff potential reads no q: 0.5 only fills the tuple
    pr = Params(2.0, 0.5, beta / 2.0, n)
    return (n - beta) * float(_wolff_rows(pr, m, x[None], 0.0, cfg)[0])


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
