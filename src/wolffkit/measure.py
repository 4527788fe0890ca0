"""Finite-mass measure models: atomic clouds and radial densities about the origin.

Every measure here is nonnegative, compactly supported, and immutable after
construction.  The ball-mass map t -> m(B(x,t)) is exact for both variants
(closed spherical-cap formulas for the radial one), with the closed-ball
convention: points at distance exactly t count inside.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .geometry import ball_volume, intersection_volume


@dataclasses.dataclass(frozen=True)
class PointSet:
    """A finite set of evaluation points in R^n."""

    points: np.ndarray  # (m, n)
    tag: str = ""

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)
        if pts.size == 0:
            raise ValueError("PointSet must be non-empty")
        if not np.all(np.isfinite(pts)):
            raise ValueError("PointSet points must be finite")
        if len(np.unique(pts, axis=0)) != len(pts):
            raise ValueError("PointSet contains duplicate points")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclasses.dataclass(frozen=True)
class Measure:
    """Nonnegative finite measure, either atomic or radial.

    atomic: atoms at `points` with nonnegative `weights`.
    radial: piecewise-constant density on spherical shells about the origin,
        `densities[j]` on {bin_edges[j] <= |z| < bin_edges[j+1]}.

    cell_size, when set, records the generation scale h of a discretized
    (quadrature) representation of an absolutely continuous measure; potential
    evaluations may truncate at t_min = h for such measures.
    """

    kind: str  # "atomic" | "radial"
    points: np.ndarray | None = None
    weights: np.ndarray | None = None
    bin_edges: np.ndarray | None = None
    densities: np.ndarray | None = None
    n: int | None = None
    cell_size: float | None = None

    def __post_init__(self):
        if self.kind == "atomic":
            pts = np.atleast_2d(np.asarray(self.points, dtype=float))
            w = np.atleast_1d(np.asarray(self.weights, dtype=float))
            if len(pts) != len(w):
                raise ValueError("points/weights length mismatch")
            if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(w))):
                raise ValueError("atom points and weights must be finite")
            if np.any(w < 0):
                raise ValueError("weights must be nonnegative")
            object.__setattr__(self, "points", pts)
            object.__setattr__(self, "weights", w)
            object.__setattr__(self, "n", pts.shape[1])
        elif self.kind == "radial":
            e = np.atleast_1d(np.asarray(self.bin_edges, dtype=float))
            rho = np.atleast_1d(np.asarray(self.densities, dtype=float))
            if len(e) != len(rho) + 1:
                raise ValueError("need len(bin_edges) == len(densities) + 1")
            if not (np.all(np.isfinite(e)) and np.all(np.isfinite(rho))):
                raise ValueError("bin_edges and densities must be finite")
            if e[0] != 0.0 or np.any(np.diff(e) <= 0):
                raise ValueError("bin_edges must be strictly increasing from 0")
            if np.any(rho < 0):
                raise ValueError("densities must be nonnegative")
            if self.n is None or self.n < 1:
                raise ValueError("radial measure needs a dimension n")
            object.__setattr__(self, "bin_edges", e)
            object.__setattr__(self, "densities", rho)
        else:
            raise ValueError(f"unknown measure kind {self.kind!r}")

    # -- basic geometry ---------------------------------------------------

    @property
    def dim(self) -> int:
        return int(self.n)

    @property
    def total_mass(self) -> float:
        if self.kind == "atomic":
            return float(self.weights.sum())
        vols = ball_volume(self.bin_edges, self.dim)
        return float(np.sum(self.densities * np.diff(vols)))

    @property
    def support_radius(self) -> float:
        if self.kind == "atomic":
            live = self.weights > 0
            if not np.any(live):
                return 0.0
            return float(np.max(np.linalg.norm(self.points[live], axis=1)))
        live = np.nonzero(self.densities > 0)[0]
        if len(live) == 0:
            return 0.0
        return float(self.bin_edges[live[-1] + 1])

    def is_zero(self) -> bool:
        return self.total_mass == 0.0


def zero_measure(n: int) -> Measure:
    return Measure(kind="atomic", points=np.zeros((1, n)), weights=np.zeros(1))


def atomic(points, weights, cell_size: float | None = None) -> Measure:
    return Measure(kind="atomic", points=points, weights=weights, cell_size=cell_size)


def radial(bin_edges, densities, n: int) -> Measure:
    return Measure(kind="radial", bin_edges=bin_edges, densities=densities, n=n)


# -- operations -----------------------------------------------------------

def ball_mass(m: Measure, x, t):
    """Exact mass of the closed ball B(x, t), elementwise over an array of
    radii t (a float for a scalar t)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError(f"ball radius must be nonnegative, got {t.min()}")
    x = np.asarray(x, dtype=float)
    if m.kind == "atomic":
        d = np.linalg.norm(m.points - x, axis=1)
        order = np.argsort(d)
        cum = np.concatenate([[0.0], np.cumsum(m.weights[order])])
        total = cum[np.searchsorted(d[order], t, side="right")]
    else:
        d = float(np.linalg.norm(x))
        total = np.zeros(t.shape)
        for j, rho in enumerate(m.densities):
            if rho == 0.0:
                continue
            lo, hi = m.bin_edges[j], m.bin_edges[j + 1]
            total += rho * (intersection_volume(d, t, hi, m.dim)
                            - intersection_volume(d, t, lo, m.dim))
    return float(total) if total.ndim == 0 else total


def _match_rows(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Index of the first row of `table` with exactly the coordinates of each
    row of `rows`, or -1 where there is none."""
    _, first, inv = np.unique(np.vstack([table, rows]), axis=0,
                              return_index=True, return_inverse=True)
    hit = first[inv.reshape(-1)[len(table):]]
    return np.where(hit < len(table), hit, -1)


def scale(m: Measure, lam: float) -> Measure:
    """Multiply all weights/densities by lam >= 0."""
    if lam < 0:
        raise ValueError(f"scale factor must be nonnegative, got {lam}")
    if m.kind == "atomic":
        return Measure(kind="atomic", points=m.points, weights=m.weights * lam,
                       cell_size=m.cell_size)
    return Measure(kind="radial", bin_edges=m.bin_edges, densities=m.densities * lam,
                   n=m.n, cell_size=m.cell_size)


def combine(m1: Measure, m2: Measure) -> Measure:
    """Sum of two measures as a single atomic measure."""
    a1, a2 = as_atomic(m1), as_atomic(m2)
    cell = None
    cells = [c for c in (m1.cell_size, m2.cell_size) if c is not None]
    if cells:
        cell = max(cells)
    return Measure(kind="atomic",
                   points=np.vstack([a1.points, a2.points]),
                   weights=np.concatenate([a1.weights, a2.weights]),
                   cell_size=cell)


def restrict(m: Measure, x, t: float) -> Measure:
    """Restriction m|_{B(x,t)} (closed ball).

    Atomic: keep atoms within distance t.  Radial centered at x = 0: clip the
    bins at t (splitting the bin containing t).  Radial with x != 0: convert
    to an atomic quadrature representation first, then restrict; the cell
    size of the conversion is recorded on the result.
    """
    if t <= 0:
        raise ValueError(f"restriction radius must be positive, got {t}")
    x = np.asarray(x, dtype=float)
    if m.kind == "atomic":
        d = np.linalg.norm(m.points - x, axis=1)
        keep = d <= t
        if not np.any(keep):
            return zero_measure(m.dim)
        return Measure(kind="atomic", points=m.points[keep], weights=m.weights[keep],
                       cell_size=m.cell_size)
    if np.linalg.norm(x) == 0.0:
        if t >= m.bin_edges[-1]:
            return m
        j = int(np.searchsorted(m.bin_edges, t, side="right")) - 1
        edges = np.concatenate([m.bin_edges[: j + 1], [t]])
        dens = m.densities[: j + 1].copy()
        return Measure(kind="radial", bin_edges=edges, densities=dens, n=m.n,
                       cell_size=m.cell_size)
    return restrict(as_atomic(m), x, t)


def as_atomic(m: Measure, shells_per_bin: int = 4, directions_per_shell: int = 32,
              seed: int = 0) -> Measure:
    """Atomic view of a measure (identity for atomic ones).

    Radial measures are discretized deterministically: each bin gets
    `shells_per_bin` Gauss-Legendre nodes in the volume coordinate v = c r^n
    (so radial integrals of smooth profiles are quadrature-exact to high
    order); the mass at each node is spread over `directions_per_shell`
    antithetic quasi-random directions.  The recorded cell_size is the
    largest radial node spacing, the truncation scale for downstream
    potentials.
    """
    if m.kind == "atomic":
        return m
    n = m.dim
    rng = np.random.default_rng(seed)
    half = max(1, directions_per_shell // 2)

    def draw_dirs():
        # fresh antithetic pairs per radial node: odd angular moments vanish
        # exactly and the per-shell sampling errors decorrelate
        g = rng.standard_normal((half, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        return np.vstack([g, -g])

    xg, wg = np.polynomial.legendre.leggauss(shells_per_bin)
    v1 = ball_volume(1.0, n)
    pts, wts = [], []
    h = 0.0
    for j, rho in enumerate(m.densities):
        if rho == 0.0:
            continue
        lo, hi = m.bin_edges[j], m.bin_edges[j + 1]
        vlo, vhi = ball_volume(lo, n), ball_volume(hi, n)
        vmid = 0.5 * (vlo + vhi) + 0.5 * (vhi - vlo) * xg
        vw = 0.5 * (vhi - vlo) * wg
        rnode = (vmid / v1) ** (1.0 / n)
        h = max(h, float(np.max(np.diff(np.concatenate([[lo], rnode, [hi]])))))
        for rk, mass in zip(rnode, rho * vw):
            if mass == 0.0:
                continue
            dirs = draw_dirs()
            pts.append(dirs * rk)
            wts.append(np.full(len(dirs), mass / len(dirs)))
    if not pts:
        return zero_measure(n)
    return Measure(kind="atomic", points=np.vstack(pts), weights=np.concatenate(wts),
                   cell_size=h if m.cell_size is None else max(h, m.cell_size))


# -- serialization --------------------------------------------------------

def to_dict(m: Measure) -> dict:
    d: dict = {"kind": m.kind}
    if m.kind == "atomic":
        d["points"] = m.points.tolist()
        d["weights"] = m.weights.tolist()
    else:
        d["bin_edges"] = m.bin_edges.tolist()
        d["densities"] = m.densities.tolist()
        d["n"] = int(m.n)
    if m.cell_size is not None:
        d["cell_size"] = m.cell_size
    return d


def from_dict(d: dict) -> Measure:
    kind = d.get("kind")
    if kind == "atomic":
        return Measure(kind="atomic", points=np.asarray(d["points"], dtype=float),
                       weights=np.asarray(d["weights"], dtype=float),
                       cell_size=d.get("cell_size"))
    if kind == "radial":
        return Measure(kind="radial", bin_edges=np.asarray(d["bin_edges"], dtype=float),
                       densities=np.asarray(d["densities"], dtype=float),
                       n=int(d["n"]), cell_size=d.get("cell_size"))
    raise ValueError(f"unknown measure kind {kind!r}")


def save_measure(m: Measure, path) -> None:
    with open(path, "w") as f:
        json.dump(to_dict(m), f, indent=1)


def load_measure(path) -> Measure:
    with open(path) as f:
        return from_dict(json.load(f))


def save_points(ps: PointSet, path) -> None:
    with open(path, "w") as f:
        json.dump({"points": ps.points.tolist(), "tag": ps.tag}, f, indent=1)


def load_points(path) -> PointSet:
    with open(path) as f:
        d = json.load(f)
    return PointSet(points=np.asarray(d["points"], dtype=float), tag=d.get("tag", ""))
