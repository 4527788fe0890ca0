"""Deterministic seeded measure families for sweeps and audits.

Four desk-scale families: radial bumps, annuli, pairs of separated balls
(as atomic quadrature clouds), and atomic clouds.  Everything is driven by a
single numpy Generator seed, so identical seeds give identical corpora.
"""

from __future__ import annotations

import numpy as np

from .measure import Measure, as_atomic, atomic, radial

FAMILIES = ("radial_bump", "annulus", "separated_balls", "atomic_cloud")


def make_measure(family: str, n: int, rng: np.random.Generator,
                 atoms: int = 48) -> Measure:
    if family == "radial_bump":
        n_bins = int(rng.integers(4, 9))
        R = float(rng.uniform(0.5, 2.0))
        edges = np.linspace(0.0, R, n_bins + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        width = float(rng.uniform(0.3, 1.0)) * R
        dens = np.exp(-(mids / width) ** 2) * float(rng.uniform(0.5, 2.0))
        return radial(edges, dens, n)
    if family == "annulus":
        a = float(rng.uniform(0.2, 0.8))
        b = a + float(rng.uniform(0.3, 1.0))
        dens = float(rng.uniform(0.5, 2.0))
        return radial([0.0, a, b], [0.0, dens], n)
    if family == "separated_balls":
        r1 = float(rng.uniform(0.2, 0.5))
        r2 = float(rng.uniform(0.2, 0.5))
        gap = float(rng.uniform(1.0, 2.5))
        d1 = float(rng.uniform(0.5, 2.0))
        d2 = float(rng.uniform(0.5, 2.0))
        shift = np.zeros(n)
        shift[0] = gap
        b1 = as_atomic(radial([0.0, r1], [d1], n), shells_per_bin=3,
                       directions_per_shell=max(8, atoms // 6),
                       seed=int(rng.integers(1 << 30)))
        b2 = as_atomic(radial([0.0, r2], [d2], n), shells_per_bin=3,
                       directions_per_shell=max(8, atoms // 6),
                       seed=int(rng.integers(1 << 30)))
        pts = np.vstack([b1.points - shift / 2, b2.points + shift / 2])
        w = np.concatenate([b1.weights, b2.weights])
        cell = max(b1.cell_size or 0.0, b2.cell_size or 0.0)
        return atomic(pts, w, cell_size=cell)
    if family == "atomic_cloud":
        k = int(rng.integers(atoms // 2, atoms + 1))
        R = float(rng.uniform(0.5, 1.5))
        pts = rng.normal(size=(k, n))
        pts *= R / np.maximum(np.linalg.norm(pts, axis=1, keepdims=True), 1e-12) \
            * rng.uniform(0.05, 1.0, size=(k, 1)) ** (1.0 / n)
        w = rng.uniform(0.1, 1.0, k) / k
        # cell scale of the cloud as a surrogate density: mean spacing
        cell = R * (1.0 / k) ** (1.0 / n)
        return atomic(pts, w, cell_size=cell)
    raise ValueError(f"unknown family {family!r}")


def gen_corpus(seed: int, n: int, count: int,
               atoms: int = 48) -> list[tuple[str, Measure]]:
    """Deterministic list of (name, measure) pairs, cycling through FAMILIES."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        fam = FAMILIES[i % len(FAMILIES)]
        out.append((f"{fam}_{i:03d}", make_measure(fam, n, rng, atoms=atoms)))
    return out

