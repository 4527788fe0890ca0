"""The four benchmark workloads, driven through wolffkit's public API.

Each workload derives every input from (run seed, operation index), so the
same seed gives the same inputs; warm-up operations use negative indices
and never share an input with a timed one.  ``run`` is the timed
operation.  ``check`` validates one output on its own; ``reference``
recomputes it with the same public functions at tightened settings, and
``tols`` bounds the relative deviation of each output value from it.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

import wolffkit as wk
import wolffkit.cli
from wolffkit.corpus import gen_corpus


# keeps warm-up (negative) operation indices nonnegative in seed keys
OFFSET = 1_000_000


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def _bump_seed(n_bins: int, *key: int) -> int:
    """A corpus seed, derived from `key`, whose radial_bump_000 has
    `n_bins` bins: the bin count sets the atom count, so every run seed
    gets inputs of one size."""
    for j in range(10_000):
        s = int(np.random.SeedSequence([*key, j]).generate_state(1)[0])
        if len(gen_corpus(s, 3, 1)[0][1].densities) == n_bins:
            return s
    raise RuntimeError("no corpus seed with the requested bin count")


class Workload:
    name = ""
    # operations whose outputs are checked against the cached reference and
    # whose counts are reported; every run completes at least this many
    ref_ops = 4
    warmup_ops = 2
    # inputs made during set-up; later ones are made as they are needed
    pool = 64

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir

    def setup(self) -> None:
        """Prerequisites and input generation; repeated to time set-up."""
        self.prepare()
        self.inputs = {i: self.make_input(i)
                       for i in range(-self.warmup_ops, self.pool)}

    def prepare(self) -> None:
        """Prerequisite computation, before any input is made."""

    def get_input(self, i: int):
        if i not in self.inputs:
            self.inputs[i] = self.make_input(i)
        return self.inputs[i]

    def make_input(self, i: int):
        """Input of operation i (negative: warm-up), from (seed, i) alone."""
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def values(self, inp, out) -> list[float]:
        """Output values compared against the reference."""
        raise NotImplementedError

    def check(self, inp, out) -> str | None:
        """A failure reason, or None when the output is valid."""
        return None

    def reference(self, inp) -> list[float]:
        raise NotImplementedError

    def tols(self, n: int) -> list[float]:
        """Largest accepted relative deviation of each value from the
        reference."""
        return [self.TOL] * n

    def extra_counts(self, out) -> dict:
        """Per-layer counts read from an output rather than traced."""
        return {}

    def finish(self, done: list) -> tuple[str | None, dict]:
        """Whole-run check over (input, output) pairs; (failure, info)."""
        return None, {}

    def describe(self) -> dict:
        return {}


class AuditRadial(Workload):
    """The README verify loop: per-point kappa ladder, point-mass profile and
    bilateral bound on one radial sigma, after a seeded solve."""

    name = "audit_radial"
    ref_ops = 4
    PR = (2.0, 0.5, 1.0, 3)
    N_LADDER = 12
    # the README's `gen-corpus --seed 7` bump (8 bins, 1024 atoms): a fixed
    # sigma keeps run-to-run variation to the choice of points, which the
    # run seed makes
    CORPUS_SEED = 7
    SOLVE_TOL = 1e-6
    REF_SOLVE_TOL = 1e-12
    REF_CFG = dict(rel_tol=1e-10, panels_per_decade=64)
    # [R, u/R]: R is quadrature-limited, u/R is limited by the solve tol
    TOLS = (1e-8, 1e-5)

    def prepare(self):
        self.pr = wk.validate_params(*self.PR)
        self.cfg = wk.QuadratureConfig()
        self.sigma = gen_corpus(self.CORPUS_SEED, 3, 1)[0][1]
        self.mu = wk.zero_measure(3)
        rep = wk.solve_monotone(self.pr, self.sigma, self.mu, u0_mode="seeded",
                                tol=self.SOLVE_TOL, cfg=self.cfg)
        if rep.status != "converged":
            raise RuntimeError(f"set-up solve ended with status {rep.status}")
        self.rep = rep
        self.order = _rng(self.seed, 1).permutation(len(rep.u.values))
        self.pool = len(self.order) - self.warmup_ops

    def make_input(self, i):
        # distinct atoms of u; warm-up takes them from the other end.  Past
        # the atom count (over a thousand operations) points repeat.
        k = self.order[i % len(self.order)]
        return int(k), self.rep.u.points.points[k]

    def run(self, inp):
        _, x = inp
        radii = wk.default_bound_ladder(self.sigma, x, self.N_LADDER)
        prof = wk.kappa_profile(self.pr, self.sigma, x, radii,
                                method="pointmass", cfg=self.cfg)
        return wk.bilateral_bound(self.pr, self.sigma, self.mu, x, prof,
                                  self.cfg)

    def values(self, inp, out):
        R = float(out[0])
        return [R, float(self.rep.u.values[inp[0]]) / R]

    def check(self, inp, out):
        R, terms = out
        if not all(math.isfinite(v) and v >= 0 for v in terms.values()):
            return f"non-finite or negative bound term {terms}"
        if not (math.isfinite(R) and R > 0):
            return f"bound R = {R}"
        return None

    def reference(self, inp):
        if not hasattr(self, "u_ref"):
            rep = wk.solve_monotone(self.pr, self.sigma, self.mu,
                                    u0_mode="seeded", tol=self.REF_SOLVE_TOL,
                                    max_iter=5000, cfg=self.cfg)
            if rep.status != "converged":
                raise RuntimeError("reference solve did not converge")
            self.u_ref = rep.u.values
        k, x = inp
        cfg = wk.QuadratureConfig(**self.REF_CFG)
        radii = wk.default_bound_ladder(self.sigma, x, self.N_LADDER)
        prof = wk.kappa_profile(self.pr, self.sigma, x, radii,
                                method="pointmass", cfg=cfg)
        R, _ = wk.bilateral_bound(self.pr, self.sigma, self.mu, x, prof, cfg)
        return [float(R), float(self.u_ref[k]) / float(R)]

    def tols(self, n):
        return list(self.TOLS)

    def finish(self, done):
        idx = [inp[0] for inp, _ in done]
        pts = wk.PointSet(self.rep.u.points.points[idx], tag="audit")
        u = wk.PotentialField(params=self.pr, points=pts,
                              values=self.rep.u.values[idx])
        R = wk.PotentialField(params=self.pr, points=pts,
                              values=[out[0] for _, out in done])
        rep = wk.SolveReport(u=u, iterations=self.rep.iterations,
                             residual_history=[], status=self.rep.status,
                             u0_mode="seeded")
        br = wk.verify_sandwich(self.pr, self.sigma, self.mu, rep, R)
        info = {"c1_emp": br.c1_emp, "c2_emp": br.c2_emp,
                "flagged": len(br.flagged)}
        # the CLI's sandwich-spread check (default threshold 100)
        if not (0 < br.c1_emp <= br.c2_emp <= 100 * br.c1_emp) or br.flagged:
            return f"sandwich audit failed: {info}", info
        return None, info

    def describe(self):
        return {"params": self.PR, "corpus_seed": self.CORPUS_SEED,
                "sigma_atoms": len(self.rep.u.values), "ladder": self.N_LADDER,
                "solve_iterations": self.rep.iterations}


class SolveAtomic(Workload):
    """One seeded monotone solve per operation, on a fresh atomic cloud."""

    name = "solve_atomic"
    ref_ops = 3
    warmup_ops = 1
    PR = (2.0, 0.9, 1.0, 3)  # rho = q/(p-1) = 0.9
    ATOMS = 512
    TOL = 1e-4  # u vs the tol=1e-12 solve; the error is ~ tol rho/(1-rho)
    SOLVE_TOL = 1e-6
    REF_SOLVE_TOL = 1e-12

    pool = 128

    def prepare(self):
        self.pr = wk.validate_params(*self.PR)
        self.mu = wk.zero_measure(3)

    def make_input(self, i):
        # the corpus atomic_cloud recipe at a fixed atom count
        rng = _rng(self.seed, 2, i + OFFSET)
        k, n = self.ATOMS, 3
        R = float(rng.uniform(0.5, 1.5))
        pts = rng.normal(size=(k, n))
        pts *= R / np.linalg.norm(pts, axis=1, keepdims=True) \
            * rng.uniform(0.05, 1.0, size=(k, 1)) ** (1.0 / n)
        w = rng.uniform(0.1, 1.0, k) / k
        return wk.atomic(pts, w, cell_size=R * (1.0 / k) ** (1.0 / n))

    def run(self, sigma):
        return wk.solve_monotone(self.pr, sigma, self.mu, u0_mode="seeded",
                                 tol=self.SOLVE_TOL)

    def values(self, sigma, rep):
        return rep.u.values.tolist()

    def check(self, sigma, rep):
        if rep.status != "converged":
            return f"solver status {rep.status}"
        u = rep.u.values
        if not (np.all(np.isfinite(u)) and np.all(u > 0)):
            return "non-finite or non-positive u"
        tu = wk.apply_T(self.pr, sigma, self.mu, rep.u).values
        resid = float(np.max(np.abs(u - tu)) / np.max(u))
        if resid >= 2 * self.SOLVE_TOL:  # the CLI's fixed-point check
            return f"fixed-point residual {resid:.3e}"
        return None

    def reference(self, sigma):
        rep = wk.solve_monotone(self.pr, sigma, self.mu, u0_mode="seeded",
                                tol=self.REF_SOLVE_TOL, max_iter=5000)
        if rep.status != "converged":
            raise RuntimeError("reference solve did not converge")
        return rep.u.values.tolist()

    def describe(self):
        return {"params": self.PR, "atoms": self.ATOMS,
                "solve_tol": self.SOLVE_TOL}


class KappaAscent(Workload):
    """kappa(B(x,t)) by conditional-gradient ascent on a fresh ball."""

    name = "kappa_ascent"
    ref_ops = 3
    PR = (2.5, 0.75, 1.0, 3)  # p >= 2: concave regime
    N_BINS = 4
    SHELLS, DIRS = 2, 16     # 4 bins x 2 shells x 16 directions = 128 atoms
    BALL_ATOMS = 24
    REF_ASCENT = dict(iters=200, restarts=3)
    TOL = 5e-2

    pool = 160

    def prepare(self):
        self.pr = wk.validate_params(*self.PR)

    def make_input(self, i):
        # a fresh discretisation of a fresh corpus bump, and the ball about
        # one of its atoms that holds exactly BALL_ATOMS atoms
        m = gen_corpus(_bump_seed(self.N_BINS, self.seed, 3, i + OFFSET), 3, 1)[0][1]
        rng = _rng(self.seed, 3, i + OFFSET)
        sigma = wk.as_atomic(m, shells_per_bin=self.SHELLS,
                             directions_per_shell=self.DIRS,
                             seed=int(rng.integers(1 << 30)))
        x = sigma.points[rng.integers(len(sigma.weights))]
        d = np.sort(np.linalg.norm(sigma.points - x, axis=1))
        t = 0.5 * float(d[self.BALL_ATOMS - 1] + d[self.BALL_ATOMS])
        return sigma, x, t

    def run(self, inp):
        sigma, x, t = inp
        return wk.kappa_profile(self.pr, sigma, x, [t], method="ascent")

    def values(self, inp, prof):
        return [float(prof.values[0])]

    def check(self, inp, prof):
        sigma, x, t = inp
        est = prof.estimates[0]
        v = float(est.value)
        if not (math.isfinite(v) and v > 0):
            return f"kappa = {v}"
        if est.direction != "best_estimate" or est.iterations < 1:
            return f"ascent returned {est.direction} after {est.iterations} iterations"
        grid = wk.default_candidate_grid(sigma, x, t)
        floor = wk.kappa_point_mass(self.pr, sigma, x, t, grid).value
        if v < floor * (1 - 1e-12):
            return f"ascent value {v} below the point-mass bound {floor}"
        return None

    def reference(self, inp):
        sigma, x, t = inp
        prof = wk.kappa_profile(self.pr, sigma, x, [t], method="ascent",
                                **self.REF_ASCENT)
        return [float(prof.values[0])]

    def describe(self):
        return {"params": self.PR, "sigma_atoms": self.N_BINS * self.SHELLS * self.DIRS,
                "ball_atoms": self.BALL_ATOMS,
                "grid": self.N_BINS * self.SHELLS * self.DIRS + 9}


class SweepCli(Workload):
    """One in-process `wolffkit sweep` per operation."""

    name = "sweep_cli"
    ref_ops = 2
    warmup_ops = 1
    GRID = "p=2,2.5 q=auto alpha=0.75,1 n=3"
    COUNT = 4
    N_BINS = 4  # the corpus radial bump: 4 bins, 512 atoms
    REF_ARGS = ["--rel-tol", "1e-10", "--panels-per-decade", "64",
                "--tol", "1e-12", "--max-iter", "5000"]
    MAX_ITER = 300  # the sweep default; a solve that reaches it has not converged
    TOL = 1e-5
    SKIP = ("solve_iterations", "quadrature_warnings")

    pool = 32

    def prepare(self):
        self.path = os.path.join(self.out_dir, f"sweep-{os.getpid()}.csv")

    def make_input(self, i):
        return _bump_seed(self.N_BINS, self.seed, 4, i + OFFSET)

    def _sweep(self, s, extra=()):
        rc = wolffkit.cli.main(["sweep", "--params-grid", self.GRID,
                                "--count", str(self.COUNT), "--workers", "1",
                                "--seed", str(s), "--out", self.path, *extra])
        with open(self.path) as f:
            rows = list(csv.reader(line for line in f if not line.startswith("#")))
        return rc, rows[1:]

    def run(self, s):
        return self._sweep(s)

    def values(self, s, out):
        return [float(r[6]) for r in out[1] if r[5] not in self.SKIP]

    def check(self, s, out):
        rc, rows = out
        if rc != 0:
            return f"sweep exit code {rc}"
        if len(rows) != 4 * self.COUNT * 7:
            return f"sweep wrote {len(rows)} rows"
        for r in rows:
            v = float(r[6])
            if not math.isfinite(v):
                return f"non-finite {r[5]} for {r[4]}"
            if r[5] == "solve_iterations" and v >= self.MAX_ITER:
                return f"solve for {r[4]} hit max_iter"
            if r[5] == "sandwich_sup_ratio" and not 1e-6 < v < 1e6:
                return f"sandwich ratio {v} for {r[4]}"
        return None

    def reference(self, s):
        rc, rows = self._sweep(s, self.REF_ARGS)
        if rc != 0:
            raise RuntimeError(f"reference sweep exit code {rc}")
        return self.values(s, (rc, rows))

    def extra_counts(self, out):
        return {"quadrature.tol_misses": int(sum(
            float(r[6]) for r in out[1] if r[5] == "quadrature_warnings"))}

    def describe(self):
        return {"grid": self.GRID, "count": self.COUNT,
                "radial_bump_atoms": self.N_BINS * 4 * 32}


WORKLOADS = {w.name: w for w in (AuditRadial, SolveAtomic, KappaAscent, SweepCli)}
