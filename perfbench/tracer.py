"""Span tracer installed on wolffkit from outside the package.

Timing wrappers replace the public functions of each wolffkit module, and
the AtomicWolffOperator / SolveGeometry methods, for the duration of one
traced operation.  Modules that bound a function by name at import time
(``from .measure import ball_mass`` in wolff.py, for instance) hold their
own reference, so every ``wolffkit.*`` module attribute that *is* the
original function is replaced, not only the defining module's.

A span records name, start, end, parent span and operation id.  Spans live
in flat typed arrays while the run lasts and are written out once at the
end.  Counts (work done, warnings) are kept per operation next to them.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

from wolffkit import embedding, solver, wolff

# (module, attribute, span name): public functions wrapped by name.
FUNCTION_SPANS = [
    ("wolffkit.measure", "ball_mass", "measure.ball_mass"),
    ("wolffkit.measure", "as_atomic", "measure.as_atomic"),
    ("wolffkit.measure", "restrict", "measure.restrict"),
    ("wolffkit.geometry", "intersection_volume", "geometry.intersection_volume"),
    ("wolffkit.quadrature", "integrate_dt_over_t", "quadrature.integrate"),
    ("wolffkit.wolff", "wolff_potential", "wolff.potential"),
    ("wolffkit.embedding", "default_candidate_grid", "embedding.candidate_grid"),
    ("wolffkit.embedding", "kappa_point_mass", "embedding.kappa_point_mass"),
    ("wolffkit.embedding", "kappa_simplex_ascent", "embedding.kappa_simplex_ascent"),
    ("wolffkit.embedding", "kappa_profile", "embedding.kappa_profile"),
    ("wolffkit.intrinsic", "intrinsic_potential", "intrinsic.potential"),
    ("wolffkit.solver", "solve_monotone", "solver.solve"),
    ("wolffkit.verify", "default_bound_ladder", "verify.bound_ladder"),
    ("wolffkit.verify", "bilateral_bound", "verify.bilateral_bound"),
    ("wolffkit.corpus", "gen_corpus", "corpus.gen_corpus"),
    ("wolffkit.cli", "main", "cli.main"),
]

# (class, method, span name): methods wrapped on the class itself.
METHOD_SPANS = [
    (wolff.AtomicWolffOperator, "__init__", "wolff.operator.build"),
    (wolff.AtomicWolffOperator, "apply", "wolff.operator.apply"),
    (wolff.AtomicWolffOperator, "apply_with_grad", "wolff.operator.apply_with_grad"),
    (solver.SolveGeometry, "__init__", "solver.geometry"),
]

SPAN_NAMES = [name for _, _, name in FUNCTION_SPANS + METHOD_SPANS]

# Machine-independent counts, per operation.
COUNT_NAMES = [
    "quadrature.nodes",
    "embedding.kappa_point_mass.kernel_evals",
    "wolff.operator.build.entries",
    "wolff.operator.apply.kernel_evals",
    "embedding.ascent.iters",
    "embedding.ascent.F_evals",
    "solver.iterations",
    "solver.T_applies",
    "quadrature.tol_misses",
    "intrinsic.head_clamps",
]


class Tracer:
    """Records spans and counts while installed; does nothing otherwise."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[int, Counter] = defaultdict(Counter)
        # per-operation peak of operator bytes, computed from shapes/dtypes
        self.op_bytes: dict[int, int] = defaultdict(int)
        self._patches = self._plan()

    # -- recording ----------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        self.counts[self.op_id][key] += n

    def innermost(self) -> str | None:
        return self.names[self.name[self.stack[-1]]] if self.stack else None

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name, fn, before=None, after=None):
        nid = self._nid(name)
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            idx = len(tr.start)
            tr.name.append(nid)
            tr.parent.append(tr.stack[-1] if tr.stack else -1)
            tr.op.append(tr.op_id)
            tr.start.append(0.0)
            tr.end.append(0.0)
            tr.stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tr.stack.pop()
                tr.start[idx] = t0
                tr.end[idx] = t1
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _counting(self, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hook(args)
            return fn(*args, **kwargs)

        return wrapper

    # -- count hooks (read shapes and results, never recompute) -------------

    def _count_nodes(self, args):
        g = args[0]

        def counted(ts):
            self.count("quadrature.nodes", int(np.size(ts)))
            return g(ts)

        return (counted,) + tuple(args[1:])

    def _after_build(self, args, _out):
        op = args[0]
        self.count("wolff.operator.build.entries", int(op.idx.size))
        nbytes = int(op.idx.size * op.idx.dtype.itemsize
                     + op.coef.size * op.coef.dtype.itemsize)
        self.op_bytes[self.op_id] = max(self.op_bytes[self.op_id], nbytes)

    def _after_apply(self, args, _out):
        self.count("wolff.operator.apply.kernel_evals", int(args[0].idx.size))
        if self.innermost() == "embedding.kappa_simplex_ascent":
            self.count("embedding.ascent.F_evals")

    def _after_ascent(self, _args, out):
        self.count("embedding.ascent.iters", int(out.iterations))

    def _after_solve(self, _args, out):
        self.count("solver.iterations", int(out.iterations))

    def _scan_hook(self, args):
        # _point_mass_scan(pr, zpts, zw, candidates, t_min): atoms x candidates
        if self.innermost() == "embedding.kappa_point_mass":
            self.count("embedding.kappa_point_mass.kernel_evals",
                       int(len(args[1]) * len(args[3])))

    def _t_apply_hook(self, _args):
        self.count("solver.T_applies")

    # -- installation -------------------------------------------------------

    def _plan(self):
        """(owner, attribute, original, wrapper) for every binding to patch."""
        hooks = {
            "quadrature.integrate": (self._count_nodes, None),
            "embedding.kappa_simplex_ascent": (None, self._after_ascent),
            "solver.solve": (None, self._after_solve),
            "wolff.operator.build": (None, self._after_build),
            "wolff.operator.apply": (None, self._after_apply),
        }
        mods = [m for k, m in sorted(sys.modules.items())
                if k == "wolffkit" or k.startswith("wolffkit.")]
        plan = []
        for modname, attr, name in FUNCTION_SPANS:
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._span(name, orig, *hooks.get(name, (None, None)))
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        plan.append((mod, key, orig, wrapper))
        for cls, attr, name in METHOD_SPANS:
            orig = cls.__dict__[attr]
            plan.append((cls, attr, orig,
                         self._span(name, orig, *hooks.get(name, (None, None)))))
        plan.append((embedding, "_point_mass_scan", embedding._point_mass_scan,
                     self._counting(embedding._point_mass_scan, self._scan_hook)))
        plan.append((solver.SolveGeometry, "apply", solver.SolveGeometry.apply,
                     self._counting(solver.SolveGeometry.apply, self._t_apply_hook)))
        return plan

    def install(self) -> None:
        for owner, key, _orig, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig, _wrapper in self._patches:
            setattr(owner, key, orig)

    # -- results --------------------------------------------------------------

    def arrays(self) -> dict:
        # copies: a live view would stop the arrays from growing
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def layer_times(self, ops) -> dict[str, tuple[float, float]]:
        """Total and self seconds per span name over the given operations.

        Self time is a span's duration minus the time its child spans
        cover; the run is single-threaded, so children never overlap.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child
        keep = np.isin(a["op"], np.asarray(list(ops), dtype=np.int32))
        out = {}
        for nid, name in enumerate(self.names):
            sel = keep & (a["name"] == nid)
            out[name] = (float(dur[sel].sum()), float(self_t[sel].sum()))
        return out

    def calls(self, ops) -> Counter:
        a = self.arrays()
        keep = np.isin(a["op"], np.asarray(list(ops), dtype=np.int32))
        ids = np.bincount(a["name"][keep], minlength=len(self.names))
        return Counter({name: int(ids[i]) for i, name in enumerate(self.names)})

    def dump(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
