"""The benchmark's span tracer wraps wolffkit functions and methods by name,
and its workloads call wolffkit's public signatures.

A refactor that renames or removes one of them, or narrows a signature the
workloads call, should fail here, not only in the benchmark run.  The
tracer and the workloads are loaded from their files and never modified.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import wolffkit.cli  # noqa: F401  (the tracer pins names in cli and corpus)
import wolffkit.corpus  # noqa: F401
from wolffkit import embedding, solver, validate_params, wolff

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _load_tracer():
    return _load("tracer")


def _bindings():
    """(owner, name) -> id of the bound object, for every attribute of every
    wolffkit module and of the classes whose methods the tracer wraps."""
    owners = [mod for key, mod in sys.modules.items()
              if key == "wolffkit" or key.startswith("wolffkit.")]
    owners += [wolff.AtomicWolffOperator, solver.SolveGeometry]
    return {(owner, k): id(v) for owner in owners for k, v in vars(owner).items()}


def test_tracer_pins_resolve_and_uninstall_restores():
    tr = _load_tracer()
    for modname, attr, _ in tr.FUNCTION_SPANS:
        assert callable(getattr(sys.modules[modname], attr)), (modname, attr)
    for cls, attr, _ in tr.METHOD_SPANS:
        assert callable(cls.__dict__[attr]), (cls, attr)
    assert callable(embedding._point_mass_scan)
    # _scan_hook reads zpts and candidates by position
    scan_args = list(inspect.signature(embedding._point_mass_scan).parameters)
    assert scan_args[1] == "zpts" and scan_args[3] == "candidates"
    assert callable(solver.SolveGeometry.__dict__["apply"])

    before = _bindings()
    tracer = tr.Tracer()
    tracer.install()
    try:
        for owner, key, orig, wrapper in tracer._patches:
            assert getattr(owner, key) is wrapper is not orig
    finally:
        tracer.uninstall()
    assert _bindings() == before


def test_operator_arrays_the_tracer_reads():
    """The tracer counts build entries and kernel evaluations from
    op.idx.size and operator bytes from idx and coef: both are rows x atoms
    in the p = 2 kernel form and in the sorted form."""
    rng = np.random.default_rng(0)
    atoms, evals = rng.normal(size=(7, 3)), rng.normal(size=(5, 3))
    for p in (2.0, 2.5):
        op = wolff.AtomicWolffOperator(validate_params(p, 0.5, 1.0, 3),
                                       atoms, evals, t_min=0.1)
        assert op.idx.shape == op.coef.shape == (5, 7)
        assert op.idx.dtype.kind == "i" and op.coef.dtype == np.float64


@pytest.mark.parametrize("name", ["audit_radial", "solve_atomic",
                                  "kappa_ascent", "sweep_cli"])
def test_workload_runs_and_checks(name, tmp_path):
    """One operation of each benchmark workload, through the benchmark's own
    calls, passes the workload's own check."""
    wl = _load("workloads").WORKLOADS[name](seed=0, out_dir=str(tmp_path))
    wl.prepare()
    inp = wl.make_input(0)
    assert wl.check(inp, wl.run(inp)) is None
