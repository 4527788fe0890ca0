"""wolffkit benchmark: one workload, in this process, for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; wolffkit is imported from ./src.  The
workload's inputs come from --seed alone.  After set-up (timed several
times) and warm-up, operations run back to back until --seconds have
passed; every output is then checked, and the first few are compared
against a reference computed at tightened settings (cached per workload,
seed and source version under perfbench/.cache).

--trace 0 prints the end-to-end metrics.  --trace 1 runs each input twice,
untraced and traced in alternating order, and prints the per-layer metrics
from the traced runs plus the tracing overhead; its spans are written to
perfbench/.out.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

import os

# pin BLAS / OpenMP pools before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CACHE_DIR = HERE / ".cache"
OUT_DIR = HERE / ".out"

SETUP_REPS = 3        # set-up is timed this many times; the median counts
WARMUP_SHARE = 0.05   # warm-up lasts at least this share of --seconds
TAIL_BEYOND = 10      # op_tail_s: highest percentile with this many beyond

E2E_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s",
             "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def source_version() -> str:
    """Digest of wolffkit's sources and the benchmark's own code."""
    h = hashlib.sha256()
    for path in sorted((SRC / "wolffkit").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def import_seconds() -> float:
    """Time to import wolffkit in a fresh interpreter (the import this
    process did can be timed only once)."""
    code = ("import sys, time; t = time.perf_counter(); "
            f"sys.path.insert(0, {str(SRC)!r}); import wolffkit; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout)


def tail(times):
    """(value, percentile): the highest order statistic with TAIL_BEYOND
    operations beyond it; the maximum when there are too few operations."""
    s = sorted(times)
    n = len(s)
    if n > TAIL_BEYOND:
        return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    return s[-1], 100.0


def rel_err(v, r):
    return abs(v - r) / abs(r) if r != 0 else abs(v - r)


def timed_call(wl, inp):
    """(seconds, output, error, warning categories) of one operation."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            out, err = wl.run(inp), None
        except Exception as e:  # a failed operation is data, not a crash
            out, err = None, f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
    return dt, out, err, caught


def check_op(wl, inp, op, traced: bool):
    """Failure reason of one timed operation, or None."""
    if op["err"] is not None:
        return op["err"]
    try:
        reason = wl.check(inp, op["out"])
        if reason is None and traced and (
                op["untraced_err"] is not None
                or wl.values(inp, op["untraced_out"]) != wl.values(inp, op["out"])):
            reason = "traced and untraced outputs differ"
    except Exception as e:
        reason = f"check raised {type(e).__name__}: {e}"
    return reason


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wolffkit" / "__init__.py").is_file():
        print(f"error: wolffkit sources not found in {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import wolffkit  # brings numpy and scipy
    import_s = time.perf_counter() - t0

    import numpy as np
    import scipy

    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    CACHE_DIR.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, str(OUT_DIR))
    tr = tracing.Tracer() if args.trace else None

    # -- set-up, timed SETUP_REPS times ------------------------------------
    import_times = [import_s] + [import_seconds() for _ in range(SETUP_REPS - 1)]
    setup_times = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t)
    setup_s = statistics.median(import_times) + statistics.median(setup_times)

    # -- warm-up: its own inputs, never timed ------------------------------
    t_warm = time.perf_counter()
    n_warm = 0
    while n_warm < wl.warmup_ops or \
            time.perf_counter() - t_warm < WARMUP_SHARE * args.seconds:
        n_warm += 1
        timed_call(wl, wl.get_input(-n_warm))

    # -- timed phase --------------------------------------------------------
    ops = []  # per op: dict(time, out, err, warnings[, untraced time/out])
    t_start = time.perf_counter()
    deadline = t_start + args.seconds
    i = 0
    while i < wl.ref_ops or time.perf_counter() < deadline:
        inp = wl.get_input(i)
        if tr is None:
            dt, out, err, caught = timed_call(wl, inp)
            ops.append(dict(time=dt, out=out, err=err, warns=caught))
        else:
            rec = {}
            for traced in ((True, False) if i % 2 == 0 else (False, True)):
                if traced:
                    tr.op_id = i
                    tr.install()
                    try:
                        dt, out, err, caught = timed_call(wl, inp)
                    finally:
                        tr.uninstall()
                    rec.update(time=dt, out=out, err=err, warns=caught)
                else:
                    udt, uout, uerr, _ = timed_call(wl, inp)
                    rec.update(untraced_time=udt, untraced_out=uout,
                               untraced_err=uerr)
            ops.append(rec)
        i += 1
    elapsed = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(ops)

    # -- checks (untimed) ---------------------------------------------------
    failures = {}
    for k, op in enumerate(ops):
        reason = check_op(wl, wl.get_input(k), op, traced=tr is not None)
        if reason is not None:
            failures[k] = reason

    version = source_version()
    cache_path = CACHE_DIR / f"{wl.name}-seed{args.seed}-{version}.json"
    cache = json.loads(cache_path.read_text()) if cache_path.is_file() else {}
    refs = cache.get("refs", [])
    ref_s = 0.0
    errs = []
    for k in range(min(wl.ref_ops, n)):
        inp = wl.get_input(k)
        if k >= len(refs):
            t = time.perf_counter()
            try:
                refs.append(wl.reference(inp))
            except Exception as e:
                failures[k] = f"reference failed: {type(e).__name__}: {e}"
                break
            ref_s += time.perf_counter() - t
        if k in failures:
            continue
        vals = wl.values(inp, ops[k]["out"])
        e = [rel_err(v, r) for v, r in zip(vals, refs[k])]
        errs.extend(e)
        worst = max(range(len(e)), key=e.__getitem__)
        if len(vals) != len(refs[k]) or e[worst] > wl.tols(len(e))[worst]:
            failures[k] = (f"value {worst} deviates from the reference by "
                           f"{e[worst]:.3e}")
    cache["refs"] = refs
    max_rel_err = max(errs) if errs else 1.0  # nothing comparable: all failed

    done = [(wl.get_input(k), op["out"]) for k, op in enumerate(ops)
            if k not in failures]
    try:
        run_failure, run_info = wl.finish(done) if done else ("no valid output", {})
    except Exception as e:
        run_failure, run_info = f"run check raised {type(e).__name__}: {e}", {}

    warn_counts = {}
    for op in ops:
        for w in op["warns"]:
            key = w.category.__name__
            if key not in warn_counts:
                warn_counts[key] = [0, str(w.message)]
            warn_counts[key][0] += 1

    # -- metrics --------------------------------------------------------------
    times = [op["time"] for op in ops]
    tail_s, tail_pct = tail(times)
    report = [
        ("setup_s", setup_s, "s",
         "median import " + ", ".join(f"{t:.3f}" for t in import_times)
         + " s + median set-up " + ", ".join(f"{t:.3f}" for t in setup_times)
         + " s"),
        ("op_p50_s", statistics.median(times), "s", f"{n} operations"),
        ("op_tail_s", tail_s, "s",
         f"p{tail_pct:.1f} of {n} operations ({min(TAIL_BEYOND, n - 1)} beyond)"),
        ("ops_per_s", n / elapsed, "1/s", f"{n} operations in {elapsed:.3f} s"),
        ("fail_ratio", len(failures) / n, "ratio", f"{len(failures)}/{n} failed"),
        ("max_rel_err", max_rel_err, "ratio",
         f"over {min(wl.ref_ops, n)} referenced operations"),
        ("peak_rss_mb", peak_rss_mb, "MB", "ru_maxrss after the timed phase"),
    ]
    if tr is None:
        metrics = {name: {"value": v, "unit": u} for name, v, u, _ in report
                   if name in E2E_UNITS}
    else:
        metrics = layer_metrics(tr, tracing, wl, ops, failures, max_rel_err)
        counts = {k: metrics[k]["value"] for k in metrics
                  if metrics[k]["unit"] in ("calls/op", "count/op", "B")}
        if "counts" in cache and cache["counts"] != counts:
            diff = sorted(k for k in counts if cache["counts"].get(k) != counts[k])
            run_failure = run_failure or f"counts differ from an earlier run: {diff}"
        cache["counts"] = counts
        tr.dump(OUT_DIR / f"spans-{wl.name}-seed{args.seed}.npz")
    cache_path.write_text(json.dumps(cache))

    env = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "wolffkit": wolffkit.__version__, "source_version": version,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(), "warmup_ops": n_warm, "reference_s": ref_s,
        "input": wl.describe(), "run_checks": run_info,
    }
    correct = not failures and run_failure is None
    for name, v, u, note in report:
        print(f"{name:12s} {v:.6g} {u:6s} {note}")
    for key, (cnt, example) in sorted(warn_counts.items()):
        print(f"warnings     {cnt} {key}, e.g. {example}")
    for k, why in sorted(failures.items())[:10]:
        print(f"FAILED op {k}: {why}")
    if run_failure:
        print(f"FAILED run: {run_failure}")
    print("env " + json.dumps(env, default=str))
    record = dict(env=env, metrics=metrics, times=times,
                  failures={str(k): v for k, v in failures.items()},
                  run_failure=run_failure, warnings=warn_counts)
    (OUT_DIR / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({"correct": correct, "attempted": n,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def layer_metrics(tr, tracing, wl, ops, failures, max_rel_err) -> dict:
    """Per-layer metrics of a traced run.

    Times are per operation over every traced operation.  Calls and counts
    are per operation over the first ref_ops operations, whose inputs are
    fixed by the seed, so they repeat exactly from run to run.
    """
    n = len(ops)
    prefix = range(min(wl.ref_ops, n))
    times = tr.layer_times(range(n))
    calls = tr.calls(prefix)
    counts = {name: 0 for name in tracing.COUNT_NAMES}
    for k in prefix:
        for key, v in tr.counts[k].items():
            counts[key] += v
        for w in ops[k]["warns"]:
            cat = w.category.__name__
            if cat == "QuadratureWarning":
                counts["quadrature.tol_misses"] += 1
            elif cat == "ExtrapolationWarning":
                counts["intrinsic.head_clamps"] += 1
        if ops[k]["out"] is not None:
            for key, v in wl.extra_counts(ops[k]["out"]).items():
                counts[key] += v
    m = {}
    for name in tracing.SPAN_NAMES:
        total, self_t = times.get(name, (0.0, 0.0))
        m[f"{name}.calls"] = (calls.get(name, 0) / len(prefix), "calls/op")
        m[f"{name}.s"] = (total / n, "s/op")
        m[f"{name}.self_s"] = (self_t / n, "s/op")
    for key in tracing.COUNT_NAMES:
        m[key] = (counts[key] / len(prefix), "count/op")
    m["wolff.operator.bytes_computed"] = (
        max((tr.op_bytes.get(k, 0) for k in prefix), default=0), "B")
    fe = counts["embedding.ascent.F_evals"]
    m["embedding.ascent.accept_ratio"] = (
        counts["embedding.ascent.iters"] / fe if fe else 0.0, "ratio")
    traced = sum(op["time"] for op in ops)
    untraced = sum(op["untraced_time"] for op in ops)
    m["trace.ops_per_s"] = (n / traced, "1/s")
    m["trace.untraced_ops_per_s"] = (n / untraced, "1/s")
    m["trace.ops_per_s_ratio"] = (untraced / traced, "ratio")
    m["check.fail_ratio"] = (len(failures) / n, "ratio")
    m["check.max_rel_err"] = (max_rel_err, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


if __name__ == "__main__":
    sys.exit(main())
