"""Command-line front end: potential / riesz / kappa / intrinsic / solve /
verify / sweep / gen-corpus.

Every output file embeds the resolved configuration (and seed, when one is
involved) in '#' comment header lines, so runs are reproducible from their
outputs alone.  Exit codes: 0 pass, 1 check failure, 2 usage error,
3 numerical diagnostic.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import itertools
import json
import os
import sys
import warnings
from types import SimpleNamespace

import numpy as np

from . import __version__
from .corpus import gen_corpus
from .embedding import KappaEstimate, KappaProfile, kappa_profile
from .intrinsic import intrinsic_potential
from .measure import (PointSet, load_measure, load_points, save_measure,
                      zero_measure)
from .params import ParamError, auto_q, validate_params
from .quadrature import QuadratureConfig, QuadratureWarning
from .solver import DEFAULT_TOL, apply_T, solve_monotone
from .verify import bound_field, verify_sandwich
from .wolff import PotentialField, riesz_potential, wolff_field

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
KAPPA_COLUMNS = ["radius", "value", "direction", "method", "iterations"]


def _parse_params(spec: str, preset: str | None):
    parts = spec.split(",")
    if len(parts) != 4:
        raise ParamError(f"--params expects 'p,q,alpha,n', got {spec!r}")
    p, q, alpha = (float(v) for v in parts[:3])
    return validate_params(p, q, alpha, int(parts[3]), preset=preset)


def _apply_env_overrides(args) -> None:
    """WOLFFKIT_REL_TOL / WOLFFKIT_PANELS_PER_DECADE replace the flags, so
    the config header records the settings actually used."""
    if hasattr(args, "rel_tol"):
        args.rel_tol = float(os.environ.get("WOLFFKIT_REL_TOL", args.rel_tol))
        args.panels_per_decade = int(os.environ.get("WOLFFKIT_PANELS_PER_DECADE",
                                                    args.panels_per_decade))


def _quad_config(args) -> QuadratureConfig:
    """The quadrature settings the subcommand offers; defaults for the rest."""
    return QuadratureConfig(**{f.name: getattr(args, f.name)
                               for f in dataclasses.fields(QuadratureConfig)
                               if hasattr(args, f.name)})


def _header_lines(args, extra: dict | None = None) -> list[str]:
    cfg = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    cfg.update(extra or {})
    cfg["version"] = __version__
    return [f"# config: {json.dumps(cfg, sort_keys=True, default=str)}"]


def _write_csv(path: str, header_lines: list[str], columns: list[str],
               rows) -> None:
    with open(path, "w", newline="") as f:
        f.writelines(line + "\n" for line in header_lines)
        w = csv.writer(f)
        w.writerow(columns)
        w.writerows(rows)


def _parse_radii(spec: str) -> np.ndarray:
    a, b, k = spec.split(":")
    return np.geomspace(float(a), float(b), int(k))


def _parse_point(spec: str) -> np.ndarray:
    return np.array([float(v) for v in spec.split(",")])


# -- subcommands ----------------------------------------------------------

def cmd_potential(args) -> int:
    pr = _parse_params(args.params, args.preset)
    m = load_measure(args.measure)
    pts = load_points(args.points)
    field = wolff_field(pr, m, pts, _quad_config(args))
    rows = [list(x) + [v, field.t_min]
            for x, v in zip(pts.points, field.values.tolist())]
    cols = [f"x{i}" for i in range(pts.dim)] + ["value", "trunc_t_min"]
    _write_csv(args.out, _header_lines(args), cols, rows)
    return EXIT_OK


def cmd_riesz(args) -> int:
    m = load_measure(args.measure)
    pts = load_points(args.points)
    cfg = _quad_config(args)
    rows = [list(x) + [riesz_potential(args.beta, m, x, cfg)]
            for x in pts.points]
    cols = [f"x{i}" for i in range(pts.dim)] + ["value"]
    _write_csv(args.out, _header_lines(args), cols, rows)
    return EXIT_OK


def cmd_kappa(args) -> int:
    pr = _parse_params(args.params, args.preset)
    sigma = load_measure(args.sigma)
    center = _parse_point(args.center)
    radii = _parse_radii(args.radii)
    cfg = _quad_config(args)
    prof = kappa_profile(pr, sigma, center, radii, method=args.method, cfg=cfg)
    rows = [[r, e.value, e.direction, e.method, e.iterations]
            for r, e in zip(prof.radii, prof.estimates)]
    hdr = _header_lines(args, {"saturation_radius": prof.saturation_radius,
                               "center": list(map(float, center))})
    _write_csv(args.out, hdr, KAPPA_COLUMNS, rows)
    return EXIT_OK


def _read_csv(path: str, columns) -> tuple[dict, list[dict]]:
    """The '# config:' header and the records of a _write_csv CSV."""
    meta: dict = {}
    rows = []
    with open(path) as f:
        for line in f:
            if line.startswith("# config:"):
                meta = json.loads(line.split(":", 1)[1])
            elif not line.startswith("#"):
                rows.append(line.rstrip("\n"))
    reader = csv.DictReader(rows)
    missing = [c for c in columns if c not in (reader.fieldnames or [])]
    if missing:
        raise ValueError(f"{path}: no {', '.join(missing)} column")
    return meta, list(reader)


def _read_kappa_csv(path: str) -> KappaProfile:
    meta, recs = _read_csv(path, KAPPA_COLUMNS)
    if not recs:
        raise ValueError(f"{path}: no kappa records")
    radii = [float(rec["radius"]) for rec in recs]
    ests = [KappaEstimate(value=float(rec["value"]), direction=rec["direction"],
                          method=rec["method"], iterations=int(rec["iterations"]))
            for rec in recs]
    center = np.asarray(meta.get("center", [0.0]), dtype=float)
    sat = float(meta.get("saturation_radius", radii[-1]))
    try:
        return KappaProfile(center=center, radii=np.asarray(radii),
                            estimates=ests, saturation_radius=sat)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def cmd_intrinsic(args) -> int:
    pr = _parse_params(args.params, args.preset)
    prof = _read_kappa_csv(args.kappa)
    value = intrinsic_potential(pr, prof)
    hdr = _header_lines(args, {"kappa_direction": prof.direction})
    _write_csv(args.out, hdr, ["value", "kappa_direction", "saturation_radius"],
               [[value, prof.direction, prof.saturation_radius]])
    return EXIT_OK


def cmd_solve(args) -> int:
    pr = _parse_params(args.params, args.preset)
    sigma = load_measure(args.sigma)
    mu = load_measure(args.mu) if args.mu else zero_measure(sigma.dim)
    pts = load_points(args.points) if args.points else None
    cfg = _quad_config(args)
    rep = solve_monotone(pr, sigma, mu, pts, args.u0, args.tol,
                         args.max_iter, cfg)
    tu = apply_T(pr, sigma, mu, rep.u, cfg)
    resid = np.abs(rep.u.values - tu.values) / (1.0 + np.abs(tu.values))
    rows = [list(x) + [u, r] for x, u, r in
            zip(rep.u.points.points, rep.u.values, resid)]
    cols = [f"x{i}" for i in range(rep.u.points.dim)] + ["u", "residual"]
    _write_csv(args.out, _header_lines(args, {"status": rep.status}), cols, rows)
    sidecar = {
        "status": rep.status,
        "iterations": rep.iterations,
        "residual_history": rep.residual_history,
        "u0_mode": rep.u0_mode,
        "seed_constant": rep.seed_constant,
        "n_sigma_atoms": rep.n_sigma_atoms,
        "version": __version__,
    }
    with open(args.out + ".json", "w") as f:
        json.dump(sidecar, f, indent=1)
    return EXIT_OK if rep.status == "converged" else EXIT_NUMERICAL


def _read_solve_csv(path: str, pr) -> tuple[dict, PotentialField]:
    """The config header of a solve file and its field u."""
    meta, recs = _read_csv(path, ["u"])
    pts = [[float(v) for k, v in rec.items() if k.startswith("x")]
           for rec in recs]
    ps = PointSet(np.asarray(pts), tag="solve")
    return meta, PotentialField(params=pr, points=ps,
                                values=[float(rec["u"]) for rec in recs])


def cmd_verify(args) -> int:
    pr = _parse_params(args.params, args.preset)
    sigma = load_measure(args.sigma)
    mu = load_measure(args.mu) if args.mu else zero_measure(sigma.dim)
    cfg = _quad_config(args)
    meta, u = _read_solve_csv(args.solve, pr)
    # the residual is judged against the tolerance the solve stopped on
    tol = float(meta.get("tol", DEFAULT_TOL))
    bound, term_rows = bound_field(pr, sigma, mu, u.points, args.n_ladder, cfg)
    # verify_sandwich reads only .u of a solve report
    br = verify_sandwich(pr, sigma, mu, SimpleNamespace(u=u), bound)
    # one direction for all rows: every profile uses the same method
    (direction,) = {row.pop("kappa_direction") for row in term_rows}
    tu = apply_T(pr, sigma, mu, u, cfg)
    resid = float(np.max(np.abs(u.values - tu.values))
                  / max(float(np.max(u.values)), 1e-300))
    checks = {
        "fixed_point_residual": {"value": resid, "tol": tol,
                                 "pass": resid < 2 * tol},
        "sandwich_spread": {"c1_emp": br.c1_emp, "c2_emp": br.c2_emp,
                            "ratio": br.c2_emp / br.c1_emp,
                            "pass": br.c2_emp / br.c1_emp <= args.spread_threshold},
    }
    audit = {
        "params": {"p": pr.p, "q": pr.q, "alpha": pr.alpha, "n": pr.n},
        "checks": checks,
        "ratios": br.ratios.tolist(),
        "terms": term_rows,
        "kappa_direction": direction,
        "version": __version__,
    }
    with open(args.out, "w") as f:
        json.dump(audit, f, indent=1)
    ok = all(c["pass"] for c in checks.values())
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_sweep(args) -> int:
    grids = dict(tok.split("=") for tok in args.params_grid.split())
    ps = [float(v) for v in grids.get("p", "2").split(",")]
    alphas = [float(v) for v in grids.get("alpha", "1").split(",")]
    ns = [int(v) for v in grids.get("n", "3").split(",")]
    q_spec = grids.get("q", "auto")

    jobs = []
    for p in ps:
        qs = [auto_q(p)] if q_spec == "auto" else \
            [float(v) for v in q_spec.split(",")]
        for q, alpha, n in itertools.product(qs, alphas, ns):
            try:
                jobs.append(validate_params(p, q, alpha, n))
            except ParamError:
                continue

    work = [(pr, m, name, args) for pr in jobs
            for name, m in gen_corpus(args.seed, pr.n, args.count)]

    # worker pool with deterministic merge: results land in job-index order
    if args.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(args.workers) as pool:
            staged = list(pool.map(_sweep_job, work))
    else:
        staged = [_sweep_job(w) for w in work]

    rows = [row for chunk in staged for row in chunk]
    cols = ["p", "q", "alpha", "n", "measure", "check", "value"]
    _write_csv(args.out, _header_lines(args, {"seed": args.seed}), cols, rows)
    return EXIT_OK


def _sweep_job(work) -> list:
    pr, m, name, args = work
    # quadrature shortfalls are data in a sweep, not fatal errors
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", QuadratureWarning)
        out = _sweep_checks(pr, m, name, args)
    n_warn = sum(issubclass(w.category, QuadratureWarning) for w in caught)
    out.append([pr.p, pr.q, pr.alpha, pr.n, name,
                "quadrature_warnings", n_warn])
    return out


def _sweep_checks(pr, m, name, args):
    cfg = _quad_config(args)
    base = [pr.p, pr.q, pr.alpha, pr.n, name]
    out = []
    mu = zero_measure(m.dim)
    origin = PointSet(np.zeros((1, m.dim)))
    bound, (row,) = bound_field(pr, m, mu, origin, 10, cfg)
    out.append(base + ["wolff_at_origin", row["wolff_sigma"]])
    out.append(base + ["kappa_total", row["kappa_total"]])
    out.append(base + ["intrinsic_at_origin", row["intrinsic_term"]])
    rep = solve_monotone(pr, m, mu, None, "seeded",
                         args.tol, args.max_iter, cfg)
    out.append(base + ["solve_iterations", rep.iterations])
    out.append(base + ["solve_sup_u", float(np.max(rep.u.values))])
    R = float(bound.values[0])
    if R > 0 and np.isfinite(R):
        # ratio at origin only when it belongs to the solve set; else sup-based
        out.append(base + ["sandwich_sup_ratio", float(np.max(rep.u.values)) / R])
    return out


def cmd_gen_corpus(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    corpus = gen_corpus(args.seed, args.n, args.count)
    manifest = []
    for name, m in corpus:
        path = os.path.join(args.out, f"{name}.json")
        save_measure(m, path)
        manifest.append({"name": name, "file": f"{name}.json",
                         "kind": m.kind, "total_mass": m.total_mass,
                         "support_radius": m.support_radius})
    with open(os.path.join(args.out, "manifest.json"), "w") as f:
        json.dump({"seed": args.seed, "n": args.n, "count": args.count,
                   "version": __version__, "measures": manifest},
                  f, indent=1, sort_keys=True)
    return EXIT_OK


# -- parser ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="wolffkit",
                                 description="Nonlinear potential toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, params=True, quad=("rel_tol", "panels_per_decade", "t_min_policy")):
        """--params, --preset and a flag per QuadratureConfig field named."""
        if params:
            sp.add_argument("--params", required=True,
                            help="p,q,alpha,n (comma separated)")
            sp.add_argument("--preset", choices=["p-laplace", "hessian"])
        for key in quad:
            default = getattr(QuadratureConfig, key)
            sp.add_argument("--" + key.replace("_", "-"), type=type(default),
                            default=default,
                            choices=("zero", "cell") if key == "t_min_policy" else None)

    sp = sub.add_parser("potential", help="Wolff potential field")
    common(sp)
    sp.add_argument("--measure", required=True)
    sp.add_argument("--points", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_potential)

    sp = sub.add_parser("riesz", help="Riesz potential field")
    common(sp, params=False)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--measure", required=True)
    sp.add_argument("--points", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_riesz)

    sp = sub.add_parser("kappa", help="embedding-constant profile")
    common(sp, quad=("t_min_policy",))  # closed form: truncation only
    sp.add_argument("--sigma", required=True)
    sp.add_argument("--center", required=True, help="comma separated point")
    sp.add_argument("--radii", required=True, help="a:b:k geometric ladder")
    sp.add_argument("--method", choices=["ascent", "pointmass"],
                    default="pointmass")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_kappa)

    sp = sub.add_parser("intrinsic", help="intrinsic potential from a kappa profile")
    common(sp, quad=())  # closed form: no quadrature settings
    sp.add_argument("--kappa", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_intrinsic)

    sp = sub.add_parser("solve", help="monotone fixed-point solve")
    common(sp)
    sp.add_argument("--sigma", required=True)
    sp.add_argument("--mu")
    sp.add_argument("--points")
    sp.add_argument("--u0", choices=["zero", "seeded"], default="zero")
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
    sp.add_argument("--max-iter", dest="max_iter", type=int, default=500)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("verify", help="bilateral-bound audit")
    common(sp)
    sp.add_argument("--sigma", required=True)
    sp.add_argument("--mu")
    sp.add_argument("--solve", required=True)
    sp.add_argument("--n-ladder", dest="n_ladder", type=int, default=12,
                    help="rungs of each point's kappa ladder")
    sp.add_argument("--spread-threshold", dest="spread_threshold",
                    type=float, default=100.0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sweep", help="parameter-grid sweep over a corpus")
    common(sp, params=False)
    sp.add_argument("--params-grid", dest="params_grid", required=True,
                    help="e.g. 'p=2,2.5 q=auto alpha=1 n=3,5'")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=int, default=4)
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
    sp.add_argument("--max-iter", dest="max_iter", type=int, default=300)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("gen-corpus", help="write a seeded measure corpus")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_gen_corpus)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0,) else 0
    try:
        _apply_env_overrides(args)
        with warnings.catch_warnings():
            warnings.simplefilter("error", QuadratureWarning)
            return args.func(args)
    except QuadratureWarning as e:
        print(f"error: numerical diagnostic: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ParamError, ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
