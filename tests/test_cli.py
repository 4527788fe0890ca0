import csv
import json

import numpy as np
import pytest

from wolffkit import PointSet, atomic, radial, save_measure, save_points, \
    zero_measure
from wolffkit.cli import main


def _read_csv(path):
    header, rows = [], []
    with open(path) as f:
        for line in f:
            (header if line.startswith("#") else rows).append(line.rstrip("\n"))
    return header, list(csv.DictReader(rows))


@pytest.fixture
def workdir(tmp_path):
    sigma = radial([0.0, 1.0], [1.0], 3)
    save_measure(sigma, tmp_path / "sigma.json")
    save_measure(atomic(np.array([[2.0, 0.0, 0.0]]), [1.0]), tmp_path / "mu.json")
    save_measure(zero_measure(3), tmp_path / "zero.json")
    save_points(PointSet(np.array([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0]])),
                tmp_path / "pts.json")
    return tmp_path


def test_gen_corpus_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["gen-corpus", "--seed", "7", "--n", "3", "--count", "6",
                     "--out", str(out)]) == 0
    files = sorted(p.name for p in a.iterdir())
    assert files == sorted(p.name for p in b.iterdir())
    assert len(files) == 7  # 6 measures + manifest
    for name in files:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_potential_csv_schema_and_header(workdir):
    out = workdir / "pot.csv"
    rc = main(["potential", "--params", "2,0.5,1,3",
               "--measure", str(workdir / "sigma.json"),
               "--points", str(workdir / "pts.json"), "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out)
    cfg = json.loads(header[0].split(":", 1)[1])
    assert cfg["params"] == "2,0.5,1,3" and "version" in cfg
    assert len(rows) == 2
    assert float(rows[0]["value"]) > float(rows[1]["value"]) > 0


def test_solve_verify_sigma_zero_ratios_one(workdir):
    """The sigma = 0 pipe: u = W mu exactly, so every sandwich ratio is 1."""
    sol, kap, audit = (workdir / n for n in ("sol.csv", "kap.csv", "audit.json"))
    assert main(["solve", "--params", "2,0.5,1,3",
                 "--sigma", str(workdir / "zero.json"),
                 "--mu", str(workdir / "mu.json"),
                 "--points", str(workdir / "pts.json"), "--out", str(sol)]) == 0
    assert main(["kappa", "--params", "2,0.5,1,3",
                 "--sigma", str(workdir / "zero.json"), "--center", "0,0,0",
                 "--radii", "0.1:2:5", "--out", str(kap)]) == 0
    assert main(["verify", "--params", "2,0.5,1,3",
                 "--sigma", str(workdir / "zero.json"),
                 "--mu", str(workdir / "mu.json"), "--solve", str(sol),
                 "--kappa", str(kap), "--out", str(audit)]) == 0
    rec = json.loads(audit.read_text())
    assert rec["ratios"] == pytest.approx([1.0] * len(rec["ratios"]))
    assert all(c["pass"] for c in rec["checks"].values())
    # no kappa profile is built for sigma = 0, so none has a direction
    assert rec["kappa_direction"] is None
    assert all(t["kappa_total"] == t["wolff_sigma"] == 0.0 for t in rec["terms"])


def test_solve_sidecar_reports_convergence(workdir):
    sol = workdir / "sol.csv"
    assert main(["solve", "--params", "2,0.5,1,3",
                 "--sigma", str(workdir / "sigma.json"), "--u0", "seeded",
                 "--out", str(sol)]) == 0
    side = json.loads((workdir / "sol.csv.json").read_text())
    assert side["status"] == "converged"
    assert side["residual_history"][-1] < 1e-6


def test_sweep_schema_no_missing_cells(workdir):
    out = workdir / "sweep.csv"
    assert main(["sweep", "--params-grid", "p=2,2.5 q=auto alpha=1 n=3",
                 "--seed", "1", "--count", "4", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    checks = {"wolff_at_origin", "kappa_total", "intrinsic_at_origin",
              "solve_iterations", "solve_sup_u", "sandwich_sup_ratio",
              "quadrature_warnings"}
    seen = {}
    for r in rows:
        assert all(r[c] not in (None, "") for c in
                   ("p", "q", "alpha", "n", "measure", "check", "value"))
        seen.setdefault((r["p"], r["measure"]), set()).add(r["check"])
    assert len(seen) == 2 * 4  # one cell per (params, measure)
    for got in seen.values():
        assert got == checks


def test_sweep_parallel_matches_serial(workdir):
    a, b = workdir / "s1.csv", workdir / "s4.csv"
    grid = "p=2 q=auto alpha=1 n=3"
    assert main(["sweep", "--params-grid", grid, "--seed", "2", "--count", "2",
                 "--out", str(a)]) == 0
    assert main(["sweep", "--params-grid", grid, "--seed", "2", "--count", "2",
                 "--workers", "2", "--out", str(b)]) == 0
    _, ra = _read_csv(a)
    _, rb = _read_csv(b)
    assert ra == rb


def test_exit_codes(workdir):
    # usage: bad parameter tuple
    assert main(["potential", "--params", "2,5,1,3",
                 "--measure", str(workdir / "sigma.json"),
                 "--points", str(workdir / "pts.json"),
                 "--out", str(workdir / "x.csv")]) == 2
    # usage: missing file
    assert main(["potential", "--params", "2,0.5,1,3",
                 "--measure", str(workdir / "nope.json"),
                 "--points", str(workdir / "pts.json"),
                 "--out", str(workdir / "x.csv")]) == 2
    # usage: unknown subcommand
    assert main(["frobnicate"]) == 2


def test_numerical_diagnostic_exit_code(workdir):
    """An unreachable rel_tol triggers the numerical-diagnostic exit path."""
    rc = main(["potential", "--params", "2,0.5,1,3", "--rel-tol", "1e-30",
               "--panels-per-decade", "4",
               "--measure", str(workdir / "sigma.json"),
               "--points", str(workdir / "pts.json"),
               "--out", str(workdir / "x.csv")])
    assert rc == 3


@pytest.mark.parametrize("name", ["annulus_001", "radial_bump_000"])
def test_potential_meets_tolerance_at_shell_tangencies(tmp_path, name):
    """p = 2.5 on the README corpus: the fractional power of the cap volume
    at each shell tangency radius is resolved by the graded panels, so no
    point misses rel_tol and the command exits 0 (not 3)."""
    assert main(["gen-corpus", "--seed", "7", "--n", "3", "--count", "4",
                 "--out", str(tmp_path)]) == 0
    pts = np.random.default_rng(3).standard_normal((40, 3))
    save_points(PointSet(pts), tmp_path / "pts.json")
    assert main(["potential", "--params", "2.5,0.75,1,3",
                 "--measure", str(tmp_path / f"{name}.json"),
                 "--points", str(tmp_path / "pts.json"),
                 "--out", str(tmp_path / "pot.csv")]) == 0


def test_env_var_overrides_tolerance(workdir, monkeypatch):
    monkeypatch.setenv("WOLFFKIT_REL_TOL", "1e-30")
    monkeypatch.setenv("WOLFFKIT_PANELS_PER_DECADE", "4")
    rc = main(["potential", "--params", "2,0.5,1,3",
               "--measure", str(workdir / "sigma.json"),
               "--points", str(workdir / "pts.json"),
               "--out", str(workdir / "x.csv")])
    assert rc == 3


def test_verify_reports_direction_of_profiles_used(tmp_path):
    """verify bounds every point with point-mass kappa profiles, which are
    lower bounds, whatever method made the --kappa file."""
    pts = np.array([[0.5, 0.2, 0.0], [-0.4, 0.3, 0.1], [0.1, -0.6, 0.2]])
    save_measure(atomic(pts, [0.5, 0.3, 0.2], cell_size=0.3),
                 tmp_path / "sigma.json")
    sol, kap, audit = (tmp_path / n for n in ("sol.csv", "kap.csv", "audit.json"))
    sigma = str(tmp_path / "sigma.json")
    assert main(["solve", "--params", "2,0.5,1,3", "--sigma", sigma,
                 "--u0", "seeded", "--out", str(sol)]) == 0
    assert main(["kappa", "--params", "2,0.5,1,3", "--sigma", sigma,
                 "--center", "0,0,0", "--radii", "0.1:2:4", "--method", "ascent",
                 "--out", str(kap)]) == 0
    _, rows = _read_csv(kap)
    assert {r["direction"] for r in rows} == {"best_estimate"}
    assert main(["verify", "--params", "2,0.5,1,3", "--sigma", sigma,
                 "--solve", str(sol), "--kappa", str(kap),
                 "--out", str(audit)]) in (0, 1)
    assert json.loads(audit.read_text())["kappa_direction"] == "lower_bound"


def test_config_header_records_env_overrides(workdir, monkeypatch):
    monkeypatch.setenv("WOLFFKIT_PANELS_PER_DECADE", "48")
    monkeypatch.setenv("WOLFFKIT_REL_TOL", "1e-7")
    out = workdir / "pot.csv"
    assert main(["potential", "--params", "2,0.5,1,3",
                 "--measure", str(workdir / "sigma.json"),
                 "--points", str(workdir / "pts.json"), "--out", str(out)]) == 0
    header, _ = _read_csv(out)
    cfg = json.loads(header[0].split(":", 1)[1])
    assert cfg["panels_per_decade"] == 48
    assert cfg["rel_tol"] == 1e-7
