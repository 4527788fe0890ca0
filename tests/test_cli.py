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
                 "--n-ladder", "5", "--out", str(audit)]) == 0
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
    lower bounds; it reads no kappa file, only the ladder length."""
    pts = np.array([[0.5, 0.2, 0.0], [-0.4, 0.3, 0.1], [0.1, -0.6, 0.2]])
    save_measure(atomic(pts, [0.5, 0.3, 0.2], cell_size=0.3),
                 tmp_path / "sigma.json")
    sol, audit = tmp_path / "sol.csv", tmp_path / "audit.json"
    sigma = str(tmp_path / "sigma.json")
    assert main(["solve", "--params", "2,0.5,1,3", "--sigma", sigma,
                 "--u0", "seeded", "--out", str(sol)]) == 0
    assert main(["verify", "--params", "2,0.5,1,3", "--sigma", sigma,
                 "--solve", str(sol), "--n-ladder", "4",
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


def test_intrinsic_takes_no_quadrature_flags(workdir):
    """The intrinsic potential is closed form: the quadrature flags are not
    offered there, and its config header has no quadrature keys."""
    kap, out = workdir / "kap.csv", workdir / "k.csv"
    assert main(["kappa", "--params", "2,0.5,1,3",
                 "--sigma", str(workdir / "sigma.json"), "--center", "0,0,0",
                 "--radii", "0.1:2:4", "--out", str(kap)]) == 0
    base = ["intrinsic", "--params", "2,0.5,1,3", "--kappa", str(kap),
            "--out", str(out)]
    assert main(base) == 0
    header, rows = _read_csv(out)
    cfg = json.loads(header[0].split(":", 1)[1])
    assert not {"rel_tol", "panels_per_decade", "t_min_policy"} & set(cfg)
    assert float(rows[0]["value"]) > 0
    for flag in (["--rel-tol", "1e-6"], ["--panels-per-decade", "16"],
                 ["--t-min-policy", "zero"]):
        assert main(base + flag) == 2


def test_kappa_takes_only_t_min_policy(workdir):
    """Every kappa path is closed form: of the quadrature flags only
    --t-min-policy is offered, and it alone reaches the header."""
    out = workdir / "kap.csv"
    base = ["kappa", "--params", "2,0.5,1,3", "--sigma", str(workdir / "sigma.json"),
            "--center", "0,0,0", "--radii", "0.1:2:4", "--out", str(out)]
    for method in ("pointmass", "ascent"):
        assert main(base + ["--method", method]) == 0
        header, rows = _read_csv(out)
        cfg = json.loads(header[0].split(":", 1)[1])
        assert not {"rel_tol", "panels_per_decade"} & set(cfg)
        assert cfg["t_min_policy"] == "cell"
        assert main(base + ["--method", method, "--t-min-policy", "zero"]) == 0
        assert _read_csv(out)[1] != rows
    for flag in (["--rel-tol", "1e-6"], ["--panels-per-decade", "16"]):
        assert main(base + flag) == 2


def test_verify_judges_residual_against_the_solve_tol(tmp_path):
    """verify reads tol from the solve file's header and records it."""
    pts = np.array([[0.5, 0.2, 0.0], [-0.4, 0.3, 0.1], [0.1, -0.6, 0.2]])
    save_measure(atomic(pts, [0.5, 0.3, 0.2], cell_size=0.6),
                 tmp_path / "sigma.json")
    sol, audit = tmp_path / "sol.csv", tmp_path / "audit.json"
    sigma = str(tmp_path / "sigma.json")
    assert main(["solve", "--params", "2,0.5,1,3", "--sigma", sigma,
                 "--u0", "seeded", "--tol", "1e-3", "--out", str(sol)]) == 0
    base = ["verify", "--params", "2,0.5,1,3", "--sigma", sigma,
            "--solve", str(sol), "--n-ladder", "4", "--out", str(audit)]
    assert main(base) == 0
    check = json.loads(audit.read_text())["checks"]["fixed_point_residual"]
    assert check["tol"] == 1e-3 and check["pass"]
    assert check["value"] > 2e-6  # would fail against the default tol
    assert main(base + ["--tol", "1e-3"]) == 2


@pytest.mark.parametrize("flag, doc, named", [
    ("--measure", {"kind": "atomic", "points": [[0.0, 0.0, 0.0]]}, "needs weights"),
    ("--measure", {"kind": "radial", "bin_edges": [0.0, 1.0], "densities": [1.0]},
     "needs n"),
    ("--measure", [[0.0, 0.0, 0.0]], "JSON object"),
    ("--points", {"tag": "x"}, "needs points"),
])
def test_malformed_input_file_is_usage_error(workdir, capsys, flag, doc, named):
    (workdir / "bad.json").write_text(json.dumps(doc))
    files = {"--measure": "sigma.json", "--points": "pts.json", flag: "bad.json"}
    argv = ["potential", "--params", "2,0.5,1,3", "--out", str(workdir / "x.csv")]
    for k, name in files.items():
        argv += [k, str(workdir / name)]
    assert main(argv) == 2
    assert named in capsys.readouterr().err


def test_csv_without_a_column_is_usage_error(workdir, capsys):
    kap, sol = workdir / "kap.csv", workdir / "sol.csv"
    kap.write_text("radius,value\n0.1,1.0\n2.0,2.0\n")
    assert main(["intrinsic", "--params", "2,0.5,1,3", "--kappa", str(kap),
                 "--out", str(workdir / "k.csv")]) == 2
    assert "direction" in capsys.readouterr().err
    sol.write_text("x0,x1,x2,residual\n0.0,0.0,0.0,0.0\n")
    assert main(["verify", "--params", "2,0.5,1,3",
                 "--sigma", str(workdir / "sigma.json"), "--solve", str(sol),
                 "--out", str(workdir / "a.json")]) == 2
    assert "no u column" in capsys.readouterr().err


def test_kappa_csv_without_records_is_usage_error(workdir, capsys):
    """A kappa file with its header and column row but no records exits 2
    and names the file, also when the header holds the saturation radius."""
    kap = workdir / "kap.csv"
    kap.write_text('# config: {"saturation_radius": 1.0}\n'
                   "radius,value,direction,method,iterations\n")
    assert main(["intrinsic", "--params", "2,0.5,1,3", "--kappa", str(kap),
                 "--out", str(workdir / "k.csv")]) == 2
    assert f"{kap}: no kappa records" in capsys.readouterr().err


def test_malformed_kappa_ladder_is_usage_error(tmp_path, capsys):
    """The README kappa.csv with a record repeated (a zero-width segment) or
    two records swapped (a ladder out of order) exits 2 and names the file,
    instead of a ZeroDivisionError or a silently wrong K."""
    assert main(["gen-corpus", "--seed", "7", "--n", "3", "--count", "4",
                 "--out", str(tmp_path)]) == 0
    kap = tmp_path / "kappa.csv"
    assert main(["kappa", "--params", "2,0.5,1,3",
                 "--sigma", str(tmp_path / "radial_bump_000.json"),
                 "--center", "0,0,0", "--radii", "0.05:5:12",
                 "--out", str(kap)]) == 0
    lines = kap.read_text().splitlines(keepends=True)
    i = next(k for k, ln in enumerate(lines) if ln.startswith("0.9369087114301918,"))
    assert lines[i + 1].startswith("1.4240179342179007,")
    bad = tmp_path / "bad.csv"
    for edited in (lines[:i + 1] + lines[i:],
                   lines[:i] + [lines[i + 1], lines[i]] + lines[i + 2:]):
        bad.write_text("".join(edited))
        assert main(["intrinsic", "--params", "2,0.5,1,3", "--kappa", str(bad),
                     "--out", str(tmp_path / "k.csv")]) == 2
        assert f"{bad}: radii must be positive and strictly increasing" \
            in capsys.readouterr().err


def test_seeded_solve_converges_at_any_scale(tmp_path):
    """At rho = 0.95 on the README bump the seed constant is 2^-54 and the
    solution reaches 5.5e17: the iterates grow by 10^12 and more, yet stay
    bounded, so the solve converges instead of reporting divergence."""
    assert main(["gen-corpus", "--seed", "7", "--n", "3", "--count", "4",
                 "--out", str(tmp_path)]) == 0
    out = tmp_path / "u.csv"
    assert main(["solve", "--params", "2,0.95,1,3",
                 "--sigma", str(tmp_path / "radial_bump_000.json"),
                 "--u0", "seeded", "--out", str(out)]) == 0
    side = json.loads((tmp_path / "u.csv.json").read_text())
    assert side["status"] == "converged"
    assert side["seed_constant"] == 2.0 ** -54
    _, rows = _read_csv(out)
    assert 1e17 < max(float(r["u"]) for r in rows) < 1e18
