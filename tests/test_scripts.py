import csv
import json
import math
import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_sandwich_experiment_smoke(tmp_path, monkeypatch, capsys):
    out = tmp_path / "sandwich.csv"
    monkeypatch.setattr(sys, "argv", [
        "sandwich_experiment.py", "--triples", "2,0.5,1,3", "--count", "2",
        "--out", str(out)])
    runpy.run_path(str(SCRIPTS / "sandwich_experiment.py"),
                   run_name="__main__")
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    cfg = json.loads(lines[0].split(":", 1)[1])
    assert cfg == {"triples": "2,0.5,1,3", "count": 2, "seed": 11,
                   "tol": 1e-6, "out": str(out)}
    rows = list(csv.DictReader(lines[1:]))
    assert list(rows[0]) == ["p", "q", "alpha", "n", "measure", "probe", "u",
                             "R", "ratio", "wolff_term", "intrinsic_term"]
    assert len(rows) >= 2 and {r["measure"] for r in rows} <= {
        "radial_bump_000", "annulus_001"}
    for r in rows:
        u, R, ratio = float(r["u"]), float(r["R"]), float(r["ratio"])
        assert u > 0 and R > 0 and ratio == u / R
        assert float(r["wolff_term"]) + float(r["intrinsic_term"]) == R
    assert "(2,0.5,1,3): c1 = " in capsys.readouterr().out


def test_kappa_convergence_smoke(tmp_path, monkeypatch):
    out = tmp_path / "kappa_conv.csv"
    monkeypatch.setattr(sys, "argv", [
        "kappa_convergence.py", "--shells", "2", "--directions", "8",
        "--out", str(out)])
    runpy.run_path(str(SCRIPTS / "kappa_convergence.py"), run_name="__main__")
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    cfg = json.loads(lines[0].split(":", 1)[1])
    assert cfg == {"shells": "2", "directions": 8, "out": str(out)}
    rows = list(csv.DictReader(lines[1:]))
    assert list(rows[0]) == ["shells_per_bin", "atoms", "method", "kappa",
                             "rel_error", "seconds"]
    kappa = {r["method"]: float(r["kappa"]) for r in rows}
    assert set(kappa) == {"pointmass", "ascent"}
    assert kappa["ascent"] >= kappa["pointmass"] > 0
    assert kappa["pointmass"] <= 1.005 * (8.0 * math.pi / 5.0) ** 2
