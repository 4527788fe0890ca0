import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import betainc, gammaln

from wolffkit import geometry
from wolffkit import (Measure, PointSet, as_atomic, atomic, ball_mass,
                      ball_volume, cap_volume, combine, intersection_volume,
                      load_measure, radial, restrict, save_measure, scale,
                      zero_measure)
from wolffkit.measure import _match_rows, from_dict, to_dict


def test_intersection_volume_monte_carlo_oracle():
    """Two-ball intersection volume in n = 3 against brute-force sampling,
    1e7 points, 3 significant digits."""
    rng = np.random.default_rng(5)
    d, r1, r2 = 0.8, 1.0, 0.7
    samples = rng.uniform(-r2, r2, size=(10_000_000, 3))
    inside2 = np.linalg.norm(samples, axis=1) <= r2
    shifted = samples.copy()
    shifted[:, 0] += d
    inside1 = np.linalg.norm(shifted, axis=1) <= r1
    mc = (2 * r2) ** 3 * np.mean(inside1 & inside2)
    exact = intersection_volume(d, r1, r2, 3)
    assert exact == pytest.approx(mc, rel=5e-3)


def test_intersection_volume_limits():
    assert intersection_volume(3.0, 1.0, 1.0, 3) == 0.0  # disjoint
    assert intersection_volume(0.1, 2.0, 0.5, 4) == pytest.approx(
        ball_volume(0.5, 4))  # containment
    assert intersection_volume(0.0, 1.0, 1.0, 2) == pytest.approx(
        ball_volume(1.0, 2))


def test_radial_total_mass_matches_ball_volume():
    m = radial([0.0, 1.0], [2.0], 3)
    assert m.total_mass == pytest.approx(2.0 * ball_volume(1.0, 3))
    assert m.support_radius == 1.0


def test_atomic_ball_mass_closed_ball_convention():
    m = atomic(np.array([[1.0, 0.0], [0.0, 2.0]]), [1.0, 3.0])
    assert ball_mass(m, [0.0, 0.0], 1.0) == 1.0  # distance exactly 1 counts
    assert ball_mass(m, [0.0, 0.0], 0.999) == 0.0
    assert ball_mass(m, [0.0, 0.0], 2.0) == 4.0


def test_radial_ball_mass_off_center_additivity():
    """Off-center ball mass of an annulus = ball minus inner ball, via the
    cap-intersection formula."""
    outer = radial([0.0, 1.0], [1.0], 3)
    ann = radial([0.0, 0.4, 1.0], [0.0, 1.0], 3)
    inner = radial([0.0, 0.4], [1.0], 3)
    x = np.array([0.3, 0.2, -0.1])
    for t in (0.2, 0.5, 0.9, 2.0):
        assert ball_mass(ann, x, t) == pytest.approx(
            ball_mass(outer, x, t) - ball_mass(inner, x, t), abs=1e-12)


def test_intersection_volume_elementwise_closed_forms():
    """One array mixing every branch, against each case's closed form."""
    n = 3
    v = ball_volume(1.0, n)
    # lens of two unit balls at distance 1: two caps of height 1/2
    lens = 2 * np.pi * 0.5 ** 2 * (3 - 0.5) / 3
    d = np.array([3.0, 0.1, 1.0, 0.0, 0.5, 1.0])
    r1 = np.array([1.0, 2.0, 1.0, 1.0, 0.0, -1.0])
    r2 = np.array([1.0, 0.5, 1.0, 2.0, 1.0, 1.0])
    #     disjoint, containment, lens, d = 0, r1 = 0, r1 < 0
    want = [0.0, ball_volume(0.5, n), lens, v, 0.0, 0.0]
    got = intersection_volume(d, r1, r2, n)
    assert got.shape == (6,)
    assert got == pytest.approx(want, rel=1e-14)
    assert [intersection_volume(*args, n) for args in zip(d, r1, r2)] == \
        pytest.approx(got, rel=1e-15)
    # caps: r <= 0, a <= -r (whole ball), a >= r (empty), equator, majority side
    r = np.array([0.0, 1.0, 1.0, 1.0, 1.0])
    a = np.array([0.5, -1.5, 1.0, 0.0, -0.5])
    major = v - np.pi * 0.5 ** 2 * (3 - 0.5) / 3
    assert cap_volume(r, a, n) == pytest.approx([0.0, v, 0.0, v / 2, major],
                                                rel=1e-14)
    assert isinstance(cap_volume(1.0, 0.0, n), float)
    assert isinstance(intersection_volume(1.0, 1.0, 1.0, n), float)
    assert ball_volume(np.array([-1.0, 0.0, 2.0]), 2) == pytest.approx(
        [0.0, 0.0, 4 * np.pi])


def test_ball_mass_array_matches_scalar_calls():
    """ball_mass over an array of radii equals the scalar calls: exactly for
    an atomic sigma (atom distances among the radii), up to the last-place
    differences of numpy's array power for an off-centre radial sigma
    (radii at 0, the tangencies |r - e| and r + e, and past the support)."""
    rng = np.random.default_rng(0)
    m = atomic(rng.normal(size=(12, 3)), rng.uniform(0.1, 1, 12))
    x = np.array([0.2, -0.1, 0.5])
    d = np.linalg.norm(m.points - x, axis=1)
    ts = np.concatenate([np.linspace(0.0, 4.0, 23), d, [10.0]])
    got = ball_mass(m, x, ts)
    assert list(got) == [ball_mass(m, x, t) for t in ts]
    assert got[-1] == pytest.approx(m.total_mass)
    assert list(ball_mass(m, x, d)) == pytest.approx(
        [m.weights[d <= t].sum() for t in d], rel=1e-15)

    rad = radial([0.0, 0.3, 0.7, 1.2], [1.5, 0.0, 0.8], 3)
    x = np.array([0.4, 0.3, 0.0])  # |x| = 0.5
    r, e = 0.5, rad.bin_edges
    ts = np.concatenate([[0.0], np.abs(r - e), r + e, [2.0, 5.0],
                         np.linspace(0.01, 2.0, 17)])
    got = ball_mass(rad, x, ts)
    assert got.shape == ts.shape
    assert got == pytest.approx([ball_mass(rad, x, t) for t in ts],
                                rel=1e-14, abs=1e-15)
    assert got[0] == 0.0
    assert got[-3] == pytest.approx(rad.total_mass, rel=1e-14)
    assert isinstance(ball_mass(rad, x, 0.6), float)
    with pytest.raises(ValueError):
        ball_mass(rad, x, np.array([0.5, -0.1]))


def _intersection_volume_reference(d, r1, r2, n):
    """Scalar intersection volume by cases, caps from cap_volume."""
    if r1 <= 0.0 or r2 <= 0.0 or d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        return ball_volume(min(r1, r2), n)
    a1 = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    a2 = (d * d - r1 * r1 + r2 * r2) / (2.0 * d)
    return cap_volume(r1, a1, n) + cap_volume(r2, a2, n)


def test_scalar_intersection_volume_bit_identical():
    """Scalar calls, caps evaluated on lens entries only, equal the case
    formula bit for bit: the geometry cases above and random ones with
    d = 0, d = |r1 - r2|, d = r1 + r2 and r <= 0."""
    cases = [(0.8, 1.0, 0.7, 3), (3.0, 1.0, 1.0, 3), (0.1, 2.0, 0.5, 4),
             (0.0, 1.0, 1.0, 2), (1.0, 1.0, 1.0, 3), (0.5, 0.0, 1.0, 3),
             (1.0, -1.0, 1.0, 3)]
    rng = np.random.default_rng(11)
    for _ in range(400):
        r1, r2 = rng.uniform(-0.2, 2.0, 2)
        d = rng.choice([0.0, abs(r1 - r2), r1 + r2, rng.uniform(0.0, 3.0)])
        cases.append((float(d), float(r1), float(r2), int(rng.integers(1, 7))))
    for d, r1, r2, n in cases:
        got = intersection_volume(d, r1, r2, n)
        assert isinstance(got, float)
        assert got == _intersection_volume_reference(d, r1, r2, n), (d, r1, r2, n)


def _cap_volume_oracle(r, a, n):
    """The betainc/gammaln cap formula: V_n r^n I_x((n+1)/2, 1/2) / 2 with
    x = 1 - a^2 / r^2 for the minor cap, for 0 < |a| < r."""
    v = np.exp(0.5 * n * np.log(np.pi) - gammaln(1.0 + 0.5 * n)) * r ** n
    minor = 0.5 * v * betainc((n + 1) / 2.0, 0.5, 1.0 - (a * a) / (r * r))
    return np.where(a >= 0.0, minor, v - minor)


def _intersection_volume_oracle(d, r1, r2, n):
    """Lens volume from two oracle caps, for |r1 - r2| < d < r1 + r2."""
    a1 = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    a2 = (d * d - r1 * r1 + r2 * r2) / (2.0 * d)
    return _cap_volume_oracle(r1, a1, n) + _cap_volume_oracle(r2, a2, n)


@pytest.mark.parametrize("n", range(1, 9))
def test_cap_volume_matches_betainc_oracle(n):
    """Closed-form caps against the betainc form: random cuts, cuts near the
    rim (x -> 0) and near the centre (x -> 1), to 3e-14 relative and 1e-15
    of the ball volume; ball volumes to 1e-15."""
    rng = np.random.default_rng(n)
    r = rng.uniform(0.05, 3.0, 3000)
    tiny = 10.0 ** rng.uniform(-15, -1, 1000)
    u = np.concatenate([rng.uniform(-1.0, 1.0, 1000), 1 - tiny, -(1 - tiny)[::2],
                        tiny[::2]])
    a = r * u
    got, want = cap_volume(r, a, n), _cap_volume_oracle(r, a, n)
    ball = np.exp(0.5 * n * np.log(np.pi) - gammaln(1.0 + 0.5 * n)) * r ** n
    assert ball_volume(r, n) == pytest.approx(ball, rel=1e-15)
    assert got == pytest.approx(want, rel=3e-14, abs=0.0)
    assert np.max(np.abs(got - want) / ball) < 1e-15
    # I_x is exactly 0 at x = 0 and 1 at x = 1, the equator a = 0
    assert geometry._beta_half(np.array([0.0, 1.0]), (n + 1) / 2).tolist() \
        == [0.0, 1.0]
    assert cap_volume(1.0, 0.0, n) == ball_volume(1.0, n) / 2


@pytest.mark.parametrize("n", range(1, 9))
def test_intersection_volume_matches_betainc_oracle(n):
    """Lens volumes against the oracle caps: random lenses and near-tangent
    ones, at d = r1 + r2 - eps (external) and d = |r1 - r2| + eps (internal),
    to 3e-14 relative."""
    rng = np.random.default_rng(100 + n)
    r1, r2 = rng.uniform(0.05, 2.0, (2, 3000))
    eps = 10.0 ** rng.uniform(-12, -2, 3000) * np.minimum(r1, r2)
    d = np.concatenate([rng.uniform(np.abs(r1 - r2), r1 + r2)[:1000],
                        (r1 + r2 - eps)[1000:2000],
                        (np.abs(r1 - r2) + eps)[2000:]])
    lens = (d > np.abs(r1 - r2)) & (d < r1 + r2)
    assert lens.sum() > 2900
    got = intersection_volume(d[lens], r1[lens], r2[lens], n)
    want = _intersection_volume_oracle(d[lens], r1[lens], r2[lens], n)
    assert got == pytest.approx(want, rel=3e-14, abs=0.0)


def test_radial_ball_mass_matches_per_bin_loop():
    """One cap pass over all bin edges equals the per-bin sum of
    intersection differences: zero-density bins, x at the centre and on a
    bin edge, radii past the support, and a scalar radius."""
    rad = radial([0.0, 0.3, 0.7, 1.2, 1.5], [1.5, 0.0, 0.8, 0.0], 3)

    def loop(x, t):
        d = float(np.linalg.norm(x))
        return sum(rho * (intersection_volume(d, t, hi, 3)
                          - intersection_volume(d, t, lo, 3))
                   for lo, hi, rho in zip(rad.bin_edges[:-1], rad.bin_edges[1:],
                                          rad.densities))

    ts = np.concatenate([[0.0], np.linspace(0.05, 2.5, 30), [10.0]])
    for x in ([0.0, 0.0, 0.0], [0.0, 0.7, 0.0], [0.4, 0.3, 0.0]):
        got = ball_mass(rad, x, ts)
        assert got == pytest.approx([loop(x, t) for t in ts], rel=1e-14,
                                    abs=1e-15)
        assert got[-1] == pytest.approx(rad.total_mass, rel=1e-14)
        scalar = ball_mass(rad, x, 0.6)
        assert isinstance(scalar, float)
        assert scalar == pytest.approx(loop(x, 0.6), rel=1e-14)


def test_import_leaves_scipy_special_unloaded():
    """The package is numpy-only at run time: importing it, and computing a
    radial ball mass, Wolff potential, surrogate and bound field, loads no
    scipy.special."""
    import wolffkit
    src = str(Path(wolffkit.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import numpy as np; "
            "import wolffkit as w; "
            "print('scipy.special' in sys.modules); "
            "from wolffkit.verify import bound_field; "
            "pr = w.validate_params(2, 0.5, 1, 3); "
            "m = w.radial([0.0, 0.4, 1.0], [1.0, 0.5], 3); "
            "w.ball_mass(m, [0.3, 0.0, 0.0], 0.5); "
            "w.wolff_potential(pr, m, [0.3, 0.0, 0.0]); "
            "w.as_atomic(m, 2, 4); "
            "bound_field(pr, m, w.zero_measure(3), "
            "w.PointSet(np.array([[0.2, 0.1, 0.0]])), 4); "
            "print('scipy.special' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.split() == ["False", "False"]


def test_scale_and_combine():
    m1 = atomic(np.zeros((1, 2)), [1.0])
    m2 = atomic(np.ones((1, 2)), [2.0])
    assert scale(m1, 3.0).total_mass == pytest.approx(3.0)
    both = combine(m1, m2)
    assert both.total_mass == pytest.approx(3.0)
    x = np.zeros(2)
    for t in (0.5, 1.5, 3.0):
        assert ball_mass(both, x, t) == pytest.approx(
            ball_mass(m1, x, t) + ball_mass(m2, x, t))


def test_combine_keeps_radial_truncation_scale():
    """A radial summand contributes the cell size of its atomic surrogate:
    the Wolff potential of the sum is finite at the surrogate's atoms and
    equals the potential of the sum built from the surrogate itself."""
    from wolffkit import validate_params, wolff_potential
    pr = validate_params(2.0, 0.5, 1.0, 3)
    r = radial([0.0, 1.0], [1.0], 3)
    extra = atomic([[2.0, 0.0, 0.0]], [0.1])
    both, via = combine(r, extra), combine(as_atomic(r), extra)
    assert both.cell_size == as_atomic(r).cell_size
    x = as_atomic(r).points[0]
    w = wolff_potential(pr, both, x)
    assert np.isfinite(w) and w == wolff_potential(pr, via, x)


def test_restrict_atomic_and_radial():
    m = atomic(np.array([[0.5, 0.0], [2.0, 0.0]]), [1.0, 1.0])
    r = restrict(m, np.zeros(2), 1.0)
    assert r.total_mass == 1.0
    rad = radial([0.0, 1.0], [1.0], 3)
    half = restrict(rad, np.zeros(3), 0.5)
    assert half.total_mass == pytest.approx(ball_volume(0.5, 3))
    # off-center restriction falls back to the atomic view; its mass agrees
    # exactly with the atomic surrogate's own ball mass
    x = np.array([0.5, 0, 0])
    off = restrict(rad, x, 0.25)
    assert off.total_mass == pytest.approx(ball_mass(as_atomic(rad), x, 0.25))
    # and converges to the exact radial ball mass under refinement
    fine = as_atomic(rad, shells_per_bin=16, directions_per_shell=256)
    assert ball_mass(fine, x, 0.6) == pytest.approx(
        ball_mass(rad, x, 0.6), rel=0.05)


def test_as_atomic_preserves_mass_and_records_cell():
    m = radial([0.0, 0.5, 1.0], [2.0, 0.5], 3)
    a = as_atomic(m)
    assert a.kind == "atomic"
    assert a.total_mass == pytest.approx(m.total_mass)
    assert a.cell_size is not None and a.cell_size > 0
    # deterministic for a fixed seed
    b = as_atomic(m)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.weights, b.weights)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("edges,dens", [
    (np.linspace(0.0, 1.5, 6), np.exp(-np.linspace(0.15, 1.35, 5) ** 2)),  # bump
    ([0.0, 0.4, 1.1], [0.0, 1.3]),  # annulus: a zero-density bin
])
@pytest.mark.parametrize("shells,dirs", [(4, 32), (3, 7)])
def test_as_atomic_surrogate_structure(edges, dens, n, shells, dirs):
    """Each live bin gets `shells` Gauss nodes; each node an antithetic block
    of 2 floor(dirs/2) atoms on one sphere with equal weights; the node
    masses add up to the bin masses."""
    m = radial(edges, dens, n)
    a = as_atomic(m, shells_per_bin=shells, directions_per_shell=dirs)
    live = np.asarray(dens) > 0
    block = 2 * (dirs // 2)
    nodes = int(live.sum()) * shells
    assert a.points.shape == (nodes * block, n)
    pts = a.points.reshape(nodes, block, n)
    w = a.weights.reshape(nodes, block)
    r = np.linalg.norm(pts, axis=2)
    assert np.allclose(r, r[:, :1], rtol=0.0, atol=1e-15)
    assert np.all(w == w[:, :1])
    half = block // 2
    assert np.all(pts[:, :half] + pts[:, half:] == 0.0)
    inner = np.asarray(edges)[:-1][~live]
    outer = np.asarray(edges)[1:][~live]
    assert not np.any((r[..., None] >= inner) & (r[..., None] < outer))
    assert w.sum() == pytest.approx(m.total_mass, rel=1e-13)


def _as_atomic_loop(m, shells_per_bin=4, directions_per_shell=32, seed=0):
    """The per-bin, per-node surrogate loop as_atomic's array pass replaced."""
    n, rng = m.dim, np.random.default_rng(seed)
    half = max(1, directions_per_shell // 2)
    xg, wg = np.polynomial.legendre.leggauss(shells_per_bin)
    pts, wts, h = [], [], 0.0
    for j, rho in enumerate(m.densities):
        if rho == 0.0:
            continue
        lo, hi = m.bin_edges[j], m.bin_edges[j + 1]
        vlo, vhi = ball_volume(lo, n), ball_volume(hi, n)
        vmid = 0.5 * (vlo + vhi) + 0.5 * (vhi - vlo) * xg
        rnode = (vmid / ball_volume(1.0, n)) ** (1.0 / n)
        h = max(h, float(np.max(np.diff(np.concatenate([[lo], rnode, [hi]])))))
        for rk, mass in zip(rnode, rho * (0.5 * (vhi - vlo) * wg)):
            if mass == 0.0:
                continue
            g = rng.standard_normal((half, n))
            g /= np.linalg.norm(g, axis=1, keepdims=True)
            pts.append(np.vstack([g, -g]) * rk)
            wts.append(np.full(2 * half, mass / (2 * half)))
    return np.vstack(pts), np.concatenate(wts), h


@pytest.mark.parametrize("args", [(), (2, 8, 3), (3, 7, 11), (1, 1, 0), (5, 33, 2)])
def test_as_atomic_matches_per_node_loop(args):
    """The array pass draws the generator in the loop's order and repeats
    its arithmetic: points, weights and cell size are bit for bit equal,
    also past a bin whose volume underflows to 0 (no atoms, no draws)."""
    rng = np.random.default_rng(5)
    cases = [radial([0.0, 1e-100, 1.0], [1.0, 1.0], 4)]
    for n in range(1, 7):
        edges = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.6, 6))])
        dens = rng.uniform(0.1, 2.0, 6) * (rng.uniform(size=6) > 0.3)
        dens[0] = 1.0
        cases.append(radial(edges, dens, n))
    for m in cases:
        a = as_atomic(m, *args)
        pts, wts, h = _as_atomic_loop(m, *args)
        assert np.array_equal(a.points, pts) and np.array_equal(a.weights, wts)
        assert a.cell_size == h


def test_as_atomic_ball_mass_converges():
    m = radial([0.0, 1.0], [1.0], 3)
    x = np.array([0.4, 0.0, 0.0])
    coarse = as_atomic(m, shells_per_bin=2, directions_per_shell=8)
    fine = as_atomic(m, shells_per_bin=8, directions_per_shell=128)
    truth = ball_mass(m, x, 0.7)
    assert abs(ball_mass(fine, x, 0.7) - truth) < abs(
        ball_mass(coarse, x, 0.7) - truth) + 1e-12


def test_serialization_round_trip(tmp_path):
    for m in (atomic(np.array([[1.0, 2.0, 3.0]]), [4.0], cell_size=0.1),
              radial([0.0, 1.0, 2.0], [1.0, 0.5], 4)):
        path = tmp_path / "m.json"
        save_measure(m, path)
        back = load_measure(path)
        assert back.kind == m.kind
        assert back.total_mass == pytest.approx(m.total_mass)
        assert to_dict(back) == to_dict(m)
    with pytest.raises(ValueError, match="kind"):
        from_dict({"kind": "mystery"})


def test_invalid_measures_rejected():
    with pytest.raises(ValueError):
        atomic(np.zeros((2, 3)), [1.0])  # length mismatch
    with pytest.raises(ValueError):
        atomic(np.zeros((1, 3)), [-1.0])  # negative weight
    with pytest.raises(ValueError):
        radial([0.5, 1.0], [1.0], 3)  # edges not from 0
    with pytest.raises(ValueError):
        radial([0.0, 1.0], [-1.0], 3)


@pytest.mark.parametrize("build", [
    lambda: atomic(np.zeros((2, 3)), [np.nan, 1.0]),
    lambda: atomic(np.zeros((1, 3)), [np.inf]),
    lambda: atomic(np.array([[np.inf, 0.0, 0.0]]), [1.0]),
    lambda: atomic(np.array([[np.nan, 0.0, 0.0]]), [1.0]),
    lambda: radial([0.0, 1.0, np.inf], [1.0, 0.0], 3),
    lambda: radial([0.0, 1.0], [np.nan], 3),
    lambda: radial([0.0, 1.0], [np.inf], 3),
    lambda: PointSet(np.array([[0.0, np.nan, 0.0]])),
    lambda: PointSet(np.array([[0.0, 0.0, -np.inf]])),
], ids=["nan_weight", "inf_weight", "inf_atom", "nan_atom", "inf_edge",
        "nan_density", "inf_density", "nan_point", "inf_point"])
def test_non_finite_input_rejected(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def test_match_rows_is_exact_and_takes_first_hit():
    table = np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0], [0.5, 0.5]])
    rows = np.array([[1.0, 2.0], [0.5, 0.5 + 1e-12], [3.0, 4.0], [9.0, 9.0]])
    loop = [next((j for j, t in enumerate(table) if np.array_equal(t, r)), -1)
            for r in rows]
    assert _match_rows(rows, table).tolist() == loop == [0, -1, 1, -1]


def test_point_set_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        PointSet(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        PointSet(np.empty((0, 3)))


def test_zero_measure():
    z = zero_measure(3)
    assert z.total_mass == 0.0
    assert z.support_radius == 0.0


@given(st.integers(0, 2 ** 31 - 1), st.floats(0.1, 3.0), st.floats(0.1, 3.0))
@settings(max_examples=25, deadline=None)
def test_ball_mass_monotone_in_radius(seed, t1, t2):
    rng = np.random.default_rng(seed)
    m = atomic(rng.normal(size=(8, 3)), rng.uniform(0, 1, 8))
    x = rng.normal(size=3)
    lo, hi = sorted((t1, t2))
    assert ball_mass(m, x, lo) <= ball_mass(m, x, hi) + 1e-15


@given(st.integers(0, 2 ** 31 - 1), st.floats(0.05, 2.0))
@settings(max_examples=25, deadline=None)
def test_restrict_mass_equals_ball_mass(seed, t):
    rng = np.random.default_rng(seed)
    m = atomic(rng.normal(size=(8, 3)), rng.uniform(0, 1, 8))
    x = rng.normal(size=3)
    assert restrict(m, x, t).total_mass == pytest.approx(ball_mass(m, x, t))
