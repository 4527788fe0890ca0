"""Acceptance gate: nine desk-scale criteria with pinned tolerances.

Each test prints exactly one `[ACCEPTANCE k] name: PASS/FAIL (...)` line on
the real stdout (bypassing capture) and asserts the same condition, so the
suite is both human-readable and CI-enforceable.
"""

import math
import sys
import time

import numpy as np
import pytest
import sympy

from wolffkit import (GrowthProfile, PointSet, QuadratureConfig, as_atomic,
                      atomic, bilateral_bound, check_lemma_34,
                      classify_sub_super, default_bound_ladder,
                      default_phi_family, existence_check,
                      intrinsic_potential, kappa_profile, kappa_simplex_ascent,
                      default_candidate_grid, phi_sup_report, riesz_potential,
                      scale, solve_monotone, validate_params,
                      wolff_point_mass_value, wolff_potential, zero_measure)
from wolffkit import wolff
from wolffkit.corpus import gen_corpus
from wolffkit.solver import SolveGeometry
from wolffkit.wolff import AtomicWolffOperator

SEED = 20240811
TOL_SOLVE = 1e-6


_CAPFD = None


@pytest.fixture(autouse=True)
def _expose_capfd(capfd):
    # _report suspends pytest's fd-level capture around its print so the
    # verdict line always reaches the real stdout, even when piped
    global _CAPFD
    _CAPFD = capfd
    yield
    _CAPFD = None


def _report(k: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"[ACCEPTANCE {k}] {name}: {verdict} ({detail})"
    if _CAPFD is not None:
        with _CAPFD.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, f"acceptance criterion {k} failed: {detail}"


def _surrogate_corpus(n: int, count: int, seed: int = SEED):
    """Seeded corpus in atomic-surrogate form, sized for the desk budget."""
    out = []
    for name, m in gen_corpus(seed, n, count, atoms=24):
        a = as_atomic(m, shells_per_bin=2, directions_per_shell=8)
        out.append((name, a))
    return out


def _random_surrogate(rng, n, k=8, radius=2.0):
    pts = rng.uniform(-radius, radius, size=(k, n))
    w = rng.uniform(0.1, 1.0, k)
    return atomic(pts, w, cell_size=2.0 * radius * k ** (-1.0 / n))


# -- 1 ---------------------------------------------------------------------

def test_acceptance_1_point_mass_closed_form():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        p = float(rng.uniform(1.3, 4.0))
        n = int(rng.integers(2, 7))
        alpha = float(rng.uniform(0.2, 0.95) * n / p)
        pr = validate_params(p, float(rng.uniform(0.1, 0.9) * (p - 1)), alpha, n)
        if pr.s <= 1e-3:
            continue
        r = float(rng.uniform(0.2, 5.0))
        y = np.zeros(n)
        y[0] = r
        m = atomic(y[None, :], [1.0])
        exact = wolff_point_mass_value(pr, r)
        quad = wolff._layer_cake(m, np.zeros(n), pr.s, pr.p - 1.0, 0.0,
                                 QuadratureConfig())
        worst = max(worst, abs(quad - exact) / exact)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    _report(1, "point-mass Wolff closed form", ok,
            f"max rel err {worst:.2e}, {elapsed:.2f} s")


# -- 2 ---------------------------------------------------------------------

def test_acceptance_2_homogeneity_suite():
    rng = np.random.default_rng(SEED + 1)
    pr = validate_params(2.0, 0.5, 1.0, 3)
    lam = 3.0
    lam_w = lam ** pr.delta
    lam_k = lam ** (1.0 / pr.q)
    lam_s = lam ** (1.0 / (pr.p - 1.0 - pr.q))
    errs = {"W": 0.0, "kappa": 0.0, "K": 0.0, "solve": 0.0}
    for _ in range(5):
        sigma = _random_surrogate(rng, 3)
        x = rng.normal(size=3) * 2
        w1 = wolff_potential(pr, sigma, x)
        w2 = wolff_potential(pr, scale(sigma, lam), x)
        errs["W"] = max(errs["W"], abs(w2 - lam_w * w1) / (lam_w * w1))

        grid = default_candidate_grid(sigma, np.zeros(3), 2.0)
        k1 = kappa_simplex_ascent(pr, sigma, np.zeros(3), 2.0, grid)
        k2 = kappa_simplex_ascent(pr, scale(sigma, lam), np.zeros(3), 2.0, grid)
        errs["kappa"] = max(errs["kappa"],
                            abs(k2.value - lam_k * k1.value) / (lam_k * k1.value))

        radii = np.geomspace(0.1, 4.0, 10)
        K1 = intrinsic_potential(pr, kappa_profile(pr, sigma, np.zeros(3), radii))
        K2 = intrinsic_potential(
            pr, kappa_profile(pr, scale(sigma, lam), np.zeros(3), radii))
        errs["K"] = max(errs["K"], abs(K2 - lam_s * K1) / (lam_s * K1))

        r1 = solve_monotone(pr, sigma, zero_measure(3), u0_mode="seeded",
                            tol=1e-9)
        r2 = solve_monotone(pr, scale(sigma, lam), zero_measure(3),
                            u0_mode="seeded", tol=1e-9)
        errs["solve"] = max(errs["solve"], float(np.max(
            np.abs(r2.u.values - lam_s * r1.u.values) / (lam_s * r1.u.values))))
    ok = (errs["W"] <= 1e-6 and errs["kappa"] <= 1e-2
          and errs["K"] <= 2e-2 and errs["solve"] <= 2e-2)
    _report(2, "homogeneity suite", ok,
            "max rel errs W {W:.1e}, kappa {kappa:.1e}, K {K:.1e}, "
            "solve {solve:.1e}".format(**errs))


# -- 3 ---------------------------------------------------------------------

def test_acceptance_3_p2_linear_consistency():
    rng = np.random.default_rng(SEED + 2)
    pr = validate_params(2.0, 0.5, 1.0, 3)
    worst_add, worst_ratio = 0.0, 0.0
    for _ in range(10):
        k1, k2 = int(rng.integers(3, 8)), int(rng.integers(3, 8))
        m1 = atomic(rng.normal(size=(k1, 3)) * 1.5, rng.uniform(0.1, 1, k1))
        m2 = atomic(rng.normal(size=(k2, 3)) * 1.5, rng.uniform(0.1, 1, k2))
        both = atomic(np.vstack([m1.points, m2.points]),
                      np.concatenate([m1.weights, m2.weights]))
        x = rng.normal(size=3) * 4  # off-atom with probability one
        wa = wolff_potential(pr, m1, x) + wolff_potential(pr, m2, x)
        wb = wolff_potential(pr, both, x)
        worst_add = max(worst_add, abs(wb - wa) / wa)
        ratio = wolff_potential(pr, m1, x) / riesz_potential(2 * pr.alpha, m1, x)
        worst_ratio = max(worst_ratio, abs(ratio - 1.0 / pr.s))
    ok = worst_add <= 1e-6 and worst_ratio <= 1e-6
    _report(3, "p=2 linear consistency", ok,
            f"additivity {worst_add:.1e}, Wolff/Riesz ratio dev {worst_ratio:.1e}")


# -- 4 ---------------------------------------------------------------------

def test_acceptance_4_monotone_iteration():
    rng = np.random.default_rng(SEED + 3)
    pr = validate_params(2.0, 0.5, 1.0, 3)
    corpus = _surrogate_corpus(3, 8)
    worst_res, monotone = 0.0, True
    for _, sigma in corpus:
        mu = _random_surrogate(rng, 3, k=3)
        geo = SolveGeometry(pr, sigma, mu, None, QuadratureConfig())
        u = np.zeros(len(geo.all_points))
        for _ in range(40):
            u_next = geo.apply(u)
            monotone &= bool(np.all(u_next >= u - 1e-14))
            u = u_next
        rep = solve_monotone(pr, sigma, mu, tol=TOL_SOLVE)
        assert rep.status == "converged"
        tu = geo.apply(rep.u.values)
        worst_res = max(worst_res, float(
            np.max(np.abs(rep.u.values - tu)) / np.max(rep.u.values)))
        seeded = solve_monotone(pr, sigma, zero_measure(3), u0_mode="seeded",
                                tol=TOL_SOLVE)
        assert seeded.status == "converged" and np.max(seeded.u.values) > 0
        zero = solve_monotone(pr, sigma, zero_measure(3), u0_mode="zero",
                              tol=TOL_SOLVE)
        assert zero.status == "converged" and np.max(zero.u.values) == 0.0
    ok = monotone and worst_res < 2 * TOL_SOLVE
    _report(4, "monotone iteration", ok,
            f"iterates monotone={monotone}, max residual {worst_res:.2e} "
            f"< {2 * TOL_SOLVE:.0e}")


# -- 5 ---------------------------------------------------------------------

def _sandwich_constants(pr, corpus, with_mu, rng, ppd, n_ladder):
    cfg = QuadratureConfig(panels_per_decade=ppd)
    ratios = []
    for _, sigma in corpus:
        mu = _random_surrogate(rng, pr.n, k=3) if with_mu else zero_measure(pr.n)
        mode = "zero" if with_mu else "seeded"
        rep = solve_monotone(pr, sigma, mu, u0_mode=mode, tol=TOL_SOLVE, cfg=cfg)
        if rep.status != "converged":
            continue
        pts = rep.u.points.points
        d = np.linalg.norm(pts, axis=1)
        probe_idx = [int(np.argmin(d)), int(np.argsort(d)[len(d) // 2]),
                     int(np.argmax(d))]
        for i in probe_idx:
            x = pts[i]
            radii = default_bound_ladder(sigma, x, n_ladder)
            prof = kappa_profile(pr, sigma, x, radii, cfg=cfg)
            R, _ = bilateral_bound(pr, sigma, mu, x, prof, cfg)
            if math.isfinite(R) and R > 0 and rep.u.values[i] > 0:
                ratios.append(rep.u.values[i] / R)
    ratios = np.asarray(ratios)
    return float(ratios.min()), float(ratios.max())


@pytest.mark.parametrize("p,q,alpha,n", [(2.0, 0.5, 1.0, 3),
                                         (3.0, 1.0, 1.0, 5),
                                         (2.0, 0.5, 0.75, 3)])
def test_acceptance_5_sandwich_stability(p, q, alpha, n):
    pr = validate_params(p, q, alpha, n)
    t0 = time.perf_counter()
    corpus = _surrogate_corpus(n, 10)
    cs = {}
    for tag, ppd, lad in (("base", 32, 8), ("refined", 64, 16)):
        rng = np.random.default_rng(SEED + 4)  # same mu draws in both passes
        lo_mu, hi_mu = _sandwich_constants(pr, corpus, True, rng, ppd, lad)
        rng = np.random.default_rng(SEED + 4)
        lo, hi = _sandwich_constants(pr, corpus, False, rng, ppd, lad)
        cs[tag] = (min(lo, lo_mu), max(hi, hi_mu))
    c1, c2 = cs["base"]
    drift1 = abs(cs["refined"][0] - c1) / c1
    drift2 = abs(cs["refined"][1] - c2) / c2
    elapsed = time.perf_counter() - t0
    ok = (c2 / c1 <= 100.0 and drift1 < 0.2 and drift2 < 0.2
          and elapsed < 600.0)
    _report(5, f"sandwich stability ({p},{q},{alpha},{n})", ok,
            f"c1 {c1:.3f}, c2 {c2:.3f}, spread {c2 / c1:.1f} <= 100, "
            f"drift ({drift1:.1%}, {drift2:.1%}) < 20%, {elapsed:.0f} s")


# -- 6 ---------------------------------------------------------------------

@pytest.mark.parametrize("p,q,alpha,n", [(2.0, 0.5, 1.0, 3),
                                         (3.0, 1.0, 1.0, 5),
                                         (2.0, 0.5, 0.75, 3)])
def test_acceptance_6_lemma_34_audit(p, q, alpha, n):
    pr = validate_params(p, q, alpha, n)

    def max_ratio(n_ladder):
        rng = np.random.default_rng(SEED + 5)
        worst = 0.0
        for _ in range(5):
            sigma = _random_surrogate(rng, n)
            radii = default_bound_ladder(sigma, np.zeros(n), n_ladder)
            K = intrinsic_potential(pr, kappa_profile(pr, sigma, np.zeros(n),
                                                      radii))
            for _ in range(20):
                nu = _random_surrogate(rng, n, k=4)
                x = rng.normal(size=n) * 2
                worst = max(worst, check_lemma_34(pr, sigma, nu, np.zeros(n), K))
        return worst

    base = max_ratio(10)
    fine = max_ratio(20)
    drift = abs(fine - base) / base
    ok = math.isfinite(base) and math.isfinite(fine) and drift < 0.1
    _report(6, f"lemma 3.4 audit ({p},{q},{alpha},{n})", ok,
            f"max ratio {base:.3f} over 100 draws, refinement drift {drift:.1%}")


# -- 7 ---------------------------------------------------------------------

def test_acceptance_7_ordering():
    import dataclasses
    pr = validate_params(2.0, 0.5, 1.0, 3)
    corpus = _surrogate_corpus(3, 6)
    sub_ok = True
    super_cs = []
    for _, sigma in corpus:
        rep = solve_monotone(pr, sigma, zero_measure(3), u0_mode="seeded",
                             tol=1e-8)
        # scaled-down solution: a strict subsolution in the sublinear regime
        u_sub = dataclasses.replace(rep.u, values=rep.u.values * 0.7)
        labels = classify_sub_super(pr, sigma, zero_measure(3), u_sub)
        assert set(labels) <= {"sub", "solution"}
        fam = default_phi_family(pr, sigma, u=rep.u)
        phis = phi_sup_report(pr, sigma, rep.u.points, fam).phi_values
        good = np.isfinite(phis)
        sub_ok &= bool(np.all(u_sub.values[good] <= phis[good] + 2 * TOL_SOLVE))

        # the nontrivial solution is itself a supersolution; audit its
        # empirical lower-bound constant against (W sigma)^gamma + K sigma
        # at representative probes (K evaluated per point)
        pts = rep.u.points.points
        op = AtomicWolffOperator(pr, as_atomic(sigma).points, pts,
                                 t_min=QuadratureConfig().resolve_t_min(
                                     sigma.cell_size))
        wsig = op.apply(as_atomic(sigma).weights)
        d = np.linalg.norm(pts, axis=1)
        probes = {int(np.argmin(d)), int(np.argsort(d)[len(d) // 2]),
                  int(np.argmax(d))}
        c_meas = math.inf
        for i in probes:
            radii = default_bound_ladder(sigma, pts[i], 10)
            Kx = intrinsic_potential(pr, kappa_profile(pr, sigma, pts[i],
                                                       radii))
            R = wsig[i] ** pr.gamma + Kx
            c_meas = min(c_meas, float(rep.u.values[i] / R))
        super_cs.append(c_meas)
    spread = (max(super_cs) - min(super_cs)) / max(super_cs)
    ok = sub_ok and spread < 0.2
    _report(7, "sub/super ordering", ok,
            f"u <= phi_sup + 2tol: {sub_ok}, super constant spread "
            f"{spread:.1%} < 20% (c in [{min(super_cs):.3f}, {max(super_cs):.3f}])")


# -- 8 ---------------------------------------------------------------------

def test_acceptance_8_existence_truth_table():
    pr = validate_params(2.0, 0.5, 1.0, 3)  # s = 1, kexp = 1
    s = pr.s
    sub = GrowthProfile(d=0.5 * s)
    crit = GrowthProfile(d=s)
    crit_log = GrowthProfile(d=s, e=-2.0)
    sup = GrowthProfile(d=1.5 * s)
    low = validate_params(3.0, 1.0, 1.0, 3, preset="p-laplace")  # n <= p
    table = [
        # (params, sigma profile, kappa growth, mu profile, expected)
        (pr, sub, sub, sub, "exists"),
        (pr, crit, sub, sub, "not_exists"),
        (pr, sup, sub, sub, "not_exists"),
        (pr, crit_log, sub, sub, "exists"),
        (pr, sub, crit, sub, "not_exists"),
        (pr, sub, sup, sub, "not_exists"),
        (pr, sub, crit_log, sub, "exists"),
        (pr, sub, sub, crit, "not_exists"),
        (pr, sub, sub, sup, "not_exists"),
        (pr, sub, sub, crit_log, "exists"),
        (low, sub, sub, sub, "not_exists"),
        (low, crit, crit, crit, "not_exists"),
    ]
    t0 = time.perf_counter()
    wrong = [i for i, (P, sp, kg, mp, want) in enumerate(table)
             if existence_check(P, sp, mp, kappa_growth=kg) != want]
    elapsed = time.perf_counter() - t0
    ok = not wrong and elapsed < 1.0
    _report(8, "existence truth table", ok,
            f"12/12 profiles classified, {elapsed * 1e3:.0f} ms"
            + (f"; wrong rows {wrong}" if wrong else ""))


# -- 9 ---------------------------------------------------------------------

def test_acceptance_9_phi_scaling_invariance():
    # symbolic: the lambda exponent of phi_{lambda nu} cancels identically
    p, q = sympy.symbols("p q", positive=True)
    delta = 1 / (p - 1)
    gamma = (p - 1) / (p - 1 - q)
    exponent = delta + gamma * (q * delta * delta - delta)
    symbolic_ok = sympy.simplify(exponent) == 0

    from wolffkit import phi_nu
    rng = np.random.default_rng(SEED + 6)
    worst = 0.0
    for _ in range(10):
        p_ = float(rng.uniform(1.5, 3.5))
        pr = validate_params(p_, float(rng.uniform(0.2, 0.8) * (p_ - 1)),
                             1.0, 4)
        sigma = _random_surrogate(rng, 4)
        nu = _random_surrogate(rng, 4, k=4)
        lam = float(rng.uniform(1e-2, 1e2))
        x = rng.normal(size=4) * 3
        a = phi_nu(pr, sigma, nu, x)
        b = phi_nu(pr, sigma, scale(nu, lam), x)
        worst = max(worst, abs(b - a) / a)
    ok = symbolic_ok and worst <= 1e-6
    _report(9, "phi scaling invariance", ok,
            f"symbolic exponent 0: {symbolic_ok}, max numeric dev {worst:.1e}")
