import math

import numpy as np
import pytest

from wolffkit import (PointSet, apply_T, as_atomic, atomic,
                      classify_sub_super, combine, radial, scale,
                      solve_monotone, validate_params, wolff_potential,
                      zero_measure)
from conftest import random_atomic, random_params


@pytest.fixture
def sigma3(rng):
    return random_atomic(rng, n=3, k=10)


@pytest.fixture
def mu3(rng):
    return random_atomic(rng, n=3, k=4)


def test_sigma_zero_fixed_point_is_w_mu(pr213, mu3):
    """With sigma = 0 the equation reads u = W mu: one step lands exactly."""
    pts = PointSet(np.array([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0]]))
    rep = solve_monotone(pr213, zero_measure(3), mu3, pts)
    assert rep.status == "converged"
    assert rep.iterations <= 2
    for x, u in zip(rep.u.points.points, rep.u.values):
        assert u == pytest.approx(wolff_potential(pr213, mu3, x), rel=1e-10)


def test_zero_start_mu_zero_converges_to_zero(pr213, sigma3):
    rep = solve_monotone(pr213, sigma3, zero_measure(3), u0_mode="zero")
    assert rep.status == "converged"
    assert np.max(rep.u.values) == 0.0


def test_seeded_mu_zero_nontrivial(pr213, sigma3):
    rep = solve_monotone(pr213, sigma3, zero_measure(3), u0_mode="seeded")
    assert rep.status == "converged"
    assert rep.seed_constant is not None and 0 < rep.seed_constant <= 1.0
    assert np.min(rep.u.values) > 0.0


def test_iterates_monotone_and_residual_small(pr213, sigma3, mu3):
    tol = 1e-6
    rep = solve_monotone(pr213, sigma3, mu3, tol=tol)
    assert rep.status == "converged"
    tu = apply_T(pr213, sigma3, mu3, rep.u)
    res = np.max(np.abs(rep.u.values - tu.values)) / np.max(rep.u.values)
    assert res < 2 * tol
    # residual history is the record of a monotone scheme: nonnegative
    assert all(r >= 0.0 for r in rep.residual_history)


def test_solution_scaling_law(pr213, sigma3):
    """mu = 0: u(lambda sigma) = lambda^{1/(p-1-q)} u(sigma) exactly."""
    lam = 4.0
    r1 = solve_monotone(pr213, sigma3, zero_measure(3), u0_mode="seeded",
                        tol=1e-10)
    r2 = solve_monotone(pr213, scale(sigma3, lam), zero_measure(3),
                        u0_mode="seeded", tol=1e-10)
    expo = 1.0 / (pr213.p - 1.0 - pr213.q)
    assert r2.u.values == pytest.approx(lam ** expo * r1.u.values, rel=1e-6)


def test_comparison_bigger_sigma_bigger_solution(pr213, rng, sigma3):
    # the extra mass carries a smaller cell so both solves share a t_min
    sigma_big = combine(sigma3, random_atomic(rng, n=3, k=3, cell=0.1))
    r1 = solve_monotone(pr213, sigma3, zero_measure(3), u0_mode="seeded")
    r2 = solve_monotone(pr213, sigma_big, zero_measure(3), u0_mode="seeded")
    # compare at the shared atoms (the first block of the coupled set)
    k = r1.n_sigma_atoms
    assert np.all(r2.u.values[:k] >= r1.u.values[:k] * (1 - 1e-9))


def test_mu_monotonicity(pr213, sigma3, mu3):
    r0 = solve_monotone(pr213, sigma3, zero_measure(3), u0_mode="seeded")
    r1 = solve_monotone(pr213, sigma3, mu3, u0_mode="seeded")
    assert np.all(r1.u.values >= r0.u.values * (1 - 1e-9))


def test_random_parameter_tuples_converge(rng):
    for _ in range(3):
        pr = random_params(rng)
        sigma = random_atomic(rng, n=pr.n, k=8)
        rep = solve_monotone(pr, sigma, zero_measure(pr.n), u0_mode="seeded")
        assert rep.status == "converged"
        assert np.min(rep.u.values) > 0.0


def test_radial_sigma_solves_through_atomization(pr213):
    sigma = radial([0.0, 1.0], [1.0], 3)
    pts = PointSet(np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
    rep = solve_monotone(pr213, sigma, zero_measure(3), pts, u0_mode="seeded")
    assert rep.status == "converged"
    assert rep.n_sigma_atoms == len(as_atomic(sigma).weights)
    # values at the extra eval points sit at the end of the coupled vector
    assert len(rep.u.values) == rep.n_sigma_atoms + 2


def test_apply_T_monotone_in_u(pr213, sigma3, mu3):
    rep = solve_monotone(pr213, sigma3, mu3)
    u = rep.u
    import dataclasses
    u_big = dataclasses.replace(u, values=u.values * 2.0)
    t1 = apply_T(pr213, sigma3, mu3, u)
    t2 = apply_T(pr213, sigma3, mu3, u_big)
    assert np.all(t2.values >= t1.values)


def test_apply_T_requires_sigma_atom_coverage(pr213, sigma3, mu3):
    from wolffkit import PotentialField
    pts = PointSet(np.array([[9.0, 9.0, 9.0]]))
    u = PotentialField(params=pr213, points=pts, values=np.array([1.0]))
    with pytest.raises(ValueError, match="sigma atom"):
        apply_T(pr213, sigma3, mu3, u)


# atoms with coordinates of order 1, and a point 5e-6 from the first: a
# relative tolerance of 1e-5 would take the two for one point
NEAR_ATOMS = np.array([[1.0, 0.5, -0.8], [-0.7, 1.2, 0.9], [0.6, -1.1, 1.3],
                       [-1.4, -0.6, -0.9]])
NEIGHBOUR = NEAR_ATOMS[0] + np.array([5e-6, 0.0, 0.0])


def test_solve_keeps_point_next_to_sigma_atom(pr213):
    sigma = atomic(NEAR_ATOMS, [0.4, 0.3, 0.2, 0.1], cell_size=0.5)
    rep = solve_monotone(pr213, sigma, zero_measure(3), PointSet(NEIGHBOUR),
                         u0_mode="seeded")
    assert rep.status == "converged"
    assert len(rep.u.values) == len(NEAR_ATOMS) + 1
    assert np.array_equal(rep.u.points.points[-1], NEIGHBOUR)


def test_apply_T_reads_u_at_the_atom_not_its_neighbour(pr213, mu3):
    from wolffkit import PotentialField
    sigma = atomic(NEAR_ATOMS, [0.4, 0.3, 0.2, 0.1], cell_size=0.5)
    alone = PotentialField(params=pr213, points=PointSet(NEAR_ATOMS),
                           values=np.ones(len(NEAR_ATOMS)))
    # the neighbour comes first and carries a very different value
    both = PotentialField(params=pr213,
                          points=PointSet(np.vstack([NEIGHBOUR, NEAR_ATOMS])),
                          values=np.concatenate([[1000.0], alone.values]))
    t_alone = apply_T(pr213, sigma, mu3, alone)
    t_both = apply_T(pr213, sigma, mu3, both)
    assert t_both.values[1:] == pytest.approx(t_alone.values, rel=1e-14)


def test_coincident_sigma_atoms_solve_as_one(pr213, mu3):
    """Two sigma atoms at one point are one atom carrying both weights."""
    dup = atomic([[1, 0, 0], [1, 0, 0], [0, 1, 0]], [.3, .2, .5],
                 cell_size=.3)
    merged = atomic([[1, 0, 0], [0, 1, 0]], [.3 + .2, .5], cell_size=.3)
    for mu in (zero_measure(3), mu3):
        a = solve_monotone(pr213, dup, mu, u0_mode="seeded")
        b = solve_monotone(pr213, merged, mu, u0_mode="seeded")
        assert a.status == b.status == "converged"
        assert a.n_sigma_atoms == 2
        assert np.array_equal(a.u.points.points, b.u.points.points)
        assert np.array_equal(a.u.values, b.u.values)
        assert np.array_equal(apply_T(pr213, dup, mu, a.u).values,
                              apply_T(pr213, merged, mu, b.u).values)


def test_classify_sub_super(pr213, sigma3, mu3):
    import dataclasses
    rep = solve_monotone(pr213, sigma3, mu3)
    labels = classify_sub_super(pr213, sigma3, mu3, rep.u)
    assert set(labels) == {"solution"}
    u_small = dataclasses.replace(rep.u, values=rep.u.values * 0.5)
    assert set(classify_sub_super(pr213, sigma3, mu3, u_small)) == {"sub"}
    u_big = dataclasses.replace(rep.u, values=rep.u.values * 2.0)
    assert set(classify_sub_super(pr213, sigma3, mu3, u_big)) == {"super"}


def test_bad_arguments(pr213, sigma3):
    with pytest.raises(ValueError):
        solve_monotone(pr213, sigma3, zero_measure(3), tol=0.0)
    for tol in (math.nan, math.inf):  # nan would run to max_iter
        with pytest.raises(ValueError, match="tol"):
            solve_monotone(pr213, sigma3, zero_measure(3), tol=tol)
    with pytest.raises(ValueError):
        solve_monotone(pr213, sigma3, zero_measure(3), max_iter=0)
    with pytest.raises(ValueError):
        solve_monotone(pr213, sigma3, zero_measure(3), u0_mode="warm")
