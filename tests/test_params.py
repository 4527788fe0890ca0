import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wolffkit import (ParamError, Params, auto_q, validate_params,
                      wolff_point_mass_value)


def test_derived_exponents():
    pr = validate_params(3.0, 1.0, 1.0, 5)
    assert pr.s == 5 - 3
    assert pr.gamma == pytest.approx(2.0 / 1.0)
    assert pr.delta == pytest.approx(0.5)
    assert pr.kexp == pytest.approx(1.0 * 2.0 / 1.0)


def test_rejects_q_out_of_range():
    with pytest.raises(ParamError, match="0 < q < p-1"):
        validate_params(2.0, 1.5, 1.0, 3)
    with pytest.raises(ParamError, match="0 < q < p-1"):
        validate_params(2.0, -0.1, 1.0, 3)


def test_rejects_p_and_alpha_out_of_range():
    with pytest.raises(ParamError, match="1 < p"):
        validate_params(1.0, 0.5, 1.0, 3)
    with pytest.raises(ParamError, match="alpha"):
        validate_params(2.0, 0.5, 2.0, 3)


def test_error_lists_all_violations():
    with pytest.raises(ParamError) as ei:
        validate_params(1.0, 5.0, 9.0, 3)
    msg = str(ei.value)
    assert "p" in msg and "q" in msg and "alpha" in msg


def test_p_laplace_preset_forces_alpha_and_flags_low_dimension():
    pr = validate_params(2.0, 0.5, 0.7, 3, preset="p-laplace")
    assert pr.alpha == 1.0
    assert not pr.no_nontrivial_solutions
    low = validate_params(3.0, 1.0, 1.0, 3, preset="p-laplace")
    assert low.no_nontrivial_solutions  # n <= p: flagged, not rejected


def test_params_is_the_tuple():
    """A preset only chooses alpha: the result equals the plain tuple, and
    the non-existence flag follows from alpha = 1, n <= p."""
    assert validate_params(2, .5, .7, 3, preset="p-laplace") == \
        validate_params(2, .5, 1, 3)
    assert [f.name for f in dataclasses.fields(Params)] == ["p", "q", "alpha", "n"]
    assert Params(3.0, 1.0, 1.0, 3).no_nontrivial_solutions


def test_hessian_preset():
    # k = 2 Hessian scale: p = 3, alpha = 4/3
    pr = validate_params(3.0, 1.0, None, 7, preset="hessian")
    assert pr.alpha == pytest.approx(4.0 / 3.0)
    with pytest.raises(ParamError, match="hessian"):
        validate_params(2.5, 0.5, None, 7, preset="hessian")
    with pytest.raises(ParamError, match="hessian"):
        validate_params(3.0, 2.5, None, 9, preset="hessian")  # q >= k


@given(st.floats(1.1, 6.0))
def test_auto_q_always_admissible(p):
    q = auto_q(p)
    assert 0.0 < q < p - 1.0


def test_point_mass_closed_form_values():
    pr = validate_params(2.0, 0.5, 1.0, 3)  # s = 1
    # W(delta_y)(x) = (p-1)/s * r^{-s/(p-1)} = 1/r
    assert wolff_point_mass_value(pr, 2.0) == pytest.approx(0.5)
    assert wolff_point_mass_value(pr, 2.0, weight=4.0) == pytest.approx(2.0)
    assert wolff_point_mass_value(pr, 0.0) == math.inf
    assert wolff_point_mass_value(pr, 0.0, t_min=0.5) == pytest.approx(2.0)
    assert wolff_point_mass_value(pr, 1.0, weight=0.0) == 0.0


def test_point_mass_closed_form_scaling():
    pr = validate_params(3.0, 0.7, 1.0, 5)  # s = 2, delta = 1/2
    v1 = wolff_point_mass_value(pr, 1.3, weight=1.0)
    v2 = wolff_point_mass_value(pr, 1.3, weight=16.0)
    assert v2 / v1 == pytest.approx(16.0 ** pr.delta)
