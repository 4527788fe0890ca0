"""Closed-form volumes of n-dimensional balls, caps, and two-ball intersections.

Every function is elementwise over broadcast array arguments (the dimension
n is a scalar) and returns a float for scalar arguments.  Scalar arguments
take the scalar power r**n; numpy's array power can differ from it by one
unit in the last place.  Cap volumes take the regularized incomplete beta
function in closed form, so the module needs numpy only.
"""

from __future__ import annotations

import math

import numpy as np


def _result(v: np.ndarray):
    return float(v) if v.ndim == 0 else v


def _unit_ball_volume(n: int) -> float:
    """pi^{n/2} / Gamma(n/2 + 1) by V_n = (2 pi / n) V_{n-2} from V_0 = 1,
    V_1 = 2."""
    v = 2.0 if n % 2 else 1.0
    for k in range(2 + n % 2, n + 1, 2):
        v *= 2.0 * math.pi / k
    return v


def _beta_half(x: np.ndarray, a: float) -> np.ndarray:
    """Regularized incomplete beta function I_x(a, 1/2) for x in [0, 1] and
    a in {1/2, 1, 3/2, ...}.

    I_x(1/2, 1/2) = (2/pi) atan2(sqrt x, sqrt(1-x)) and
    I_x(1, 1/2) = x / (1 + sqrt(1-x)) are exact, and each step of the
    recurrence I_x(b+1, 1/2) = I_x(b, 1/2) - t_b(x) with
    t_b(x) = x^b sqrt(1-x) / (b B(b, 1/2)) (DLMF 8.17(iv)) cancels about a
    factor x of relative accuracy.  Where the steps to a would cost more
    than 16 ulps, the hypergeometric series
    I_x(a, 1/2) = t_a(x) sum_k (a+1/2)_k / (a+1)_k x^k (DLMF 8.17(ii)),
    whose terms are all positive, takes over.
    """
    shape = np.shape(x)
    x = np.ravel(x)  # 1-d, so that the series can write to a masked subset
    w = np.sqrt(1.0 - x)
    # c = 1 / (b B(b, 1/2)) and xb = x^b at the start b = b0
    if a % 1.0:
        b0, c, xb = 0.5, 2.0 / math.pi, np.sqrt(x)
        out = (2.0 / math.pi) * np.arctan2(xb, w)
    else:
        b0, c, xb = 1.0, 0.5, x.copy()
        out = x / (1.0 + w)
    steps = int(a - b0)
    for b in b0 + np.arange(steps):
        out -= c * xb * w
        c *= (b + 0.5) / (b + 1.0)
        xb *= x
    x_series = 16.0 ** (-1.0 / steps) if steps else 0.0
    small = x < x_series
    if small.any():
        xs = x[small]
        terms = math.ceil(math.log(np.finfo(float).eps / 4) / math.log(x_series))
        coefs = np.cumprod([1.0] + [(a + 0.5 + k) / (a + 1.0 + k)
                                    for k in range(terms)])
        total = np.full_like(xs, coefs[-1])
        for ck in coefs[-2::-1]:  # Horner
            total *= xs
            total += ck
        out[small] = c * xb[small] * w[small] * total
    return out.reshape(shape)


def ball_volume(r, n: int):
    """Volume of the n-ball of radius r (0 for r <= 0)."""
    r = np.asarray(r, dtype=float)
    # [()] turns a 0-d array into a numpy scalar, whose ** is the scalar pow
    return _result(_unit_ball_volume(n) * np.where(r > 0.0, r, 0.0)[()] ** n)


def cap_volume(r, a, n: int):
    """Volume of the cap of the n-ball of radius r cut at signed distance a
    from the center (a >= 0: minor cap, a < 0: majority side)."""
    r, a = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(a, dtype=float))
    v = np.asarray(ball_volume(r, n))  # 0 for r <= 0, where |a| < r fails too
    cut = np.abs(a) < r
    x = np.where(cut, 1.0 - (a * a) / np.where(cut, r * r, 1.0), 0.0)
    minor = 0.5 * v * _beta_half(x, (n + 1) / 2.0)
    return _result(np.select([a >= r, a <= -r, a >= 0.0], [0.0, v, minor], v - minor))


def intersection_volume(d, r1, r2, n: int):
    """Volume of the intersection of two n-balls with center distance d."""
    d, r1, r2 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (d, r1, r2)))
    live = (r1 > 0.0) & (r2 > 0.0) & (d < r1 + r2)
    nested = live & (d <= np.abs(r1 - r2))  # includes d = 0
    lens = live & ~nested  # d > 0 here
    out = np.where(nested, ball_volume(np.minimum(r1, r2), n), 0.0)
    if lens.any():
        # caps only on the lens entries; () keeps a scalar a scalar
        sel = lens if lens.ndim else ()
        dd, s1, s2 = d[sel], r1[sel], r2[sel]
        a1 = (dd * dd + s1 * s1 - s2 * s2) / (2.0 * dd)
        a2 = (dd * dd - s1 * s1 + s2 * s2) / (2.0 * dd)
        out[sel] = cap_volume(s1, a1, n) + cap_volume(s2, a2, n)
    return _result(out)
