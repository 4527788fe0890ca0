"""Closed-form volumes of n-dimensional balls, caps, and two-ball intersections.

Every function is elementwise over broadcast array arguments (the dimension
n is a scalar) and returns a float for scalar arguments.  Scalar arguments
take the scalar power r**n; numpy's array power can differ from it by one
unit in the last place.
"""

from __future__ import annotations

import numpy as np

# scipy.special is imported where it is used: it is most of the package's
# import time, and atomic measures never need it.


def _result(v: np.ndarray):
    return float(v) if v.ndim == 0 else v


def ball_volume(r, n: int):
    """Volume of the n-ball of radius r (0 for r <= 0)."""
    from scipy.special import gammaln
    r = np.asarray(r, dtype=float)
    unit = np.exp(0.5 * n * np.log(np.pi) - gammaln(1.0 + 0.5 * n))
    # [()] turns a 0-d array into a numpy scalar, whose ** is the scalar pow
    return _result(unit * np.where(r > 0.0, r, 0.0)[()] ** n)


def cap_volume(r, a, n: int):
    """Volume of the cap of the n-ball of radius r cut at signed distance a
    from the center (a >= 0: minor cap, a < 0: majority side)."""
    from scipy.special import betainc
    r, a = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(a, dtype=float))
    v = np.asarray(ball_volume(r, n))  # 0 for r <= 0, where |a| < r fails too
    cut = np.abs(a) < r
    x = np.where(cut, 1.0 - (a * a) / np.where(cut, r * r, 1.0), 0.0)
    minor = 0.5 * v * betainc((n + 1) / 2.0, 0.5, x)
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
