"""Exponent bookkeeping for the sub-natural growth regime 0 < q < p-1."""

from __future__ import annotations

import dataclasses
import math


class ParamError(ValueError):
    """Raised when an exponent tuple violates the admissible range."""


@dataclasses.dataclass(frozen=True)
class Params:
    """The exponent tuple (p, q, alpha, n) with its derived exponents.

    Derived quantities:
      s     = n - alpha*p        (dimension deficit of the kernel)
      gamma = (p-1)/(p-1-q)      (exponent of the lower-order Wolff term)
      delta = 1/(p-1)            (outer power in the potential integrand)
      kexp  = q*(p-1)/(p-1-q)    (power of kappa inside the intrinsic potential)
    """

    p: float
    q: float
    alpha: float
    n: int

    @property
    def no_nontrivial_solutions(self) -> bool:
        """alpha = 1 with n <= p: every finite-mass tail diverges."""
        return self.alpha == 1.0 and self.n <= self.p

    @property
    def s(self) -> float:
        return self.n - self.alpha * self.p

    @property
    def gamma(self) -> float:
        return (self.p - 1.0) / (self.p - 1.0 - self.q)

    @property
    def delta(self) -> float:
        return 1.0 / (self.p - 1.0)

    @property
    def kexp(self) -> float:
        return self.q * (self.p - 1.0) / (self.p - 1.0 - self.q)

    def __post_init__(self):
        if self.n < 1 or int(self.n) != self.n:
            raise ParamError(f"n must be a positive integer, got {self.n}")


def validate_params(
    p: float,
    q: float,
    alpha: float,
    n: int,
    preset: str | None = None,
) -> Params:
    """Validate (p, q, alpha, n), apply presets, and populate derived exponents.

    Presets:
      "p-laplace": forces alpha = 1.  Requires p < n for solvability; with
          n <= p the tuple is accepted, and its no_nontrivial_solutions
          property holds.
      "hessian": k-Hessian scale with k = p - 1; forces alpha = 2k/(k+1)
          and requires 0 < q < k.

    Raises ParamError naming every violated inequality.
    """
    violations: list[str] = []

    if preset == "p-laplace":
        alpha = 1.0
    elif preset == "hessian":
        k = p - 1.0
        if abs(k - round(k)) > 1e-12 or k < 1:
            violations.append(f"hessian preset requires p = k+1 with integer k >= 1 (p={p})")
        alpha = 2.0 * k / (k + 1.0)
        if not (0.0 < q < k):
            violations.append(f"hessian preset requires 0 < q < k = {k} (q={q})")
    elif preset is not None:
        raise ParamError(f"unknown preset {preset!r}")

    if not p > 1.0:
        violations.append(f"1 < p violated (p={p})")
    if not 0.0 < q < p - 1.0:
        violations.append(f"0 < q < p-1 violated (q={q}, p-1={p - 1.0})")

    # p-laplace with n <= p is accepted: a legitimate non-existence input
    if not ((preset == "p-laplace" and n <= p) or (p > 1 and 0.0 < alpha < n / p)):
        violations.append(f"0 < alpha < n/p violated (alpha={alpha}, n/p={n / p})")

    if violations:
        raise ParamError("; ".join(violations))

    return Params(p=float(p), q=float(q), alpha=float(alpha), n=int(n))


def auto_q(p: float) -> float:
    """Midpoint choice q = (p-1)/2, always inside (0, p-1)."""
    return (p - 1.0) / 2.0


def wolff_point_mass_value(pr: Params, r: float, weight: float = 1.0,
                           t_min: float = 0.0) -> float:
    """Closed-form Wolff potential of a point mass at distance r.

    W(w*delta_y)(x) = ((p-1)/s) * w^{1/(p-1)} * max(r, t_min)^{-s/(p-1)},
    valid for s > 0.  Returns +inf when r = t_min = 0 and weight > 0.
    """
    s = pr.s
    if weight == 0.0:
        return 0.0
    if s <= 0.0:
        return math.inf
    a = max(r, t_min)
    if a == 0.0:
        return math.inf
    return (pr.p - 1.0) / s * weight ** pr.delta * a ** (-s * pr.delta)
