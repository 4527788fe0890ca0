"""wolffkit: numerical toolkit for sublinear quasilinear potential theory.

Wolff and Riesz potentials of discrete and radial measures, localized
embedding constants, intrinsic potentials, a monotone fixed-point solver for
u = W(u^q dsigma) + W mu, and audits of the bilateral pointwise bounds.
"""

__version__ = "0.1.0"

from .embedding import (KappaEstimate, KappaProfile, default_candidate_grid,
                        kappa_point_mass, kappa_profile, kappa_simplex_ascent)
from .geometry import ball_volume, cap_volume, intersection_volume
from .intrinsic import intrinsic_potential, intrinsic_tail_finite
from .measure import (Measure, PointSet, as_atomic, atomic, ball_mass,
                      combine, load_measure, load_points, radial, restrict,
                      save_measure, save_points, scale, to_dict, zero_measure)
from .params import (ParamError, Params, auto_q, validate_params,
                     wolff_point_mass_value)
from .quadrature import QuadratureConfig, QuadratureWarning
from .solver import SolveReport, apply_T, classify_sub_super, solve_monotone
from .verify import (BilateralReport, CapacityCheckResult, PhiReport,
                     ball_capacity_check, bilateral_bound, bound_field,
                     check_lemma_34, default_bound_ladder, default_phi_family,
                     existence_check, phi_nu, phi_sup, phi_sup_report,
                     verify_sandwich)
from .wolff import (AtomicWolffOperator, GrowthProfile, PotentialField,
                    riesz_potential, tail_exists, wolff_field, wolff_potential)

__all__ = [
    "__version__",
    "ParamError", "Params", "auto_q", "validate_params",
    "wolff_point_mass_value",
    "ball_volume", "cap_volume", "intersection_volume",
    "Measure", "PointSet", "as_atomic", "atomic", "ball_mass", "combine",
    "load_measure", "load_points", "radial", "restrict", "save_measure",
    "save_points", "scale", "to_dict", "zero_measure",
    "QuadratureConfig", "QuadratureWarning",
    "AtomicWolffOperator", "GrowthProfile", "PotentialField",
    "riesz_potential", "tail_exists", "wolff_field", "wolff_potential",
    "KappaEstimate", "KappaProfile", "default_candidate_grid",
    "kappa_point_mass", "kappa_profile", "kappa_simplex_ascent",
    "intrinsic_potential", "intrinsic_tail_finite",
    "SolveReport", "apply_T", "classify_sub_super", "solve_monotone",
    "BilateralReport", "CapacityCheckResult", "PhiReport",
    "ball_capacity_check", "bilateral_bound", "bound_field", "check_lemma_34",
    "default_bound_ladder",
    "default_phi_family", "existence_check", "phi_nu", "phi_sup",
    "phi_sup_report", "verify_sandwich",
]
