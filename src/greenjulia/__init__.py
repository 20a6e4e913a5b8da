"""Desk-scale numerics for Green's data, external rays and radial
variation on real quadratic Julia sets z^2 - lambda, lambda > 2."""

from .angles import DirectionAngle
from .boettcher import (ExternalRay, LogDerivData, RaySample, TipInfo,
                        angle_double_fold, compute_a, log_deriv_jet,
                        ray_integrand, trace_ray, trace_rays)
from .dynamics import (IntervalCover, Jet2, PolyParams, critical_orbit,
                       derive_params, greens_value, iterate_jet, julia_cover,
                       preimages)
from .goodset import (DyadicCoverLevel, dimension_bound, generate_cover,
                      membership)
from .poincare import (CombSlit, RealLandmarks, comb_height, invert_F_branch,
                       landmarks, poincare_jet, selfsim_greens_residual)
from .radvar import (QuadSettings, RadVarReport, ScaleContribution,
                     compare_directions, direction_rows, pullback_check,
                     radial_variation, scale_contribution)

__version__ = "0.1.0"

__all__ = [
    "DirectionAngle", "PolyParams", "Jet2", "IntervalCover", "ExternalRay",
    "LogDerivData", "RaySample", "TipInfo", "CombSlit", "RealLandmarks",
    "DyadicCoverLevel", "QuadSettings", "RadVarReport", "ScaleContribution",
    "derive_params", "iterate_jet", "critical_orbit", "preimages",
    "greens_value", "julia_cover", "compute_a", "log_deriv_jet", "trace_ray",
    "trace_rays",
    "angle_double_fold", "ray_integrand", "poincare_jet", "comb_height",
    "landmarks", "invert_F_branch", "selfsim_greens_residual", "membership",
    "generate_cover", "dimension_bound", "scale_contribution",
    "radial_variation", "pullback_check", "compare_directions",
    "direction_rows",
]
