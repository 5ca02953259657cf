"""Numerical analysis of Gabor systems with Hermite windows on 2D lattices.

Three pipelines: Galerkin frame-bound estimation (`frameop`), constructive
oscillation certificates on the time-frequency plane (`certify`), and
tightness scans / scaling-law probes over lattice ladders (`scan`).
"""

from .errors import (BudgetError, CapacityError, ConvergenceError, GaborError,
                     PreconditionError, ResolutionError)
from .grid import DEFAULT_STEP, GridSpec
from .hermite import (VectorWindow, dilated_hermite, dilated_hermite_all,
                      dlambda, eval_hermite, eval_hermite_all,
                      hermite_operator_residual, hermite_window,
                      window_from_indices)
from .lattice import (LatticeMatrix, LatticePointSet, box_norm, covolume,
                      enumerate_points)
from .timefreq import (Region, SampledField, SampledSignal, TFPoint,
                       default_region, field_from_binary, field_l2,
                       field_to_binary, field_to_csv, inner, modulate, norm,
                       signal_from_window, stft, tf_shift_window, translate)
from .frameop import (FrameBounds, GaborSystemSpec, assemble_frame_matrix,
                      bounds_from_json, bounds_to_json,
                      component_bound_aggregate, frame_bounds, gl_predicate,
                      is_frame, theorem1_predicted_bounds)
from .certify import (AmbiguityField, Certificate, ambiguity,
                      c_lower_estimate, certificate, certificate_from_json,
                      certificate_to_json, certification_grid,
                      certification_window, osc_l1, oscillation,
                      twisted_convolve)
from .scan import (CEstimate, ScanRecord, SqrtLawRow,
                   dilation_covariance_check, estimate_cstar, records_to_csv,
                   sqrt_law_probe, tightness_scan)

__version__ = "0.1.0"

__all__ = [
    "BudgetError", "CapacityError", "ConvergenceError", "GaborError",
    "PreconditionError", "ResolutionError",
    "DEFAULT_STEP", "GridSpec",
    "VectorWindow", "dilated_hermite", "dilated_hermite_all",
    "dlambda", "eval_hermite", "eval_hermite_all",
    "hermite_operator_residual", "hermite_window", "window_from_indices",
    "LatticeMatrix", "LatticePointSet", "box_norm", "covolume",
    "enumerate_points",
    "Region", "SampledField", "SampledSignal", "TFPoint", "default_region",
    "field_from_binary", "field_l2", "field_to_binary", "field_to_csv",
    "inner", "modulate", "norm", "signal_from_window", "stft",
    "tf_shift_window", "translate",
    "FrameBounds", "GaborSystemSpec", "assemble_frame_matrix",
    "bounds_from_json", "bounds_to_json", "component_bound_aggregate",
    "frame_bounds", "gl_predicate", "is_frame", "theorem1_predicted_bounds",
    "AmbiguityField", "Certificate", "ambiguity", "c_lower_estimate",
    "certificate", "certificate_from_json", "certificate_to_json",
    "certification_grid", "certification_window", "osc_l1",
    "oscillation", "twisted_convolve",
    "CEstimate", "ScanRecord", "SqrtLawRow", "dilation_covariance_check",
    "estimate_cstar", "records_to_csv", "sqrt_law_probe", "tightness_scan",
    "__version__",
]
