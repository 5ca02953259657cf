"""Numerical analysis of Gabor systems with Hermite windows on 2D lattices.

Three pipelines: Galerkin frame-bound estimation (`frameop`), constructive
oscillation certificates on the time-frequency plane (`certify`), and
tightness scans / scaling-law probes over lattice ladders (`scan`).
"""

from .errors import (BudgetError, CapacityError, ConvergenceError, GaborError,
                     PreconditionError, ResolutionError)
from .grid import DEFAULT_STEP, GridSpec
from .hermite import (VectorWindow, dilated_hermite, dilated_hermite_all,
                      eval_hermite, eval_hermite_all, hermite_operator_residual,
                      hermite_window, window_from_indices)
from .lattice import (LatticeMatrix, LatticePointSet, box_norm, covolume,
                      enumerate_points)
from .timefreq import Region, SampledField, default_region, stft
from .frameop import (FrameBounds, GaborSystemSpec, assemble_frame_matrix,
                      bounds_from_json, bounds_to_json,
                      component_bound_aggregate, frame_bounds, gl_predicate,
                      is_frame)
from .certify import (Certificate, ambiguity, certificate,
                      certificate_from_json, certificate_to_json,
                      certification_grid, certification_window, osc_l1,
                      oscillation, twisted_convolve)
from .scan import (CEstimate, ScanRecord, SqrtLawRow,
                   dilation_covariance_check, estimate_cstar, records_to_csv,
                   sqrt_law_probe, tightness_scan)

__version__ = "0.1.0"

__all__ = [
    "BudgetError", "CapacityError", "ConvergenceError", "GaborError",
    "PreconditionError", "ResolutionError",
    "DEFAULT_STEP", "GridSpec",
    "VectorWindow", "dilated_hermite", "dilated_hermite_all",
    "eval_hermite", "eval_hermite_all", "hermite_operator_residual",
    "hermite_window", "window_from_indices",
    "LatticeMatrix", "LatticePointSet", "box_norm", "covolume",
    "enumerate_points",
    "Region", "SampledField", "default_region", "stft",
    "FrameBounds", "GaborSystemSpec", "assemble_frame_matrix",
    "bounds_from_json", "bounds_to_json", "component_bound_aggregate",
    "frame_bounds", "gl_predicate", "is_frame",
    "Certificate", "ambiguity", "certificate", "certificate_from_json",
    "certificate_to_json", "certification_grid", "certification_window",
    "osc_l1", "oscillation", "twisted_convolve",
    "CEstimate", "ScanRecord", "SqrtLawRow", "dilation_covariance_check",
    "estimate_cstar", "records_to_csv", "sqrt_law_probe", "tightness_scan",
    "__version__",
]
