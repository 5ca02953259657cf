"""Asymptotics drivers: tightness scans, empirical C* estimation and the
sqrt(2d+1) scaling-law probe.

The C* estimator inverts the predicted frame-constant shape
A = (1 - ||M||/C)^2 / |det M|; it is a heuristic functional-form fit
constructed by this artifact ("theorem1-inversion"), not ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PreconditionError
from .frameop import GaborSystemSpec, frame_bounds
from .lattice import LatticeMatrix, box_norm

# dense rungs are summed over the sparse adjoint lattice, so a rung's cost
# grows with the test dimension rather than with 1/|det M|; a leaner test
# space keeps the ladder cheap while the inner/outer bracket stays far
# tighter than the quantities read off the records
DEFAULT_SCAN_GALERKIN_DIM = 32


def default_t_ladder():
    """t = 0.5 * 2^(-k/2), k = 0..6 (descending)."""
    return [0.5 * 2.0 ** (-k / 2.0) for k in range(7)]


@dataclass(frozen=True)
class ScanRecord:
    d: int
    t: float
    box_norm: float
    det: float
    A_est: float
    B_est: float
    converged: bool

    @property
    def tightness(self) -> float:
        return self.B_est / self.A_est if self.A_est > 0 else math.inf

    @property
    def C_emp(self) -> float:
        """box_norm / (1 - sqrt(A_est |det|)); nan when A_est |det| is
        outside (0, 1), where the record is unusable for inversion."""
        prod = self.A_est * abs(self.det)
        if not (0.0 < prod < 1.0):
            return math.nan
        return self.box_norm / (1.0 - math.sqrt(prod))

    @property
    def usable(self) -> bool:
        return math.isfinite(self.C_emp) and self.C_emp > 0


def scan_ladder(M0: LatticeMatrix, d: int, t_list=None,
                galerkin_dim: int = DEFAULT_SCAN_GALERKIN_DIM):
    """(t, spec of (h^d, t*M0)) for each t, every spec built before any is
    run; t_list must be descending."""
    if t_list is None:
        t_list = default_t_ladder()
    t_list = [float(t) for t in t_list]
    if any(t <= 0 for t in t_list):
        raise ValueError("scan parameters t must be positive")
    if any(a <= b for a, b in zip(t_list, t_list[1:])):
        raise ValueError("t_list must be sorted descending")
    return [(t, GaborSystemSpec(window_degree=d, matrix=M0.scaled(t),
                                galerkin_dim=galerkin_dim))
            for t in t_list]


def scan_records(ladder):
    """One ScanRecord per rung of a ``scan_ladder``."""
    records = []
    for t, spec in ladder:
        M = spec.matrix
        fb = frame_bounds(spec)
        records.append(ScanRecord(
            d=spec.window_degree, t=t, box_norm=box_norm(M), det=M.determinant,
            A_est=fb.A_est, B_est=fb.B_est, converged=fb.converged))
    return records


def tightness_scan(M0: LatticeMatrix, d: int, t_list=None,
                   galerkin_dim: int = DEFAULT_SCAN_GALERKIN_DIM):
    """Frame bounds of (h^d, t*M0) for each t; t_list must be descending."""
    return scan_records(scan_ladder(M0, d, t_list, galerkin_dim))


def estimate_cstar(records) -> float:
    """Smallest per-record inversion constant: the only C consistent with
    every measured lower bound under the predicted shape."""
    usable = [r for r in records if r.usable]
    if len(usable) < 3:
        raise PreconditionError(
            f"need at least 3 usable records (A_est*|det| in (0,1)), "
            f"got {len(usable)}")
    if len({r.d for r in usable}) != 1:
        raise ValueError("records mix window degrees")
    return min(r.C_emp for r in usable)


@dataclass(frozen=True)
class SqrtLawRow:
    d: int
    c_emp: float  # nan when the estimate could not be formed

    @property
    def scaled(self) -> float:
        return self.c_emp * math.sqrt(2 * self.d + 1)

    @property
    def flagged(self) -> bool:
        return math.isnan(self.c_emp)


def sqrt_law_probe(d_list, M0: LatticeMatrix = None, t_list=None,
                   galerkin_dim: int = DEFAULT_SCAN_GALERKIN_DIM):
    """Per degree: C_emp(d) and C_emp(d)*sqrt(2d+1). Reporting only; the
    scaling law itself is asserted by the caller, not here."""
    d_list = list(d_list)
    if not d_list:
        raise ValueError("d_list must be nonempty")
    if M0 is None:
        M0 = LatticeMatrix(1.0, 0.0, 0.0, 1.0)
    rows = []
    for d in d_list:
        records = tightness_scan(M0, d, t_list, galerkin_dim=galerkin_dim)
        try:
            c_emp = estimate_cstar(records)
        except PreconditionError:
            c_emp = math.nan
        rows.append(SqrtLawRow(d=d, c_emp=c_emp))
    return rows


def covariance_pair(d: int, M: LatticeMatrix, b: float,
                    galerkin_dim: int = DEFAULT_SCAN_GALERKIN_DIM):
    """Specs of (h^d, M) and of the unitarily transported system
    (D_b h^d, diag(b, 1/b) M)."""
    if b <= 0:
        raise ValueError("dilation b must be positive")
    return (GaborSystemSpec(window_degree=d, matrix=M, galerkin_dim=galerkin_dim),
            GaborSystemSpec(window_degree=d, matrix=M.left_diag(b, 1.0 / b),
                            galerkin_dim=galerkin_dim, window_dilation=b * b))


def covariance_deviation(spec1: GaborSystemSpec, spec2: GaborSystemSpec) -> float:
    """Max relative deviation between the bounds of a ``covariance_pair``."""
    if spec1 == spec2:
        return 0.0
    fb1 = frame_bounds(spec1, check_convergence=False)
    fb2 = frame_bounds(spec2, check_convergence=False)
    ref_a = max(fb1.A_est, fb2.A_est, 1e-300)
    ref_b = max(fb1.B_est, fb2.B_est, 1e-300)
    return max(abs(fb1.A_est - fb2.A_est) / ref_a,
               abs(fb1.B_est - fb2.B_est) / ref_b)


def dilation_covariance_check(d: int, M: LatticeMatrix, b: float,
                              galerkin_dim: int = DEFAULT_SCAN_GALERKIN_DIM) -> float:
    """``covariance_deviation`` of the ``covariance_pair`` of (h^d, M) and b."""
    return covariance_deviation(*covariance_pair(d, M, b, galerkin_dim))


# ---------------------------------------------------------------------------
# CSV output

SCAN_CSV_HEADER = "d,t,box_norm,det,A_est,B_est,tightness,C_emp,converged"


def records_to_csv(records) -> str:
    lines = [SCAN_CSV_HEADER]
    for r in records:
        lines.append(",".join([
            str(r.d), _fmt(r.t), _fmt(r.box_norm), _fmt(r.det),
            _fmt(r.A_est), _fmt(r.B_est), _fmt(r.tightness), _fmt(r.C_emp),
            str(r.converged).lower()]))
    return "\n".join(lines) + "\n"


def _fmt(v: float) -> str:
    return f"{v:.17g}"
