"""Galerkin frame operator assembly and frame-bound estimation.

The frame operator of G(w, M(Z^2)) is compressed to the orthonormal test
system { h_{m,a} placed in component i : m < K, i = 0..c-1 }; its extremal
eigenvalues bracket the optimal frame bounds from inside (A_est >= A_true,
B_est <= B_true), with the bracket closing as K grows.

The matrix is summed over M(Z^2) or, by Janssen's representation, over its
adjoint lattice J^{-1} M^{-T}(Z^2) of covolume 1/|det M|, whichever is
cheaper: ``GaborSystemSpec.summed_lattice``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ConvergenceError
from .grid import GridSpec
from .lattice import (DEFAULT_POINT_BUDGET, LatticeMatrix, box_norm, covolume,
                      enumerate_points, enumeration_box)
from .hermite import dilated_hermite_all, hermite_indices

DEFAULT_GALERKIN_DIM = 64
REFUTATION_GALERKIN_DIM = 128
TRUNCATION_MARGIN = 10.0
CONVERGENCE_REL_TOL = 0.05
# is_frame's threshold on A/B: 'frame' above it, 'not_frame' below a tenth
FRAME_RATIO_TOL = 1e-3
TWO_PI = 2.0 * math.pi
# window rows projected per chunk on the adjoint side (K per dual point)
ADJOINT_CHUNK_ROWS = 512


def _joint_support(galerkin_dim: int, max_window_index: int) -> float:
    """Oscillator supports of the widest test function and window component, added."""
    return math.sqrt(2 * galerkin_dim + 1) + math.sqrt(2 * max_window_index + 1)


def default_truncation_radius(galerkin_dim: int, max_window_index: int,
                              dilation: float = 1.0) -> float:
    """Cross-ambiguity decays like a Gaussian past the joint effective support;
    the +10 margin puts the omitted tail below 1e-12."""
    stretch = max(math.sqrt(abs(dilation)), 1.0 / math.sqrt(abs(dilation)))
    joint = _joint_support(galerkin_dim, max_window_index)
    return joint * stretch + TRUNCATION_MARGIN


@dataclass(frozen=True)
class GaborSystemSpec:
    """A Gabor system G(window, M(Z^2)) together with its Galerkin test space.

    The window is (h_0,...,h_d) by default; ``component_indices`` overrides
    the component list (e.g. (1,) for the scalar h_1 system, (0, 0) for the
    degenerate duplicated-Gaussian window). ``window_dilation`` applies D_a
    to window and test basis alike, keeping the Galerkin compression
    unitarily covariant. Construction builds the assembly's grid and the
    enumeration box of its summed lattice, raising CapacityError or
    BudgetError there.
    """

    window_degree: int
    matrix: LatticeMatrix
    galerkin_dim: int = DEFAULT_GALERKIN_DIM
    window_dilation: float = 1.0
    component_indices: Optional[tuple] = None
    point_budget: int = DEFAULT_POINT_BUDGET

    def __post_init__(self):
        if self.window_degree < 0:
            raise ValueError("window degree must be nonnegative")
        # max_window_index reads self.indices, which checks component_indices
        if self.galerkin_dim <= self.max_window_index:
            raise ValueError("galerkin_dim must exceed the largest window index")
        if not 0 < self.window_dilation < math.inf:
            raise ValueError("window dilation must be finite and positive")
        self.grid()
        enumeration_box(self.summed_lattice, self.radius, self.point_budget)

    @property
    def indices(self) -> tuple:
        if self.component_indices is not None:
            return hermite_indices(self.component_indices)
        return tuple(range(self.window_degree + 1))

    @property
    def max_window_index(self) -> int:
        return max(self.indices)

    @property
    def radius(self) -> float:
        return default_truncation_radius(self.galerkin_dim, self.max_window_index,
                                         self.window_dilation)

    @property
    def summed_lattice(self) -> LatticeMatrix:
        """The lattice the frame matrix is summed over: M, or its adjoint
        when |det M|^2 K < c. Both sides keep the same box, so the adjoint
        side has |det M|^2 times as many points; per point it projects K
        window rows instead of c."""
        if covolume(self.matrix) ** 2 * self.galerkin_dim < len(self.indices):
            return self.matrix.adjoint()
        return self.matrix

    def freq_cutoff(self) -> float:
        """Modulations beyond this couple the window to the test space only
        through Gaussian tails below 1e-12 (squared in the frame matrix)."""
        root_a = math.sqrt(self.window_dilation)
        joint = _joint_support(self.galerkin_dim, self.max_window_index)
        return (joint + TRUNCATION_MARGIN) / (TWO_PI * root_a)

    def time_cutoff(self) -> float:
        root_a = math.sqrt(self.window_dilation)
        joint = _joint_support(self.galerkin_dim, self.max_window_index)
        return (joint + TRUNCATION_MARGIN) * root_a

    def grid(self) -> GridSpec:
        return GridSpec.build(max_index=max(self.galerkin_dim - 1, self.max_window_index),
                              max_modulation=self.freq_cutoff(),
                              dilation=self.window_dilation)

    def with_dim(self, K: int) -> "GaborSystemSpec":
        return replace(self, galerkin_dim=K)


@dataclass(frozen=True)
class FrameBounds:
    """Galerkin estimates of the optimal frame bounds.

    A_est overestimates the true A and B_est underestimates the true B
    (restriction to a subspace shrinks the spectrum bracket from inside).
    ``tail_bound`` bounds the spectral norm of the contribution of the
    outermost unit shell r - 1 < |point| <= r of the summed lattice: on the
    direct side the sum of |A_gamma|^2 over its points (the trace of that
    PSD part), on the adjoint side the sum of ||W_mu||_F ||E_mu||_F / |det M|,
    W_mu the c x c window block of E_mu. It is 0 when the shell holds no
    point, as the sparse adjoint lattice of a dense one often does.
    """

    A_est: float
    B_est: float
    galerkin_dim: int
    converged: bool
    tail_bound: float

    def __post_init__(self):
        if not (0.0 <= self.A_est <= self.B_est):
            raise ValueError("frame bounds must satisfy 0 <= A_est <= B_est")


def _project(mu: np.ndarray, rows, a: float, x: np.ndarray, step: float,
             H: np.ndarray) -> np.ndarray:
    """P[p, r, m] = <pi(mu_p) h_{rows[r],a}, h_{m,a}> against the test basis
    H, with pi(mu) f(x) = e^{2 pi i mu2 (x - mu1)} f(x - mu1); shape
    (n, len(rows), K)."""
    xs = x[None, :] - mu[:, 0, None]                        # (n, N)
    table = dilated_hermite_all(max(rows), a, xs)           # (max+1, n, N)
    phase = np.exp(1j * TWO_PI * mu[:, 1, None] * xs)       # (n, N)
    V = table[list(rows)].transpose(1, 0, 2) * phase[:, None, :]
    n, R = V.shape[:2]
    return (step * (V.reshape(n * R, x.size) @ H.T)).reshape(n, R, H.shape[0])


def _assemble(spec: GaborSystemSpec):
    """Frame matrix plus a bound on the spectral norm of the outermost-shell
    contribution.

    Direct side: S = sum_gamma A_gamma^H A_gamma with A_gamma[i, m] =
    <h_m, pi(gamma) w_i>. Adjoint side (Janssen's representation over
    Lambda° = J^{-1} M^{-T} Z^2): S[(i,m),(j,m')] = (1/|det M|) sum_mu
    conj(E_mu[idx_j, idx_i]) E_mu[m', m], E_mu[a, b] = <pi(mu) h_a, h_b>.
    """
    grid = spec.grid()
    x = grid.points
    a = spec.window_dilation
    rows = list(spec.indices)
    K = spec.galerkin_dim
    c = len(rows)

    basis = dilated_hermite_all(max(K - 1, spec.max_window_index), a, x)
    H = basis[:K]                       # (K, N) orthonormal test functions
    r_cut = spec.radius
    lattice = spec.summed_lattice
    adjoint = lattice != spec.matrix
    pts = enumerate_points(lattice, r_cut, budget=spec.point_budget)
    g = pts.points
    keep = (np.abs(g[:, 0]) <= spec.time_cutoff()) & \
           (np.abs(g[:, 1]) <= spec.freq_cutoff())
    g = g[keep]
    in_shell = np.hypot(g[:, 0], g[:, 1]) > r_cut - 1.0

    dim = c * K
    tail = 0.0
    if adjoint:
        S4 = np.zeros((c * c, K * K), dtype=complex)
        chunk = max(1, ADJOINT_CHUNK_ROWS // K)
    else:
        S = np.zeros((dim, dim), dtype=complex)
        chunk = 128
    for start in range(0, g.shape[0], chunk):
        mu = g[start:start + chunk]
        shell = in_shell[start:start + chunk]
        if adjoint:
            E = _project(mu, range(K), a, x, grid.step, H)      # (n, K, K)
            n = E.shape[0]
            # W[p, i, j] = conj(E[p, idx_j, idx_i]); F[p, m, m'] = E[p, m', m]
            W = E[:, rows][:, :, rows].conj().transpose(0, 2, 1)
            F = E.transpose(0, 2, 1)
            S4 += W.reshape(n, c * c).T @ F.reshape(n, K * K)
            if shell.any():
                tail += float(np.sum(np.linalg.norm(W[shell], axis=(1, 2))
                                     * np.linalg.norm(E[shell], axis=(1, 2))))
        else:
            # window rows at (gamma1, -gamma2): A[p, i, m] = <h_m, pi(gamma_p) w_i>
            A = _project(mu * [1.0, -1.0], rows, a, x, grid.step, H)
            A = A.reshape(A.shape[0], dim)
            S += A.conj().T @ A
            if shell.any():
                tail += float(np.sum(np.abs(A[shell]) ** 2))
    if adjoint:
        det = covolume(spec.matrix)
        S = S4.reshape(c, c, K, K).transpose(0, 2, 1, 3).reshape(dim, dim) / det
        tail /= det
    S = 0.5 * (S + S.conj().T)
    return S, tail


def assemble_frame_matrix(spec: GaborSystemSpec) -> np.ndarray:
    """Hermitian PSD Galerkin compression of the frame operator."""
    S, _ = _assemble(spec)
    return S


def _extremal(S: np.ndarray):
    """(A, B): smallest eigenvalue clipped at 0, largest eigenvalue."""
    # numpy's solver returns NaN eigenvalues for a NaN entry
    if not np.isfinite(S).all():
        raise ValueError("array must not contain infs or NaNs")
    try:
        w = np.linalg.eigvalsh(S)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceError(f"dense eigensolver failed: {exc}") from exc
    return max(float(w[0]), 0.0), float(w[-1])


def _converged(S: np.ndarray, spec: GaborSystemSpec, A: float, B: float) -> bool:
    """True when (A, B) lie within 5% of B of the bounds of the nested K/2
    compression, the sub-block of S at i*K + m, m < K/2 (h_m in component i)."""
    K, c = spec.galerkin_dim, len(spec.indices)
    K_half = max(K // 2, spec.max_window_index + 1)
    if K_half >= K:
        return False
    half = S.reshape(c, K, c, K)[:, :K_half, :, :K_half]
    A2, B2 = _extremal(half.reshape(c * K_half, c * K_half))
    ref = max(B, 1e-300)
    return (abs(A - A2) / ref < CONVERGENCE_REL_TOL
            and abs(B - B2) / ref < CONVERGENCE_REL_TOL)


def frame_bounds(spec: GaborSystemSpec, check_convergence: bool = True) -> FrameBounds:
    """Extremal Galerkin eigenvalues; ``converged`` compares them against the
    nested K/2 compression read off the same matrix (relative change below
    5%, in units of B_est), so A_K <= A_{K/2} and B_K >= B_{K/2} hold by
    Cauchy interlacing."""
    S, tail_sq = _assemble(spec)
    A, B = _extremal(S)
    converged = _converged(S, spec, A, B) if check_convergence else False
    return FrameBounds(A_est=A, B_est=B, galerkin_dim=spec.galerkin_dim,
                       converged=converged, tail_bound=tail_sq)


def is_frame(spec: GaborSystemSpec) -> str:
    """Numerical tri-state frame decision: 'frame', 'not_frame' or 'inconclusive'.

    Candidate refutations at small K are re-run at K=128. Either verdict
    needs convergence against the nested K/2 compression read off the same
    matrix, where A_K <= A_{K/2} and B_K >= B_{K/2} by interlacing.
    """
    S, _ = _assemble(spec)
    A, B = _extremal(S)
    ratio = A / B if B > 0 else 0.0
    if ratio < FRAME_RATIO_TOL and spec.galerkin_dim < REFUTATION_GALERKIN_DIM:
        spec = spec.with_dim(REFUTATION_GALERKIN_DIM)
        S, _ = _assemble(spec)
        A, B = _extremal(S)
        ratio = A / B if B > 0 else 0.0
    converged = _converged(S, spec, A, B)
    if converged and ratio > FRAME_RATIO_TOL:
        return "frame"
    if converged and ratio < FRAME_RATIO_TOL / 10.0:
        return "not_frame"
    return "inconclusive"


def component_bound_aggregate(spec: GaborSystemSpec) -> dict:
    """Vector bound vs per-component scalar bounds at the same K.

    Component i's scalar system is the diagonal K x K block (i, i) of the
    vector frame matrix. slack = n_components * sum(B_i) - B_vec, nonnegative
    by Cauchy-Schwarz (the printed inequality uses the actual component count).
    """
    n = len(spec.indices)
    if n < 2:
        raise ValueError("aggregate check needs at least two components")
    K = spec.galerkin_dim
    S, _ = _assemble(spec)
    A_vec, B_vec = _extremal(S)
    per_component = [_extremal(S[i * K:(i + 1) * K, i * K:(i + 1) * K])
                     for i in range(n)]
    return {
        "A_vec": A_vec,
        "B_vec": B_vec,
        "per_component_A": [A for A, _ in per_component],
        "per_component_B": [B for _, B in per_component],
        "inequality_slack": n * sum(B for _, B in per_component) - B_vec,
    }


def gl_predicate(M: LatticeMatrix, d: int) -> bool:
    """Sufficient determinant criterion for the SCALAR system with window h_d:
    |det M| < 1/(d+1)."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    return covolume(M) < 1.0 / (d + 1)


# ---------------------------------------------------------------------------
# serialization


def bounds_to_json(spec: GaborSystemSpec, fb: FrameBounds) -> str:
    record = {
        "A_est": fb.A_est,
        "B_est": fb.B_est,
        "K": fb.galerkin_dim,
        "converged": fb.converged,
        "tail_bound": fb.tail_bound,
        "det": spec.matrix.determinant,
        "box_norm": box_norm(spec.matrix),
    }
    return json.dumps(record, indent=2)


def bounds_from_json(text: str) -> FrameBounds:
    record = json.loads(text)
    return FrameBounds(A_est=record["A_est"], B_est=record["B_est"],
                       galerkin_dim=record["K"], converged=record["converged"],
                       tail_bound=record["tail_bound"])
