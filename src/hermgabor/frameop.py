"""Galerkin frame operator assembly and frame-bound estimation.

The frame operator of G(w, M(Z^2)) is compressed to the orthonormal test
system { h_{m,a} placed in component i : m < K, i = 0..c-1 }; its extremal
eigenvalues bracket the optimal frame bounds from inside (A_est >= A_true,
B_est <= B_true), with the bracket closing as K grows.

The matrix is summed over M(Z^2) or, by Janssen's representation, over its
adjoint lattice J^{-1} M^{-T}(Z^2) of covolume 1/|det M|, whichever is
cheaper: ``GaborSystemSpec.summed_lattice``.

Both sums run over half the lattice. With h_n(-x) = (-1)^n h_n(x), the
twisted parity (QF)_i(x) = (-1)^{idx_i} F_i(-x) maps pi(gamma) w to
pi(-gamma) w up to a phase, so Q commutes with the frame operator: the
terms of gamma and -gamma differ by the sign sigma_(i,m) sigma_(j,m') with
sigma_(i,m) = (-1)^{idx_i + m}. Summing one point of each pair +-gamma at
weight 2 and the origin at weight 1 gives every entry with sigma_(i,m) =
sigma_(j,m'); the others cancel pairwise and are exactly 0. The matrix is
therefore kept as its two parity blocks, and the extremal eigenvalues come
from two eigensolves of half the size. In the rotated form below, mu and
-mu share their shift and their angles differ by pi, so the computed terms
obey the same identity to the rounding of their phases.

A dilation is a change of lattice: D_a carries G(D_a w, M), test space
included, unitarily onto G(w, diag(1/sqrt(a), sqrt(a)) M) (metaplectic
covariance; Folland, Harmonic Analysis in Phase Space, 1989, ch. 4). So
the assembly maps the ellipse's points alpha to (alpha1, alpha2/(2 pi))
and runs at dilation 1; ``GaborSystemSpec._alpha_lattice`` is the only
place where the dilation enters it.

Each element is a real shift times phases. The h_n are eigenfunctions of
the metaplectic rotations of the (x, 2 pi xi) plane (the fractional
Fourier transform), so with t e^{i theta} = mu1 + 2 pi i mu2,

    <pi(mu) h_r, h_m> = e^{-i pi mu1 mu2} e^{i (m - r) theta} <h_r(. - t), h_m>,

and ``_project`` samples no modulation: the table of the rows shifted by t
meets the real test basis in one real matrix product.

The Riemann sums run at the integrands' aliasing bound. Each h_r(x - t)
h_m(x) is smooth and decays like a Gaussian, so by Poisson summation the
error of its Riemann sum at step h is its Fourier transform at the nonzero
multiples of 1/h (Trefethen & Weideman, SIAM Review 56, 2014): in the
units u = 2 pi xi a convolution of h_r and h_m, whose oscillator supports
add to at most 2 sqrt(2K-1). Past its turning point u_0 = sqrt(2n+1), h_n
falls like e^{-(u - u_0)^2/2}, so the convolution falls like
e^{-delta^2/4} at a distance delta past that sum. The step 2 pi /
(2 sqrt(2K-1) + ALIAS_MARGIN) puts 1/h at delta = 14 (e^{-49} ~ 5e-22).

``_assemble`` takes the points in order of t, so that each chunk samples
only its ``_crop`` of the grid: from t_min - S, S = ``support_half_width``
of the Hermite functions, to the larger of S and t_max/2 + SHIFT_PAD. Past
both supports a product of two tails peaks near t/2, so the grid reaches
rho/2 + SHIFT_PAD at least: the integrands of the outermost shell, which
``FrameBounds.tail_bound`` sums, are then whole.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import BudgetError, ConvergenceError
from .lattice import (DEFAULT_POINT_BUDGET, LatticeMatrix, box_norm, covolume,
                      enumerate_points, enumeration_box)
from .hermite import dilated_hermite_all, hermite_indices, support_half_width

DEFAULT_GALERKIN_DIM = 64
TRUNCATION_MARGIN = 10.0
CONVERGENCE_REL_TOL = 0.05
TWO_PI = 2.0 * math.pi
# window rows projected per chunk on the adjoint side (K per dual point)
ADJOINT_CHUNK_ROWS = 512
# how far past t/2 the integrand h_r(x - t) h_m(x) of a shift t beyond
# both supports is sampled: its Gaussian factor e^{-(x - t/2)^2} is below
# 1e-21 there
SHIFT_PAD = 7.0
# how far past the integrands' spectra, within 2 sqrt(2K-1) in the units
# 2 pi xi, the grid's first alias falls (module docstring)
ALIAS_MARGIN = 14.0
# i^n for n mod 4
_POWERS_OF_I = np.array([1, 1j, -1, -1j])


@dataclass(frozen=True)
class GridSpec:
    """The quadrature grid of ``GaborSystemSpec.grid``: ``count`` cell centres
    (j - (count-1)/2)*step, exactly symmetric under x -> -x like the parity."""

    step: float
    count: int

    def __post_init__(self):
        if not 0 < self.step < math.inf:
            raise ValueError("grid step must be finite and positive")
        if self.count < 2:
            raise ValueError("grid needs at least 2 points")

    @property
    def points(self) -> np.ndarray:
        return self.step * (np.arange(self.count) - (self.count - 1) / 2.0)


def _joint_support(galerkin_dim: int, max_window_index: int) -> float:
    """Oscillator supports of the widest test function and window component, added."""
    return math.sqrt(2 * galerkin_dim + 1) + math.sqrt(2 * max_window_index + 1)


@dataclass(frozen=True)
class GaborSystemSpec:
    """A Gabor system G(window, M(Z^2)) together with its Galerkin test space.

    The window is (h_0,...,h_d) by default; ``component_indices`` overrides
    the component list (e.g. (1,) for the scalar h_1 system, (0, 0) for the
    degenerate duplicated-Gaussian window). ``window_dilation`` applies D_a
    to window and test basis alike (module docstring). Construction refuses
    a |det M| whose frame bounds overflow the floats (ValueError), then
    checks the enumeration box of the truncation ellipse (``radius``) and
    the (cK)^2 entries of the frame matrix against the point budget
    (BudgetError).
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
        # at a tiny |det M| Janssen's sum is its origin's term, the Gram matrix
        # (norm <= c) over |det M|, which the assembly adds to its adjoint
        det = covolume(self.matrix)
        if det * sys.float_info.max < 2 * len(self.indices):
            raise ValueError(f"frame bounds ~1/|det M| overflow the floats: |det M| = {det:.3g}")
        enumeration_box(self._alpha_lattice(), self.radius, self.point_budget)
        n = len(self.indices) * self.galerkin_dim
        if n * n > self.point_budget:
            raise BudgetError(f"frame matrix {n}x{n} exceeds point budget {self.point_budget}")

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
        """rho, the joint oscillator support plus 10: both sides sum the
        ellipse |alpha| <= rho, alpha = (mu1/sqrt(a), 2 pi sqrt(a) mu2). The
        entries' moduli depend on mu only through |alpha| and decay like a
        Gaussian past that support, so the margin puts the omitted tail
        below 1e-12."""
        return _joint_support(self.galerkin_dim, self.max_window_index) + TRUNCATION_MARGIN

    @functools.cached_property
    def summed_lattice(self) -> LatticeMatrix:
        """The lattice the frame matrix is summed over: M, or its adjoint
        when |det M|^2 K < c, built once per spec. Both sides keep the same
        ellipse, so the adjoint side has |det M|^2 times as many points; per
        point it projects K window rows instead of c."""
        # past |det M| = 1e150, |det M|^2 K > c, and the square would overflow
        if min(covolume(self.matrix), 1e150) ** 2 * self.galerkin_dim < len(self.indices):
            return self.matrix.adjoint()
        return self.matrix

    def _alpha_lattice(self) -> LatticeMatrix:
        """The summed lattice in the coordinates alpha of ``radius``; the
        only dilated object the assembly reads."""
        lattice, a = self.summed_lattice, self.window_dilation
        try:
            return lattice.left_diag(1.0 / math.sqrt(a), TWO_PI * math.sqrt(a))
        except ValueError as exc:  # an entry past the floats, or a singular map
            if "finite" in str(exc):  # LatticeMatrix's message for the former
                raise ValueError("the summed lattice overflows the floats in the "
                                 "coordinates alpha") from None
            who = "the map to alpha" if a == 1.0 else f"window dilation {a!r}"
            raise ValueError(f"{who} maps the summed lattice to a numerically "
                             f"singular one") from None

    def freq_cutoff(self) -> float:
        """rho/(2 pi sqrt(a)), the ellipse's frequency semi-axis: modulations
        beyond it couple the window to the test space only through Gaussian
        tails below 1e-12 (squared in the frame matrix). The assembly reads
        neither cutoff; the benchmark's tracer and the tests' oracles do."""
        return self.radius / (TWO_PI * math.sqrt(self.window_dilation))

    def time_cutoff(self) -> float:
        """rho sqrt(a), the ellipse's time semi-axis, read like ``freq_cutoff``."""
        return self.radius * math.sqrt(self.window_dilation)

    def grid(self) -> GridSpec:
        """The quadrature grid, at dilation 1 for every dilation: the step of
        the integrands' aliasing bound (module docstring), reaching rho/2 +
        SHIFT_PAD at least, where the integrands of the outermost shell
        peak."""
        K = self.galerkin_dim
        step = TWO_PI / (2.0 * math.sqrt(2 * K - 1) + ALIAS_MARGIN)
        half = max(support_half_width(K - 1), 0.5 * self.radius + SHIFT_PAD)
        return GridSpec(step=step, count=math.ceil(2.0 * half / step))

    def with_dim(self, K: int) -> "GaborSystemSpec":
        return replace(self, galerkin_dim=K)


@dataclass(frozen=True)
class FrameBounds:
    """Galerkin estimates of the optimal frame bounds.

    A_est overestimates the true A and B_est underestimates the true B
    (restriction to a subspace shrinks the spectrum bracket from inside).
    ``tail_bound`` bounds the spectral norm of the contribution of the
    outermost unit shell rho - 1 < |alpha| <= rho (``GaborSystemSpec.radius``): on the
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


def _project(mu: np.ndarray, rows, x: np.ndarray, step: float,
             H: np.ndarray) -> np.ndarray:
    """P[p, r, m] = <pi(mu_p) h_{rows[r]}, h_m>, rows below K, against the
    test basis H sampled at ``x`` at ``step``, in the rotated form of the
    module docstring; shape (n, len(rows), K)."""
    z = mu[:, 0] + 1j * (TWO_PI * mu[:, 1])                 # t e^{i theta}
    table = dilated_hermite_all(max(rows), 1.0, x[None, :] - np.abs(z)[:, None])
    rows = list(rows)
    if rows != list(range(table.shape[0])):
        table = table[rows]                                 # (R, n, N)
    R, n, N = table.shape
    K = H.shape[0]
    G = (table.reshape(R * n, N) @ H.T).reshape(R, n, K)
    # theta = q pi/2 + phi with |phi| <= pi/4: z i^{-q} and i^{qk} are
    # exact, so e^{ik theta} rounds k phi instead of k theta
    q = np.rint(np.angle(z) / (0.5 * np.pi)).astype(int)
    k = np.arange(K)
    turn = np.exp(1j * np.outer(np.angle(z * _POWERS_OF_I[-q % 4]), k))
    turn *= _POWERS_OF_I[np.outer(q, k) % 4]                # e^{ik theta}
    left = (step * np.exp(-1j * np.pi * mu[:, 0] * mu[:, 1]))[:, None]
    left = left * turn[:, rows].conj()                      # (n, R)
    P = left[:, :, None] * turn[:, None, :]
    P *= G.transpose(1, 0, 2)
    return P


def _crop(spec: GaborSystemSpec, x: np.ndarray, t: np.ndarray) -> slice:
    """The points of the spec's ascending grid ``x`` in [t[0] - S, max(S,
    t[-1]/2 + SHIFT_PAD)], S the support half-width of h_n, n < K: where
    the integrands of ``_project`` at the ascending shifts ``t`` are above
    rounding. Each factor is below it past S, and a product of two tails
    peaks near t/2."""
    S = support_half_width(spec.galerkin_dim - 1)
    lo, hi = np.searchsorted(x, [t[0] - S, max(S, 0.5 * t[-1] + SHIFT_PAD)])
    return slice(lo, hi)


def _parity_classes(indices, K: int) -> tuple:
    """Positions i*K + m of the test pairs (i, m) with sigma_(i,m) =
    (-1)^(indices[i] + m) equal to +1, and those with -1."""
    odd = np.add.outer(np.asarray(indices), np.arange(K)).ravel() % 2 == 1
    return np.flatnonzero(~odd), np.flatnonzero(odd)


def _assemble(spec: GaborSystemSpec):
    """The positions of the two parity classes (``_parity_classes``), the
    frame matrix's diagonal block on each, and a bound on the spectral norm
    of the outermost-shell contribution.

    Direct side: S = sum_gamma A_gamma^H A_gamma with A_gamma[i, m] =
    <h_m, pi(gamma) w_i>. Adjoint side (Janssen's representation over
    Lambda° = J^{-1} M^{-T} Z^2): S[(i,m),(j,m')] = (1/|det M|) sum_mu
    conj(E_mu[idx_j, idx_i]) E_mu[m', m], E_mu[a, b] = <pi(mu) h_a, h_b>.
    Both sums run over one point of each pair +-mu (mu1 > 0, or mu1 = 0 <
    mu2) at weight 2 and the origin at weight 1: A_{-gamma} = sigma o
    A_gamma and E_{-mu}[a, b] = (-1)^(a+b) E_mu[a, b], so the pair's two
    terms are equal where sigma_(i,m) = sigma_(j,m') and cancel elsewhere.
    """
    grid = spec.grid()
    x = grid.points
    rows = list(spec.indices)
    K = spec.galerkin_dim
    c = len(rows)

    H = dilated_hermite_all(K - 1, 1.0, x)  # (K, N) orthonormal test functions
    adjoint = spec.summed_lattice is not spec.matrix
    # the truncation ellipse's points in the coordinates alpha of its disc
    alpha = enumerate_points(spec._alpha_lattice(), spec.radius,
                             budget=spec.point_budget).points
    # the set is symmetric under alpha -> -alpha: sum one point of each pair
    # (alpha1 > 0, or alpha1 == 0 < alpha2) at weight 2 and the origin at weight 1
    alpha = alpha[(alpha[:, 0] > 0) | ((alpha[:, 0] == 0) & (alpha[:, 1] >= 0))]
    # in order of the shift t = |alpha| that ``_project`` samples at, so
    # that each chunk samples only its ``_crop``; at dilation 1, the points
    # are (alpha1, alpha2 / (2 pi))
    t = np.hypot(alpha[:, 0], alpha[:, 1])
    order = np.argsort(t)
    g, t = alpha[order] * [1.0, 1.0 / TWO_PI], t[order]
    weight = np.where(g.any(axis=1), 2.0, 1.0)
    in_shell = t > spec.radius - 1.0

    classes = _parity_classes(rows, K)
    tail = 0.0
    if adjoint:
        S4 = np.zeros((c * c, K * K), dtype=complex)
        chunk = max(1, ADJOINT_CHUNK_ROWS // K)
    else:
        blocks = [np.zeros((cls.size, cls.size), dtype=complex) for cls in classes]
        chunk = 128
    for start in range(0, g.shape[0], chunk):
        mu = g[start:start + chunk]
        wt = weight[start:start + chunk]
        shell = in_shell[start:start + chunk]
        crop = _crop(spec, x, t[start:start + chunk])
        xs, Hs = x[crop], H[:, crop]
        if adjoint:
            E = _project(mu, range(K), xs, grid.step, Hs)       # (n, K, K)
            n = E.shape[0]
            # W[p, i, j] = conj(E[p, idx_j, idx_i]); S4[(i, j), (m', m)] sums
            # W[p, i, j] E[p, m', m]
            W = E[:, rows][:, :, rows].conj().transpose(0, 2, 1)
            S4 += (wt[:, None] * W.reshape(n, c * c)).T @ E.reshape(n, K * K)
            if shell.any():
                tail += float(np.sum(wt[shell] * np.linalg.norm(W[shell], axis=(1, 2))
                                     * np.linalg.norm(E[shell], axis=(1, 2))))
        else:
            # window rows at (gamma1, -gamma2): A[p, i, m] = <h_m, pi(gamma_p) w_i>
            A = _project(mu * [1.0, -1.0], rows, xs, grid.step, Hs)
            A = A.reshape(A.shape[0], c * K)
            for S, cls in zip(blocks, classes):
                Ac = A[:, cls]
                S += Ac.conj().T @ (wt[:, None] * Ac)
            if shell.any():
                tail += float(np.sum(wt[shell, None] * np.abs(A[shell]) ** 2))
    if adjoint:
        det = covolume(spec.matrix)
        S = S4.reshape(c, c, K, K).transpose(0, 3, 1, 2).reshape(c * K, c * K) / det
        blocks = [S[np.ix_(cls, cls)] for cls in classes]
        tail /= det
    blocks = [0.5 * (S + S.conj().T) for S in blocks]
    return classes, blocks, tail


def _restrict(classes, blocks, keep: np.ndarray) -> list:
    """The parity blocks of the principal sub-matrix at the positions
    i*K + m where ``keep`` is True."""
    return [S[np.ix_(k, k)] for cls, S in zip(classes, blocks) for k in [keep[cls]]]


def _extremal(blocks):
    """(A, B) of a matrix given as its diagonal blocks: the smallest
    eigenvalue clipped at 0 and the largest."""
    # numpy's solver returns NaN eigenvalues for a NaN entry
    if not all(np.isfinite(S).all() for S in blocks):
        raise ValueError("array must not contain infs or NaNs")
    try:
        w = [np.linalg.eigvalsh(S) for S in blocks if S.size]
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceError(f"dense eigensolver failed: {exc}") from exc
    return max(min(float(v[0]) for v in w), 0.0), max(float(v[-1]) for v in w)


def _converged(classes, blocks, spec: GaborSystemSpec, A: float, B: float) -> bool:
    """True when (A, B) lie within 5% of B of the bounds of the nested K/2
    compression, the sub-matrix of S at i*K + m, m < K/2 (h_m in component
    i), itself split into the two parity blocks."""
    K, c = spec.galerkin_dim, len(spec.indices)
    K_half = max(K // 2, spec.max_window_index + 1)
    if K_half >= K:
        return False
    A2, B2 = _extremal(_restrict(classes, blocks, np.tile(np.arange(K) < K_half, c)))
    ref = max(B, 1e-300)
    return (abs(A - A2) / ref < CONVERGENCE_REL_TOL
            and abs(B - B2) / ref < CONVERGENCE_REL_TOL)


def frame_bounds(spec: GaborSystemSpec, check_convergence: bool = True) -> FrameBounds:
    """Extremal Galerkin eigenvalues; ``converged`` compares them against the
    nested K/2 compression read off the same matrix (relative change below
    5%, in units of B_est), so A_K <= A_{K/2} and B_K >= B_{K/2} hold by
    Cauchy interlacing."""
    classes, blocks, tail = _assemble(spec)
    A, B = _extremal(blocks)
    converged = _converged(classes, blocks, spec, A, B) if check_convergence else False
    return FrameBounds(A_est=A, B_est=B, galerkin_dim=spec.galerkin_dim,
                       converged=converged, tail_bound=tail)


def is_frame(spec: GaborSystemSpec) -> str:
    """'frame', 'not_frame' or 'inconclusive', from the window's indices (c
    of them, the largest n) and |det M| alone, where a theorem proves it:

    - a repeated index: 'not_frame' (f_i = -f_j is a null vector);
    - c |det M| > 1: 'not_frame' (Balan, Contemp. Math. 247, 1999);
    - |det M| < 1/(n+1): 'frame', since (h_0,...,h_n) is a superframe
      (Groechenig & Lyubarskii, Math. Ann. 345, 2009) and distinct indices
      <= n inherit its lower bound on their own components;
    - otherwise 'not_frame' for the indices {0,...,n}, where that theorem
      is an "if and only if", and 'inconclusive' for any other window.

    A dilation D_a maps the system to the undilated window on
    diag(1/sqrt(a), sqrt(a)) M, of the same covolume.
    """
    indices = spec.indices
    c, n = len(indices), max(indices)
    det = covolume(spec.matrix)
    if len(set(indices)) < c or c * det > 1.0:
        return "not_frame"
    if det < 1.0 / (n + 1):
        return "frame"
    return "not_frame" if c == n + 1 else "inconclusive"


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
    classes, blocks, _ = _assemble(spec)
    A_vec, B_vec = _extremal(blocks)
    per_component = [_extremal(_restrict(classes, blocks, np.arange(n * K) // K == i))
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
    # JSON has no inf or NaN: a float past the floats is written null
    return json.dumps({k: v if not isinstance(v, float) or math.isfinite(v) else None
                       for k, v in record.items()}, indent=2, allow_nan=False)


def bounds_from_json(text: str) -> FrameBounds:
    record = json.loads(text)
    return FrameBounds(A_est=record["A_est"], B_est=record["B_est"],
                       galerkin_dim=record["K"], converged=record["converged"],
                       tail_bound=record["tail_bound"])
