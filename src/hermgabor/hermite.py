"""Stable Hermite function evaluation, dilated systems and spectral helpers.

Hermite functions are evaluated by the normalized three-term recurrence

    h_0(x) = pi^(-1/4) exp(-x^2/2)
    h_{n+1}(x) = sqrt(2/(n+1)) x h_n(x) - sqrt(n/(n+1)) h_{n-1}(x)

which is numerically stable for all indices used here; the Rodrigues
form with its factorial prefactors is kept only as a small-n test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec


def eval_hermite(n: int, x):
    """h_n(x); ``x`` may be a scalar or an array."""
    if n < 0:
        raise ValueError("Hermite index must be nonnegative")
    x = np.asarray(x, dtype=float)
    h_prev = np.pi ** (-0.25) * np.exp(-0.5 * x * x)
    if n == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h_cur = math.sqrt(2.0) * x * h_prev
    for k in range(1, n):
        h_next = math.sqrt(2.0 / (k + 1)) * x * h_cur - math.sqrt(k / (k + 1.0)) * h_prev
        h_prev, h_cur = h_cur, h_next
    return h_cur if h_cur.ndim else float(h_cur)


def eval_hermite_all(n_max: int, x: np.ndarray) -> np.ndarray:
    """Stack h_0..h_{n_max} evaluated at ``x``; shape (n_max+1, len(x))."""
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + x.shape)
    out[0] = np.pi ** (-0.25) * np.exp(-0.5 * x * x)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for k in range(1, n_max):
        out[k + 1] = math.sqrt(2.0 / (k + 1)) * x * out[k] - math.sqrt(k / (k + 1.0)) * out[k - 1]
    return out


def dilated_hermite(n: int, a: float, x):
    """h_{n,a}(x) = |a|^(-1/4) h_n(|a|^(-1/2) x)."""
    if a == 0:
        raise ValueError("dilation parameter must be nonzero")
    s = abs(a)
    return s ** (-0.25) * eval_hermite(n, np.asarray(x, dtype=float) / math.sqrt(s))


def dilated_hermite_all(n_max: int, a: float, x: np.ndarray) -> np.ndarray:
    if a == 0:
        raise ValueError("dilation parameter must be nonzero")
    s = abs(a)
    return s ** (-0.25) * eval_hermite_all(n_max, np.asarray(x, dtype=float) / math.sqrt(s))


@dataclass(frozen=True, eq=False)
class VectorWindow:
    """Sampled vector window; component i is h_{indices[i], dilation} on ``grid``."""

    grid: GridSpec
    indices: tuple
    dilation: float
    components: tuple  # real sample arrays, one per index

    @property
    def degree(self) -> int:
        return len(self.indices) - 1

    @property
    def n_components(self) -> int:
        return len(self.indices)


def window_from_indices(indices, grid: GridSpec, dilation: float = 1.0) -> VectorWindow:
    indices = tuple(int(i) for i in indices)
    if not indices:
        raise ValueError("window needs at least one component")
    if min(indices) < 0:
        raise ValueError("Hermite indices must be nonnegative")
    grid.check_support(max(indices), dilation)
    x = grid.points
    table = dilated_hermite_all(max(indices), dilation, x)
    comps = tuple(table[i].copy() for i in indices)
    return VectorWindow(grid=grid, indices=indices, dilation=dilation, components=comps)


def hermite_window(d: int, grid: GridSpec, dilation: float = 1.0) -> VectorWindow:
    """The vector window (h_0, ..., h_d) sampled on ``grid``."""
    if d < 0:
        raise ValueError("window degree must be nonnegative")
    return window_from_indices(range(d + 1), grid, dilation)


def hermite_operator_residual(n: int, grid: GridSpec, dilation: float = 1.0) -> float:
    """Relative residual of x^2 h - a^2 h'' - |a|(2n+1) h on interior grid points.

    Second derivatives use centered differences; the two boundary points are
    excluded from the norm. For dilation 1 this is the plain eigenrelation
    H h_n = (2n+1) h_n.
    """
    grid.check_support(n, dilation)
    x = grid.points
    h = dilated_hermite(n, dilation, x)
    d2 = (h[2:] - 2.0 * h[1:-1] + h[:-2]) / grid.step ** 2
    a = abs(dilation)
    res = x[1:-1] ** 2 * h[1:-1] - a * a * d2 - a * (2 * n + 1) * h[1:-1]
    return float(np.linalg.norm(res) / np.linalg.norm(h[1:-1]))


def dlambda(lam: float) -> int:
    """Spectral count floor(1/(2|lam|) - 1/2); equals -1 for |lam| > 1."""
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    return int(math.floor(1.0 / (2.0 * abs(lam)) - 0.5))
