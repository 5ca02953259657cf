"""Time-frequency plane regions, sampled fields and the sampled STFT.

A ``Region`` is a rectangle of the (x, xi) plane with its sampling steps,
and a ``SampledField`` holds values on its grid. ``stft`` samples the
ambiguity function V_w w by quadrature on the window's grid; the library
computes it in closed form (``certify.ambiguity``), and the tests use
``stft`` as the oracle for that closed form.

Phase convention: T_x M_xi w(t) = exp(2*pi*i*xi*(t - x)) * w(t - x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, CapacityError
from .hermite import VectorWindow, dilated_hermite_all
from .lattice import DEFAULT_POINT_BUDGET

TWO_PI = 2.0 * math.pi
REGION_STEP = 1.0 / 16.0
# first window degree whose default region is widened in time
WIDE_REGION_DEGREE = 6


@dataclass(frozen=True)
class Region:
    """Rectangular sampling region [-x_half, x_half] x [-xi_half, xi_half];
    BudgetError when it has more than DEFAULT_POINT_BUDGET samples."""

    x_half: float
    xi_half: float
    x_step: float
    xi_step: float

    def __post_init__(self):
        for v in (self.x_half, self.xi_half, self.x_step, self.xi_step):
            if not 0 < v < math.inf:
                raise ValueError("region parameters must be finite and positive")
        # the axis sizes, as floats: a huge half over a tiny step is inf
        nx, nxi = (2 * float(np.rint(half / step)) + 1 for half, step in
                   ((self.x_half, self.x_step), (self.xi_half, self.xi_step)))
        if nx * nxi > DEFAULT_POINT_BUDGET:
            raise BudgetError(f"region of {nx:.0f}x{nxi:.0f} samples exceeds "
                              f"point budget {DEFAULT_POINT_BUDGET}")

    @property
    def x_axis(self) -> np.ndarray:
        n = int(round(self.x_half / self.x_step))
        return self.x_step * np.arange(-n, n + 1)

    @property
    def xi_axis(self) -> np.ndarray:
        n = int(round(self.xi_half / self.xi_step))
        return self.xi_step * np.arange(-n, n + 1)


def default_region(d: int, step: float = REGION_STEP) -> Region:
    """STFT region [-L_x, L_x] x [-L_xi, L_xi], both halves rounded up to a
    multiple of ``step``.

    L_x = sqrt(2d+1) + 8, widened to 2 sqrt(2d+1) + 5 from d =
    WIDE_REGION_DEGREE on: there the ambiguity function of (h_0..h_d) still
    exceeds 1e-8 of its maximum at sqrt(2d+1) + 8 (below 1e-9 at the widened
    edge). It depends on (x, xi) only through x^2 + (2 pi xi)^2, so it has
    decayed as far at L_x / (2 pi) in xi; L_xi adds 1 to that, keeping an
    oscillation disc of radius up to 1 inside the region."""
    if d < 0 or not 0 < step < math.inf:
        raise ValueError("default_region needs d >= 0 and a finite step > 0")
    root = math.sqrt(2 * d + 1)
    x_half = 2.0 * root + 5.0 if d >= WIDE_REGION_DEGREE else root + 8.0
    xi_half = x_half / TWO_PI + 1.0
    return Region(x_half=_round_up(x_half, step),
                  xi_half=_round_up(xi_half, step), x_step=step, xi_step=step)


def _round_up(half: float, step: float) -> float:
    """half rounded up to a multiple of step; half itself when half / step
    overflows (a subnormal step), which Region rejects on the point budget."""
    count = half / step
    return math.ceil(count) * step if count < math.inf else half


@dataclass(frozen=True, eq=False)
class SampledField:
    """Real or complex field on the time-frequency plane, indexed (x, xi)."""

    x_axis: np.ndarray
    xi_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.x_axis.size, self.xi_axis.size):
            raise ValueError("field dimensions do not match axes")

    @property
    def x_step(self) -> float:
        return float(self.x_axis[1] - self.x_axis[0])

    @property
    def xi_step(self) -> float:
        return float(self.xi_axis[1] - self.xi_axis[0])


def _window_support(w: VectorWindow) -> float:
    return math.sqrt(2 * max(w.indices) + 1) * math.sqrt(abs(w.dilation))


def check_region_capacity(window: VectorWindow, region: Region) -> None:
    """CapacityError unless the window's grid holds every time shift of the
    window across the region and resolves every modulation in it (Nyquist)."""
    grid = window.grid
    if region.x_half + _window_support(window) > grid.half_width + grid.step:
        raise CapacityError("region time extent exceeds grid capacity")
    grid.check_nyquist(float(region.xi_axis[-1]), max(window.indices),
                       window.dilation)


def stft(window: VectorWindow, region: Region) -> SampledField:
    """V_w w(x, xi) = <w, T_x M_xi w> sampled over the region, by a Riemann
    sum on the window's grid."""
    check_region_capacity(window, region)
    grid = window.grid
    x_axis = region.x_axis
    xi_axis = region.xi_axis
    t = grid.points
    n, a, rows = max(window.indices), window.dilation, list(window.indices)
    B = np.exp(-1j * TWO_PI * np.outer(xi_axis, t))  # (n_xi, N)
    out = np.empty((x_axis.size, xi_axis.size), dtype=complex)
    wstack = dilated_hermite_all(n, a, t)[rows]  # (c, N)
    chunk = 64
    for start in range(0, x_axis.size, chunk):
        xs = x_axis[start:start + chunk]
        U = np.empty((t.size, xs.size), dtype=complex)
        for j, xv in enumerate(xs):
            wshift = dilated_hermite_all(n, a, t - xv)[rows]
            U[:, j] = np.einsum("cn,cn->n", wstack, wshift)
        block = (B @ U).T  # (chunk, n_xi)
        block *= np.exp(1j * TWO_PI * np.outer(xs, xi_axis))
        out[start:start + xs.size] = block
    out *= grid.step
    return SampledField(x_axis=x_axis, xi_axis=xi_axis, values=out)
