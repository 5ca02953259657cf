"""Time-frequency plane regions, sampled fields and the sampled STFT.

A ``Region`` is a rectangle of the (x, xi) plane with its sampling steps,
and a ``SampledField`` holds values on its grid. ``stft`` samples the
ambiguity function V_w w by quadrature, under ``nyquist_step``, on a grid
it sizes for the window and the region (windows carry no grid). The
library computes it in closed form (``certify.ambiguity``), and the tests
use ``stft`` as the oracle for that closed form.

Phase convention: T_x M_xi w(t) = exp(2*pi*i*xi*(t - x)) * w(t - x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, CapacityError
from .hermite import VectorWindow, dilated_hermite_all, dilation_scale
from .lattice import DEFAULT_POINT_BUDGET

TWO_PI = 2.0 * math.pi
DEFAULT_STEP = 1.0 / 32.0
REGION_STEP = 1.0 / 16.0
# first window degree whose default region is widened in time
WIDE_REGION_DEGREE = 5


@dataclass(frozen=True)
class Region:
    """Rectangular sampling region [-x_half, x_half] x [-xi_half, xi_half];
    ValueError when a half does not exceed half its step (an axis of one
    node), BudgetError when it has more than DEFAULT_POINT_BUDGET samples."""

    x_half: float
    xi_half: float
    x_step: float
    xi_step: float

    def __post_init__(self):
        for v in (self.x_half, self.xi_half, self.x_step, self.xi_step):
            if not 0 < v < math.inf:
                raise ValueError("region parameters must be finite and positive")
        # the axis sizes, as floats: a huge half over a tiny step is inf
        nx, nxi = (2 * (float(round(n)) if n < math.inf else n) + 1
                   for n in (self.x_half / self.x_step, self.xi_half / self.xi_step))
        if min(nx, nxi) < 3:
            raise ValueError("region half must exceed half its step")
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
    """``_dilated_region`` at a = 1: the certificate region of (h_0,...,h_d)."""
    return _dilated_region(d, 1.0, step)


def _dilated_region(d: int, dilation: float, step: float = REGION_STEP) -> Region:
    """``_stretched_region`` of the window (h_{0,a},...,h_{d,a}) at the time
    half L_x = sqrt(2d+1) + 8, widened to 2 sqrt(2d+1) + 5 from d =
    WIDE_REGION_DEGREE on: there the ambiguity function of (h_0..h_d) still
    exceeds 1e-8 of its maximum at sqrt(2d+1) + 8 (1.12e-8 at d = 5), and is
    below 2.5e-9 of it at the widened edge. At d = 4 both edges are 11."""
    if d < 0 or not 0 < step < math.inf:
        raise ValueError("default_region needs d >= 0 and a finite step > 0")
    root = math.sqrt(2 * d + 1)
    x_half = 2.0 * root + 5.0 if d >= WIDE_REGION_DEGREE else root + 8.0
    return _stretched_region(x_half, dilation, step)


def _stretched_region(x_half: float, dilation: float,
                     step: float = REGION_STEP) -> Region:
    """Certificate region [-L_x sqrt|a|, L_x sqrt|a|] x [-L_xi, L_xi], L_x =
    x_half, for a window of dilation a whose ambiguity function at a = 1
    has decayed outside x^2 + (2 pi xi)^2 = L_x^2, both halves rounded up to a multiple
    of ``step``.

    The ambiguity function depends on (x, xi) only through x^2/a +
    a (2 pi xi)^2 (see ``certify.ambiguity``), so it has decayed as far at
    L_x sqrt|a| in x as at L_x / (2 pi sqrt|a|) in xi; L_xi adds 1 to that,
    keeping an oscillation disc of radius up to 1 inside the region."""
    root_a = math.sqrt(abs(dilation))
    return Region(x_half=_round_up(x_half * root_a, step),
                  xi_half=_round_up(x_half / (TWO_PI * root_a) + 1.0, step),
                  x_step=step, xi_step=step)


def _round_up(half: float, step: float) -> float:
    """half rounded up to a multiple of step; half itself when half / step
    overflows (a subnormal step), which Region rejects on the point budget."""
    count = half / step
    return math.ceil(count) * step if count < math.inf else half


@dataclass(frozen=True, eq=False)
class SampledField:
    """Real or complex field on the time-frequency plane, indexed (x, xi).

    ``x_step`` and ``xi_step`` are set once, each the difference of the
    axis node nearest 0 and its neighbour. On a region's axis, step *
    arange(-n, n + 1), that node is 0 and its neighbour step * 1, so the
    step is the region's to the last bit; x_axis[1] - x_axis[0] rounds away
    from it far from 0 (0.09999999999999787 for step 0.1 at half 20)."""

    x_axis: np.ndarray
    xi_axis: np.ndarray
    values: np.ndarray
    x_step: float = field(init=False)
    xi_step: float = field(init=False)

    def __post_init__(self):
        if self.values.shape != (self.x_axis.size, self.xi_axis.size):
            raise ValueError("field dimensions do not match axes")
        for name, axis in (("x_step", self.x_axis), ("xi_step", self.xi_axis)):
            i = min(int(np.argmin(np.abs(axis))), axis.size - 2)
            object.__setattr__(self, name, float(axis[i + 1] - axis[i]))


def _band(max_index: int, dilation: float) -> float:
    """sqrt(2n+1)/(2 pi sqrt|a|): the frequency reach of h_{n,a}."""
    return math.sqrt(2 * max_index + 1) / (2.0 * math.pi * math.sqrt(dilation_scale(dilation)))


def nyquist_step(max_modulation: float, max_index: int, dilation: float = 1.0) -> float:
    """The coarsest step of ``stft``'s Riemann sums of h_{n,a}, n <= ``max_index``,
    a = ``dilation``, modulated up to ``max_modulation``: 1/(2*(max_modulation
    + _band + 1)), so that their Fourier transforms at 1/h, the sums' errors
    by Poisson summation, are below rounding (Trefethen & Weideman, 2014)."""
    return 1.0 / (2.0 * (max_modulation + _band(max_index, dilation) + 1.0))


def stft(window: VectorWindow, region: Region) -> SampledField:
    """V_w w(x, xi) = <w, T_x M_xi w> sampled over the region, by a Riemann
    sum at step DEFAULT_STEP on cells covering the region's times plus the
    window's support sqrt((2n+1)|a|) + 8; CapacityError when that step does
    not resolve the region's modulations (``nyquist_step``)."""
    n, a, rows = max(window.indices), window.dilation, list(window.indices)
    xi_max = float(region.xi_axis[-1])
    if DEFAULT_STEP > nyquist_step(xi_max, n, a):
        raise CapacityError(f"Nyquist guard violated: 1/(2*{DEFAULT_STEP}) < "
                            f"{xi_max} + {_band(n, a):.4f} + 1")
    half = region.x_half + math.sqrt((2 * n + 1) * abs(a)) + 8.0
    count = math.ceil(2.0 * half / DEFAULT_STEP)
    t = DEFAULT_STEP * (np.arange(count) - (count - 1) / 2.0)
    x_axis = region.x_axis
    xi_axis = region.xi_axis
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
    out *= DEFAULT_STEP
    return SampledField(x_axis=x_axis, xi_axis=xi_axis, values=out)
