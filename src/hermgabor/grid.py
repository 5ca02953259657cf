"""Uniform real-line discretization used by every sampled object."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError

DEFAULT_STEP = 1.0 / 32.0

# padding beyond the classical oscillator support sqrt(2n+1), in time units
# up to dilation 1; Gaussian tails are below 1e-14 past +6, so +8 leaves a
# margin. The tails of h_{n,a} decay like e^{-x^2/(2|a|)}, so past dilation
# 1 the pad is scaled by sqrt|a|
BUILD_PAD = 8.0
MIN_HALF_WIDTH = 12.0


def dilation_scale(a: float) -> float:
    """|a|; ValueError unless the dilation a is finite and nonzero."""
    if a == 0 or not math.isfinite(a):
        raise ValueError("dilation parameter must be finite and nonzero")
    return abs(a)


def support_half_width(max_index: int, dilation: float = 1.0) -> float:
    """The half-width past which h_{n,a}, n <= ``max_index``, a =
    ``dilation``, are below rounding: their oscillator support
    sqrt(2n+1) sqrt|a| plus BUILD_PAD, and at least MIN_HALF_WIDTH."""
    root_a = math.sqrt(dilation_scale(dilation))
    return max(math.sqrt(2 * max_index + 1) * root_a + BUILD_PAD * max(root_a, 1.0),
               MIN_HALF_WIDTH)


def _band(max_index: int, dilation: float) -> float:
    """sqrt(2n+1)/(2 pi sqrt|a|): the frequency reach of h_{n,a}."""
    return math.sqrt(2 * max_index + 1) / (2.0 * math.pi * math.sqrt(dilation_scale(dilation)))


def nyquist_step(max_modulation: float, max_index: int, dilation: float = 1.0) -> float:
    """The coarsest step the Nyquist guard admits for Hermite indices up to
    ``max_index`` dilated by ``dilation`` and modulated up to
    ``max_modulation``: 1/(2*(max_modulation + sqrt(2n+1)/(2 pi sqrt|a|) + 1)).
    It guards the modulated windows of ``timefreq.stft``; the Galerkin
    assembly samples no modulation and sizes its step by the aliasing
    bound of ``GaborSystemSpec.grid``."""
    return 1.0 / (2.0 * (max_modulation + _band(max_index, dilation) + 1.0))


def _checked_step(step: float) -> float:
    if not 0 < step < math.inf:
        raise ValueError("grid step must be finite and positive")
    return step


@dataclass(frozen=True)
class GridSpec:
    """Grid of ``count`` points x_j = (j - (count-1)/2)*step, the centres of
    ``count`` cells covering [-X, X], X = count*step/2. The points are
    exactly symmetric under x -> -x, so Riemann sums on it commute with the
    parity f(x) -> f(-x), as the exact integrals do."""

    step: float
    count: int

    def __post_init__(self):
        _checked_step(self.step)
        if self.count < 2:
            raise ValueError("grid needs at least 2 points")

    @property
    def points(self) -> np.ndarray:
        return self.step * (np.arange(self.count) - (self.count - 1) / 2.0)

    @classmethod
    def build(cls, max_index: int, max_modulation: float = 0.0,
              dilation: float = 1.0, step: float = DEFAULT_STEP,
              min_half_width: float = 0.0) -> "GridSpec":
        """Grid sized for Hermite indices up to ``max_index`` dilated by
        ``dilation`` (``support_half_width``), or to ``min_half_width``
        where that is wider.

        Checks the Nyquist guard step <= ``nyquist_step(max_modulation,
        max_index, dilation)`` against the declared capacities before
        returning. A caller may pass that step itself: the integrands sampled
        here are smooth and decay like Gaussians, so by Poisson summation the
        error of their Riemann sum at step h is set by their Fourier
        transform at 1/h, which the guard keeps far below rounding
        (Trefethen & Weideman, SIAM Review 56, 2014).
        """
        if max_index < 0:
            raise ValueError("max_index must be nonnegative")
        half = max(support_half_width(max_index, dilation), min_half_width)
        grid = cls(step=step, count=int(math.ceil(2.0 * half / _checked_step(step))))
        grid.check_nyquist(max_modulation, max_index, dilation)
        return grid

    def check_nyquist(self, max_modulation: float, max_index: int,
                      dilation: float = 1.0) -> None:
        if self.step > nyquist_step(max_modulation, max_index, dilation):
            raise CapacityError(
                f"Nyquist guard violated: 1/(2*{self.step}) < "
                f"{max_modulation} + {_band(max_index, dilation):.4f} + 1")
