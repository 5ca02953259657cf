"""Uniform real-line discretization used by every sampled object."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError

DEFAULT_STEP = 1.0 / 32.0

# padding (in time units) beyond the classical oscillator support
# sqrt(2n+1); Gaussian tails are below 1e-14 past +6
SUPPORT_PAD = 6.0
BUILD_PAD = 8.0
MIN_HALF_WIDTH = 12.0


def dilation_scale(a: float) -> float:
    """|a|; ValueError unless the dilation a is finite and nonzero."""
    if a == 0 or not math.isfinite(a):
        raise ValueError("dilation parameter must be finite and nonzero")
    return abs(a)


def _checked_step(step: float) -> float:
    if not 0 < step < math.inf:
        raise ValueError("grid step must be finite and positive")
    return step


@dataclass(frozen=True)
class GridSpec:
    """Grid of ``count`` points x_j = -X + j*step covering [-X, X), X = count*step/2."""

    step: float
    count: int

    def __post_init__(self):
        _checked_step(self.step)
        if self.count < 2:
            raise ValueError("grid needs at least 2 points")

    @property
    def half_width(self) -> float:
        return self.count * self.step / 2.0

    @property
    def points(self) -> np.ndarray:
        return -self.half_width + self.step * np.arange(self.count)

    @classmethod
    def build(cls, max_index: int, max_modulation: float = 0.0,
              dilation: float = 1.0, step: float = DEFAULT_STEP) -> "GridSpec":
        """Grid sized for Hermite indices up to ``max_index`` dilated by ``dilation``.

        Checks the Nyquist guard 1/(2*step) >= max_modulation + sqrt(2n+1)/(2*pi) + 1
        against the declared capacities before returning.
        """
        if max_index < 0:
            raise ValueError("max_index must be nonnegative")
        root_a = math.sqrt(dilation_scale(dilation))
        half = max(math.sqrt(2 * max_index + 1) * root_a + BUILD_PAD, MIN_HALF_WIDTH)
        grid = cls(step=step, count=int(math.ceil(2.0 * half / _checked_step(step))))
        grid.check_nyquist(max_modulation, max_index, dilation)
        return grid

    def check_nyquist(self, max_modulation: float, max_index: int,
                      dilation: float = 1.0) -> None:
        root_a = math.sqrt(dilation_scale(dilation))
        band = math.sqrt(2 * max_index + 1) / (2.0 * math.pi * root_a)
        if 1.0 / (2.0 * self.step) < max_modulation + band + 1.0:
            raise CapacityError(
                f"Nyquist guard violated: 1/(2*{self.step}) < "
                f"{max_modulation} + {band:.4f} + 1")

    def check_support(self, max_index: int, dilation: float = 1.0) -> None:
        need = math.sqrt(2 * max_index + 1) * math.sqrt(dilation_scale(dilation)) + SUPPORT_PAD
        if need > self.half_width:
            raise CapacityError(
                f"Hermite index {max_index} (dilation {dilation}) needs half_width "
                f">= {need:.2f}, grid has {self.half_width:.2f}")
