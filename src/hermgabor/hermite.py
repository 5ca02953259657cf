"""Stable Hermite function evaluation and dilated vector windows.

Hermite functions are evaluated by the normalized three-term recurrence

    h_0(x) = pi^(-1/4) exp(-x^2/2)
    h_{n+1}(x) = sqrt(2/(n+1)) x h_n(x) - sqrt(n/(n+1)) h_{n-1}(x)

which is numerically stable for all indices used here; the Rodrigues
form with its factorial prefactors is kept only as a small-n test oracle.
Beyond |x| = FAR_X the start exp(-x^2/2) would lose its digits and then
underflow, though h_n(x) need not be small there for large n, so those
points run a rescaled recurrence (``_hermite_all_far``); past
``support_half_width`` the h_n themselves are below rounding.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

# beyond this |x|, exp(-x^2/2) < 1e-304 nears the subnormal floats
FAR_X = math.sqrt(1400.0)
# the step by which a rescaled recurrence divides its state: exact in
# binary, and far from both ends of the float range
RESCALE = 2.0 ** 500
LOG_RESCALE = 500.0 * math.log(2.0)


def support_half_width(max_index: int) -> float:
    """sqrt(2n+1) + 8, at least 12: past it h_n, n <= ``max_index``, are below
    rounding, as beyond its support sqrt(2n+1) h_n is below 1e-14 after +6."""
    return max(math.sqrt(2 * max_index + 1) + 8.0, 12.0)


def dilation_scale(a: float) -> float:
    """|a|; ValueError unless the dilation a is finite and nonzero."""
    if a == 0 or not math.isfinite(a):
        raise ValueError("dilation parameter must be finite and nonzero")
    return abs(a)


def rescale_large(log_scale: np.ndarray, lead: np.ndarray, *states) -> None:
    """Divide ``lead`` and ``states`` by RESCALE wherever |lead| exceeds it,
    adding its log to ``log_scale`` there, in place: so a recurrence whose
    values outgrow the floats keeps their exponent apart."""
    big = np.abs(lead) > RESCALE
    if big.any():
        for state in (lead,) + states:
            state[big] /= RESCALE
        log_scale[big] += LOG_RESCALE


def _hermite_all(n_max: int, x: np.ndarray) -> np.ndarray:
    if n_max < 0:
        raise ValueError("Hermite index must be nonnegative")
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + x.shape)
    # the recurrence runs in place on flat rows (a 0-d row is no ``out=``
    # target), each product in the order of the expressions in the module
    # docstring, so the values are those of the expression form bit for bit
    rows, flat = out.reshape(n_max + 1, -1), x.reshape(-1)
    np.multiply(-0.5, flat, out=rows[0])
    np.multiply(rows[0], flat, out=rows[0])
    np.exp(rows[0], out=rows[0])
    np.multiply(np.pi ** (-0.25), rows[0], out=rows[0])
    if n_max >= 1:
        np.multiply(math.sqrt(2.0), flat, out=rows[1])
        np.multiply(rows[1], rows[0], out=rows[1])
    tmp = np.empty_like(flat)
    for k in range(1, n_max):
        np.multiply(math.sqrt(2.0 / (k + 1)), flat, out=rows[k + 1])
        np.multiply(rows[k + 1], rows[k], out=rows[k + 1])
        np.multiply(math.sqrt(k / (k + 1.0)), rows[k - 1], out=tmp)
        np.subtract(rows[k + 1], tmp, out=rows[k + 1])
    far = np.abs(flat) > FAR_X
    if far.any():
        rows[:, far] = _hermite_all_far(n_max, flat[far])
    return out


def _hermite_all_far(n_max: int, x: np.ndarray) -> np.ndarray:
    """``_hermite_all`` at points x beyond FAR_X. The recurrence runs on
    e^{x^2/2} h_k, which starts at pi^(-1/4) and is kept in the floats by
    ``rescale_large``; each row is written with the scale it kept."""
    out = np.empty((n_max + 1, x.size))
    log_scale = -0.5 * x * x
    prev, cur = np.zeros_like(x), np.full_like(x, np.pi ** (-0.25))
    for k in range(n_max + 1):
        out[k] = cur * np.exp(log_scale)
        if k < n_max:
            prev, cur = cur, (math.sqrt(2.0 / (k + 1)) * x * cur
                              - math.sqrt(k / (k + 1.0)) * prev)
            rescale_large(log_scale, cur, prev)
    return out


def dilated_hermite(n: int, a: float, x):
    """h_{n,a}(x) = |a|^(-1/4) h_n(|a|^(-1/2) x), row n of ``dilated_hermite_all``;
    ``x`` may be a scalar or an array, and a = 1 gives h_n itself."""
    table = dilated_hermite_all(n, a, x)
    return table[n] if table.ndim > 1 else float(table[n])


def dilated_hermite_all(n_max: int, a: float, x: np.ndarray) -> np.ndarray:
    """Stack h_{0,a}..h_{n_max,a} evaluated at ``x``; shape (n_max+1,) + x.shape."""
    s = dilation_scale(a)
    if s == 1.0:
        return _hermite_all(n_max, x)
    table = _hermite_all(n_max, np.asarray(x, dtype=float) / math.sqrt(s))
    table *= s ** (-0.25)
    return table


@dataclass(frozen=True)
class VectorWindow:
    """Vector window whose component i is h_{indices[i], dilation}.

    A window is its indices and dilation alone: whatever samples it on the
    real line sizes its own grid. The indices are kept as a tuple of ints;
    ValueError when they are not a nonempty list of nonnegative integers,
    or when the dilation is zero or not finite."""

    indices: tuple
    dilation: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "indices", hermite_indices(self.indices))
        dilation_scale(self.dilation)

    @property
    def degree(self) -> int:
        return len(self.indices) - 1


def hermite_indices(indices) -> tuple:
    """The component indices as a tuple of ints; ValueError unless it is a
    nonempty list of nonnegative integers (numpy integers included)."""
    try:
        indices = tuple(operator.index(i) for i in indices)
    except TypeError:
        raise ValueError("Hermite indices must be integers") from None
    if not indices:
        raise ValueError("window needs at least one component")
    if min(indices) < 0:
        raise ValueError("Hermite indices must be nonnegative")
    return indices
