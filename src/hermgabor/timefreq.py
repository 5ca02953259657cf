"""Time-frequency shifts, discrete inner products, STFT and dilations.

Phase convention (fixed globally): f_gamma = T_{gamma1} M_{gamma2} f, i.e.

    f_gamma(x) = exp(2*pi*i*gamma2*(x - gamma1)) * f(x - gamma1).

Shifted Hermite atoms are always re-evaluated analytically at the grid
points; nothing is ever interpolated.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError
from .grid import SUPPORT_PAD, GridSpec
from .hermite import VectorWindow, dilated_hermite_all

TWO_PI = 2.0 * math.pi
REGION_STEP = 1.0 / 16.0
# first window degree whose default region is widened in time
WIDE_REGION_DEGREE = 6


class SupportOverflowWarning(UserWarning):
    """Shift precondition margin below 6 time units."""


@dataclass(frozen=True)
class TFPoint:
    time_shift: float
    frequency_shift: float


@dataclass(frozen=True, eq=False)
class SampledSignal:
    """Vector-valued signal sampled on a grid.

    ``hermite`` optionally records (index, dilation) per component for
    signals that are exactly dilated Hermite functions, enabling analytic
    translation and dilation.
    """

    grid: GridSpec
    components: tuple  # complex arrays
    hermite: tuple = None

    @property
    def n_components(self) -> int:
        return len(self.components)


def signal_from_window(w: VectorWindow) -> SampledSignal:
    comps = tuple(np.asarray(c, dtype=complex) for c in w.components)
    meta = tuple((n, w.dilation) for n in w.indices)
    return SampledSignal(grid=w.grid, components=comps, hermite=meta)


def _window_support(w: VectorWindow) -> float:
    return math.sqrt(2 * max(w.indices) + 1) * math.sqrt(abs(w.dilation))


def shifted_window_samples(w: VectorWindow, gamma1: float, gamma2: float) -> np.ndarray:
    """Samples of all components of T_{gamma1} M_{gamma2} w, shape (c, N).

    No support check: callers that sum against grid-supported test
    functions may shift beyond the grid edge (the products vanish there).
    """
    x = w.grid.points - gamma1
    table = dilated_hermite_all(max(w.indices), w.dilation, x)
    phase = np.exp(1j * TWO_PI * gamma2 * x)
    return table[list(w.indices)] * phase[None, :]


def tf_shift_window(w: VectorWindow, gamma: TFPoint) -> SampledSignal:
    """The shifted window f_gamma sampled analytically on the grid."""
    margin = w.grid.half_width - abs(gamma.time_shift) - _window_support(w)
    if margin < 0:
        raise CapacityError(
            f"time shift {gamma.time_shift} pushes the window off the grid")
    if margin < SUPPORT_PAD:
        warnings.warn(
            f"support margin {margin:.2f} below {SUPPORT_PAD} time units; "
            "tail truncation may approach tolerance", SupportOverflowWarning)
    w.grid.check_nyquist(abs(gamma.frequency_shift), max(w.indices), w.dilation)
    samples = shifted_window_samples(w, gamma.time_shift, gamma.frequency_shift)
    return SampledSignal(grid=w.grid, components=tuple(samples))


def inner(f: SampledSignal, g: SampledSignal) -> complex:
    """Riemann-sum inner product, linear in f and conjugate-linear in g."""
    if f.grid != g.grid:
        raise ValueError("signals live on different grids")
    if f.n_components != g.n_components:
        raise ValueError("component count mismatch")
    acc = 0.0 + 0.0j
    for fi, gi in zip(f.components, g.components):
        acc += np.vdot(gi, fi)  # vdot conjugates its first argument
    return complex(f.grid.step * acc)


def norm(f: SampledSignal) -> float:
    return math.sqrt(max(inner(f, f).real, 0.0))


def modulate(f: SampledSignal, xi: float) -> SampledSignal:
    """M_xi f, exact pointwise multiplication by exp(2*pi*i*xi*x)."""
    phase = np.exp(1j * TWO_PI * xi * f.grid.points)
    return SampledSignal(grid=f.grid,
                         components=tuple(c * phase for c in f.components))


def translate(f: SampledSignal, y: float) -> SampledSignal:
    """T_y f for Hermite-backed signals (analytic re-evaluation)."""
    if f.hermite is None:
        raise ValueError("translate requires a Hermite-backed signal")
    x = f.grid.points - y
    comps = []
    for (n, a) in f.hermite:
        table = dilated_hermite_all(n, a, x)
        comps.append(table[n].astype(complex))
    return SampledSignal(grid=f.grid, components=tuple(comps), hermite=None)


def dilate(f: SampledSignal, a: float) -> SampledSignal:
    """D_a f(x) = |a|^(-1/2) f(x/|a|).

    Hermite-backed signals are re-evaluated analytically (D_a h_{n,c} =
    h_{n, c*a^2}); other signals are resampled with a cubic spline.
    """
    if a == 0:
        raise ValueError("dilation factor must be nonzero")
    if a == 1.0:
        return f
    if f.hermite is not None:
        meta = tuple((n, c * a * a) for (n, c) in f.hermite)
        f.grid.check_support(max(n for n, _ in meta), max(c for _, c in meta))
        x = f.grid.points
        comps = tuple(dilated_hermite_all(n, c, x)[n].astype(complex)
                      for (n, c) in meta)
        return SampledSignal(grid=f.grid, components=comps, hermite=meta)
    from scipy.interpolate import CubicSpline

    x = f.grid.points
    xs = x / abs(a)
    inside = (xs >= x[0]) & (xs <= x[-1])
    scale = 1.0 / math.sqrt(abs(a))
    comps = []
    for c in f.components:
        spline = CubicSpline(x, c)
        vals = np.zeros_like(np.asarray(c, dtype=complex))
        vals[inside] = scale * spline(xs[inside])
        comps.append(vals)
    return SampledSignal(grid=f.grid, components=tuple(comps))


# ---------------------------------------------------------------------------
# time-frequency plane fields


@dataclass(frozen=True)
class Region:
    """Rectangular sampling region [-x_half, x_half] x [-xi_half, xi_half]."""

    x_half: float
    xi_half: float
    x_step: float
    xi_step: float

    def __post_init__(self):
        for v in (self.x_half, self.xi_half, self.x_step, self.xi_step):
            if v <= 0:
                raise ValueError("region parameters must be positive")

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
    if d < 0 or step <= 0:
        raise ValueError("default_region needs d >= 0 and step > 0")
    root = math.sqrt(2 * d + 1)
    x_half = 2.0 * root + 5.0 if d >= WIDE_REGION_DEGREE else root + 8.0
    xi_half = x_half / TWO_PI + 1.0
    return Region(x_half=math.ceil(x_half / step) * step,
                  xi_half=math.ceil(xi_half / step) * step,
                  x_step=step, xi_step=step)


@dataclass(frozen=True, eq=False)
class SampledField:
    """Real or complex field on the time-frequency plane, indexed (x, xi)."""

    x_axis: np.ndarray
    xi_axis: np.ndarray
    values: np.ndarray
    flags: tuple = field(default=(), compare=False)

    def __post_init__(self):
        if self.values.shape != (self.x_axis.size, self.xi_axis.size):
            raise ValueError("field dimensions do not match axes")

    @property
    def x_step(self) -> float:
        return float(self.x_axis[1] - self.x_axis[0])

    @property
    def xi_step(self) -> float:
        return float(self.xi_axis[1] - self.xi_axis[0])


def field_l2(f: SampledField) -> float:
    return math.sqrt(f.x_step * f.xi_step * float(np.sum(np.abs(f.values) ** 2)))


def check_region_capacity(window: VectorWindow, region: Region) -> None:
    """CapacityError unless the window's grid holds every time shift of the
    window across the region and resolves every modulation in it (Nyquist)."""
    grid = window.grid
    if region.x_half + _window_support(window) > grid.half_width + grid.step:
        raise CapacityError("region time extent exceeds grid capacity")
    grid.check_nyquist(float(region.xi_axis[-1]), max(window.indices),
                       window.dilation)


def stft(window: VectorWindow, g: SampledSignal, region: Region) -> SampledField:
    """V_w g(x, xi) = <g, T_x M_xi w> sampled over the region."""
    if g.grid != window.grid:
        raise ValueError("signal and window live on different grids")
    check_region_capacity(window, region)
    grid = window.grid
    x_axis = region.x_axis
    xi_axis = region.xi_axis
    t = grid.points
    B = np.exp(-1j * TWO_PI * np.outer(xi_axis, t))  # (n_xi, N)
    out = np.empty((x_axis.size, xi_axis.size), dtype=complex)
    gstack = np.vstack(g.components)  # (c, N)
    chunk = 64
    for start in range(0, x_axis.size, chunk):
        xs = x_axis[start:start + chunk]
        U = np.empty((t.size, xs.size), dtype=complex)
        for j, xv in enumerate(xs):
            table = dilated_hermite_all(max(window.indices), window.dilation, t - xv)
            wshift = table[list(window.indices)]
            U[:, j] = np.einsum("cn,cn->n", gstack, wshift)
        block = (B @ U).T  # (chunk, n_xi)
        block *= np.exp(1j * TWO_PI * np.outer(xs, xi_axis))
        out[start:start + xs.size] = block
    out *= grid.step
    return SampledField(x_axis=x_axis, xi_axis=xi_axis, values=out)


# ---------------------------------------------------------------------------
# field export

FIELD_MAGIC = b"TFFIELD1"


def field_to_csv(f: SampledField, path) -> None:
    """Rows x, xi, re, im with 17 significant digits."""
    nx, nxi = f.values.shape
    X = np.repeat(f.x_axis, nxi)
    XI = np.tile(f.xi_axis, nx)
    flat = f.values.ravel()
    data = np.column_stack([X, XI, flat.real, flat.imag])
    np.savetxt(path, data, delimiter=",", fmt="%.17g",
               header="x,xi,re,im", comments="")


def field_to_binary(f: SampledField, path) -> None:
    """16-byte header (magic + dims) then x axis, xi axis, complex values."""
    with open(path, "wb") as fh:
        fh.write(FIELD_MAGIC)
        fh.write(struct.pack("<II", f.x_axis.size, f.xi_axis.size))
        fh.write(np.ascontiguousarray(f.x_axis, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(f.xi_axis, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(f.values, dtype="<c16").tobytes())


def field_from_binary(path) -> SampledField:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != FIELD_MAGIC:
            raise ValueError("not a TFFIELD1 dump")
        nx, nxi = struct.unpack("<II", fh.read(8))
        x = np.frombuffer(fh.read(8 * nx), dtype="<f8")
        xi = np.frombuffer(fh.read(8 * nxi), dtype="<f8")
        vals = np.frombuffer(fh.read(16 * nx * nxi), dtype="<c16").reshape(nx, nxi)
    return SampledField(x_axis=x, xi_axis=xi, values=vals.copy())
