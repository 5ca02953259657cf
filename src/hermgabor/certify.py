"""Constructive frame certificates from oscillation of the ambiguity function.

The chain: F = V_f f is the reproducing kernel of the transform range under
twisted convolution (G = G # F there), oscillation of F controls oscillation
of every G in the range, and an oscillation ratio R = ||osc_r(F)||_1 < 1 at
r = ||M|| certifies the two-sided sampling estimate, hence frame bounds

    A_cert = (1 - R)^2 / |det M|,   B_cert = (1 + R)^2 / |det M|

for any window with orthonormal components.

F of a Hermite window is computed in closed form, as a sum of Laguerre
functions (see ``ambiguity``); R is computed from the running maxima and
minima of the real field over the oscillation disc (see ``oscillation``).
The certificate evaluates both on one quadrant of the plane and folds their
sums by symmetry (see ``certificate``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, ResolutionError
from .grid import DEFAULT_STEP, GridSpec
from .hermite import VectorWindow, window_from_indices
from .lattice import LatticeMatrix, box_norm, covolume
from .timefreq import (TWO_PI, Region, SampledField, check_region_capacity,
                       default_region)
# not called here: perfbench/tracing.py wraps hermgabor.certify.stft (with
# ambiguity and osc_l1), so the name must stay bound in this module
from .timefreq import stft  # noqa: F401

BOUNDARY_DECAY_TOL = 1e-8
# columns this far (relatively) below the field maximum cannot move any
# float64 digit of the result
NEGLIGIBLE_COLUMN = 1e-200


def certification_grid(d: int, region: Region = None) -> GridSpec:
    """Real-line grid wide enough to shift (h_0..h_d) across the region."""
    if region is None:
        region = default_region(d)
    half = region.x_half + math.sqrt(2 * d + 1) + 8.0
    grid = GridSpec(step=DEFAULT_STEP, count=int(math.ceil(2.0 * half / DEFAULT_STEP)))
    grid.check_nyquist(region.xi_half, d)
    return grid


def certification_window(d: int, region: Region = None) -> VectorWindow:
    """The window (h_0,...,h_d) on a grid sized by ``certification_grid``."""
    return window_from_indices(range(d + 1), certification_grid(d, region))


def _laguerre_field(w: VectorWindow, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """F of the window on the grid x by xi: the sum of l_n(s) over its
    indices, by the three-term recurrence (see ``ambiguity``)."""
    a = abs(w.dilation)
    u, v = x * x / (2.0 * a), a * (TWO_PI * xi) ** 2 / 2.0   # s = u + v
    s = np.add.outer(u, v)
    counts = np.bincount(w.indices)
    values = np.zeros_like(s)
    ell_prev, ell = 0.0, np.multiply.outer(np.exp(-0.5 * u), np.exp(-0.5 * v))
    for n, count in enumerate(counts):
        if count:
            values += count * ell
        if n + 1 < counts.size:
            ell_next = (2 * n + 1) - s
            ell_next *= ell
            ell_next -= n * ell_prev
            ell_next /= n + 1
            ell_prev, ell = ell, ell_next
    return values


def ambiguity(w: VectorWindow, region: Region = None) -> SampledField:
    """Ambiguity function of the vector window over the region grid.

    Values carry the symmetric time-frequency gauge, F(x,xi) =
    e^{-i*pi*x*xi} <f, T_x M_xi f>: in this gauge (and only in it) the range
    of the transform is reproduced by twisted convolution with F, which is
    the identity the certificate chain rests on. There the ambiguity
    function of h_{n,a} is the Laguerre function l_n(s) = e^{-s/2} L_n(s) of
    s = (x^2/a + a*(2*pi*xi)^2)/2 (Thangavelu, Lectures on Hermite and
    Laguerre Expansions, 1993, ch. 1; DLMF 18.9), so F is the real sum of
    l_n over the window's indices, evaluated by the three-term recurrence
    (n+1) l_{n+1} = (2n+1-s) l_n - n l_{n-1}. F depends on x^2 and xi^2
    only and the region's axes are symmetric, so F is evaluated on the
    quadrant x, xi >= 0 and unfolded. The region must fit the window's grid
    as for ``stft`` (CapacityError otherwise).
    """
    if region is None:
        region = default_region(w.degree)
    check_region_capacity(w, region)
    x, xi = region.x_axis, region.xi_axis
    nx, nxi = x.size // 2, xi.size // 2
    quadrant = _laguerre_field(w, x[nx:], xi[nxi:])
    # node i of an axis (i = -n..n) is node |i| of the quadrant's
    mirror = np.ix_(np.abs(np.arange(-nx, nx + 1)),
                    np.abs(np.arange(-nxi, nxi + 1)))
    return SampledField(x_axis=x, xi_axis=xi, values=quadrant[mirror])


def _check_boundary_decay(values: np.ndarray, name: str, edges=(0, -1)) -> None:
    """PreconditionError unless the field's rows and columns at ``edges``
    stay below BOUNDARY_DECAY_TOL of its maximum."""
    a = np.abs(values)
    vmax = float(a.max())
    ring = max(a[list(edges), :].max(), a[:, list(edges)].max())
    if ring > BOUNDARY_DECAY_TOL * vmax:
        raise PreconditionError(
            f"{name} does not decay below {BOUNDARY_DECAY_TOL} at the region "
            f"boundary (relative ring maximum {ring / vmax:.3g})")


def twisted_convolve(G: SampledField, F: SampledField) -> SampledField:
    """(G # F)(x,xi) = sum G(x',xi') F(x-x', xi-xi') e^{i*pi*(x*xi' - x'*xi)} h^2.

    The symplectic phase splits as e^{i*pi*x*xi'} * e^{-i*pi*x'*xi}, so for
    each source column xi' the remaining sum is an ordinary convolution in x
    of a chirped copy of that column against the rows of F; those are done
    with FFTs, which reproduces the direct Riemann sum to rounding.
    """
    if G.values.shape != F.values.shape or \
            not np.allclose(G.x_axis, F.x_axis) or \
            not np.allclose(G.xi_axis, F.xi_axis):
        raise ValueError("twisted convolution requires identical axes")
    _check_boundary_decay(G.values, "first field")
    _check_boundary_decay(F.values, "second field")
    x = G.x_axis
    xi = G.xi_axis
    nx, nxi = G.values.shape
    hx, hxi = G.x_step, G.xi_step
    ic = int(np.argmin(np.abs(x)))   # index of x = 0
    jc = int(np.argmin(np.abs(xi)))  # index of xi = 0
    nfft = 2 * nx

    W = np.exp(-1j * math.pi * np.outer(x, xi))     # e^{-i pi x' xi}
    Fhat = np.fft.fft(F.values, n=nfft, axis=0)     # per xi column
    out = np.zeros((nx, nxi), dtype=complex)
    gmax = float(np.max(np.abs(G.values)))
    col_max = np.max(np.abs(G.values), axis=0)
    for j in range(nxi):
        if col_max[j] <= NEGLIGIBLE_COLUMN * gmax:
            continue
        U = G.values[:, j][:, None] * W             # (nx, nxi)
        Uhat = np.fft.fft(U, n=nfft, axis=0)
        # output column i_xi needs F column i_xi - (j - jc)
        s = j - jc
        Fsh = np.zeros((nfft, nxi), dtype=complex)
        if s >= 0:
            Fsh[:, s:] = Fhat[:, :nxi - s]
        else:
            Fsh[:, :nxi + s] = Fhat[:, -s:]
        conv = np.fft.ifft(Uhat * Fsh, axis=0)[ic:ic + nx, :]
        out += np.exp(1j * math.pi * xi[j] * x)[:, None] * conv
    out *= hx * hxi
    return SampledField(x_axis=x.copy(), xi_axis=xi.copy(), values=out)


def _disc_rows(hx: float, hxi: float, r: float) -> list:
    """[(di, w)] for di = 0, 1, ...: the grid offsets (di, dj) with
    (di*hx)^2 + (dj*hxi)^2 < r^2 are those with |dj| <= w, on rows +-di."""
    rows = []
    di = 0
    while (di * hx) ** 2 < r * r:
        w = 0
        while (di * hx) ** 2 + ((w + 1) * hxi) ** 2 < r * r:
            w += 1
        rows.append((di, w))
        di += 1
    return rows


def check_resolution(r: float, hx: float, hxi: float) -> None:
    """ResolutionError when the disc of radius r holds no grid neighbour."""
    if not r > min(hx, hxi):
        raise ResolutionError(
            f"radius {r} is below the grid resolution ({hx} x {hxi}); "
            "the discrete ball contains no neighbor")


def oscillation(F: SampledField, r: float) -> SampledField:
    """Pointwise sup of |F(p) - F(q)| over grid nodes q of the field within
    distance < r of p, for a real field (ValueError for a complex one).

    Over the disc D(p) (p included) the sup is max(max_D F - F(p),
    F(p) - min_D F). D(p) is a stack of rows |dj| <= w(di), so running max
    and min of F over xi-windows of half-width w = 0, 1, ... are folded into
    the disc max and min, each row offset at its own half-width. Rounding is
    monotone, so the result equals the sup of the rounded |F(p) - F(q)|.
    """
    values = F.values
    if np.iscomplexobj(values):
        raise ValueError("oscillation needs a real field")
    hx, hxi = F.x_step, F.xi_step
    check_resolution(r, hx, hxi)
    nx, nxi = values.shape
    run_max, run_min = values.copy(), values.copy()
    disc_max, disc_min = values.copy(), values.copy()
    width = 0
    # half-widths are nonincreasing in di: visit the rows widest last
    for di, w in reversed(_disc_rows(hx, hxi, r)):
        for k in range(width + 1, min(w, nxi - 1) + 1):
            for run, op in ((run_max, np.maximum), (run_min, np.minimum)):
                op(run[:, k:], values[:, :nxi - k], out=run[:, k:])
                op(run[:, :nxi - k], values[:, k:], out=run[:, :nxi - k])
        width = w
        for s in {di, -di}:
            if abs(s) >= nx:
                continue
            dst = slice(max(-s, 0), nx - max(s, 0))
            src = slice(max(s, 0), nx - max(-s, 0))
            np.maximum(disc_max[dst], run_max[src], out=disc_max[dst])
            np.minimum(disc_min[dst], run_min[src], out=disc_min[dst])
    disc_max -= values
    np.subtract(values, disc_min, out=disc_min)
    np.maximum(disc_max, disc_min, out=disc_max)
    return SampledField(x_axis=F.x_axis.copy(), xi_axis=F.xi_axis.copy(),
                        values=disc_max)


def osc_l1(F: SampledField, r: float) -> float:
    """Riemann L1 norm of the oscillation field; the ratio R(r)."""
    osc = oscillation(F, r)
    return float(F.x_step * F.xi_step * np.sum(osc.values))


@dataclass(frozen=True)
class Certificate:
    """Guaranteed frame-bound interval from a measured oscillation ratio.

    ``eps_disc`` is a reported additive discretization error bar
    (2 * step * TV(F) / |det M|); it is not folded into the bounds.
    """

    ratio: float
    matrix: LatticeMatrix
    window_degree: int
    eps_disc: float

    @property
    def radius(self) -> float:
        return box_norm(self.matrix)

    @property
    def valid(self) -> bool:
        return self.ratio < 1.0

    @property
    def A_cert(self) -> float:
        return (1.0 - self.ratio) ** 2 / covolume(self.matrix) if self.valid else 0.0

    @property
    def B_cert(self) -> float:
        return (1.0 + self.ratio) ** 2 / covolume(self.matrix)


def _check_orthonormal(w: VectorWindow) -> None:
    """h_{n,a} with distinct n are orthonormal; a repeated n is not."""
    if len(set(w.indices)) < len(w.indices):
        raise PreconditionError(
            f"window components are not orthonormal: repeated Hermite "
            f"index in {w.indices}")


def _fold(values: np.ndarray) -> float:
    """Sum over the region of a field even in x and in xi, from its quadrant
    values[1:, 1:] (axis row and column first): every node off an axis
    stands for its mirror images too."""
    quadrant = values[1:, 1:]
    wx, wxi = np.full(quadrant.shape[0], 2.0), np.full(quadrant.shape[1], 2.0)
    wx[0] = wxi[0] = 1.0
    return float(wx @ quadrant @ wxi)


def certificate(w: VectorWindow, M: LatticeMatrix,
                region: Region = None) -> Certificate:
    """Oscillation certificate for G(w, M(Z^2)) at radius r = ||M||, from
    the ambiguity field of the orthonormal window w over the region (default
    region when None); PreconditionError when the region cuts that field off
    (its boundary values exceed BOUNDARY_DECAY_TOL of its maximum).

    F is even in x and in xi (see ``ambiguity``), so F, its oscillation and
    its gradient are evaluated on the quadrant x, xi >= 0 plus the row and
    column across the axes that the gradient's central differences there
    read, and their region sums are folded from the quadrant. Mirroring a
    disc neighbour of a quadrant node across an axis moves it no farther
    from that node, so the disc needs no wider margin. By symmetry the
    quadrant's outer row and column hold the whole boundary ring.
    """
    _check_orthonormal(w)
    if region is None:
        region = default_region(w.degree)
    r = box_norm(M)
    check_resolution(r, region.x_step, region.xi_step)
    check_region_capacity(w, region)
    x, xi = (axis[max(axis.size // 2 - 1, 0):]
             for axis in (region.x_axis, region.xi_axis))
    F = SampledField(x_axis=x, xi_axis=xi, values=_laguerre_field(w, x, xi))
    _check_boundary_decay(F.values, "ambiguity function", edges=(-1,))
    h2 = F.x_step * F.xi_step   # the region's steps: x[0] = -x_step, x[1] = 0
    R = h2 * _fold(oscillation(F, r).values)
    gx, gxi = np.gradient(F.values, F.x_step, F.xi_step)
    tv = h2 * _fold(np.abs(gx) + np.abs(gxi))
    return Certificate(ratio=R, matrix=M, window_degree=w.degree,
                       eps_disc=2.0 * F.x_step * tv / covolume(M))


# ---------------------------------------------------------------------------
# serialization


def certificate_to_json(cert: Certificate) -> str:
    record = {
        "r": cert.radius,
        "R": cert.ratio,
        "A_cert": cert.A_cert,
        "B_cert": cert.B_cert,
        "valid": cert.valid,
        "eps_disc": cert.eps_disc,
        "det": cert.matrix.determinant,
        "d": cert.window_degree,
        "matrix": [[cert.matrix.m11, cert.matrix.m12],
                   [cert.matrix.m21, cert.matrix.m22]],
    }
    return json.dumps(record, indent=2)


def certificate_from_json(text: str) -> Certificate:
    """The certificate of the record's R, matrix, d and eps_disc; ValueError
    when the record's other fields disagree with it."""
    record = json.loads(text)
    cert = Certificate(ratio=record["R"],
                       matrix=LatticeMatrix.from_array(record["matrix"]),
                       window_degree=record["d"], eps_disc=record["eps_disc"])
    rebuilt = json.loads(certificate_to_json(cert))
    wrong = sorted(k for k, v in rebuilt.items() if record.get(k) != v)
    if wrong:
        raise ValueError(f"certificate fields disagree with R and the matrix: {wrong}")
    return cert
