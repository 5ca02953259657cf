"""Constructive frame certificates from oscillation of the ambiguity function.

The chain: F = V_f f is the reproducing kernel of the transform range under
twisted convolution (G = G # F there). For G in the range, z = lambda +
delta and u the displacement from lambda,

    |G(z) e^{i phi} - G(lambda)|
        <= int |G(lambda - u)| |F(u + delta) e^{-i pi sigma(u, delta)} - F(u)| du

with a phase phi that depends on (lambda, delta) alone. So the oscillation
that controls every G in the range is the twisted one, on the Heisenberg
group,

    osc#_r F(u) = sup_{|delta| < r} |F(u + delta) e^{-i pi sigma(u, delta)} - F(u)|,

and a ratio R# = ||osc#_r F||_1 < 1 at r = ||M|| certifies the two-sided
sampling estimate (Fuehr & Groechenig, Math. Z. 255, 2007; Feichtinger &
Groechenig, J. Funct. Anal. 86, 1989), hence frame bounds

    A_cert = (1 - R#)^2 / |det M|,   B_cert = (1 + R#)^2 / |det M|

for any window with orthonormal components.

What is computed is an estimate of that bracket, not a guarantee. R is the
Euclidean oscillation sup |F(u + delta) - F(u)|, which leaves the phase out
and is smaller than the twisted one wherever F(u + delta) F(u) > 0, and it
is sampled on the region's grid, which understates the continuous
oscillation. ``Certificate`` applies the formulas above to that R.

F of a Hermite window is computed in closed form, as a sum of Laguerre
functions (see ``ambiguity``); R is computed from the running maxima of the
real field F and of -F over the oscillation disc, since F - min_D F is
F + max_D(-F) bit for bit (see ``oscillation``). Each running max is a
contiguous 1-D pass over a flat buffer in which every row of the field is
followed by guard cells of -inf, as many as the disc's widest half-width,
so that shifts along both axes are shifts of the flat buffer (see
``_oscillation``). The certificate evaluates F and R on one quadrant of the
plane and folds their sums by symmetry (see ``certificate``). A field costs
its quadrant's nodes times the window's Laguerre steps, which
FIELD_WORK_BUDGET bounds (see ``check_field_work``).

Only the radius r depends on the lattice. F on the quadrant, its
boundary-decay check, its total variation and the box that holds its
numerical support (|F| > SUPPORT_TOL of its maximum) depend on the window
and the region alone, so they are computed once per window and region and
kept in a small cache (see ``_window_field``). A lattice enters R only
through its disc, the grid offsets closer than r, which the rank of r^2
among the squared offset distances names. Each disc costs one oscillation,
on the support box widened by twice the disc's reach on each axis, and a
fold: outside that box the oscillation is at most 2 SUPPORT_TOL max|F|, so
R moves by at most 2 SUPPORT_TOL max|F| times the region's area (see
``certificate``). Its R is kept, one float a disc, with the window's field.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, PreconditionError, ResolutionError
from .hermite import VectorWindow, rescale_large
from .lattice import LatticeMatrix, box_norm, covolume
from .timefreq import (TWO_PI, Region, SampledField, _dilated_region,
                       _stretched_region)
# not called here: perfbench/tracing.py wraps hermgabor.certify.stft (with
# ambiguity and osc_l1), so the name must stay bound in this module
from .timefreq import stft  # noqa: F401

BOUNDARY_DECAY_TOL = 1e-8
# F is taken as zero where |F| <= SUPPORT_TOL max|F|: the oscillation runs on
# the box beyond which it is, widened by the disc
SUPPORT_TOL = 2.0 ** -100
# step, in units of x at dilation 1, of the profile of F that sizes the
# default region of a window other than (h_0,...,h_d)
_PROFILE_STEP = 1.0 / 64.0
# points per block of the Laguerre recurrence: a block's few state arrays
# stay in a core's L2 cache through all of its steps
_FIELD_BLOCK = 32768
# windows (with their regions) whose certificate fields are kept: a whole
# ladder d = 0..7 of one region
_FIELD_CACHE_SIZE = 8
# quadrant nodes times Laguerre steps one certificate field may cost. A
# node-step takes 4-5 ns on a 2-vCPU x86 host, so this is ~5 s of work: the
# default region at step 1/16 fits it up to d = 1626, 14 times the work of
# d = 400 (6.9e7) and a third of that of d = 3000 (3.3e9, ~15-40 s)
FIELD_WORK_BUDGET = 10 ** 9


def certification_window(d: int, region: Region = None) -> VectorWindow:
    """The window (h_0,...,h_d). A window needs no grid, so ``region`` is
    unused; it stays because perfbench/workloads.py passes it."""
    return VectorWindow(tuple(range(d + 1)))


def check_field_work(w: VectorWindow, region: Region) -> None:
    """BudgetError when the window's certificate field on the region, its
    quadrant's nodes (the region's axes from the node before 0 on) times the
    max index + 1 steps of the Laguerre recurrence, exceeds
    FIELD_WORK_BUDGET."""
    nodes = ((round(region.x_half / region.x_step) + 2)
             * (round(region.xi_half / region.xi_step) + 2))
    steps = max(w.indices) + 1
    if nodes * steps > FIELD_WORK_BUDGET:
        raise BudgetError(
            f"certificate field of {nodes} nodes x {steps} Laguerre steps "
            f"exceeds work budget {FIELD_WORK_BUDGET}")


def _laguerre_field(w: VectorWindow, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """F of the window on the grid x by xi: the sum of l_n(s) over its
    indices (see ``ambiguity``).

    The three-term recurrence runs on L_n(s) = e^{s/2} l_n(s), since e^{-s/2}
    underflows where l_n is not negligible. ``rescale_large`` keeps L_n in
    the floats, and e^{-s/2} times the scale it kept is applied to the
    sum. Every step acts point by point, so the recurrence runs over blocks
    of rows of about _FIELD_BLOCK points, each kept in cache for all its
    steps, and gives the same field bit for bit."""
    a = abs(w.dilation)
    sx, sxi = x * x / (2.0 * a), a * (TWO_PI * xi) ** 2 / 2.0
    counts = np.bincount(w.indices)
    values = np.empty((sx.size, sxi.size))
    rows = max(_FIELD_BLOCK // max(sxi.size, 1), 1)
    for start in range(0, sx.size, rows):
        block = slice(start, start + rows)
        values[block] = _laguerre_sum(counts, np.add.outer(sx[block], sxi))
    return values


def _laguerre_sum(counts: np.ndarray, s: np.ndarray) -> np.ndarray:
    """sum_n counts[n] l_n(s), by the rescaled recurrence on L_n(s)."""
    log_scale = -0.5 * s
    values = np.zeros_like(s)
    ell_prev, ell = 0.0, np.ones_like(s)
    for n, count in enumerate(counts):
        if count:
            values += count * ell
        if n + 1 < counts.size:
            ell_next = (2 * n + 1) - s
            ell_next *= ell
            ell_next -= n * ell_prev
            ell_next /= n + 1
            ell_prev, ell = ell, ell_next
            rescale_large(log_scale, ell, ell_prev, values)
    values *= np.exp(log_scale)
    return values


def _window_region(w: VectorWindow) -> Region:
    """The default certificate region of the window, at step 1/16.

    For the window (h_{0,a},...,h_{d,a}), in any order, it is
    ``default_region(d)`` stretched for the dilation a. For any other
    indices the time half L_x is read off the profile of F at a = 1 along
    x, sampled every _PROFILE_STEP: the first sample beyond the last one
    where |F| exceeds half of BOUNDARY_DECAY_TOL F(0), and F(0) is F's
    maximum (|l_n| <= l_n(0) = 1). That edge lies in the tail of the
    largest index's l_N, past its last zero, where |F| only decays, so the
    region's boundary ring holds |F| below BOUNDARY_DECAY_TOL of its
    maximum. The region is then stretched as ``default_region``'s is."""
    if sorted(w.indices) == list(range(len(w.indices))):
        return _dilated_region(w.degree, w.dilation)
    counts = np.bincount(w.indices)
    # l_N turns from oscillation to decay at s = 4N + 2, x = sqrt(8N + 4);
    # the profile runs to twice that and 12 more (the boundary check still
    # guards the region)
    x = np.arange(0.0, 2.0 * math.sqrt(8 * counts.size - 4) + 12.0, _PROFILE_STEP)
    profile = np.abs(_laguerre_sum(counts, x * x / 2.0))
    last = np.flatnonzero(profile > 0.5 * BOUNDARY_DECAY_TOL * counts.sum())[-1]
    return _stretched_region(float(x[last]) + _PROFILE_STEP, w.dilation)


def ambiguity(w: VectorWindow, region: Region = None) -> SampledField:
    """Ambiguity function of the vector window over the region grid (by
    default the window's ``_window_region``).

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
    quadrant x, xi >= 0 and unfolded. Nothing is sampled on the real line,
    so every window is evaluated on every region.
    """
    if region is None:
        region = _window_region(w)
    x, xi = region.x_axis, region.xi_axis
    nx, nxi = x.size // 2, xi.size // 2
    quadrant = _laguerre_field(w, x[nx:], xi[nxi:])
    # node i of an axis (i = -n..n) is node |i| of the quadrant's
    mirror = np.ix_(np.abs(np.arange(-nx, nx + 1)),
                    np.abs(np.arange(-nxi, nxi + 1)))
    return SampledField(x_axis=x, xi_axis=xi, values=quadrant[mirror])


def _disc_rows(hx: float, hxi: float, r: float, shape: tuple) -> list:
    """[(di, w)] for di = 0, 1, ...: the grid offsets (di, dj) with
    (di*hx)^2 + (dj*hxi)^2 < r^2 are those with |dj| <= w, on rows +-di.
    Only offsets that pair two nodes of a field of this shape are listed:
    di < shape[0] and w at most shape[1] - 1."""
    nx, nxi = shape
    rows = []
    di = 0
    while di < nx and (di * hx) ** 2 < r * r:
        w = 0
        while w + 1 < nxi and (di * hx) ** 2 + ((w + 1) * hxi) ** 2 < r * r:
            w += 1
        rows.append((di, w))
        di += 1
    return rows


def _squares(hx: float, hxi: float, rows: list, shape: tuple) -> list:
    """The table that names discs (see ``certificate``): the distinct
    squared offset distances of the shape below a bound, sorted, then the
    bound, the nearer of the first row and column past the disc ``rows``."""
    reach = len(rows), rows[0][1] + 1
    bound = min([(k * h) ** 2 for k, n, h in zip(reach, shape, (hx, hxi)) if k < n],
                default=math.inf)
    squares = {(i * hx) ** 2 + (j * hxi) ** 2
               for i in range(reach[0]) for j in range(reach[1])}
    return sorted(v for v in squares if v < bound) + [bound]


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
    F(p) + max_D(-F)). D(p) is a stack of rows |dj| <= w(di), so running
    maxima of F, and of -F, over xi-windows of half-width w = 0, 1, ... are
    folded into the disc maxima, each row offset at its own half-width.
    Rounding is monotone, so the result equals the sup of the rounded
    |F(p) - F(q)|.
    """
    values = F.values
    if np.iscomplexobj(values):
        raise ValueError("oscillation needs a real field")
    hx, hxi = F.x_step, F.xi_step
    check_resolution(r, hx, hxi)
    rows = _disc_rows(hx, hxi, r, values.shape)
    return SampledField(x_axis=F.x_axis.copy(), xi_axis=F.xi_axis.copy(),
                        values=_oscillation(values, rows))


def _oscillation(values: np.ndarray, rows: list) -> np.ndarray:
    """The values of ``oscillation`` for the disc rows [(di, w)] that
    ``_disc_rows`` gives for the field: the grid steps enter only through
    them.

    Every running max is one contiguous 1-D call on a flat buffer: each row
    of the field is followed by w_0 = rows[0][1] guard cells of -inf, w_0
    the widest half-width, so a shift by k <= w_0 along xi is a shift by k
    of the flat buffer, whose wrap from one row into the next reads only
    guards, and a shift by di along x is a shift by di (nxi + w_0). The min
    side is the max side of -F: negation is exact, so F + max_D(-F) is
    F - min_D F bit for bit."""
    nx, nxi = values.shape
    width = nxi + rows[0][1]
    size = nx * width
    field = np.empty((nx, width))
    field[:, nxi:] = -np.inf
    flat = field.reshape(-1)
    run, disc = np.empty(size), np.empty(size)
    for negated in (False, True):
        # the max side of F, then that of -F, through the same buffers
        if negated:
            np.negative(values, out=field[:, :nxi])
        else:
            field[:, :nxi] = values
        np.copyto(run, flat)
        np.copyto(disc, flat)
        reach = 0
        # half-widths are nonincreasing in di: visit the rows widest last
        for di, w in rows[::-1]:
            for k in range(reach + 1, w + 1):
                np.maximum(run[k:], flat[:size - k], out=run[k:])
                np.maximum(run[:size - k], flat[k:], out=run[:size - k])
            reach = w
            s = di * width
            np.maximum(disc[s:], run[:size - s], out=disc[s:])
            if s:
                np.maximum(disc[:size - s], run[s:], out=disc[:size - s])
        top = disc.reshape(nx, width)[:, :nxi]
        if negated:
            np.add(values, top, out=top)
            np.maximum(osc, top, out=osc)
        else:
            osc = top - values
    return osc


def osc_l1(F: SampledField, r: float) -> float:
    """Riemann L1 norm of the oscillation field; the ratio R(r)."""
    osc = oscillation(F, r)
    return float(F.x_step * F.xi_step * np.sum(osc.values))


@dataclass(frozen=True)
class Certificate:
    """Frame-bound interval (1 -+ R)^2 / |det M| from a measured oscillation
    ratio R. An estimate, not a guarantee: the sampling theorem bounds the
    twisted oscillation of the continuous F, and R is the Euclidean one
    sampled on the grid (see the module docstring).

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


def _decay(values: np.ndarray) -> tuple:
    """(ring, support) of F on the quadrant: the largest |F| on its outer row
    and column relative to max|F|, and its last row and column where |F|
    exceeds SUPPORT_TOL max|F|."""
    magnitude = np.abs(values)
    vmax = magnitude.max()
    ring = max(magnitude[-1].max(), magnitude[:, -1].max()) / vmax
    held = magnitude > SUPPORT_TOL * vmax
    return ring, tuple(int(np.flatnonzero(held.any(axis=axis))[-1])
                       for axis in (1, 0))


@functools.lru_cache(maxsize=_FIELD_CACHE_SIZE)
def _window_field(w: VectorWindow, region: Region) -> tuple:
    """The certificate's part that does not depend on the lattice:
    (F, tv, support, ratios, squares), the ambiguity field of w on the
    region's quadrant plus the row and column across the axes (read-only),
    its total variation over the region, the last row and column of F where
    |F| exceeds SUPPORT_TOL of its maximum, and the dict and the table
    (``_squares``, empty below 0) in which ``certificate`` keeps R per disc;
    PreconditionError when the region cuts F off (|F| > BOUNDARY_DECAY_TOL
    max|F| on its boundary).

    Kept for the last _FIELD_CACHE_SIZE windows and regions, which are
    frozen values; an exception is not kept, so a region that cuts F off
    fails on every call. BudgetError before any work when the field
    exceeds the work budget (``check_field_work``)."""
    check_field_work(w, region)
    x, xi = (axis[axis.size // 2 - 1:] for axis in (region.x_axis, region.xi_axis))
    values = _laguerre_field(w, x, xi)
    ring, support = _decay(values)
    if ring > BOUNDARY_DECAY_TOL:
        raise PreconditionError(
            f"ambiguity function does not decay below {BOUNDARY_DECAY_TOL} at "
            f"the region boundary (relative ring maximum {ring:.3g})")
    F = SampledField(x_axis=x, xi_axis=xi, values=values)
    gx, gxi = np.gradient(values, F.x_step, F.xi_step)
    tv = F.x_step * F.xi_step * _fold(np.abs(gx) + np.abs(gxi))
    for array in (x, xi, values):
        array.flags.writeable = False
    return F, tv, support, {}, [0.0]


def certificate(w: VectorWindow, M: LatticeMatrix,
                region: Region = None) -> Certificate:
    """Oscillation certificate for G(w, M(Z^2)) at radius r = ||M||, from
    the ambiguity field of the orthonormal window w over the region (default
    ``_window_region(w)``); PreconditionError when the region cuts that field
    off (its boundary values exceed BOUNDARY_DECAY_TOL of its maximum).

    F is even in x and in xi (see ``ambiguity``), so F, its oscillation and
    its gradient are evaluated on the quadrant x, xi >= 0 plus the row and
    column across the axes that the gradient's central differences there
    read, and their region sums are folded from the quadrant. Mirroring a
    disc neighbour of a quadrant node across an axis moves it no farther
    from that node, so the disc needs no wider margin. By symmetry the
    quadrant's outer row and column hold the whole boundary ring. F and its
    total variation come from ``_window_field``, once per window and
    region; only the oscillation depends on M.

    The oscillation runs on the quadrant's rows and columns up to the last
    ones where |F| > tau = SUPPORT_TOL max|F|, plus twice the disc's reach
    on each axis: 2 len(rows) more rows and 2 (w_0 + 1) more columns, w_0
    the half-width of the disc's row di = 0. A node within r of that
    support box sees its whole disc there, so its oscillation is exact.
    Every other node's disc holds only values |F| <= tau, so its
    oscillation is at most 2 tau; the view truncates it (lower, never
    negative) or leaves it out (zero). Hence R is within 2 tau times the
    region's area, its node count times x_step * xi_step, of the whole
    quadrant's R: 2e-27 for max|F| = 3 on a 20 x 20 region. A region that
    ends inside the support, as every default region does, is not cut, and
    R is the whole quadrant's to the last bit.

    R depends on M only through the disc of radius r, and the view is sized
    from the disc, so R is a function of the window, the region and the
    disc. It holds the offsets whose squared distance (i*hx)^2 + (j*hxi)^2,
    computed as ``_disc_rows`` computes it, is below r^2, so the rank of r^2
    among those distances names it. The window's ``_window_field`` entry
    keeps R under that rank, one float per disc requested, and the distances
    out to the widest disc requested in a sorted table, complete below its
    last entry, so a hit is one bisect and one dict lookup. An r^2 past that
    entry ranks past every rank kept, so it misses, and its disc extends the
    table. Both are dropped with their entry, and a request that raises
    stores nothing.
    """
    _check_orthonormal(w)
    if region is None:
        region = _window_region(w)
    r = box_norm(M)
    check_resolution(r, region.x_step, region.xi_step)
    F, tv, support, ratios, squares = _window_field(w, region)
    hx, hxi = F.x_step, F.xi_step   # the region's: x[0] = -x_step, x[1] = 0
    r2 = r * r
    R = ratios.get(bisect.bisect_left(squares, r2))
    if R is None:
        rows = _disc_rows(hx, hxi, r, F.values.shape)
        view = F.values[:support[0] + 2 * len(rows) + 1,
                        :support[1] + 2 * (rows[0][1] + 1) + 1]
        R = hx * hxi * _fold(_oscillation(view, rows))
        if not r2 <= squares[-1]:
            squares[:] = _squares(hx, hxi, rows, F.values.shape)
        ratios[bisect.bisect_left(squares, r2)] = R
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
    # JSON has no inf or NaN: a float past the floats is written null
    return json.dumps({k: v if not isinstance(v, float) or math.isfinite(v) else None
                       for k, v in record.items()}, indent=2, allow_nan=False)


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
