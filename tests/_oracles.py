"""Independent test oracles shared by several test modules."""

import math

import numpy as np


def sampled_box_norm_oracle(A, rng, n_samples=10 ** 4):
    """Sampling + shrinking-grid edge refinement; independent of the vertex
    formula (the supremum of a convex function over the box sits on the
    boundary, and the clipped grid search converges to the edge maximum)."""
    raw = rng.uniform(-0.55, 0.55, size=(n_samples, 2))
    pts = raw[np.max(np.abs(raw), axis=1) <= 0.5]
    best = float(np.max(np.linalg.norm(pts @ A.T, axis=1)))
    for fixed_axis in (0, 1):
        for side in (-0.5, 0.5):
            lo, hi = -0.5, 0.5
            for _ in range(25):
                s = np.linspace(lo, hi, 65)
                z = np.empty((s.size, 2))
                z[:, fixed_axis] = side
                z[:, 1 - fixed_axis] = s
                vals = np.linalg.norm(z @ A.T, axis=1)
                k = int(np.argmax(vals))
                best = max(best, float(vals[k]))
                w = (hi - lo) * 0.1
                lo, hi = max(-0.5, s[k] - w), min(0.5, s[k] + w)
    return best


def numpy_box_norm(M):
    """The box norm in numpy: max(||M (1/2, 1/2)||_2, ||M (1/2, -1/2)||_2)."""
    A = M.as_array()
    return float(max(np.linalg.norm(A @ np.array([0.5, 0.5])),
                     np.linalg.norm(A @ np.array([0.5, -0.5]))))


def lattice_matrix_error(*entries, scaled=True):
    """(type, message) of the error LatticeMatrix raises for the entries
    m11, m12, m21, m22, or None, by its field-by-field validation: each
    entry a finite float, then |det| > 1e-14 ||M||_F^2 on the matrix
    divided by the power of two at or below its largest entry (exactly, so
    that its products neither overflow nor underflow), or on the matrix
    itself when not ``scaled``."""
    values = []
    for entry in entries:
        value = float(entry)
        if not math.isfinite(value):
            return ValueError, "lattice matrix entries must be finite"
        values.append(value)
    top = max(map(abs, values))
    if scaled and top > 0:
        scale = 2.0 ** (math.frexp(top)[1] - 1)
        values = [v / scale for v in values]
    m11, m12, m21, m22 = values
    frob2 = sum(m * m for m in values)
    if not abs(m11 * m22 - m12 * m21) > 1e-14 * frob2:
        return ValueError, "lattice matrix must be invertible (|det| > 1e-14 ||M||_F^2)"
    return None


def region_error(x_half, xi_half, x_step, xi_step):
    """(type, message start) of the error Region raises, or None, by its
    validation with np.rint: each parameter finite and positive, each axis
    2 rint(half / step) + 1 nodes, at least 3, their product within the
    point budget (inf when half / step overflows)."""
    from hermgabor import BudgetError
    from hermgabor.lattice import DEFAULT_POINT_BUDGET

    for v in (x_half, xi_half, x_step, xi_step):
        if not 0 < v < math.inf:
            return ValueError, "region parameters must be finite and positive"
    nx, nxi = (2 * float(np.rint(half / step)) + 1
               for half, step in ((x_half, x_step), (xi_half, xi_step)))
    if min(nx, nxi) < 3:
        return ValueError, "region half must exceed half its step"
    if nx * nxi > DEFAULT_POINT_BUDGET:
        return BudgetError, f"region of {nx:.0f}x{nxi:.0f} samples exceeds"
    return None


def ellipse_norm(spec, g1, g2):
    """|alpha|, alpha = (g1/sqrt(a), 2 pi sqrt(a) g2) at the spec's dilation
    a: the spec's truncation ellipse is |alpha| <= spec.radius."""
    root_a = np.sqrt(spec.window_dilation)
    return np.hypot(g1 / root_a, 2 * np.pi * root_a * g2)


def ellipse_kmax(spec, A):
    """Half side of a square of coordinates k holding every point A k of the
    spec's truncation ellipse: with D = diag(1/sqrt(a), 2 pi sqrt(a)),
    ||k||_inf <= ||(DA)^{-1}||_2 |DAk| <= ||(DA)^{-1}||_2 spec.radius."""
    root_a = np.sqrt(spec.window_dilation)
    DA = np.diag([1.0 / root_a, 2 * np.pi * root_a]) @ A
    return int(np.ceil(spec.radius * np.linalg.norm(np.linalg.inv(DA), 2)))


def shift_pad(dilation):
    """How far past t/2 a grid for the dilated integrands h_{r,a}(x - t)
    h_{m,a}(x) reaches: ``frameop.SHIFT_PAD`` in the window's units, whose
    Gaussian tails e^{-x^2/(2a)} widen past dilation 1."""
    from hermgabor.frameop import SHIFT_PAD

    return SHIFT_PAD * max(math.sqrt(dilation), 1.0)


def hermite_grid(max_index, step=1 / 32, dilation=1.0, min_half_width=0.0):
    """The cell-centred grid at ``step`` over [-X, X], X the larger of
    ``min_half_width`` and the half-width past which h_{n,a}, n <=
    ``max_index``, a = ``dilation``, are below rounding: their oscillator
    support sqrt(2n+1) sqrt(a) plus 8 max(sqrt(a), 1), as their Gaussian
    tails e^{-x^2/(2a)} widen past dilation 1, and at least 12."""
    from hermgabor import GridSpec

    root_a = math.sqrt(abs(dilation))
    half = max(math.sqrt(2 * max_index + 1) * root_a + 8.0 * max(root_a, 1.0),
               12.0, min_half_width)
    return GridSpec(step=step, count=math.ceil(2.0 * half / step))


def modulated_grid(spec):
    """A grid for Riemann sums of the modulated integrands pi(gamma) w_i
    h_m of the dilated window, gamma in the spec's truncation ellipse: at
    the step of the Nyquist guard for modulations up to
    ``spec.freq_cutoff()`` (no coarser than 1/32, and CapacityError where it
    would have to be finer), out to half the time cutoff plus
    ``shift_pad``."""
    from hermgabor import DEFAULT_STEP, CapacityError
    from hermgabor.timefreq import nyquist_step

    K, a, cutoff = spec.galerkin_dim, spec.window_dilation, spec.freq_cutoff()
    step = nyquist_step(cutoff, K - 1, a)
    if step < DEFAULT_STEP:
        raise CapacityError(f"Nyquist guard violated at modulation {cutoff}")
    return hermite_grid(K - 1, step, a, 0.5 * spec.time_cutoff() + shift_pad(a))


def direct_frame_matrix(spec, grid=None):
    """Galerkin frame matrix summed term by term over the lattice M(Z^2):
    S[(i,m),(j,m')] = sum_gamma <pi(gamma) w_i, h_m> <h_m', pi(gamma) w_j>,
    pi(gamma) f(x) = e^{2 pi i gamma2 (x - gamma1)} f(x - gamma1), over the
    points of the spec's truncation ellipse, as Riemann sums on ``grid``
    (``modulated_grid(spec)`` by default)."""
    from hermgabor.hermite import dilated_hermite_all

    if grid is None:
        grid = modulated_grid(spec)
    x = grid.points
    a = spec.window_dilation
    K = spec.galerkin_dim
    idx = list(spec.indices)
    H = dilated_hermite_all(K - 1, a, x)
    A = spec.matrix.as_array()
    kmax = ellipse_kmax(spec, A)
    S = np.zeros((len(idx) * K,) * 2, dtype=complex)
    for k1 in range(-kmax, kmax + 1):
        # one row k1 of lattice coordinates at a time
        k2 = np.arange(-kmax, kmax + 1)
        gammas = np.column_stack([A[0, 0] * k1 + A[0, 1] * k2,
                                  A[1, 0] * k1 + A[1, 1] * k2])
        inside = ellipse_norm(spec, gammas[:, 0], gammas[:, 1]) <= spec.radius
        g1, g2 = gammas[inside, 0, None], gammas[inside, 1, None]
        shifted = dilated_hermite_all(max(idx), a, x - g1)[idx]   # (c, n, N)
        atoms = np.exp(2j * np.pi * g2 * (x - g1)) * shifted      # pi(gamma) w_i
        coeff = grid.step * (atoms.conj() @ H.T)   # <h_m, pi(gamma) w_i>, (c, n, K)
        rows = coeff.transpose(1, 0, 2).reshape(len(g1), S.shape[0])
        S += rows.conj().T @ rows
    return S


def shell_tail_bound(spec, grid=None):
    """``FrameBounds.tail_bound`` summed term by term over every point of the
    summed lattice in the outermost shell rho - 1 < |alpha| <= rho of the
    spec's truncation ellipse (``ellipse_norm``), with no symmetry used:
    sum |A_gamma|_F^2, A_gamma[i, m] = <h_m, pi(gamma) w_i>, on the direct
    side, and sum ||W_mu||_F ||E_mu||_F / |det M|, E_mu[a, b] = <pi(mu) h_a,
    h_b> and W_mu its window block, on the adjoint side; as Riemann sums on
    ``grid`` (``modulated_grid(spec)`` by default)."""
    from hermgabor.hermite import dilated_hermite_all
    from hermgabor.lattice import covolume

    if grid is None:
        grid = modulated_grid(spec)
    x = grid.points
    a = spec.window_dilation
    K = spec.galerkin_dim
    idx = list(spec.indices)
    H = dilated_hermite_all(K - 1, a, x)
    lattice = spec.summed_lattice
    adjoint = lattice != spec.matrix
    A = lattice.as_array()
    kmax = ellipse_kmax(spec, A)
    k1, k2 = (k.ravel() for k in np.meshgrid(np.arange(-kmax, kmax + 1),
                                             np.arange(-kmax, kmax + 1)))
    g1 = A[0, 0] * k1 + A[0, 1] * k2
    g2 = A[1, 0] * k1 + A[1, 1] * k2
    norm = ellipse_norm(spec, g1, g2)
    shell = (norm <= spec.radius) & (norm > spec.radius - 1.0)
    g1, g2 = g1[shell, None], g2[shell, None]
    phase = np.exp(2j * np.pi * g2 * (x - g1))
    if adjoint:
        atoms = phase * dilated_hermite_all(K - 1, a, x - g1)   # pi(mu) h_a, (K, n, N)
        E = grid.step * (atoms @ H.T)                           # E[a, p, b]
        W = E[idx][:, :, idx]
        terms = (np.sqrt(np.sum(np.abs(W) ** 2, axis=(0, 2)))
                 * np.sqrt(np.sum(np.abs(E) ** 2, axis=(0, 2))))
        return float(np.sum(terms)) / covolume(spec.matrix)
    atoms = phase * dilated_hermite_all(max(idx), a, x - g1)[idx]   # pi(gamma) w_i
    coeff = grid.step * (atoms.conj() @ H.T)
    return float(np.sum(np.abs(coeff) ** 2))


def oscillation_oracle(F, r):
    """Pointwise sup of |F(p) - F(q)| over grid nodes q != p of the field
    with (di*hx)^2 + (dj*hxi)^2 < r^2, one offset (di, dj) at a time; F may
    be complex. Offsets reaching past the field pair no nodes and are
    skipped."""
    hx, hxi = F.x_step, F.xi_step
    nx, nxi = F.values.shape
    dx_max = min(int(np.ceil(r / hx)), nx - 1)
    dj_max = min(int(np.ceil(r / hxi)), nxi - 1)
    out = np.zeros((nx, nxi))
    for di in range(-dx_max, dx_max + 1):
        for dj in range(-dj_max, dj_max + 1):
            if (di, dj) == (0, 0):
                continue
            if (di * hx) ** 2 + (dj * hxi) ** 2 >= r * r:
                continue
            s0, s1 = max(di, 0), max(-di, 0)
            t0, t1 = max(dj, 0), max(-dj, 0)
            a = F.values[s0:nx - s1, t0:nxi - t1]
            b = F.values[s1:nx - s0, t1:nxi - t0]
            view = out[s0:nx - s1, t0:nxi - t1]
            np.maximum(view, np.abs(a - b), out=view)
    return out


def full_field_certificate(w, M, region):
    """(R, eps_disc) of the certificate of window w on lattice M from the
    field over the whole region: ``ambiguity``, the L1 norm of its
    oscillation (``osc_l1``) and its total variation from ``np.gradient``
    with coordinate arrays, with no symmetry used."""
    from hermgabor import ambiguity, box_norm, covolume, osc_l1

    F = ambiguity(w, region)
    R = osc_l1(F, box_norm(M))
    gx, gxi = np.gradient(F.values, F.x_axis, F.xi_axis)
    tv = F.x_step * F.xi_step * float(np.sum(np.abs(gx) + np.abs(gxi)))
    return R, 2.0 * F.x_step * tv / covolume(M)


def hermite_operator_residual(n, grid, dilation=1.0):
    """Relative residual of x^2 h - a^2 h'' - |a|(2n+1) h, h = h_{n,a}, on
    the interior points of ``grid``, which must hold h's support (a grid
    from ``hermite_grid(max_index >= n, dilation=a)`` does). Second
    derivatives are centered differences; the two boundary points are left
    out of the norm. For dilation 1 this is the plain eigenrelation
    H h_n = (2n+1) h_n."""
    from hermgabor import dilated_hermite

    x = grid.points
    h = dilated_hermite(n, dilation, x)
    d2 = (h[2:] - 2.0 * h[1:-1] + h[:-2]) / grid.step ** 2
    a = abs(dilation)
    res = x[1:-1] ** 2 * h[1:-1] - a * a * d2 - a * (2 * n + 1) * h[1:-1]
    return float(np.linalg.norm(res) / np.linalg.norm(h[1:-1]))


def hermite_expression_form(n_max, x):
    """``hermite._hermite_all`` with each step of the three-term recurrence
    written as one whole-array expression: the same products in the same
    order, each into a fresh temporary."""
    from hermgabor.hermite import FAR_X, _hermite_all_far

    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + x.shape)
    out[0] = np.pi ** (-0.25) * np.exp(-0.5 * x * x)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for k in range(1, n_max):
        out[k + 1] = (np.sqrt(2.0 / (k + 1)) * x * out[k]
                      - np.sqrt(k / (k + 1.0)) * out[k - 1])
    far = np.abs(x) > FAR_X
    if far.any():
        out.reshape(n_max + 1, -1)[:, far.ravel()] = _hermite_all_far(n_max, x[far])
    return out


def complex_projection(mu, rows, a, x, step, H):
    """<pi(mu_p) h_{rows[r],a}, h_{m,a}> as complex sums with a direct
    phase, the dilated form of ``frameop._project``: P[p, r, m] = step *
    sum_x h_{rows[r],a}(x - mu1) e^{2 pi i mu2 (x - mu1)} h_{m,a}(x) against
    the dilated test basis H, shape (n, len(rows), K)."""
    from hermgabor.hermite import dilated_hermite_all

    xs = x[None, :] - mu[:, 0, None]                        # (n, N)
    table = dilated_hermite_all(max(rows), a, xs)           # (max+1, n, N)
    phase = np.exp(2j * np.pi * mu[:, 1, None] * xs)        # (n, N)
    V = table[list(rows)] * phase                           # (R, n, N)
    R, n = V.shape[:2]
    P = (V.reshape(R * n, x.size) @ H.T).reshape(R, n, H.shape[0])
    return step * P.transpose(1, 0, 2)


def assemble_frame_matrix(spec):
    """The library's Galerkin frame matrix as one Hermitian array in (i, m)
    order, from its two parity blocks; the entries between the two parity
    classes are exactly 0."""
    from hermgabor.frameop import _assemble

    classes, blocks, _ = _assemble(spec)
    dim = len(spec.indices) * spec.galerkin_dim
    S = np.zeros((dim, dim), dtype=complex)
    for cls, block in zip(classes, blocks):
        S[np.ix_(cls, cls)] = block
    return S


def twisted_convolve(G, F):
    """(G # F)(x,xi) = sum G(x',xi') F(x-x', xi-xi') e^{i*pi*(x*xi' - x'*xi)} h^2
    over two fields on the same axes; ValueError when the axes differ and
    PreconditionError when either field has not decayed below
    BOUNDARY_DECAY_TOL of its maximum on the outer rows and columns.

    The symplectic phase splits as e^{i*pi*x*xi'} * e^{-i*pi*x'*xi}, so for
    each source column xi' the remaining sum is an ordinary convolution in x
    of a chirped copy of that column against the rows of F; those are done
    with FFTs, which reproduces the direct Riemann sum to rounding. Source
    columns below 1e-200 of G's maximum cannot move a float64 digit of the
    result and are skipped."""
    from hermgabor import PreconditionError, SampledField
    from hermgabor.certify import BOUNDARY_DECAY_TOL

    if G.values.shape != F.values.shape or \
            not np.allclose(G.x_axis, F.x_axis) or \
            not np.allclose(G.xi_axis, F.xi_axis):
        raise ValueError("twisted convolution requires identical axes")
    for name, field in (("first field", G), ("second field", F)):
        a = np.abs(field.values)
        ring = max(a[[0, -1], :].max(), a[:, [0, -1]].max())
        if ring > BOUNDARY_DECAY_TOL * a.max():
            raise PreconditionError(f"{name} does not decay at the region boundary")
    x = G.x_axis
    xi = G.xi_axis
    nx, nxi = G.values.shape
    ic = int(np.argmin(np.abs(x)))   # index of x = 0
    jc = int(np.argmin(np.abs(xi)))  # index of xi = 0
    nfft = 2 * nx

    W = np.exp(-1j * np.pi * np.outer(x, xi))       # e^{-i pi x' xi}
    Fhat = np.fft.fft(F.values, n=nfft, axis=0)     # per xi column
    out = np.zeros((nx, nxi), dtype=complex)
    col_max = np.max(np.abs(G.values), axis=0)
    for j in range(nxi):
        if col_max[j] <= 1e-200 * col_max.max():
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
        out += np.exp(1j * np.pi * xi[j] * x)[:, None] * conv
    out *= G.x_step * G.xi_step
    return SampledField(x_axis=x.copy(), xi_axis=xi.copy(), values=out)
