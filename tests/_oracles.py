"""Independent test oracles shared by several test modules."""

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


def direct_frame_matrix(spec):
    """Galerkin frame matrix summed term by term over the lattice M(Z^2):
    S[(i,m),(j,m')] = sum_gamma <pi(gamma) w_i, h_m> <h_m', pi(gamma) w_j>,
    pi(gamma) f(x) = e^{2 pi i gamma2 (x - gamma1)} f(x - gamma1), over the
    points of the spec's truncation disc and box, as Riemann sums on its
    grid."""
    from hermgabor.hermite import dilated_hermite_all

    grid = spec.grid()
    x = grid.points
    a = spec.window_dilation
    K = spec.galerkin_dim
    idx = list(spec.indices)
    H = dilated_hermite_all(K - 1, a, x)
    A = spec.matrix.as_array()
    kmax = int(np.ceil(spec.radius * np.linalg.norm(np.linalg.inv(A), 2)))
    S = np.zeros((len(idx) * K,) * 2, dtype=complex)
    for k1 in range(-kmax, kmax + 1):
        # one row k1 of lattice coordinates at a time
        k2 = np.arange(-kmax, kmax + 1)
        gammas = np.column_stack([A[0, 0] * k1 + A[0, 1] * k2,
                                  A[1, 0] * k1 + A[1, 1] * k2])
        inside = ((np.hypot(gammas[:, 0], gammas[:, 1]) <= spec.radius)
                  & (np.abs(gammas[:, 0]) <= spec.time_cutoff())
                  & (np.abs(gammas[:, 1]) <= spec.freq_cutoff()))
        g1, g2 = gammas[inside, 0, None], gammas[inside, 1, None]
        shifted = dilated_hermite_all(max(idx), a, x - g1)[idx]   # (c, n, N)
        atoms = np.exp(2j * np.pi * g2 * (x - g1)) * shifted      # pi(gamma) w_i
        coeff = grid.step * (atoms.conj() @ H.T)   # <h_m, pi(gamma) w_i>, (c, n, K)
        rows = coeff.transpose(1, 0, 2).reshape(len(g1), S.shape[0])
        S += rows.conj().T @ rows
    return S


def oscillation_oracle(F, r):
    """Pointwise sup of |F(p) - F(q)| over grid nodes q != p of the field
    with (di*hx)^2 + (dj*hxi)^2 < r^2, one offset (di, dj) at a time; F may
    be complex. Offsets reaching past the field pair no nodes and are
    skipped."""
    hx, hxi = F.x_step, F.xi_step
    nx, nxi = F.values.shape
    dx_max = int(np.ceil(r / hx))
    dj_max = int(np.ceil(r / hxi))
    out = np.zeros((nx, nxi))
    for di in range(-dx_max, dx_max + 1):
        for dj in range(-dj_max, dj_max + 1):
            if (di, dj) == (0, 0) or abs(di) >= nx or abs(dj) >= nxi:
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
