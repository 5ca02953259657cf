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
