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
