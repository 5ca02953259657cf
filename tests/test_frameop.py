import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hermgabor import (BudgetError, FrameBounds, GaborSystemSpec,
                       LatticeMatrix, bounds_from_json,
                       bounds_to_json, component_bound_aggregate, frame_bounds,
                       gl_predicate, is_frame)
from hermgabor import DEFAULT_STEP, GridSpec, dilated_hermite_all, frameop
from hermgabor.timefreq import nyquist_step

from _oracles import (assemble_frame_matrix, complex_projection,
                      direct_frame_matrix, ellipse_kmax, ellipse_norm,
                      hermite_grid, modulated_grid, shell_tail_bound,
                      shift_pad)


def make_spec(d=0, t=0.5, K=16, **kw):
    return GaborSystemSpec(window_degree=d,
                           matrix=LatticeMatrix(t, 0, 0, t),
                           galerkin_dim=K, **kw)


def test_frame_matrix_hermitian_psd():
    S = assemble_frame_matrix(make_spec(K=12))
    assert np.max(np.abs(S - S.conj().T)) < 1e-12
    w = np.linalg.eigvalsh(S)
    assert w[0] > -1e-10


def test_bounds_ordering_and_positivity():
    fb = frame_bounds(make_spec(), check_convergence=False)
    assert 0 < fb.A_est <= fb.B_est


def test_refinement_widens_bracket():
    # nested Hermite test spaces: growing K can only widen [A_est, B_est]
    small = frame_bounds(make_spec(K=8), check_convergence=False)
    large = frame_bounds(make_spec(K=24), check_convergence=False)
    assert large.A_est <= small.A_est + 1e-10
    assert large.B_est >= small.B_est - 1e-10


def test_dense_gaussian_near_tight():
    fb = frame_bounds(make_spec(t=0.25, K=32), check_convergence=False)
    # density 16 Gaussian: exact bounds 16*(1 -/+ 2e^{-4}) bracket the estimate
    assert 16 * (1 - 2 * math.exp(-4)) - 1e-6 < fb.A_est < fb.B_est
    assert fb.B_est < 16 * (1 + 2 * math.exp(-4)) + 1e-6


def test_tail_bound_small():
    # a direct-side and an adjoint-side spec, both with points in the
    # outermost shell, so the bound is positive
    for t, adjoint in ((1.0, False), (0.5, True)):
        spec = make_spec(t=t, K=12)
        assert (spec.summed_lattice != spec.matrix) == adjoint
        fb = frame_bounds(spec, check_convergence=False)
        assert 0.0 < fb.tail_bound < 1e-20


SHEARED = LatticeMatrix(0.3, 0.12, -0.05, 0.28)


# (d, matrix, K, extra spec fields) whose outermost shell's entries decay
# with the Gaussian envelope rather than cancel. On the direct side
# diag(b, 3) puts every point with k2 != 0 beyond the ellipse, so the shell
# holds time shifts only; a shell of modulated points cancels there far
# below its terms' moduli, to rounding noise in either sum that moves with
# the grid's step
TAIL_CASES = [
    (0, LatticeMatrix(1.0, 0, 0, 3.0), 12, {}),
    (0, LatticeMatrix(0.5, 0, 0, 0.5), 12, {}),
    (0, LatticeMatrix(1.0, 0, 0, 3.0), 16, {"window_dilation": 2.0}),
    (2, LatticeMatrix(1.2, 0, 0, 3.0), 16, {"window_dilation": 2.0}),
    (0, SHEARED, 16, {"component_indices": (1, 4)}),
]


@pytest.mark.parametrize("d, M, K, kw", TAIL_CASES)
def test_tail_bound_matches_unfolded_shell_sum(d, M, K, kw):
    # a shell that decays rather than cancels: the oracle's sum does not
    # move at half the step
    spec = GaborSystemSpec(window_degree=d, matrix=M, galerkin_dim=K, **kw)
    grid = modulated_grid(spec)
    ref = shell_tail_bound(spec)
    assert ref > 0.0
    finer = shell_tail_bound(spec, grid=GridSpec(step=grid.step / 2, count=2 * grid.count))
    assert abs(finer - ref) <= 1e-12 * ref
    tail = frame_bounds(spec, check_convergence=False).tail_bound
    assert abs(tail - ref) <= 1e-12 * ref


@pytest.mark.parametrize("d, M, K, kw", TAIL_CASES)
def test_tail_bound_matches_the_shell_sum_on_a_wider_grid(d, M, K, kw):
    # the spec's grid holds the outermost shell's integrands, which peak
    # near half the shift, so widening it moves no digit the bound keeps
    spec = GaborSystemSpec(window_degree=d, matrix=M, galerkin_dim=K, **kw)
    grid = modulated_grid(spec)
    ref = shell_tail_bound(spec, grid=GridSpec(step=grid.step, count=2 * grid.count))
    tail = frame_bounds(spec, check_convergence=False).tail_bound
    assert abs(tail - ref) <= 1e-12 * ref


def test_convergence_flag():
    fb = frame_bounds(make_spec(t=0.25, K=32))
    assert fb.converged
    # K = max window index + 1 leaves no smaller nested test space
    assert not frame_bounds(make_spec(d=3, K=4)).converged


@pytest.mark.parametrize("d", [0, 2])
def test_half_bounds_match_separate_assembly(monkeypatch, d):
    # the convergence check's K/2 bounds, read off the K matrix, against an
    # assembly at K/2
    seen = []
    extremal = frameop._extremal
    monkeypatch.setattr(frameop, "_extremal",
                        lambda S: seen.append(extremal(S)) or seen[-1])
    spec = GaborSystemSpec(window_degree=d, matrix=SHEARED, galerkin_dim=16)
    fb = frame_bounds(spec)
    monkeypatch.undo()
    (A, B), (A2, B2) = seen
    assert (A, B) == (fb.A_est, fb.B_est)
    ref = frame_bounds(spec.with_dim(8), check_convergence=False)
    assert abs(A2 - ref.A_est) <= 1e-12 * B
    assert abs(B2 - ref.B_est) <= 1e-12 * B


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_extremal_rejects_non_finite_matrix(bad):
    # the CLI maps the ValueError to exit 2
    S = np.eye(4, dtype=complex)
    S[1, 2] = S[2, 1] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        frameop._extremal([np.eye(2), S])


@settings(deadline=None, max_examples=60)
@given(K=st.integers(1, 32), frac=st.floats(0.0, 1.0),
       angle=st.floats(0.0, 2 * math.pi))
@example(K=2, frac=0.712, angle=0.1098)   # near the grid's end
def test_projection_parity(K, frac, angle):
    # E_{-mu}[a, b] = (-1)^(a+b) E_mu[a, b] for E_mu[a, b] = <pi(mu) h_a, h_b>,
    # for mu = (alpha1, alpha2 / (2 pi)) up to the truncation radius |alpha|
    # <= rho, on the spec's grid (the same at every dilation).
    # ||h_a|| ||h_b|| = 1 bounds each entry and the sum of its terms'
    # moduli, so the rounding bound is absolute: an entry that cancels to
    # 1e-17 carries the same rounding
    spec = make_spec(K=K)
    grid = spec.grid()
    H = dilated_hermite_all(K - 1, 1.0, grid.points)
    rho = frac * spec.radius
    mu = np.array([[rho * math.cos(angle), rho * math.sin(angle) / (2 * math.pi)]])
    E, E_minus = (frameop._project(m, range(K), grid.points, grid.step, H)[0]
                  for m in (mu, -mu))
    sigma = (-1.0) ** np.arange(K)
    assert np.max(np.abs(E_minus - np.outer(sigma, sigma) * E)) <= 1e-14


def _box_points(spec, corners):
    """Points of the spec's box (|mu1| <= time_cutoff, |mu2| <= freq_cutoff)
    from ``corners``, pairs in [-1, 1]: the box's corners sit at shifts
    t = sqrt(2) rho sqrt(a)."""
    return np.asarray(corners, dtype=float) * [spec.time_cutoff(), spec.freq_cutoff()]


corner_lists = st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                        min_size=1, max_size=8)


def folded_projection(mu, rows, a, grid, K):
    """``frameop._project`` of the points ``mu`` of a system dilated by a, at
    dilation 1: at D mu, D = diag(1/sqrt(a), sqrt(a)), on the points and step
    of ``grid`` over sqrt(a), against the undilated test basis there. By
    h_{n,a}(x) = a^{-1/4} h_n(x/sqrt(a)) its Riemann sums are those of
    ``complex_projection`` at (mu, a) on ``grid``."""
    root_a = math.sqrt(a)
    x = grid.points / root_a
    H = dilated_hermite_all(K - 1, 1.0, x)
    return frameop._project(mu * [1 / root_a, root_a], rows, x, grid.step / root_a, H)


@settings(deadline=None, max_examples=40)
@given(K=st.integers(1, 128), d=st.integers(0, 3), dilation=st.floats(0.3, 3.0),
       corners=corner_lists, window_rows=st.booleans())
@example(K=128, d=0, dilation=0.3, corners=[(1.0, 1.0), (-1.0, 0.2), (0.0, 0.0)],
         window_rows=False)
@example(K=128, d=3, dilation=3.0, corners=[(0.3, -1.0), (1.0, -1.0)],
         window_rows=True)
# theta = pi, which e^{ik theta} rounds to 1e-14 at k ~ 90 unless reduced
# to a quarter turn
@example(K=89, d=0, dilation=1.0, corners=[(-0.0625, 0.0)], window_rows=False)
def test_rotated_projection_matches_the_complex_oracle(K, d, dilation, corners,
                                                       window_rows):
    # unsorted points anywhere in the box, on the oracle's grid for the
    # modulated integrand: the window's rows (the direct side) or every
    # row below K (the adjoint side)
    assume(K > d)
    spec = make_spec(d=d, K=K, window_dilation=dilation)
    grid = modulated_grid(spec)
    H = dilated_hermite_all(K - 1, dilation, grid.points)
    mu = _box_points(spec, corners)
    rows = spec.indices if window_rows else range(K)
    P = folded_projection(mu, rows, dilation, grid, K)
    want = complex_projection(mu, rows, dilation, grid.points, grid.step, H)
    assert np.max(np.abs(P - want)) <= 1e-14


@settings(deadline=None, max_examples=30)
@given(K=st.integers(1, 128), d=st.integers(0, 3), corners=corner_lists,
       window_rows=st.booleans())
@example(K=12, d=0, corners=[(1.0, 0.0), (0.9, 0.1)], window_rows=True)
@example(K=26, d=3, corners=[(0.0, 0.0), (0.0, 0.0)], window_rows=False)
def test_cropped_projection_matches_the_full_grid(K, d, corners, window_rows):
    # a chunk of points in ascending shift, out to the corners of the box
    # around the truncation ellipse (at dilation 1, which every dilation's
    # assembly runs at): the projection is a sum over the grid's points, so
    # the whole grid's is the crop's plus that of the points outside it,
    # which must be below rounding. (The crop's and the whole grid's sums
    # themselves differ by their dot products' rounding, several ulps of an
    # entry near 1.)
    assume(K > d)
    spec = make_spec(d=d, K=K)
    grid = spec.grid()
    x = grid.points
    H = dilated_hermite_all(K - 1, 1.0, x)
    mu = _box_points(spec, corners)
    t = np.hypot(mu[:, 0], 2 * np.pi * mu[:, 1])
    mu, t = mu[np.argsort(t)], np.sort(t)
    crop = frameop._crop(spec, x, t)
    rows = spec.indices if window_rows else range(K)
    outside = np.r_[:crop.start, crop.stop:x.size]
    P = frameop._project(mu, rows, x[crop], grid.step, H[:, crop])
    dropped = frameop._project(mu, rows, x[outside], grid.step, H[:, outside])
    assert P.shape == dropped.shape == (len(mu), len(rows), K)
    assert np.max(np.abs(dropped), initial=0.0) <= 1e-16


@pytest.mark.parametrize("K", [16, 32, 128])
@pytest.mark.parametrize("dilation", [0.3, 1.0, 3.0])
def test_projection_matches_the_complex_oracle(K, dilation):
    # the direct side projects the window's rows (in the spec's order, or
    # reordered), the adjoint side every row below K; points cover the
    # spec's truncation ellipse, whose semi-axes are the two cutoffs; on
    # the oracle's grid for the modulated dilated integrand, which the
    # projection at dilation 1 reads at D mu on that grid over sqrt(a)
    spec = make_spec(d=2, K=K, window_dilation=dilation)
    grid = modulated_grid(spec)
    H = dilated_hermite_all(K - 1, dilation, grid.points)
    rng = np.random.default_rng(K)
    frac = np.sqrt(rng.random(16))
    angle = rng.uniform(0.0, 2 * math.pi, 16)
    mu = np.column_stack([frac * np.cos(angle) * spec.time_cutoff(),
                          frac * np.sin(angle) * spec.freq_cutoff()])
    for rows in ((0, 1, 2), (2, 0), range(K)):
        P = folded_projection(mu, rows, dilation, grid, K)
        want = complex_projection(mu, rows, dilation, grid.points, grid.step, H)
        assert P.shape == want.shape == (16, len(rows), K)
        assert np.max(np.abs(P - want)) <= 1e-14


@pytest.mark.parametrize("M", [SHEARED, SHEARED.scaled(2.5)])
def test_frame_matrix_zero_across_parity_classes(M):
    # S commutes with (QF)_i(x) = (-1)^idx_i F_i(-x): no entry couples
    # sigma_(i,m) = (-1)^(idx_i + m) = +1 to -1
    spec = GaborSystemSpec(window_degree=0, matrix=M, galerkin_dim=16,
                           component_indices=(1, 4, 0))
    S = assemble_frame_matrix(spec)
    sigma = ((-1.0) ** np.add.outer(spec.indices, np.arange(16))).ravel()
    cross = sigma[:, None] != sigma[None, :]
    assert np.all(S[cross] == 0.0)
    assert np.all(np.abs(np.diag(S)) > 0.0)


def test_per_component_bounds_match_scalar_systems():
    spec = GaborSystemSpec(window_degree=2, matrix=SHEARED, galerkin_dim=16)
    agg = component_bound_aggregate(spec)
    scale = agg["B_vec"]
    for i in spec.indices:
        ref = frame_bounds(GaborSystemSpec(window_degree=2, matrix=SHEARED,
                                           galerkin_dim=16,
                                           component_indices=(i,)),
                           check_convergence=False)
        assert abs(agg["per_component_A"][i] - ref.A_est) <= 1e-12 * scale
        assert abs(agg["per_component_B"][i] - ref.B_est) <= 1e-12 * scale


def test_one_assembly_per_test_dimension(monkeypatch):
    calls = []
    enumerate_points = frameop.enumerate_points

    def counting(*args, **kwargs):
        calls.append(args)
        return enumerate_points(*args, **kwargs)

    monkeypatch.setattr(frameop, "enumerate_points", counting)
    frame_bounds(make_spec(d=1, K=16))
    assert len(calls) == 1
    component_bound_aggregate(make_spec(d=2, K=16))
    assert len(calls) == 2
    # the verdict is read off the indices and the covolume: no assembly
    assert is_frame(make_spec(t=0.25, K=32)) == "frame"
    duplicated = GaborSystemSpec(window_degree=0, matrix=LatticeMatrix(0.5, 0, 0, 0.5),
                                 component_indices=(0, 0), galerkin_dim=16)
    assert is_frame(duplicated) == "not_frame"
    assert len(calls) == 2


# (d, matrix, K, extra spec fields): each dense case has a sparse partner on
# the other side of the rule |det M|^2 K < c
SIDE_CASES = [
    (0, LatticeMatrix(0.5, 0, 0, 0.5), 16, {}),
    (0, SHEARED, 16, {}),
    (2, SHEARED, 16, {}),
    (2, SHEARED.scaled(2.5), 16, {}),
    (2, SHEARED, 16, {"window_dilation": 2.0}),
    (2, SHEARED.scaled(2.5), 16, {"window_dilation": 2.0}),
    (0, SHEARED, 16, {"component_indices": (0, 0)}),
    (0, SHEARED.scaled(2.5), 16, {"component_indices": (0, 0)}),
    (0, LatticeMatrix(math.sqrt(0.05), 0, 0, math.sqrt(0.05)), 128, {}),
    # windows whose components differ in parity
    (0, SHEARED, 16, {"component_indices": (1, 4)}),
    (0, SHEARED.scaled(2.5), 16, {"component_indices": (1, 4)}),
    (0, SHEARED, 16, {"component_indices": (0, 3)}),
    (0, SHEARED.scaled(2.5), 16, {"component_indices": (0, 3)}),
    # points on both axes: the half lattice's tie-break at g1 = 0
    (0, LatticeMatrix(0.5, 0, 0, 0.4), 16, {}),
    (0, LatticeMatrix(0.5, 0, 0, 0.4), 32, {}),
]


@pytest.mark.parametrize("d, M, K, kw", SIDE_CASES)
def test_frame_matrix_matches_direct_sum(d, M, K, kw):
    spec = GaborSystemSpec(window_degree=d, matrix=M, galerkin_dim=K, **kw)
    ref = direct_frame_matrix(spec)
    S = assemble_frame_matrix(spec)
    B = np.linalg.eigvalsh(ref)[-1]
    assert np.max(np.abs(S - ref)) <= 1e-12 * B


@settings(deadline=None, max_examples=10)
@given(K=st.floats(0.0, 7.0).map(lambda u: round(2.0 ** u)),
       d=st.integers(0, 8),
       dilation=st.floats(math.log(0.03), math.log(3.0)).map(math.exp),
       log_ratio=st.floats(-2.0, 2.0), angle=st.floats(0.0, math.pi),
       shear=st.floats(-0.5, 0.5))
@example(K=128, d=0, dilation=3.0, log_ratio=-2.0, angle=0.3, shear=0.2)
# M = I and M = (2/3)^(1/4) I at dilation 3, where a grid padded by a fixed
# width (not one scaled like the window's tails) cut the integrands off
@example(K=2, d=1, dilation=3.0, log_ratio=0.0, angle=0.0, shear=0.0)
@example(K=3, d=1, dilation=3.0, log_ratio=0.0, angle=0.0, shear=0.0)
# the smallest dilation on either side, at K = 54 and at K = 128
@example(K=54, d=2, dilation=0.03, log_ratio=-1.0, angle=0.4, shear=0.1)
@example(K=54, d=2, dilation=0.03, log_ratio=1.0, angle=0.4, shear=0.1)
@example(K=128, d=2, dilation=0.03, log_ratio=-1.0, angle=0.4, shear=0.1)
@example(K=128, d=2, dilation=0.03, log_ratio=1.0, angle=0.4, shear=0.1)
def test_nyquist_grid_matches_the_fine_grid(K, d, dilation, log_ratio, angle,
                                            shear):
    # the assembly samples at its aliasing step, at dilation 1; the
    # term-by-term direct sum of the dilated modulated integrands, at the
    # Nyquist step of the modulation cutoff and no coarser than 1/32, is an
    # oracle that a too coarse step, or a wrong map of the dilation, would
    # miss. Below dilation ~0.1 that step is finer than 1/32, where
    # ``modulated_grid`` raises, so the grid is built here.
    # K and the dilation are log-uniform in 1..128 and 0.03..3, as the
    # oracle's cost grows like K^2; |det M|^2 K / c = 2^log_ratio puts M
    # on either side of the rule.
    assume(K > d)
    t = (2.0 ** log_ratio * (d + 1) / K) ** 0.25
    c, s = math.cos(angle), math.sin(angle)
    M = LatticeMatrix(t * c, t * (c * shear - s), t * s, t * (s * shear + c))
    spec = GaborSystemSpec(window_degree=d, matrix=M, galerkin_dim=K,
                           window_dilation=dilation)
    step = min(DEFAULT_STEP, nyquist_step(spec.freq_cutoff(), K - 1, dilation))
    fine = hermite_grid(K - 1, step, dilation,
                        0.5 * spec.time_cutoff() + shift_pad(dilation))
    ref = direct_frame_matrix(spec, grid=fine)
    S = assemble_frame_matrix(spec)
    B = np.linalg.eigvalsh(ref)[-1]
    assert np.linalg.norm(S - ref, 2) <= 1e-13 * B


@settings(deadline=None, max_examples=200)
@given(K=st.integers(1, 256), d=st.integers(0, 8),
       log_dilation=st.floats(-9.0, 9.0))
def test_every_dilation_builds_the_dilation_one_grid(K, d, log_dilation):
    # a dilation is a change of lattice: every spec, at dilations from
    # 1.2e-4 to 8.1e3, is admitted and samples the grid of its undilated
    # spec, at the aliasing step 2 pi / (2 sqrt(2K-1) + margin) of its K,
    # which is no finer than DEFAULT_STEP up to K = 256
    assume(K > d)
    grid = make_spec(d=d, K=K, window_dilation=math.exp(log_dilation)).grid()
    assert grid == make_spec(d=d, K=K).grid()
    assert grid.step == 2 * math.pi / (2 * math.sqrt(2 * K - 1) + frameop.ALIAS_MARGIN)
    assert grid.step >= DEFAULT_STEP


@pytest.mark.parametrize("K,counts", [(16, (123, 126, 128, 130)),
                                      (32, (158, 161, 164, 166)),
                                      (64, (225,) * 4), (128, (351,) * 4)])
def test_grid_node_counts(K, counts):
    # README's node counts for d = 0..3: up to K = 32 the reach rho/2 +
    # SHIFT_PAD sets them, from K = 64 on the support sqrt(2K-1) + 8 of
    # h_{K-1}; neither depends on the lattice or the dilation
    for d, count in enumerate(counts):
        assert make_spec(d=d, K=K).grid().count == count
        assert make_spec(d=d, K=K, t=0.9, window_dilation=0.3).grid().count == count


LATTICE_MAP_CASES = [
    (1, LatticeMatrix(0.45, 0.1, -0.05, 0.4), 32),
    (2, SHEARED, 16),
    (0, LatticeMatrix(1.1, 0, 0.2, 0.9), 16),
]


@pytest.mark.parametrize("dilation", [1e-6, 0.033, 0.3, 1.7, 3.0, 1e4])
@pytest.mark.parametrize("d, M, K", LATTICE_MAP_CASES)
def test_dilated_bounds_are_those_of_the_mapped_lattice(d, M, K, dilation):
    # D_a carries G(D_a h^d, M) unitarily onto G(h^d, diag(1/sqrt a, sqrt a) M),
    # test space included: the two specs' bounds agree to rounding, on
    # either side of the rule (the first two cases are summed over the
    # adjoint lattice, the third directly)
    root_a = math.sqrt(dilation)
    dilated = GaborSystemSpec(window_degree=d, matrix=M, galerkin_dim=K,
                              window_dilation=dilation)
    mapped = GaborSystemSpec(window_degree=d, matrix=M.left_diag(1 / root_a, root_a),
                             galerkin_dim=K)
    fb, ref = frame_bounds(dilated), frame_bounds(mapped)
    assert abs(fb.A_est - ref.A_est) <= 1e-14 * ref.B_est
    assert abs(fb.B_est - ref.B_est) <= 1e-14 * ref.B_est
    assert fb.converged == ref.converged


def test_enumerated_lattice_follows_the_rule(monkeypatch):
    seen, summed = [], []
    enumerate_points, project = frameop.enumerate_points, frameop._project
    monkeypatch.setattr(frameop, "enumerate_points",
                        lambda *args, **kw: seen.append(args[0]) or
                        enumerate_points(*args, **kw))
    monkeypatch.setattr(frameop, "_project",
                        lambda mu, *args: summed.append(mu) or project(mu, *args))
    sides = set()
    for (d, M, K, kw), a in itertools.product(SIDE_CASES, (0.3, 1.0, 3.0)):
        spec = GaborSystemSpec(window_degree=d, matrix=M, galerkin_dim=K,
                               **{**kw, "window_dilation": a})
        dense = abs(M.determinant) ** 2 * K < len(spec.indices)
        sides.add(dense)
        seen.clear()
        summed.clear()
        assemble_frame_matrix(spec)
        # the summed lattice in the window's coordinates alpha
        (generator,) = seen
        lattice = M.adjoint() if dense else M
        assert lattice == spec.summed_lattice
        assert generator == lattice.left_diag(1 / math.sqrt(a), 2 * math.pi * math.sqrt(a))
        if dense:
            assert abs(lattice.determinant) == pytest.approx(
                1.0 / abs(M.determinant), rel=1e-12)
        # the summed points, D gamma with D = diag(1/sqrt a, sqrt a) (the
        # assembly runs at dilation 1), in lattice coordinates k, are one of
        # each pair +-k of the lattice's points with |alpha| <= rho, none
        # near its edge
        L = lattice.as_array()
        g = (np.concatenate(summed) * ([1.0, 1.0] if dense else [1.0, -1.0])
             * [math.sqrt(a), 1 / math.sqrt(a)])
        k = np.rint(np.linalg.solve(L, g.T).T)
        np.testing.assert_allclose(k @ L.T, g, rtol=0, atol=1e-12 * spec.radius)
        kmax = ellipse_kmax(spec, L)
        box = np.array(list(itertools.product(range(-kmax, kmax + 1), repeat=2)))
        norm = ellipse_norm(spec, *(box @ L.T).T)
        assert np.all(np.abs(norm - spec.radius) > 1e-9 * spec.radius)
        want = {tuple(p) for p in box[norm <= spec.radius]}
        got = [tuple(p) for p in k.astype(int)]
        assert len(got) == len(set(got)) == (len(want) + 1) // 2
        assert set(got) | {(-k1, -k2) for k1, k2 in got} == want
    assert sides == {False, True}


@pytest.mark.parametrize("t", [0.3, 0.9])
def test_summed_lattice_is_built_once(monkeypatch, t):
    # a request builds its adjoint lattice once, on either side, and sums
    # the lattice of ``_alpha_lattice`` at the spec's radius after the 1-D
    # basis call on the grid, the order perfbench/tracing.py reads
    calls = []
    adjoint, hermite = LatticeMatrix.adjoint, frameop.dilated_hermite_all
    enumerate_points = frameop.enumerate_points
    monkeypatch.setattr(LatticeMatrix, "adjoint",
                        lambda M: calls.append("adjoint") or adjoint(M))
    monkeypatch.setattr(frameop, "dilated_hermite_all",
                        lambda n, a, x: calls.append(np.ndim(x)) or hermite(n, a, x))
    monkeypatch.setattr(frameop, "enumerate_points",
                        lambda M, radius, **kw: calls.append((M, radius))
                        or enumerate_points(M, radius, **kw))
    spec = make_spec(d=1, t=t)
    dense = t ** 4 * spec.galerkin_dim < 2
    frame_bounds(spec)
    assert calls[:2 + dense] == (["adjoint"] * dense
                                 + [1, (spec._alpha_lattice(), spec.radius)])
    assert calls.count("adjoint") == dense
    assert (spec.summed_lattice is spec.matrix) != dense


def test_adjoint_lattice():
    # symplectic pairings of M(Z^2) with its adjoint are integers
    adj = SHEARED.adjoint()
    pairing = SHEARED.as_array().T @ np.array([[0, 1], [-1, 0]]) @ adj.as_array()
    assert np.allclose(pairing, np.round(pairing), atol=1e-12)
    assert abs(np.linalg.det(np.round(pairing))) == pytest.approx(1.0)
    assert abs(adj.determinant) == pytest.approx(1.0 / abs(SHEARED.determinant))
    # J^{-1} J^{-1} = -I: the adjoint's adjoint generates M(Z^2) again
    assert adj.adjoint().as_array() == pytest.approx(-SHEARED.as_array())


@pytest.mark.parametrize("exponent", [*range(-160, -149), *range(150, 161)])
def test_lattices_past_the_float_range_answer_or_name_the_overflow(exponent):
    # s I and s R(0.3), s = 10^exponent, with the window (h_0, h_1): below
    # |det M| = 2c / max float the bounds ~1/|det M| are refused, naming
    # the overflow; above it they are 1/|det M| (Janssen's sum is its
    # origin's term), and past s = 1e150 the lattice holds only the origin,
    # whose rank-one term has the Galerkin bounds 0 and c = 2
    s, c, sn = 10.0 ** exponent, math.cos(0.3), math.sin(0.3)
    for M in (LatticeMatrix(s, 0, 0, s), LatticeMatrix(s * c, -s * sn, s * sn, s * c)):
        if exponent <= -154:
            with pytest.raises(ValueError, match="overflow the floats") as info:
                GaborSystemSpec(window_degree=1, matrix=M, galerkin_dim=16)
            assert "invertible" not in str(info.value)
            continue
        fb = frame_bounds(GaborSystemSpec(window_degree=1, matrix=M, galerkin_dim=16))
        if exponent < 0:
            det = abs(M.determinant)
            assert abs(fb.A_est * det - 1) < 1e-12 and abs(fb.B_est * det - 1) < 1e-12
        else:
            assert fb.A_est == 0 and fb.B_est == pytest.approx(2, abs=1e-12)


def test_spec_validation():
    with pytest.raises(ValueError):
        make_spec(d=5, K=4)
    for a in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            make_spec(window_dilation=a)
    # no dilation is refused for its grid, which is the one of dilation 1;
    # where the dilation maps the lattice to a numerically singular one,
    # at either end, the error says so
    for a in (0.034, 0.033, 1e-6):
        make_spec(K=64, window_dilation=a)
    for a in (1e16, 1e-16):
        with pytest.raises(ValueError, match="dilation .* numerically singular"):
            make_spec(K=64, window_dilation=a)
    # the budget bounds the box of the summed lattice: a dense lattice's
    # sparse adjoint is admitted, an oversized box on either side is not
    make_spec(t=0.001, point_budget=1000)
    for M, a in ((LatticeMatrix(1e6, 0, 0, 1e-6), 1.0),
                 (LatticeMatrix(1e-7, 0, 0, 8e4), 4.0),
                 (LatticeMatrix(0.5, 0, 0, 0.5), 1e-12)):
        with pytest.raises(BudgetError, match="enumeration box"):
            GaborSystemSpec(window_degree=0, matrix=M, galerkin_dim=16,
                            window_dilation=a)
    # and the (cK)^2 entries of the frame matrix, after the box: 3162^2
    # entries fit the default budget and 3163^2 do not
    make_spec(t=0.001, point_budget=256)
    with pytest.raises(BudgetError, match="frame matrix 16x16 exceeds point budget 255"):
        make_spec(t=0.001, point_budget=255)
    with pytest.raises(BudgetError, match="enumeration box"):
        make_spec(point_budget=255)
    make_spec(t=0.01, K=3162)
    with pytest.raises(BudgetError, match="frame matrix 3163x3163"):
        make_spec(t=0.01, K=3163)
    with pytest.raises(BudgetError, match="frame matrix 51456x51456"):
        make_spec(d=200, t=0.01, K=256)
    for indices, message in (((0, -2), "nonnegative"), ((-1,), "nonnegative"),
                             ((), "at least one component"),
                             ((1.7,), "integers"), ((0, 1.0), "integers")):
        with pytest.raises(ValueError, match=message):
            make_spec(component_indices=indices)
    assert make_spec(component_indices=(np.int64(1),)).indices == (1,)
    with pytest.raises(ValueError):
        FrameBounds(A_est=2.0, B_est=1.0, galerkin_dim=8, converged=True,
                    tail_bound=0.0)


def test_is_frame_positive_case():
    assert is_frame(make_spec(t=0.25, K=32)) == "frame"


def exact_covolume(det):
    """diag(2^k, det 2^-k), as glgrid builds it: covolume det to the last
    bit, where sqrt(det) I may round below it."""
    h = 2.0 ** (math.frexp(det)[1] // 2)
    return LatticeMatrix(h, 0.0, 0.0, det / h)


def verdict_spec(indices, M):
    return GaborSystemSpec(window_degree=0, matrix=M, component_indices=tuple(indices),
                           galerkin_dim=16)


VERDICT_CASES = (
    # (h_0,...,h_d) on t I with |det|(d+1) = 0.9, 0.95, 0.9, 0.8, 0.56:
    # superframes, though their converged A_est is 1.7e-5 down to 6.4e-13
    [(range(d + 1), LatticeMatrix(t, 0, 0, t), "frame")
     for d, frac in ((1, 0.9), (2, 0.95), (3, 0.9), (4, 0.8), (8, 0.56))
     for t in [math.sqrt(frac / (d + 1))]]
    # the superframe threshold itself, where that theorem's "if and only
    # if" rules (h_0,...,h_d) out
    + [(range(d + 1), exact_covolume(1.0 / (d + 1)), "not_frame") for d in range(9)]
    # a repeated index gives a null vector at any density
    + [((0, 0), exact_covolume(det), "not_frame") for det in (0.01, 0.25)]
    # (h_0, h_2): a frame below 1/3, Balan's bound above 1/2, neither between
    + [((0, 2), exact_covolume(det), verdict)
       for det, verdict in ((0.25, "frame"), (0.4, "inconclusive"), (0.6, "not_frame"))]
    # h_1 at 2/3: no theorem of the rule applies (Lyubarskii & Nes, ACHA 34,
    # 2013, rule odd windows out on separable lattices of covolume
    # (N-1)/N, which the rule does not encode)
    + [((1,), exact_covolume(2.0 / 3.0), "inconclusive"),
       ((1, 0), exact_covolume(0.49), "frame")]
)


@pytest.mark.parametrize("indices, M, verdict", VERDICT_CASES)
def test_is_frame_follows_the_density_theorems(monkeypatch, indices, M, verdict):
    spec = verdict_spec(indices, M)

    def forbidden(*args, **kwargs):
        raise AssertionError("is_frame assembles nothing")

    monkeypatch.setattr(frameop, "enumerate_points", forbidden)
    monkeypatch.setattr(frameop, "dilated_hermite_all", forbidden)
    assert is_frame(spec) == verdict


# the unimodular matrices with entries in [-3, 3]: bases of Z^2
UNIMODULAR = [u for u in (np.array(e).reshape(2, 2) - 3
                          for e in np.ndindex(7, 7, 7, 7))
              if abs(round(np.linalg.det(u))) == 1]


@settings(deadline=None, max_examples=80)
@given(indices=st.lists(st.integers(0, 5), min_size=1, max_size=4),
       det=st.floats(0.02, 1.2), U=st.sampled_from(UNIMODULAR),
       angle=st.floats(-math.pi, math.pi), shear=st.floats(-2.0, 2.0),
       dilation=st.floats(0.3, 3.0))
def test_is_frame_is_invariant_under_basis_rotation_shear_and_dilation(
        indices, det, U, angle, shear, dilation):
    # away from both thresholds, where the rounding of a new basis could
    # move the covolume across one
    for threshold in (1.0 / (max(indices) + 1), 1.0 / len(indices)):
        assume(abs(det - threshold) > 1e-9 * threshold)
    spec = verdict_spec(indices, exact_covolume(det))
    verdict = is_frame(spec)
    M = spec.matrix.as_array()
    cos, sin = math.cos(angle), math.sin(angle)
    for N in (M @ U, np.array([[cos, -sin], [sin, cos]]) @ M,
              np.array([[1.0, shear], [0.0, 1.0]]) @ M,
              np.array([[1.0, 0.0], [shear, 1.0]]) @ M):
        assert is_frame(replace(spec, matrix=LatticeMatrix.from_array(N))) == verdict
    assert is_frame(replace(spec, window_dilation=dilation)) == verdict


def test_component_bracketing():
    spec = make_spec(d=1, t=0.5, K=16)
    agg = component_bound_aggregate(spec)
    assert agg["A_vec"] <= min(agg["per_component_A"]) + 1e-10
    assert agg["B_vec"] >= max(agg["per_component_B"]) - 1e-10
    assert agg["inequality_slack"] >= 0


def test_aggregate_needs_vector_window():
    with pytest.raises(ValueError):
        component_bound_aggregate(make_spec(d=0))


def test_gl_predicate():
    assert gl_predicate(LatticeMatrix(0.7, 0, 0, 0.7), 1)
    assert not gl_predicate(LatticeMatrix(0.8, 0, 0, 0.9), 1)
    assert gl_predicate(LatticeMatrix(0.9, 0, 0, 0.9), 0)
    with pytest.raises(ValueError):
        gl_predicate(LatticeMatrix(1, 0, 0, 1), -1)


def test_bounds_json_roundtrip():
    spec = make_spec(K=8)
    fb = frame_bounds(spec, check_convergence=False)
    text = bounds_to_json(spec, fb)
    back = bounds_from_json(text)
    assert back == fb
    record = json.loads(text)
    assert set(record) == {"A_est", "B_est", "K", "converged", "tail_bound",
                           "det", "box_norm"}
    # bit-identical re-serialization of the parsed values
    assert bounds_to_json(spec, back) == text


def test_scalar_component_selection():
    # (h_1) alone differs from the full (h_0, h_1) system
    scalar = GaborSystemSpec(window_degree=1, matrix=LatticeMatrix(0.5, 0, 0, 0.5),
                             component_indices=(1,), galerkin_dim=16)
    vec = make_spec(d=1, K=16)
    fb_s = frame_bounds(scalar, check_convergence=False)
    fb_v = frame_bounds(vec, check_convergence=False)
    assert abs(fb_s.B_est - fb_v.B_est) > 1e-3
