import json
import math

import numpy as np
import pytest

from hermgabor import (BudgetError, CapacityError, FrameBounds,
                       GaborSystemSpec, LatticeMatrix,
                       assemble_frame_matrix, bounds_from_json, bounds_to_json,
                       component_bound_aggregate, frame_bounds, gl_predicate,
                       is_frame)
from hermgabor import frameop

from _oracles import direct_frame_matrix


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


def test_convergence_flag():
    fb = frame_bounds(make_spec(t=0.25, K=32))
    assert fb.converged
    # K = max window index + 1 leaves no smaller nested test space
    assert not frame_bounds(make_spec(d=3, K=4)).converged


SHEARED = LatticeMatrix(0.3, 0.12, -0.05, 0.28)


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
        frameop._extremal(S)


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
    assert is_frame(make_spec(t=0.25, K=32)) == "frame"
    assert len(calls) == 3
    # a candidate refutation is re-assembled once, at K = 128
    duplicated = GaborSystemSpec(window_degree=0, matrix=LatticeMatrix(0.5, 0, 0, 0.5),
                                 component_indices=(0, 0), galerkin_dim=16)
    assert is_frame(duplicated) == "not_frame"
    assert len(calls) == 5


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
]


@pytest.mark.parametrize("d, M, K, kw", SIDE_CASES)
def test_frame_matrix_matches_direct_sum(d, M, K, kw):
    spec = GaborSystemSpec(window_degree=d, matrix=M, galerkin_dim=K, **kw)
    ref = direct_frame_matrix(spec)
    S = assemble_frame_matrix(spec)
    B = np.linalg.eigvalsh(ref)[-1]
    assert np.max(np.abs(S - ref)) <= 1e-12 * B


def test_enumerated_lattice_follows_the_rule(monkeypatch):
    seen = []
    enumerate_points = frameop.enumerate_points
    monkeypatch.setattr(frameop, "enumerate_points",
                        lambda *args, **kw: seen.append(args[0]) or
                        enumerate_points(*args, **kw))
    sides = set()
    for d, M, K, kw in SIDE_CASES:
        spec = GaborSystemSpec(window_degree=d, matrix=M, galerkin_dim=K, **kw)
        dense = abs(M.determinant) ** 2 * K < len(spec.indices)
        sides.add(dense)
        seen.clear()
        assemble_frame_matrix(spec)
        (generator,) = seen
        assert generator == spec.summed_lattice
        if dense:
            assert generator == M.adjoint()
            assert abs(generator.determinant) == pytest.approx(
                1.0 / abs(M.determinant), rel=1e-12)
        else:
            assert generator == M
    assert sides == {False, True}


def test_adjoint_lattice():
    # symplectic pairings of M(Z^2) with its adjoint are integers
    adj = SHEARED.adjoint()
    pairing = SHEARED.as_array().T @ np.array([[0, 1], [-1, 0]]) @ adj.as_array()
    assert np.allclose(pairing, np.round(pairing), atol=1e-12)
    assert abs(np.linalg.det(np.round(pairing))) == pytest.approx(1.0)
    assert abs(adj.determinant) == pytest.approx(1.0 / abs(SHEARED.determinant))
    # J^{-1} J^{-1} = -I: the adjoint's adjoint generates M(Z^2) again
    assert adj.adjoint().as_array() == pytest.approx(-SHEARED.as_array())


def test_spec_validation():
    with pytest.raises(ValueError):
        make_spec(d=5, K=4)
    for a in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            make_spec(window_dilation=a)
    with pytest.raises(CapacityError, match="Nyquist"):
        make_spec(K=64, window_dilation=0.1)
    # the budget bounds the box of the summed lattice: a dense lattice's
    # sparse adjoint is admitted, an oversized box on either side is not
    make_spec(t=0.001, point_budget=1000)
    for M in (LatticeMatrix(1, 100, 0, 1), LatticeMatrix(1000, 0, 0, 1e-5)):
        with pytest.raises(BudgetError):
            GaborSystemSpec(window_degree=0, matrix=M, galerkin_dim=16)
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
