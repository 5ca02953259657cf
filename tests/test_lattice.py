import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import sampled_box_norm_oracle
from hermgabor import (BudgetError, LatticeMatrix, box_norm, covolume,
                       enumerate_points)


def test_box_norm_identity():
    assert box_norm(LatticeMatrix(1, 0, 0, 1)) == pytest.approx(
        math.sqrt(2) / 2, abs=1e-15)


def test_box_norm_diagonal():
    # diag(a, b) reaches its sup at a corner: sqrt(a^2 + b^2)/2
    assert box_norm(LatticeMatrix(3, 0, 0, 4)) == pytest.approx(2.5, abs=1e-14)


def test_box_norm_shear_vertex_choice():
    # shear pushes the maximum to the (1/2, -1/2) vertex family
    M = LatticeMatrix(1, -1, 0, 1)
    assert box_norm(M) == pytest.approx(
        max(np.hypot(0.0, 0.5), np.hypot(1.0, 0.5)), abs=1e-14)


def test_box_norm_matches_sampling_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        while True:
            a = rng.uniform(-2, 2, size=(2, 2))
            if abs(np.linalg.det(a)) > 0.1:
                break
        M = LatticeMatrix.from_array(a)
        assert abs(box_norm(M) - sampled_box_norm_oracle(a, rng)) < 1e-9


@settings(deadline=None, max_examples=100)
@given(st.floats(min_value=0.01, max_value=50.0),
       st.floats(min_value=-3, max_value=3),
       st.floats(min_value=-3, max_value=3))
@example(t=0.5, a=1e-12, c=1e-12)  # M.scaled(t) has |det| = 5e-13
def test_box_norm_homogeneous(t, a, c):
    try:
        M = LatticeMatrix(a, 1.0, c, -1.0)
    except ValueError:
        return
    assert box_norm(M.scaled(t)) == pytest.approx(t * box_norm(M), rel=1e-12)


def test_covolume():
    assert covolume(LatticeMatrix(2, 1, 1, 1)) == pytest.approx(1.0)
    assert covolume(LatticeMatrix(0, -1, 1, 0)) == pytest.approx(1.0)


def test_parse_and_roundtrip():
    M = LatticeMatrix.parse("0.5,0,0,-0.5")
    assert (M.m11, M.m12, M.m21, M.m22) == (0.5, 0.0, 0.0, -0.5)
    with pytest.raises(ValueError):
        LatticeMatrix.parse("1,2,3")
    with pytest.raises(ValueError):
        LatticeMatrix(1, 2, 2, 4)  # singular


def test_invertibility_accepts_badly_scaled_lattices():
    # the check is relative to ||M||_F^2, so scale alone never rejects
    for M in (LatticeMatrix(1e6, 0, 0, 1e-6), LatticeMatrix(1e-7, 0, 0, 1e-7),
              LatticeMatrix(1e-12, 1, 1e-12, -1),
              LatticeMatrix(1e-12, 1, 1e-12, -1).scaled(0.5),
              LatticeMatrix(0.15, -0.075, 0, 0.15).scaled(1e-9)):
        assert covolume(M) > 0


def test_invertibility_rejects_numerically_singular():
    # rank one up to rounding, whatever the scale (the last |det| ~ 1e-3)
    for entries in ((1, 1, 1, 1 + 1e-15), (1e-7, 2e-7, 2e-7, 4e-7),
                    (1e6, 1e6, 1e6, 1e6 * (1 + 1e-15)), (np.nan, 0, 0, 1)):
        with pytest.raises(ValueError):
            LatticeMatrix(*entries)


def test_enumerate_counts():
    M = LatticeMatrix(1, 0, 0, 1)
    assert len(enumerate_points(M, 0.5)) == 1
    assert len(enumerate_points(M, 1.0)) == 5
    assert len(enumerate_points(M, 1.5)) == 9


def test_enumerate_lexicographic_and_nested():
    M = LatticeMatrix(0.7, 0.2, -0.1, 0.9)
    small = enumerate_points(M, 2.0)
    large = enumerate_points(M, 4.0)
    coords_small = {tuple(k) for k in small.coords}
    coords_large = {tuple(k) for k in large.coords}
    assert coords_small <= coords_large
    order = [tuple(k) for k in large.coords]
    assert order == sorted(order)
    # every returned point respects the cutoff, generator reproduces points
    np.testing.assert_allclose(large.points,
                               large.coords @ M.as_array().T, atol=1e-14)
    assert np.all(np.hypot(*large.points.T) <= 4.0)


def test_enumerate_budget():
    M = LatticeMatrix(1e-3, 0, 0, 1e-3)
    with pytest.raises(BudgetError):
        enumerate_points(M, 10.0, budget=1000)
    with pytest.raises(ValueError):
        enumerate_points(M, -1.0)
