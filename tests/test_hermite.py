import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
import sympy as sp

from hermgabor import GridSpec, VectorWindow, dilated_hermite, dilated_hermite_all
from hermgabor.hermite import FAR_X, _hermite_all

from _oracles import (hermite_expression_form, hermite_grid,
                      hermite_operator_residual)


def rodrigues_oracle(n):
    """Independent closed form: h_n = (-1)^n (2^n n! sqrt(pi))^{-1/2}
    e^{x^2/2} d^n/dx^n e^{-x^2}."""
    x = sp.symbols("x")
    expr = ((-1) ** n / sp.sqrt(2 ** n * sp.factorial(n) * sp.sqrt(sp.pi))
            * sp.exp(x ** 2 / 2) * sp.diff(sp.exp(-x ** 2), x, n))
    return sp.lambdify(x, sp.simplify(expr), "numpy")


@pytest.mark.parametrize("n", range(7))
def test_recurrence_matches_rodrigues(n):
    xs = np.linspace(-4.0, 4.0, 33)
    oracle = rodrigues_oracle(n)
    assert np.max(np.abs(dilated_hermite(n, 1.0, xs) - oracle(xs))) < 1e-10


def test_scalar_input_returns_float():
    v = dilated_hermite(2, 1.0, 0.0)
    assert isinstance(v, float)
    # h_2(0) = -pi^{-1/4}/sqrt(2)
    assert v == pytest.approx(-np.pi ** (-0.25) / math.sqrt(2), abs=1e-14)
    assert isinstance(dilated_hermite(2, 0.5, 0.0), float)


def mpmath_hermite(n, x):
    """h_n(x) from the physicists' polynomial H_n in 40-digit arithmetic."""
    with mp.workdps(40):
        x = mp.mpf(x)
        norm = mp.sqrt(mp.mpf(2) ** n * mp.factorial(n) * mp.sqrt(mp.pi))
        return float(mp.hermite(n, x) * mp.exp(-x * x / 2) / norm)


@pytest.mark.parametrize("n", [1000, 2000])
def test_recurrence_matches_mpmath_where_the_gaussian_underflows(n):
    # exp(-x^2/2) is 0 in float64 beyond x ~ 38.6, well inside the
    # oscillatory region |x| < sqrt(2n+1) of h_n; the points run through
    # and past that turning point, on both sides of FAR_X
    turning = math.sqrt(2 * n + 1)
    xs = np.array([0.0, 10.0, 30.0, FAR_X - 0.01, FAR_X + 0.01, 38.0, 40.0,
                   44.0, 50.0, turning - 1.0, turning, turning + 2.0,
                   turning + 6.0, -40.0])
    want = np.array([mpmath_hermite(n, x) for x in xs])
    assert np.max(np.abs(dilated_hermite(n, 1.0, xs) - want)) <= 1e-12
    assert dilated_hermite(n, 1.0, 40.0) == pytest.approx(
        mpmath_hermite(n, 40.0), abs=1e-12)


_RNG = np.random.default_rng(18)
RECURRENCE_POINTS = {
    "scalar": 0.7,
    "scalar-far": -41.0,
    "1-D": np.concatenate([np.linspace(-12.0, 12.0, 97),
                           [FAR_X - 0.01, FAR_X + 0.01, -40.0, 55.0]]),
    "2-D": np.where(_RNG.random((5, 23)) < 0.1, 45.0, 8.0 * _RNG.standard_normal((5, 23))),
    "2-D strided": (6.0 * _RNG.standard_normal((6, 40)))[::2, ::3],
}


@pytest.mark.parametrize("n_max", [0, 1, 2, 40, 400])
@pytest.mark.parametrize("name", RECURRENCE_POINTS)
def test_in_place_recurrence_matches_the_expression_form(n_max, name):
    # the recurrence runs in place in the expression form's operation
    # order, so it must agree with it bit for bit, beyond FAR_X too
    x = RECURRENCE_POINTS[name]
    want = hermite_expression_form(n_max, x)
    table = _hermite_all(n_max, x)
    assert table.shape == want.shape == (n_max + 1,) + np.shape(x)
    assert np.array_equal(table, want)
    assert np.array_equal(dilated_hermite_all(n_max, 1.0, x), want)
    # elsewhere the dilation is the scaled table at the scaled points
    a = 0.37
    scaled = a ** (-0.25) * hermite_expression_form(n_max, np.asarray(x) / math.sqrt(a))
    assert np.array_equal(dilated_hermite_all(n_max, a, x), scaled)


def test_eval_all_consistent_with_single():
    xs = np.linspace(-6, 6, 101)
    table = dilated_hermite_all(8, 1.0, xs)
    for n in range(9):
        np.testing.assert_allclose(table[n], dilated_hermite(n, 1.0, xs), atol=1e-14)


def test_orthonormality_small():
    grid = hermite_grid(10)
    table = dilated_hermite_all(10, 1.0, grid.points)
    gram = grid.step * (table @ table.T)
    assert np.max(np.abs(gram - np.eye(11))) < 1e-8


def test_dilation_definition():
    xs = np.linspace(-5, 5, 41)
    a = 0.3
    expect = a ** (-0.25) * dilated_hermite(3, 1.0, xs / math.sqrt(a))
    np.testing.assert_allclose(dilated_hermite(3, a, xs), expect, atol=1e-14)


def test_dilated_orthonormality():
    grid = hermite_grid(8, dilation=4.0)
    table = np.vstack([dilated_hermite(n, 4.0, grid.points) for n in range(9)])
    gram = grid.step * (table @ table.T)
    assert np.max(np.abs(gram - np.eye(9))) < 1e-8


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("a", [0.25, 1.0, 4.0])
def test_eigenrelation_residual(n, a):
    grid = hermite_grid(n, dilation=a)
    assert hermite_operator_residual(n, grid, a) < 1e-2


def test_residual_quadratic_in_step():
    r1 = hermite_operator_residual(2, hermite_grid(2, step=1 / 32))
    r2 = hermite_operator_residual(2, hermite_grid(2, step=1 / 64))
    assert 3.5 < r1 / r2 < 4.5


def test_window_construction():
    w = VectorWindow(range(4))
    assert w.degree == 3 and len(w.indices) == 4
    assert (w.indices, w.dilation) == ((0, 1, 2, 3), 1.0)
    assert [f.name for f in dataclasses.fields(VectorWindow)] == [
        "indices", "dilation"]
    # frozen and hashable: equal windows are one key
    assert {w: 1}[VectorWindow((0, 1, 2, 3))] == 1
    assert VectorWindow(np.arange(2), 0.5) == VectorWindow((0, 1), 0.5)


def test_window_duplicate_indices_allowed():
    w = VectorWindow((0, 0))
    assert w.indices == (0, 0) and len(w.indices) == 2


def test_invalid_arguments():
    grid = hermite_grid(0)
    with pytest.raises(ValueError):
        dilated_hermite(-1, 1.0, 0.0)
    for a in (0.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="dilation"):
            dilated_hermite(0, a, 1.0)
        with pytest.raises(ValueError, match="dilation"):
            dilated_hermite_all(2, a, grid.points)
        with pytest.raises(ValueError, match="dilation"):
            VectorWindow((0,), a)
    with pytest.raises(ValueError, match="at least one"):
        VectorWindow(())
    with pytest.raises(ValueError, match="nonnegative"):
        VectorWindow((0, -1))
    for indices in ((0, 1.9), (0, 1.0), ("0",), 3):
        with pytest.raises(ValueError, match="integers"):
            VectorWindow(indices)
    for step in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="finite"):
            GridSpec(step=step, count=2)
    with pytest.raises(ValueError, match="at least 2"):
        GridSpec(step=1.0, count=1)
