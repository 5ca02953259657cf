import math

import numpy as np
import pytest
import sympy as sp

from hermgabor import (CapacityError, GridSpec, dilated_hermite,
                       dilated_hermite_all, eval_hermite, eval_hermite_all,
                       hermite_operator_residual, hermite_window,
                       window_from_indices)


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
    assert np.max(np.abs(eval_hermite(n, xs) - oracle(xs))) < 1e-10


def test_scalar_input_returns_float():
    v = eval_hermite(2, 0.0)
    assert isinstance(v, float)
    # h_2(0) = -pi^{-1/4}/sqrt(2)
    assert v == pytest.approx(-np.pi ** (-0.25) / math.sqrt(2), abs=1e-14)
    assert isinstance(dilated_hermite(2, 0.5, 0.0), float)


def test_eval_all_consistent_with_single():
    xs = np.linspace(-6, 6, 101)
    table = eval_hermite_all(8, xs)
    for n in range(9):
        np.testing.assert_allclose(table[n], eval_hermite(n, xs), atol=1e-14)


def test_orthonormality_small():
    grid = GridSpec.build(max_index=10)
    table = eval_hermite_all(10, grid.points)
    gram = grid.step * (table @ table.T)
    assert np.max(np.abs(gram - np.eye(11))) < 1e-8


def test_dilation_definition():
    xs = np.linspace(-5, 5, 41)
    a = 0.3
    expect = a ** (-0.25) * eval_hermite(3, xs / math.sqrt(a))
    np.testing.assert_allclose(dilated_hermite(3, a, xs), expect, atol=1e-14)


def test_dilated_orthonormality():
    grid = GridSpec.build(max_index=8, dilation=4.0)
    table = np.vstack([dilated_hermite(n, 4.0, grid.points) for n in range(9)])
    gram = grid.step * (table @ table.T)
    assert np.max(np.abs(gram - np.eye(9))) < 1e-8


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("a", [0.25, 1.0, 4.0])
def test_eigenrelation_residual(n, a):
    grid = GridSpec.build(max_index=n, dilation=a)
    assert hermite_operator_residual(n, grid, a) < 1e-2


def test_residual_quadratic_in_step():
    r1 = hermite_operator_residual(2, GridSpec.build(max_index=2, step=1 / 32))
    r2 = hermite_operator_residual(2, GridSpec.build(max_index=2, step=1 / 64))
    assert 3.5 < r1 / r2 < 4.5


def test_window_construction():
    grid = GridSpec.build(max_index=3)
    w = hermite_window(3, grid)
    assert w.degree == 3 and w.n_components == 4
    assert (w.grid, w.indices, w.dilation) == (grid, (0, 1, 2, 3), 1.0)
    # frozen and hashable: equal windows are one key
    assert {w: 1}[window_from_indices(range(4), grid)] == 1


def test_window_duplicate_indices_allowed():
    grid = GridSpec.build(max_index=0)
    w = window_from_indices((0, 0), grid)
    assert w.indices == (0, 0) and w.n_components == 2


def test_invalid_arguments():
    grid = GridSpec.build(max_index=0)
    with pytest.raises(ValueError):
        eval_hermite(-1, 0.0)
    for a in (0.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="dilation"):
            dilated_hermite(0, a, 1.0)
        with pytest.raises(ValueError, match="dilation"):
            dilated_hermite_all(2, a, grid.points)
    # the grid's support check rejects the dilation before any use of it
    for a in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="dilation"):
            window_from_indices((0,), grid, a)
    with pytest.raises(ValueError):
        window_from_indices((), grid)
    with pytest.raises(ValueError, match="integers"):
        window_from_indices((0, 1.9), grid)
    assert window_from_indices(np.arange(2), grid).indices == (0, 1)
    with pytest.raises(CapacityError):
        grid.check_support(400)
    for a in (math.inf, -math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match="finite"):
            GridSpec.build(0, dilation=a)
    for step in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="finite"):
            GridSpec.build(0, step=step)
        with pytest.raises(ValueError, match="finite"):
            GridSpec(step=step, count=2)
