import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermgabor import (BudgetError, GridSpec, Region, default_region, stft,
                       window_from_indices)
from hermgabor.lattice import DEFAULT_POINT_BUDGET


@pytest.fixture(scope="module")
def gauss():
    grid = GridSpec.build(max_index=0, max_modulation=12.0)
    return window_from_indices((0,), grid)


def test_stft_isometry(gauss):
    F = stft(gauss, default_region(0))
    mass = F.x_step * F.xi_step * float(np.sum(np.abs(F.values) ** 2))
    assert mass == pytest.approx(1.0, abs=1e-3)


def test_stft_gaussian_modulus(gauss):
    F = stft(gauss, default_region(0))
    i0 = F.xi_axis.size // 2
    np.testing.assert_allclose(np.abs(F.values[:, i0]),
                               np.exp(-F.x_axis ** 2 / 4), atol=1e-10)
    j0 = F.x_axis.size // 2
    np.testing.assert_allclose(np.abs(F.values[j0, :]),
                               np.exp(-np.pi ** 2 * F.xi_axis ** 2), atol=1e-10)


def test_region_axes_symmetric():
    r = Region(x_half=2.0, xi_half=1.0, x_step=0.5, xi_step=0.25)
    np.testing.assert_allclose(r.x_axis, [-2, -1.5, -1, -0.5, 0, 0.5, 1, 1.5, 2])
    assert r.xi_axis.size == 9 and r.xi_axis[4] == 0.0


@settings(deadline=None, max_examples=200)
@given(st.floats(0.01, 10.0), st.floats(0.01, 10.0), st.floats(0.01, 2.0),
       st.floats(0.01, 2.0))
def test_region_axes_are_mirror_images(x_half, xi_half, x_step, xi_step):
    # the certificate folds its sums from one quadrant: each axis must be
    # its own negated reverse exactly, for any step (-0.0 == 0.0)
    r = Region(x_half=x_half, xi_half=xi_half, x_step=x_step, xi_step=xi_step)
    for axis in (r.x_axis, r.xi_axis):
        assert axis.size % 2 == 1 and axis[axis.size // 2] == 0.0
        assert np.array_equal(axis, -axis[::-1])


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_region_rejects_non_finite_or_non_positive(bad):
    for field in ("x_half", "xi_half", "x_step", "xi_step"):
        params = dict(x_half=2.0, xi_half=1.0, x_step=0.5, xi_step=0.25)
        params[field] = bad
        with pytest.raises(ValueError, match="finite and positive"):
            Region(**params)
    with pytest.raises(ValueError, match="finite step"):
        default_region(0, bad)


def test_region_point_budget():
    # 3161 x 3161 samples fit in the budget of 10^7, 3165 x 3165 do not
    at_budget = Region(x_half=1.0, xi_half=1.0, x_step=1 / 1580.5,
                       xi_step=1 / 1580.5)
    assert at_budget.x_axis.size * at_budget.xi_axis.size <= DEFAULT_POINT_BUDGET
    for step in (1 / 1581.5, 1e-300):
        with pytest.raises(BudgetError, match="exceeds point budget"):
            Region(x_half=1.0, xi_half=1.0, x_step=step, xi_step=step)
    with pytest.raises(BudgetError, match="exceeds point budget"):
        default_region(0, 0.001)
