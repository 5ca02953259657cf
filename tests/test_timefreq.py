import math

import numpy as np
import pytest

from hermgabor import GridSpec, Region, default_region, hermite_window, stft


@pytest.fixture(scope="module")
def gauss():
    grid = GridSpec.build(max_index=0, max_modulation=12.0)
    return hermite_window(0, grid)


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


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_region_rejects_non_finite_or_non_positive(bad):
    for field in ("x_half", "xi_half", "x_step", "xi_step"):
        params = dict(x_half=2.0, xi_half=1.0, x_step=0.5, xi_step=0.25)
        params[field] = bad
        with pytest.raises(ValueError, match="finite and positive"):
            Region(**params)
    with pytest.raises(ValueError, match="finite step"):
        default_region(0, bad)
