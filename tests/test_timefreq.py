import math

import numpy as np
import pytest

from hermgabor import (CapacityError, GridSpec, Region, SampledSignal, TFPoint,
                       default_region, field_from_binary, field_l2,
                       field_to_binary, field_to_csv, hermite_window, inner,
                       modulate, norm, signal_from_window, stft,
                       tf_shift_window, translate)
from hermgabor.timefreq import SupportOverflowWarning, shifted_window_samples


@pytest.fixture(scope="module")
def gauss():
    grid = GridSpec.build(max_index=0, max_modulation=12.0)
    return hermite_window(0, grid)


def test_gaussian_translate_overlap(gauss):
    f = signal_from_window(gauss)
    g = tf_shift_window(gauss, TFPoint(1.0, 0.0))
    assert inner(f, g) == pytest.approx(math.exp(-0.25), abs=1e-12)


def test_shift_phase_convention(gauss):
    # f_gamma(x) = e^{2 pi i gamma2 (x - gamma1)} f(x - gamma1)
    g = tf_shift_window(gauss, TFPoint(0.5, 2.0))
    x = gauss.grid.points
    direct = np.exp(1j * 2 * np.pi * 2.0 * (x - 0.5)) * \
        np.pi ** (-0.25) * np.exp(-0.5 * (x - 0.5) ** 2)
    np.testing.assert_allclose(g.components[0], direct, atol=1e-12)


def test_shift_unitarity(gauss):
    g = tf_shift_window(gauss, TFPoint(2.0, 3.0))
    assert norm(g) == pytest.approx(1.0, abs=1e-10)


def test_vector_window_norm():
    grid = GridSpec.build(max_index=2)
    w = hermite_window(2, grid)
    f = signal_from_window(w)
    assert inner(f, f) == pytest.approx(3.0, abs=1e-10)


def test_orthogonal_components_inner():
    grid = GridSpec.build(max_index=1)
    w = hermite_window(1, grid)
    f = signal_from_window(w)
    swapped = SampledSignal(grid=grid, components=(f.components[1],
                                                   f.components[0]))
    assert abs(inner(f, swapped)) < 1e-10


def test_translate_modulate_commutation(gauss):
    f = signal_from_window(gauss)
    xi, y = 1.5, 0.75
    x = gauss.grid.points
    mt = modulate(translate(f, y), xi)  # M_xi T_y f
    direct = np.exp(1j * 2 * np.pi * xi * x) * \
        np.pi ** (-0.25) * np.exp(-0.5 * (x - y) ** 2)
    np.testing.assert_allclose(mt.components[0], direct, atol=1e-12)
    # T_y M_xi f = e^{-2 pi i xi y} M_xi T_y f; tf_shift uses the T-M order
    tm = tf_shift_window(gauss, TFPoint(y, xi))
    np.testing.assert_allclose(
        tm.components[0],
        np.exp(-1j * 2 * np.pi * xi * y) * mt.components[0], atol=1e-12)


def test_translate_requires_hermite_backing(gauss):
    f = signal_from_window(gauss)
    with pytest.raises(ValueError):
        translate(modulate(f, 1.0), 0.5)


def test_capacity_and_warning(gauss):
    with pytest.raises(CapacityError):
        tf_shift_window(gauss, TFPoint(50.0, 0.0))
    with pytest.warns(SupportOverflowWarning):
        tf_shift_window(gauss, TFPoint(gauss.grid.half_width - 4.0, 0.0))
    with pytest.raises(CapacityError):
        tf_shift_window(gauss, TFPoint(0.0, 40.0))


def test_shifted_samples_no_check(gauss):
    s = shifted_window_samples(gauss, 100.0, 0.0)
    assert np.max(np.abs(s)) < 1e-300 or np.all(np.isfinite(s))


def test_stft_isometry(gauss):
    f = signal_from_window(gauss)
    region = default_region(0)
    F = stft(gauss, f, region)
    assert field_l2(F) ** 2 == pytest.approx(1.0, abs=1e-3)


def test_stft_gaussian_modulus(gauss):
    f = signal_from_window(gauss)
    F = stft(gauss, f, default_region(0))
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


def test_field_roundtrips(tmp_path, gauss):
    f = signal_from_window(gauss)
    F = stft(gauss, f, Region(x_half=2.0, xi_half=2.0, x_step=0.5, xi_step=0.5))
    binpath = tmp_path / "field.bin"
    field_to_binary(F, binpath)
    G = field_from_binary(binpath)
    np.testing.assert_array_equal(G.values, F.values)
    np.testing.assert_array_equal(G.x_axis, F.x_axis)

    csvpath = tmp_path / "field.csv"
    field_to_csv(F, csvpath)
    data = np.loadtxt(csvpath, delimiter=",", skiprows=1)
    assert data.shape == (F.values.size, 4)
    np.testing.assert_allclose(
        data[:, 2] + 1j * data[:, 3], F.values.ravel(), atol=0)

    with open(binpath, "r+b") as fh:
        fh.write(b"XXXXXXXX")
    with pytest.raises(ValueError):
        field_from_binary(binpath)
