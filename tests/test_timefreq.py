import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hermgabor import (BudgetError, CapacityError, LatticeMatrix, Region,
                       VectorWindow, ambiguity, certificate, default_region,
                       osc_l1, stft)
from hermgabor.timefreq import nyquist_step
from hermgabor.lattice import DEFAULT_POINT_BUDGET

from _oracles import region_error


@pytest.fixture(scope="module")
def gauss():
    return VectorWindow((0,))


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


@pytest.mark.parametrize("dilation", [1.0, 0.25])
def test_stft_nyquist_guard_and_the_closed_form_has_none(dilation):
    # the step-1/32 grid of stft resolves modulations xi up to the point
    # where xi + sqrt(2n+1)/(2 pi sqrt(a)) + 1 = 16; the closed form
    # samples nothing
    w = VectorWindow((0, 1, 2), dilation)
    band = math.sqrt(5) / (2 * math.pi * math.sqrt(dilation))
    xi_edge = math.floor(16 * (15 - band)) / 16
    assert nyquist_step(xi_edge, 2, dilation) >= 1 / 32
    assert nyquist_step(xi_edge + 1 / 16, 2, dilation) < 1 / 32
    inside = Region(x_half=12.0, xi_half=xi_edge, x_step=1 / 4, xi_step=1 / 16)
    assert stft(w, inside).values.shape == (97, inside.xi_axis.size)
    region = Region(x_half=12.0, xi_half=xi_edge + 1 / 16, x_step=1 / 4,
                    xi_step=1 / 16)
    with pytest.raises(CapacityError, match="Nyquist"):
        stft(w, region)
    F = ambiguity(w, region)
    assert F.values.shape == (97, region.xi_axis.size)
    assert np.all(np.isfinite(F.values))
    cert = certificate(w, LatticeMatrix(0.1, 0, 0, 0.1), region)
    assert 0.0 < cert.ratio < math.inf


def walk_ulps(x, k):
    """The float k steps of one ulp from x (down for k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@settings(deadline=None, max_examples=100)
@given(n=st.integers(0, 40), dilation=st.floats(0.01, 100.0),
       offset=st.one_of(st.integers(-3, 3), st.floats(-8.0, 8.0)))
def test_nyquist_step_is_the_guard(n, dilation, offset):
    # stft raises exactly where its step 1/32 is coarser than the guard's
    # step for the region's largest modulation xi: at xi + sqrt(2n+1)/(2 pi
    # sqrt(a)) = 15 up to rounding, probed a few ulps either side of it
    edge = 15.0 - math.sqrt(2 * n + 1) / (2 * math.pi * math.sqrt(dilation))
    xi = walk_ulps(edge, offset) if isinstance(offset, int) else edge + offset
    assume(xi > 0)
    region = Region(x_half=0.5, xi_half=xi, x_step=0.25, xi_step=xi)
    assert region.xi_axis[-1] == xi
    w = VectorWindow((n,), dilation)
    if nyquist_step(xi, n, dilation) < 1 / 32:
        with pytest.raises(CapacityError, match="Nyquist guard violated"):
            stft(w, region)
    else:
        assert np.all(np.isfinite(stft(w, region).values))


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
    params = dict(x_half=x_half, xi_half=xi_half, x_step=x_step, xi_step=xi_step)
    if min(round(x_half / x_step), round(xi_half / xi_step)) == 0:
        with pytest.raises(ValueError, match="half its step"):
            Region(**params)
        return
    r = Region(**params)
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


def test_region_rejects_an_axis_of_one_node():
    # a half at or below half its step leaves the node 0 alone, whose field
    # has no step to read; the smallest half above it gives three nodes
    w = VectorWindow((0, 1, 2))
    for params in (dict(x_half=0.01, xi_half=1.0), dict(x_half=1.0, xi_half=0.05)):
        with pytest.raises(ValueError, match="half its step"):
            Region(x_step=0.1, xi_step=0.1, **params)
    region = Region(x_half=0.051, xi_half=1.0, x_step=0.1, xi_step=0.1)
    np.testing.assert_allclose(region.x_axis, [-0.1, 0.0, 0.1])
    assert osc_l1(ambiguity(w, region), 0.3) > 0.0


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


def region_parameters():
    """Any float (NaN, infinities, zeros and subnormals included), halves
    and steps of usual size, and steps whose half over them overflows."""
    return st.one_of(st.floats(), st.floats(1e-3, 20.0),
                     st.sampled_from([1 / 16, 1 / 32, 0.1, 1e-300, 1e-320,
                                      5e-324, 0.0, -0.0]))


@settings(deadline=None, max_examples=400)
@given(region_parameters(), region_parameters(), region_parameters(),
       region_parameters())
@example(x_half=9.0, xi_half=9.0, x_step=1e-320, xi_step=1e-320)
@example(x_half=1.0, xi_half=1.0, x_step=1 / 1581.5, xi_step=1 / 1581.5)
@example(x_half=0.05, xi_half=1.0, x_step=0.1, xi_step=0.1)
@example(x_half=0.15, xi_half=1.0, x_step=0.1, xi_step=0.1)
def test_region_rejects_what_its_rint_validation_rejects(x_half, xi_half,
                                                         x_step, xi_step):
    # non-finite or non-positive parameters and an axis of one node
    # (ValueError), too many samples (BudgetError; the CLI exits 3, see
    # the 1e-320 row of test_cli.REJECTED), with the message of the
    # validation that rounds half / step with np.rint
    params = dict(x_half=x_half, xi_half=xi_half, x_step=x_step, xi_step=xi_step)
    want = region_error(**params)
    if want is None:
        Region(**params)
        return
    kind, message = want
    with pytest.raises(kind) as info:
        Region(**params)
    assert type(info.value) is kind and str(info.value).startswith(message)
