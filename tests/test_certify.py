import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hermgabor import (GaborError, GaborSystemSpec, GridSpec, LatticeMatrix,
                       PreconditionError, Region, ResolutionError,
                       SampledField, ambiguity, box_norm, certificate,
                       certificate_from_json, certificate_to_json,
                       certification_grid, certification_window,
                       default_region, dilated_hermite_all, frame_bounds,
                       osc_l1, oscillation, stft, twisted_convolve,
                       window_from_indices)
from hermgabor.certify import BOUNDARY_DECAY_TOL, _laguerre_field
from hermgabor.timefreq import WIDE_REGION_DEGREE

from _oracles import full_field_certificate, oscillation_oracle

GOLDEN_R_02 = 1.8721375061376446  # oscillation ratio of h^0 at r = 0.2


@pytest.fixture(scope="module")
def gauss_field():
    w = certification_window(0)
    return ambiguity(w)


def test_ambiguity_center_and_mass():
    for d in (0, 1):
        F = ambiguity(certification_window(d))
        center = F.values[F.x_axis.size // 2, F.xi_axis.size // 2]
        assert center == pytest.approx(d + 1, abs=1e-8)
        # isometry: the Riemann ||F||^2 is the number of window components
        mass = F.x_step * F.xi_step * float(np.sum(np.abs(F.values) ** 2))
        assert mass == pytest.approx(d + 1, abs=1e-3)


def test_gaussian_ambiguity_closed_form(gauss_field):
    F = gauss_field
    j0 = F.xi_axis.size // 2
    np.testing.assert_allclose(F.values[:, j0].real,
                               np.exp(-F.x_axis ** 2 / 4), atol=1e-10)
    assert np.max(np.abs(F.values[:, j0].imag)) < 1e-10
    # symmetric gauge: the full field is the real 2D Gaussian
    X, XI = np.meshgrid(F.x_axis, F.xi_axis, indexing="ij")
    np.testing.assert_allclose(
        F.values.real, np.exp(-X ** 2 / 4 - np.pi ** 2 * XI ** 2), atol=1e-9)


@pytest.mark.parametrize("indices, dilation",
                         [(tuple(range(d + 1)), 1.0) for d in (0, 1, 2, 5, 12)]
                         + [((1, 3), 1.0), ((0, 1, 2), 0.5), ((0, 1, 2), 2.0)])
def test_ambiguity_closed_form_matches_stft(indices, dilation):
    n = max(indices)
    region = default_region(n, step=1 / 8)
    half = region.x_half + math.sqrt((2 * n + 1) * dilation) + 8.0
    count = math.ceil(64 * half)
    grid = GridSpec(step=1 / 32, count=count)
    w = window_from_indices(indices, grid, dilation)
    F = ambiguity(w, region).values
    V = stft(w, region)
    # the sampled STFT in the symmetric gauge
    G = V.values * np.exp(-1j * np.pi * np.outer(V.x_axis, V.xi_axis))
    assert F.dtype == np.float64
    assert np.max(np.abs(F - G)) <= 1e-13 * np.max(np.abs(F))
    assert F[F.shape[0] // 2, F.shape[1] // 2] == len(indices)


@pytest.mark.parametrize("indices, dilation", [
    ((0, 1, 2), 1.0), ((0, 1, 2), 0.5), ((1, 3), 2.0), ((0, 0, 2), 1.7),
    ((2, 0, 2, 5), 0.4)])
def test_ambiguity_is_even_in_x_and_xi(indices, dilation):
    # the premise of the certificate's quadrant fold: the Laguerre sum
    # evaluated over the whole region equals its own flips bit for bit, and
    # ambiguity (the unfolded quadrant) equals that whole-region sum
    n = max(indices)
    region = default_region(n, step=1 / 8)
    grid = GridSpec(step=1 / 32, count=math.ceil(
        64 * (region.x_half + math.sqrt((2 * n + 1) * dilation) + 8.0)))
    w = window_from_indices(indices, grid, dilation)
    full = _laguerre_field(w, region.x_axis, region.xi_axis)
    F = ambiguity(w, region).values
    for values in (full, F):
        assert np.array_equal(values, values[::-1, :])
        assert np.array_equal(values, values[:, ::-1])
    assert np.array_equal(F, full)


def smooth_random_field(rng, half=6.0, step=0.5):
    n = int(round(half / step))
    ax = step * np.arange(-n, n + 1)
    X, XI = np.meshgrid(ax, ax, indexing="ij")
    env = np.exp(-(X ** 2 + XI ** 2))
    poly = sum(rng.normal() * X ** a * XI ** b
               for a in range(3) for b in range(3))
    ipoly = sum(rng.normal() * X ** a * XI ** b
                for a in range(2) for b in range(2))
    return SampledField(x_axis=ax, xi_axis=ax,
                        values=env * (poly + 1j * ipoly))


def direct_twisted(G, F):
    """Triple-loop Riemann sum of the defining formula."""
    x, xi = G.x_axis, G.xi_axis
    nx, nxi = G.values.shape
    out = np.zeros_like(G.values)
    for i in range(nx):
        for j in range(nxi):
            acc = 0.0 + 0.0j
            for ip in range(nx):
                k = i - ip + nx // 2
                if not 0 <= k < nx:
                    continue
                for jp in range(nxi):
                    ell = j - jp + nxi // 2
                    if not 0 <= ell < nxi:
                        continue
                    acc += G.values[ip, jp] * F.values[k, ell] * np.exp(
                        1j * np.pi * (x[i] * xi[jp] - x[ip] * xi[j]))
            out[i, j] = acc
    return out * G.x_step * G.xi_step


def test_twisted_convolve_matches_direct_sum():
    rng = np.random.default_rng(3)
    G = smooth_random_field(rng)
    F = smooth_random_field(rng)
    got = twisted_convolve(G, F)
    want = direct_twisted(G, F)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got.values - want)) < 1e-12 * max(scale, 1.0)


def test_twisted_convolve_zero_and_axes():
    rng = np.random.default_rng(4)
    G = smooth_random_field(rng)
    Z = SampledField(x_axis=G.x_axis, xi_axis=G.xi_axis,
                     values=np.zeros_like(G.values))
    assert np.max(np.abs(twisted_convolve(G, Z).values)) == 0.0
    other = smooth_random_field(rng, half=4.0, step=0.5)
    with pytest.raises(ValueError):
        twisted_convolve(G, other)


def test_twisted_convolve_young_bound():
    rng = np.random.default_rng(5)
    G = smooth_random_field(rng)
    F = smooth_random_field(rng)
    conv = twisted_convolve(G, F)
    h2 = G.x_step * G.xi_step
    l2 = lambda v: math.sqrt(h2 * float(np.sum(np.abs(v) ** 2)))
    l1 = h2 * float(np.sum(np.abs(G.values)))
    assert l2(conv.values) <= l1 * l2(F.values) * (1 + 5e-2)


def test_boundary_decay_guard():
    ax = np.linspace(-2, 2, 17)
    flat = SampledField(x_axis=ax, xi_axis=ax, values=np.ones((17, 17)))
    with pytest.raises(PreconditionError):
        twisted_convolve(flat, flat)


def test_reproducing_identity_coarse():
    w = certification_window(0)
    reg = Region(x_half=9.0, xi_half=9.0, x_step=0.125, xi_step=0.125)
    F = ambiguity(w, reg)
    FF = twisted_convolve(F, F)
    rel = np.linalg.norm(FF.values - F.values) / np.linalg.norm(F.values)
    assert rel < 1e-2


def test_oscillation_monotone_and_errors(gauss_field):
    F = gauss_field
    r_values = [0.1, 0.15, 0.2, 0.3]
    ratios = [osc_l1(F, r) for r in r_values]
    assert all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:]))
    with pytest.raises(ResolutionError):
        oscillation(F, 1e-4)
    const = SampledField(x_axis=F.x_axis, xi_axis=F.xi_axis,
                         values=np.ones_like(F.values))
    assert osc_l1(const, 0.2) == 0.0
    complex_field = SampledField(x_axis=F.x_axis, xi_axis=F.xi_axis,
                                 values=F.values.astype(complex))
    with pytest.raises(ValueError, match="real field"):
        oscillation(complex_field, 0.2)


@pytest.mark.parametrize("shape, hx, hxi, r", [
    ((31, 17), 0.25, 0.125, 0.6),
    ((17, 31), 0.125, 0.25, 0.125 * (1 + 1e-12)),   # r just above the step
    # (3, 0) and (0, 6) lie on the circle, so row 3 drops out of the disc
    ((31, 17), 0.25, 0.125, 0.75),
    ((12, 5), 0.5, 0.5, 3.3),                       # disc wider than the field
])
def test_oscillation_matches_offset_oracle(shape, hx, hxi, r):
    rng = np.random.default_rng(11)
    F = SampledField(x_axis=hx * np.arange(shape[0]),
                     xi_axis=hxi * np.arange(shape[1]),
                     values=rng.normal(size=shape))
    assert np.array_equal(oscillation(F, r).values, oscillation_oracle(F, r))


def test_oscillation_golden(gauss_field):
    assert osc_l1(gauss_field, 0.2) == pytest.approx(GOLDEN_R_02, rel=1e-6)


def test_certificate_valid_and_sound():
    M = LatticeMatrix(0.1, 0, 0, 0.1)
    w = certification_window(0)
    cert = certificate(w, M)
    assert cert.valid and cert.radius == pytest.approx(box_norm(M))
    assert cert.A_cert == pytest.approx((1 - cert.ratio) ** 2 / 0.01, rel=1e-12)
    fb = frame_bounds(GaborSystemSpec(window_degree=0, matrix=M,
                                      galerkin_dim=16),
                      check_convergence=False)
    assert cert.A_cert <= fb.A_est + 1e-9
    assert fb.B_est <= cert.B_cert + 1e-9
    assert cert.eps_disc > 0


def test_certificate_invalid_has_zero_lower_bound():
    M = LatticeMatrix(0.5, 0, 0, 0.5)
    cert = certificate(certification_window(0), M)
    assert not cert.valid and cert.A_cert == 0.0 and cert.B_cert > 0


def test_certificate_disc_wider_than_the_region():
    # r = 7.07 exceeds the default region's xi half (2.4375)
    cert = certificate(certification_window(0), LatticeMatrix(10, 0, 0, 10))
    assert not cert.valid
    assert cert.ratio == pytest.approx(81.89, rel=1e-3)


def test_certificate_requires_orthonormal_components():
    M = LatticeMatrix(0.1, 0, 0, 0.1)
    for indices in ((0, 0), (2, 0, 2)):
        w = window_from_indices(indices, certification_grid(max(indices)))
        with pytest.raises(PreconditionError, match="orthonormal"):
            certificate(w, M)
    # distinct indices at any dilation are orthonormal; the region holds
    # the ambiguity function of h_{3,2}, which is wider in x than h_3's
    region = Region(x_half=16.0, xi_half=2.0, x_step=1 / 16, xi_step=1 / 16)
    w = window_from_indices((1, 3), certification_grid(3, region), 2.0)
    assert certificate(w, M, region).window_degree == 1


@pytest.mark.parametrize("indices", [tuple(range(d + 1)) for d in (0, 5, 18, 40)]
                         + [(0, 0), (2, 0, 2)])
def test_orthonormality_check_agrees_with_quadrature(indices):
    # the certificate checks orthonormality from the indices alone; the
    # quadrature Gram matrix of the sampled window (a certification window
    # for the distinct indices) is the oracle
    n = max(indices)
    w = window_from_indices(indices, certification_grid(n))
    table = dilated_hermite_all(n, w.dilation, w.grid.points)[list(indices)]
    gram = w.grid.step * (table @ table.T)
    orthonormal = np.max(np.abs(gram - np.eye(len(indices)))) <= 1e-12
    assert orthonormal == (len(set(indices)) == len(indices))
    try:
        certificate(w, LatticeMatrix(1, 0, 0, 1))
    except PreconditionError as exc:
        assert not orthonormal and "orthonormal" in str(exc)
    else:
        assert orthonormal


def test_certificate_json_roundtrip():
    M = LatticeMatrix(0.1, 0, 0, 0.1)
    cert = certificate(certification_window(0), M)
    text = certificate_to_json(cert)
    back = certificate_from_json(text)
    assert certificate_to_json(back) == text
    assert back == cert
    assert back.ratio == cert.ratio and back.valid == cert.valid
    # an invalid certificate round-trips as exactly
    coarse = certificate(certification_window(0), LatticeMatrix(10, 0, 0, 10))
    assert not coarse.valid
    assert certificate_from_json(certificate_to_json(coarse)) == coarse


@pytest.mark.parametrize("field, value", [
    ("valid", False), ("r", 0.51), ("B_cert", 1.0), ("A_cert", 0.0),
    ("det", 0.02)])
def test_certificate_from_json_rejects_contradicting_fields(field, value):
    # the file's derived fields must be those of its R and matrix
    cert = certificate(certification_window(0), LatticeMatrix(0.1, 0, 0, 0.1))
    assert cert.valid
    record = json.loads(certificate_to_json(cert))
    record[field] = value
    with pytest.raises(ValueError, match=field):
        certificate_from_json(json.dumps(record))


def test_ambiguity_grid_too_small_for_region():
    tiny = Region(x_half=0.5, xi_half=0.5, x_step=0.25, xi_step=0.25)
    w = certification_window(0, tiny)  # grid sized for the tiny region only
    with pytest.raises(GaborError):
        ambiguity(w)  # default region overruns the grid


def test_certificate_rejects_region_cutting_off_the_ambiguity():
    # a half-width of 0.2 holds only the peak of the Gaussian's ambiguity
    # function; its truncated field would give R = 0.047 (valid)
    region = Region(x_half=0.2, xi_half=0.2, x_step=1 / 16, xi_step=1 / 16)
    w = certification_window(0, region)
    with pytest.raises(PreconditionError, match="region boundary"):
        certificate(w, LatticeMatrix(0.5, 0, 0, 0.5), region)


@pytest.mark.parametrize("x_half, xi_half", [(12.0, 0.5), (2.0, 3.0)])
def test_certificate_rejects_region_cutting_off_one_axis(x_half, xi_half):
    # the Gaussian's ambiguity function has decayed at one edge of the
    # region and not at the other; the certificate reads the quadrant's
    # outer row and column, which must hold both edges of the ring
    region = Region(x_half=x_half, xi_half=xi_half, x_step=1 / 16,
                    xi_step=1 / 16)
    w = certification_window(0, region)
    F = ambiguity(w, region).values
    peak = np.abs(F).max()
    x_edge = np.abs(F[[0, -1], :]).max() / peak
    xi_edge = np.abs(F[:, [0, -1]]).max() / peak
    assert min(x_edge, xi_edge) <= BOUNDARY_DECAY_TOL < max(x_edge, xi_edge)
    with pytest.raises(PreconditionError, match="region boundary"):
        certificate(w, LatticeMatrix(0.1, 0, 0, 0.1), region)


RADII = ("just above the step", "inside the region", "wider than the xi half")


@settings(deadline=None, max_examples=40)
@given(d=st.integers(0, 8), dilation=st.floats(0.3, 3.0),
       step=st.sampled_from([1 / 8, 1 / 16, 1 / 32]),
       radius=st.sampled_from(RADII), frac=st.floats(0.0, 1.0),
       theta=st.floats(0.0, math.pi))
@example(d=0, dilation=1.0, step=1 / 32, radius=RADII[0], frac=0.0,
         theta=0.0)
@example(d=8, dilation=0.3, step=1 / 16, radius=RADII[2], frac=1.0,
         theta=0.3)
@example(d=3, dilation=3.0, step=1 / 8, radius=RADII[1], frac=0.5,
         theta=1.0)
def test_certificate_matches_full_field_oracle(d, dilation, step, radius,
                                               frac, theta):
    # a default region, widened by 1 and then stretched by sqrt(dilation) in
    # x and shrunk by it in xi, holds the ambiguity function of the dilated
    # window
    root_a = math.sqrt(dilation)
    x_half = 1.0 + (2 * math.sqrt(2 * d + 1) + 5.0 if d >= WIDE_REGION_DEGREE
                    else math.sqrt(2 * d + 1) + 8.0)
    region = Region(
        x_half=math.ceil(x_half * root_a / step) * step,
        xi_half=math.ceil((x_half / (2 * math.pi * root_a) + 1) / step) * step,
        x_step=step, xi_step=step)
    grid = GridSpec(step=1 / 32, count=math.ceil(
        64 * (region.x_half + math.sqrt(2 * d + 1) * root_a + 8.0)))
    w = window_from_indices(range(d + 1), grid, dilation)
    r = {RADII[0]: step * (1 + 1e-9),
         RADII[1]: step * (1 + 1e-9) + frac * (1.0 - step),
         RADII[2]: region.xi_half * (1.05 + 0.5 * frac)}[radius]
    # t R(theta) maps the box [-1/2, 1/2]^2 onto a square of half-diagonal
    # t / sqrt(2)
    t = math.sqrt(2) * r
    c, s = math.cos(theta), math.sin(theta)
    M = LatticeMatrix(t * c, -t * s, t * s, t * c)
    assert box_norm(M) > step
    cert = certificate(w, M, region)
    R, eps = full_field_certificate(w, M, region)
    assert cert.ratio == pytest.approx(R, rel=1e-13, abs=0)
    assert cert.eps_disc == pytest.approx(eps, rel=1e-13, abs=0)


@pytest.mark.parametrize("d", list(range(13)) + [17, 18, 25, 40])
def test_default_region_holds_the_ambiguity(d):
    region = default_region(d)
    root = math.sqrt(2 * d + 1)
    x_half = root + 8.0 if d <= 5 else 2.0 * root + 5.0
    assert region.x_half == math.ceil(x_half * 16) / 16
    # F depends on x^2 + (2 pi xi)^2: the xi half is the x half over 2 pi,
    # plus room for an oscillation disc of radius 1
    assert region.xi_half == math.ceil((x_half / (2 * math.pi) + 1) * 16) / 16
    F = ambiguity(certification_window(d), region).values
    edge = max(np.abs(F[[0, -1], :]).max(), np.abs(F[:, [0, -1]]).max())
    assert edge <= BOUNDARY_DECAY_TOL * np.abs(F).max()
