import math

import numpy as np
import pytest

from hermgabor import (GaborError, GaborSystemSpec, GridSpec, LatticeMatrix,
                       PreconditionError, Region, ResolutionError,
                       SampledField, ambiguity, box_norm, certificate,
                       certificate_from_json, certificate_to_json,
                       certification_grid, certification_window,
                       default_region, dilated_hermite_all, frame_bounds,
                       osc_l1, oscillation, stft, twisted_convolve,
                       window_from_indices)
from hermgabor.certify import BOUNDARY_DECAY_TOL

from _oracles import oscillation_oracle

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
    assert back.ratio == cert.ratio and back.valid == cert.valid


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
