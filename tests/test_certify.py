import itertools
import json
import math
from bisect import bisect_left

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hermgabor.certify as certify_module
from hermgabor import (GaborSystemSpec, LatticeMatrix,
                       PreconditionError, Region, ResolutionError,
                       SampledField, VectorWindow, ambiguity, box_norm,
                       certificate, certificate_from_json,
                       certificate_to_json, certification_window,
                       default_region, dilated_hermite_all, frame_bounds,
                       osc_l1, oscillation, stft)
from hermgabor.certify import (_FIELD_CACHE_SIZE, BOUNDARY_DECAY_TOL,
                               SUPPORT_TOL, _disc_rows, _fold,
                               _laguerre_field, _oscillation, _squares,
                               _window_field, _window_region)
from hermgabor.timefreq import (WIDE_REGION_DEGREE, _dilated_region,
                                _stretched_region)

from _oracles import (full_field_certificate, hermite_grid, oscillation_oracle,
                      twisted_convolve)

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
    region = default_region(max(indices), step=1 / 8)
    w = VectorWindow(indices, dilation)
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
    region = default_region(max(indices), step=1 / 8)
    w = VectorWindow(indices, dilation)
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


@pytest.mark.parametrize("r", [10.0, 1e3])
def test_oscillation_disc_wider_than_the_field(r):
    # only offsets inside the field are listed, however wide the disc
    rng = np.random.default_rng(12)
    shape, hx, hxi = (31, 17), 0.25, 0.125
    F = SampledField(x_axis=hx * np.arange(shape[0]),
                     xi_axis=hxi * np.arange(shape[1]),
                     values=rng.normal(size=shape))
    rows = _disc_rows(hx, hxi, r, shape)
    assert [di for di, _ in rows] == list(range(shape[0]))
    assert max(w for _, w in rows) == shape[1] - 1
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


def test_certificate_disc_wider_than_the_whole_region():
    # r = 707 spans the default region (17 x 5 units) many times over
    M = LatticeMatrix(1000, 0, 0, 1000)
    w = certification_window(0)
    cert = certificate(w, M)
    R, _ = full_field_certificate(w, M, default_region(0))
    assert cert.ratio == pytest.approx(R, rel=1e-13, abs=0)
    assert not cert.valid


def test_certificate_requires_orthonormal_components():
    M = LatticeMatrix(0.1, 0, 0, 0.1)
    for indices in ((0, 0), (2, 0, 2)):
        w = VectorWindow(indices)
        with pytest.raises(PreconditionError, match="orthonormal"):
            certificate(w, M)
    # distinct indices at any dilation are orthonormal; the region holds
    # the ambiguity function of h_{3,2}, which is wider in x than h_3's
    region = Region(x_half=16.0, xi_half=2.0, x_step=1 / 16, xi_step=1 / 16)
    w = VectorWindow((1, 3), 2.0)
    assert certificate(w, M, region).window_degree == 1


@pytest.mark.parametrize("indices", [tuple(range(d + 1)) for d in (0, 5, 18, 40)]
                         + [(0, 0), (2, 0, 2)])
def test_orthonormality_check_agrees_with_quadrature(indices):
    # the certificate checks orthonormality from the indices alone; the
    # quadrature Gram matrix of the window sampled on a grid that holds it
    # is the oracle
    n = max(indices)
    w = VectorWindow(indices)
    grid = hermite_grid(n)
    table = dilated_hermite_all(n, w.dilation, grid.points)[list(indices)]
    gram = grid.step * (table @ table.T)
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


def test_certificate_rejects_region_cutting_off_the_ambiguity():
    # a half-width of 0.2 holds only the peak of the Gaussian's ambiguity
    # function; its truncated field would give R = 0.047 (valid)
    region = Region(x_half=0.2, xi_half=0.2, x_step=1 / 16, xi_step=1 / 16)
    w = certification_window(0)
    # the failure is not cached: the second call checks the field again
    for _ in range(2):
        with pytest.raises(PreconditionError, match="region boundary"):
            certificate(w, LatticeMatrix(0.5, 0, 0, 0.5), region)


@pytest.mark.parametrize("x_half, cut", [(6.75, True), (9.125, False)])
def test_boundary_ring_is_held_to_its_tolerance(x_half, cut):
    # the Gaussian's ambiguity function on a region of x_half and xi_half 3,
    # whose time edge holds the ring e^{-x_half^2/4}: 1.1e-5, between the
    # tolerance and 1e-2, is refused; 9e-10, below it, passes
    region = Region(x_half=x_half, xi_half=3.0, x_step=1 / 16, xi_step=1 / 16)
    w = certification_window(0)
    F = np.abs(ambiguity(w, region).values)
    ring = max(F[[0, -1], :].max(), F[:, [0, -1]].max()) / F.max()
    assert ring == pytest.approx(math.exp(-x_half ** 2 / 4), rel=1e-9)
    M = LatticeMatrix(0.1, 0, 0, 0.1)
    if cut:
        with pytest.raises(PreconditionError, match="region boundary"):
            certificate(w, M, region)
    else:
        assert certificate(w, M, region).valid


@pytest.mark.parametrize("x_half, xi_half", [(12.0, 0.5), (2.0, 3.0)])
def test_certificate_rejects_region_cutting_off_one_axis(x_half, xi_half):
    # the Gaussian's ambiguity function has decayed at one edge of the
    # region and not at the other; the certificate reads the quadrant's
    # outer row and column, which must hold both edges of the ring
    region = Region(x_half=x_half, xi_half=xi_half, x_step=1 / 16,
                    xi_step=1 / 16)
    w = certification_window(0)
    F = ambiguity(w, region).values
    peak = np.abs(F).max()
    x_edge = np.abs(F[[0, -1], :]).max() / peak
    xi_edge = np.abs(F[:, [0, -1]]).max() / peak
    assert min(x_edge, xi_edge) <= BOUNDARY_DECAY_TOL < max(x_edge, xi_edge)
    with pytest.raises(PreconditionError, match="region boundary"):
        certificate(w, LatticeMatrix(0.1, 0, 0, 0.1), region)


def test_repeated_certificates_are_bit_identical():
    # the first call builds the window's field, the others reuse it; a
    # certificate from a rebuilt field is the same to the last bit
    w, region = certification_window(1), default_region(1)
    lattices = [LatticeMatrix(0.1, 0, 0, 0.1),
                LatticeMatrix(0.24, 0.096, -0.04, 0.224)]
    _window_field.cache_clear()
    first = [certificate(w, M, region) for M in lattices]
    # equal windows and regions built anew hit the same entry
    again = [certificate(certification_window(1), M, default_region(1))
             for M in lattices]
    info = _window_field.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    _window_field.cache_clear()
    rebuilt = [certificate(w, M, region) for M in lattices]
    for M, a, b, c in zip(lattices, first, again, rebuilt):
        assert a == b == c   # ratio and eps_disc included
        R, eps = full_field_certificate(w, M, region)
        assert a.ratio == pytest.approx(R, rel=1e-13, abs=0)
        assert a.eps_disc == pytest.approx(eps, rel=1e-13, abs=0)


def test_field_cache_keys_on_the_window_and_the_region():
    # dilation, index order and region step each make their own entry
    region = default_region(1)
    keys = [(VectorWindow((0, 1)), region),
            (VectorWindow((0, 1), 0.5), region),
            (VectorWindow((1, 0)), region),
            (VectorWindow((0, 1)), default_region(1, step=1 / 32))]
    M = LatticeMatrix(0.2, 0, 0, 0.2)
    _window_field.cache_clear()
    certs = [certificate(w, M, reg) for w, reg in keys]
    assert _window_field.cache_info().currsize == len(keys)
    fields = [_window_field(w, reg)[0] for w, reg in keys]
    assert _window_field.cache_info().misses == len(keys)
    assert not np.array_equal(fields[1].values, fields[0].values)
    assert np.array_equal(fields[2].values, fields[0].values)
    assert fields[3].values.shape != fields[0].values.shape
    assert certs[2] == certs[0]
    assert certs[1].ratio != certs[0].ratio != certs[3].ratio


def test_cached_field_is_read_only():
    # every caller shares the cached arrays, so none may write to them
    F, tv, *_ = _window_field(certification_window(0), default_region(0))
    for array in (F.values, F.x_axis, F.xi_axis):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    assert tv > 0


def test_field_cache_stays_bounded():
    n = _FIELD_CACHE_SIZE + 3
    region = default_region(n, step=1 / 4)
    M = LatticeMatrix(0.5, 0, 0, 0.5)
    _window_field.cache_clear()
    for k in range(n):
        certificate(VectorWindow((k,)), M, region)
    info = _window_field.cache_info()
    assert (info.misses, info.currsize) == (n, _FIELD_CACHE_SIZE)
    # the oldest windows were dropped, the newest kept
    certificate(VectorWindow((n - 1,)), M, region)
    certificate(VectorWindow((0,)), M, region)
    info = _window_field.cache_info()
    assert (info.hits, info.misses) == (1, n + 1)


@pytest.mark.parametrize("w, x, xi, rows", [
    # the whole default region of d = 40 runs in several blocks of rows
    (certification_window(40), default_region(40).x_axis,
     default_region(40).xi_axis, None),
    # L_n outgrows the floats (x^2 / 2 > 690); blocks of 7 rows with a
    # shorter last one
    (VectorWindow((0, 7, 300), 1.3), np.arange(0.0, 60.0, 0.25),
     np.arange(0.0, 3.0, 0.1), 7)])
def test_laguerre_field_blocks_match_one_block(monkeypatch, w, x, xi, rows):
    if rows is not None:
        monkeypatch.setattr(certify_module, "_FIELD_BLOCK", rows * xi.size + 3)
    assert x.size * xi.size >= 3 * certify_module._FIELD_BLOCK
    blocked = _laguerre_field(w, x, xi)
    monkeypatch.setattr(certify_module, "_FIELD_BLOCK", x.size * xi.size)
    assert np.array_equal(blocked, _laguerre_field(w, x, xi))
    assert np.isfinite(blocked).all() and np.abs(blocked).max() > 0


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
    w = VectorWindow(range(d + 1), dilation)
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


def recorded_oscillations(patch):
    """The field values the certificate passes to ``_oscillation``, recorded
    through the monkeypatch ``patch``: one array per oscillation it runs."""
    seen = []
    run = certify_module._oscillation

    def record(values, rows):
        seen.append(values)
        return run(values, rows)

    patch.setattr(certify_module, "_oscillation", record)
    return seen


def crop_bound_holds(w, M, region, sub):
    """Check the certificate's truncation bound for the values ``sub`` that it
    passed to ``_oscillation``: against the oscillation of the whole
    quadrant, the view's is exact on the support box widened by r and lower
    by at most 2 tau elsewhere, tau = SUPPORT_TOL max|F|, so the folded sums
    differ by at most 2 tau times the region's area."""
    F, _, (ix, ixi), *_ = _window_field(w, region)
    r = box_norm(M)
    full = oscillation(F, r).values
    nx, nxi = sub.shape
    assert np.shares_memory(sub, F.values)
    assert np.array_equal(sub, F.values[:nx, :nxi])
    lost = full.copy()
    view = SampledField(x_axis=F.x_axis[:nx], xi_axis=F.xi_axis[:nxi],
                        values=sub)
    lost[:nx, :nxi] -= oscillation(view, r).values
    mx, mxi = math.ceil(r / F.x_step), math.ceil(r / F.xi_step)
    assert not lost[:ix + mx + 1, :ixi + mxi + 1].any()
    tau = SUPPORT_TOL * np.abs(F.values).max()
    assert lost.min() >= 0.0 and lost.max() <= 2.0 * tau
    area = region.x_axis.size * region.xi_axis.size * F.x_step * F.xi_step
    assert F.x_step * F.xi_step * _fold(lost) <= 2.0 * tau * area


SUPPORT_RADII = ("just above the step", "inside the region",
                 "wider than the support")
# element operations of the whole-field oracle's oscillation above which
# an example coarsens its step, to keep the oracle quick
ORACLE_WORK = 2e8


@settings(deadline=None, max_examples=30)
@given(d=st.integers(0, 8), dilation=st.floats(0.3, 3.0),
       step=st.sampled_from([1 / 8, 1 / 16, 1 / 32]),
       widen_x=st.floats(1.0, 3.0), widen_xi=st.floats(1.0, 3.0),
       radius=st.sampled_from(SUPPORT_RADII), frac=st.floats(0.0, 1.0),
       theta=st.floats(0.0, math.pi))
@example(d=0, dilation=1.0, step=1 / 32, widen_x=3.0, widen_xi=3.0,
         radius=SUPPORT_RADII[0], frac=0.0, theta=0.0)
@example(d=8, dilation=0.3, step=1 / 8, widen_x=3.0, widen_xi=3.0,
         radius=SUPPORT_RADII[2], frac=1.0, theta=0.3)
@example(d=2, dilation=1.0, step=1 / 32, widen_x=1.0, widen_xi=3.0,
         radius=SUPPORT_RADII[1], frac=0.2, theta=0.7)
def test_cropped_certificate_matches_full_field_oracle(
        d, dilation, step, widen_x, widen_xi, radius, frac, theta):
    # regions up to 3x the oracle test's on each axis (a default region
    # widened by 1, then stretched for the dilation), where F's numerical
    # support ends inside the region and the oscillation runs on a view of
    # the quadrant; radii from just above the step to wider than that support
    w = VectorWindow(range(d + 1), dilation)
    root_a = math.sqrt(dilation)
    x_half = 1.0 + (2 * math.sqrt(2 * d + 1) + 5.0 if d >= WIDE_REGION_DEGREE
                    else math.sqrt(2 * d + 1) + 8.0)
    while True:
        region = Region(
            x_half=math.ceil(widen_x * x_half * root_a / step) * step,
            xi_half=math.ceil(widen_xi * (x_half / (2 * math.pi * root_a) + 1)
                              / step) * step,
            x_step=step, xi_step=step)
        F, _, (ix, ixi), *_ = _window_field(w, region)
        support = max(F.x_axis[ix], F.xi_axis[ixi])
        r = {SUPPORT_RADII[0]: step * (1 + 1e-9),
             SUPPORT_RADII[1]: step * (1 + 1e-9) + frac * (1.0 - step),
             SUPPORT_RADII[2]: support * (1.05 + 0.5 * frac)}[radius]
        work = 2 * r / step * region.x_axis.size * region.xi_axis.size
        if work <= ORACLE_WORK or step == 1 / 8:
            break
        step *= 2
    # t R(theta) maps the box [-1/2, 1/2]^2 onto a square of half-diagonal
    # t / sqrt(2)
    t = math.sqrt(2) * r
    c, s = math.cos(theta), math.sin(theta)
    M = LatticeMatrix(t * c, -t * s, t * s, t * c)
    # an earlier example may have left this disc's R in the cache
    _window_field.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        seen = recorded_oscillations(patch)
        cert = certificate(w, M, region)
    R, eps = full_field_certificate(w, M, region)
    assert cert.ratio == pytest.approx(R, rel=1e-13, abs=0)
    assert cert.eps_disc == pytest.approx(eps, rel=1e-13, abs=0)
    (sub,) = seen
    crop_bound_holds(w, M, region, sub)


def test_oscillation_runs_on_the_support_of_a_square_region(monkeypatch):
    # a square step-1/32 region as wide in xi as in x: F has vanished below
    # SUPPORT_TOL of its maximum at about 1/(2 pi) of its x extent, so most
    # of the quadrant's columns are left out
    step = 1 / 32
    half = math.ceil((math.sqrt(5) + 8.0) / step) * step
    region = Region(x_half=half, xi_half=half, x_step=step, xi_step=step)
    w, M = certification_window(2), LatticeMatrix(0.1, 0.02, -0.03, 0.09)
    _window_field.cache_clear()
    seen = recorded_oscillations(monkeypatch)
    cert = certificate(w, M, region)
    (sub,) = seen
    F, *_ = _window_field(w, region)
    assert sub.shape[0] <= F.values.shape[0]
    assert 3 * sub.shape[1] < F.values.shape[1]
    R, _ = full_field_certificate(w, M, region)
    assert cert.ratio == pytest.approx(R, rel=1e-13, abs=0)
    crop_bound_holds(w, M, region, sub)


@pytest.mark.parametrize("d", [0, 1, 5, 18])
def test_default_regions_run_the_whole_quadrant(monkeypatch, d):
    # a default region ends inside F's numerical support, so nothing is cut
    # and R is the whole quadrant's fold to the last bit
    w, region = certification_window(d), default_region(d)
    F, *_ = _window_field(w, region)
    for M in (LatticeMatrix(0.1, 0, 0, 0.1),
              LatticeMatrix(0.24, 0.096, -0.04, 0.224)):
        _window_field.cache_clear()
        seen = recorded_oscillations(monkeypatch)
        cert = certificate(w, M, region)
        monkeypatch.undo()
        (sub,) = seen
        assert sub.shape == F.values.shape
        r = box_norm(M)
        assert cert.ratio == F.x_step * F.xi_step * _fold(oscillation(F, r).values)


def lattice_of_radius(r):
    """A lattice of box norm r to the last bit: it maps the box's vertices
    (1/2, 1/2) and (1/2, -1/2) to (r, 0) and (0, r)."""
    M = LatticeMatrix(r, r, r, -r)
    assert box_norm(M) == r
    return M


def fresh_ratio(w, r, region):
    """R of the certificate at radius r from an emptied field cache, and the
    shape of the view it oscillated."""
    _window_field.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        seen = recorded_oscillations(patch)
        R = certificate(w, lattice_of_radius(r), region).ratio
    (view,) = seen
    return R, view.shape


def offset_distances(hx, hxi, n):
    """The distinct distances of the grid offsets (i, j), 0 <= i, j <= n,
    increasing."""
    i = np.arange(n + 1)
    return np.unique(np.hypot.outer(i * hx, i * hxi))


def square_region(d, step):
    """A square region as wide in xi as the default region is in x: F's
    support ends inside it, so the certificate oscillates a view."""
    half = default_region(d, step).x_half
    return Region(x_half=half, xi_half=half, x_step=step, xi_step=step)


@settings(deadline=None, max_examples=25)
@given(d=st.integers(0, 4), step=st.sampled_from([1 / 8, 1 / 16]),
       xi_ratio=st.sampled_from([1.0, 0.5, 2.0]), square=st.booleans(),
       k=st.integers(1, 40), fracs=st.lists(st.floats(1e-6, 1 - 1e-6),
                                             min_size=2, max_size=2))
def test_ratio_is_constant_between_offset_distances(d, step, xi_ratio, square,
                                                    k, fracs):
    # R depends on r only through the disc: two radii between consecutive
    # offset distances give the same R and the same view, each computed
    # from an emptied cache
    base = square_region(d, step) if square else default_region(d, step)
    hxi = step * xi_ratio
    region = Region(x_half=base.x_half,
                    xi_half=math.ceil(base.xi_half / hxi) * hxi,
                    x_step=step, xi_step=hxi)
    dist = offset_distances(step, hxi, 20)
    lo, hi = dist[k], dist[k + 1]
    w = certification_window(d)
    (R1, view1), (R2, view2) = (fresh_ratio(w, lo + f * (hi - lo), region)
                                for f in fracs)
    assert R1 == R2 and view1 == view2


@pytest.mark.parametrize("square", [False, True])
@pytest.mark.parametrize("n, below, above", [(2, 2, 5), (5, 20, 26)])
def test_each_side_of_an_offset_distance_gets_its_own_disc(square, n, below,
                                                           above):
    # the offsets at distance n h (of squared length n^2: (2, 0), and also
    # (3, 4) for n = 5) lie outside the disc of radius n h, a float to the
    # last bit, and inside the disc of radius n h (1 + 1e-12); the nearest
    # offset distances are sqrt(below) h and sqrt(above) h
    step = 1 / 16
    region = square_region(1, step) if square else default_region(1, step)
    w = certification_window(1)
    edge = n * step
    inside = fresh_ratio(w, 0.5 * (math.sqrt(below) * step + edge), region)
    outside = fresh_ratio(w, 0.5 * (edge + math.sqrt(above) * step), region)
    assert fresh_ratio(w, edge, region) == inside
    assert fresh_ratio(w, edge * (1 + 1e-12), region) == outside
    assert inside[0] < outside[0]


@pytest.mark.parametrize("square, xi_step", [(False, 1 / 16), (True, 1 / 16),
                                             (False, 3 / 64)])
def test_memo_hit_equals_a_fresh_certificate(monkeypatch, square, xi_step):
    # on one cache, lattices at a radius inside each interval between
    # offset distances up to 6 h, out and back at other rotations: each
    # disc is oscillated once, and every certificate, eps_disc included,
    # is the one an emptied cache gives, to the last bit; with unequal
    # steps some discs differ only by a row of one offset
    step = 1 / 16
    base = square_region(2, step) if square else default_region(2, step)
    region = Region(x_half=base.x_half,
                    xi_half=math.ceil(base.xi_half / xi_step) * xi_step,
                    x_step=step, xi_step=xi_step)
    w = certification_window(2)
    dist = offset_distances(step, xi_step, 8)
    dist = dist[(dist > step) & (dist <= 6 * step)]
    radii = 0.5 * (dist[:-1] + dist[1:])
    # t R(theta) maps the box [-1/2, 1/2]^2 onto a square of half-diagonal
    # t / sqrt(2)
    lattices = [LatticeMatrix(t * math.cos(a), -t * math.sin(a),
                              t * math.sin(a), t * math.cos(a))
                for t, a in [(math.sqrt(2) * r, 0.3) for r in radii]
                + [(math.sqrt(2) * r, 2.0) for r in radii[::-1]]]
    _window_field.cache_clear()
    seen = recorded_oscillations(monkeypatch)
    warm = [certificate(w, M, region) for M in lattices]
    assert len(seen) == len(radii)
    monkeypatch.undo()
    for M, cert in zip(lattices, warm):
        _window_field.cache_clear()
        fresh = certificate(w, M, region)
        assert cert == fresh
        assert cert.ratio.hex() == fresh.ratio.hex()
    assert len({cert.ratio for cert in warm}) == len(radii)


def disc_middle(rows, hx, hxi):
    """The radius halfway between the farthest offset of the disc [(di, w)]
    and the nearest one outside it: a radius of the same disc on a grid
    whose steps differ from hx, hxi in the last bits."""
    inside = max(math.hypot(di * hx, w * hxi) for di, w in rows)
    outside = min([math.hypot(di * hx, (w + 1) * hxi) for di, w in rows]
                  + [len(rows) * hx])
    return 0.5 * (inside + outside)


@pytest.mark.parametrize("hx, hxi", [(0.03, 0.03), (0.1, 0.1),
                                     (1 / 16, 3 / 64)])
def test_disc_alone_keys_the_ratio(monkeypatch, hx, hxi):
    # radii at the offset distances and a float to either side, where
    # r / step and r^2 can round to different sides of an offset, out and
    # back on one cache: each disc of the quadrant (its ``_disc_rows``) is
    # oscillated once, on a view that meets the crop bound; its R is the
    # whole region's to 1e-13; and every certificate, hit or miss, is the
    # one an emptied cache gives, to the last bit. The region reaches past
    # F's support on both axes, so the view crops rows and columns.
    region = Region(x_half=math.ceil(20 / hx) * hx,
                    xi_half=math.ceil(5 / hxi) * hxi, x_step=hx, xi_step=hxi)
    w = certification_window(1)
    radii = [r for dist in offset_distances(hx, hxi, 5)
             for r in (math.nextafter(dist, -math.inf), dist,
                       math.nextafter(dist, math.inf))
             if r > min(hx, hxi)]
    radii += radii[::-1]
    _window_field.cache_clear()
    F, _, support, *_ = _window_field(w, region)
    seen = recorded_oscillations(monkeypatch)
    misses, warm = {}, []
    for r in radii:
        M = lattice_of_radius(r)
        warm.append(certificate(w, M, region))
        rows = tuple(_disc_rows(F.x_step, F.xi_step, r, F.values.shape))
        if rows not in misses:
            misses[rows] = M, warm[-1]
        assert len(seen) == len(misses)
    monkeypatch.undo()
    full = ambiguity(w, region)
    for (rows, (M, cert)), sub in zip(misses.items(), seen):
        crop_bound_holds(w, M, region, sub)
        # the view is the support box widened by 2 ceil(r / step) on each
        # axis, at a radius of the disc where r / step and r^2 agree
        mid = disc_middle(rows, hx, hxi)
        assert sub.shape == tuple(
            min(last + 2 * math.ceil(mid / step) + 1, size) for last, step, size
            in zip(support, (hx, hxi), F.values.shape))
        # the oracle takes the middle of the disc's radii, away from the
        # rounding of r / step and r^2, or the disc's own rows where only
        # rounding makes the disc (at 5 sqrt(2) h, (5, 5) is in and (1, 7)
        # out)
        if _disc_rows(full.x_step, full.xi_step, mid,
                      full.values.shape) == list(rows):
            R, _ = full_field_certificate(w, lattice_of_radius(mid), region)
        else:
            R = full.x_step * full.xi_step * float(
                np.sum(_oscillation(full.values, list(rows))))
        assert cert.ratio == pytest.approx(R, rel=1e-13, abs=0)
    for r, cert in zip(radii, warm):
        _window_field.cache_clear()
        fresh = certificate(w, lattice_of_radius(r), region)
        assert cert == fresh and cert.ratio.hex() == fresh.ratio.hex()


def node_radius(hx, hxi, i, j, side):
    """The distance of the grid offset (i, j), or the float below (side
    -1) or above (side 1) it."""
    r = math.sqrt((i * hx) ** 2 + (j * hxi) ** 2)
    return math.nextafter(r, side * math.inf) if side else r


DISC_STEPS = [1 / 32, 1 / 16, 0.1, 0.037, 0.05]


@settings(deadline=None, max_examples=200)
@given(hx=st.sampled_from(DISC_STEPS), hxi=st.sampled_from(DISC_STEPS),
       shape=st.tuples(st.integers(2, 12), st.integers(2, 12)),
       nodes=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15),
                                st.integers(-1, 1)), min_size=1, max_size=12))
@example(hx=0.037, hxi=0.05, shape=(12, 12),
         nodes=[(3, 4, 0), (3, 4, -1), (3, 4, 1), (5, 0, 0), (0, 4, 1)])
@example(hx=1 / 16, hxi=1 / 16, shape=(4, 3),
         nodes=[(5, 5, 0), (5, 5, 1), (1, 7, 0), (3, 2, 0), (2, 3, -1)])
def test_rank_of_r_squared_names_the_disc(hx, hxi, shape, nodes):
    # radii at the distances of grid offsets, a float either side of them,
    # and past the field's shape: two radii get the same rank of r^2 in the
    # table of squared distances exactly when ``_disc_rows`` gives them the
    # same rows, and every table the certificate may bisect (one built from
    # the disc of any radius) gives that rank for every r^2 up to its bound,
    # and past it a rank above all it can give up to the bound
    radii = [r for r in (node_radius(hx, hxi, *node) for node in nodes)
             if r > min(hx, hxi)]
    full = _squares(hx, hxi, _disc_rows(hx, hxi, math.inf, shape), shape)
    assert full[-1] == math.inf and full[:-1] == sorted(set(full[:-1]))
    ranks = [bisect_left(full, r * r) for r in radii]
    discs = [_disc_rows(hx, hxi, r, shape) for r in radii]
    for (k1, d1), (k2, d2) in itertools.product(zip(ranks, discs), repeat=2):
        assert (k1 == k2) == (d1 == d2)
    for reach in radii:
        table = _squares(hx, hxi, _disc_rows(hx, hxi, reach, shape), shape)
        assert table[-1] >= reach * reach
        assert table[:-1] == [v for v in full[:-1] if v < table[-1]]
        for r, k in zip(radii, ranks):
            if r * r <= table[-1]:
                assert bisect_left(table, r * r) == k
            else:
                assert bisect_left(table, r * r) == len(table) <= k


def test_a_hit_runs_neither_the_disc_nor_the_oscillation(monkeypatch):
    # after a disc's first request, a request at any radius of that disc
    # (at step 1/16 those in (sqrt(10), sqrt(13)] / 16) takes its R from
    # the memo: ``_disc_rows`` and ``_oscillation`` raise if called
    w, region = certification_window(1), default_region(1)
    _window_field.cache_clear()
    first = certificate(w, lattice_of_radius(0.2), region)
    squares = _window_field(w, region)[4]
    stored = list(squares)

    def fail(*args):
        raise AssertionError("a hit ran the miss path")

    monkeypatch.setattr(certify_module, "_disc_rows", fail)
    monkeypatch.setattr(certify_module, "_oscillation", fail)
    t, a = 0.3, 0.7   # t R(a) has box norm t / sqrt(2) = 0.2121
    rotation = LatticeMatrix(t * math.cos(a), -t * math.sin(a),
                             t * math.sin(a), t * math.cos(a))
    for M in (lattice_of_radius(0.2), lattice_of_radius(0.21),
              lattice_of_radius(math.sqrt(13) / 16), rotation):
        assert certificate(w, M, region).ratio == first.ratio
    assert squares == stored
    # the next disc misses; a miss that raises keeps no R and no table
    with pytest.raises(AssertionError, match="miss path"):
        certificate(w, lattice_of_radius(0.3), region)
    assert squares == stored and len(_window_field(w, region)[3]) == 1


def test_whole_region_field_takes_the_certificates_disc():
    # far from 0, x_axis[1] - x_axis[0] is 0.09999999999999787 for step 0.1
    # at half 20: a field that read its step so would put osc_l1 on another
    # disc than the certificate at a radius on an offset distance
    region = Region(x_half=20.0, xi_half=5.0, x_step=0.1, xi_step=0.1)
    w = VectorWindow((0, 1))
    F = ambiguity(w, region)
    assert (F.x_step, F.xi_step) == (region.x_step, region.xi_step)
    r0 = math.hypot(0.5, 0.5)
    ratios = set()
    for r in (r0, math.nextafter(r0, math.inf), math.nextafter(r0, -math.inf)):
        M = LatticeMatrix(r, r, r, -r)
        assert box_norm(M) == r
        R = certificate(w, M, region).ratio
        assert osc_l1(F, r) == pytest.approx(R, rel=1e-12, abs=0)
        ratios.add(R)
    # each of the three radii takes a disc of its own
    assert len(ratios) == 3


def test_memo_is_dropped_with_its_entry(monkeypatch):
    # after cache_clear(), or after _FIELD_CACHE_SIZE other windows, the
    # window's next certificate runs its oscillation again
    region = default_region(_FIELD_CACHE_SIZE, step=1 / 8)
    w, M = VectorWindow((0,)), LatticeMatrix(0.3, 0.1, 0.0, 0.3)
    _window_field.cache_clear()
    seen = recorded_oscillations(monkeypatch)
    first = certificate(w, M, region)
    assert certificate(w, M, region) == first and len(seen) == 1
    _window_field.cache_clear()
    assert certificate(w, M, region) == first and len(seen) == 2
    others = [VectorWindow((k,)) for k in range(1, _FIELD_CACHE_SIZE + 1)]
    for other in others:
        certificate(other, M, region)
    certificate(others[-1], M, region)
    assert len(seen) == 2 + len(others)
    assert certificate(w, M, region) == first
    assert len(seen) == 3 + len(others)


def test_raising_certificate_stores_nothing(monkeypatch):
    w, region = certification_window(1), default_region(1)
    M = LatticeMatrix(0.2, 0.0, 0.05, 0.2)
    _window_field.cache_clear()
    certificate(w, LatticeMatrix(0.3, 0.0, 0.0, 0.3), region)
    ratios = _window_field(w, region)[3]
    stored = dict(ratios)
    info = _window_field.cache_info()
    # below the step: no disc, and the cache is not consulted
    with pytest.raises(ResolutionError):
        certificate(w, lattice_of_radius(0.5 * region.x_step), region)
    assert _window_field.cache_info() == info and ratios == stored

    # an oscillation that raises leaves no R behind
    def fail(values, rows):
        raise MemoryError

    monkeypatch.setattr(certify_module, "_oscillation", fail)
    with pytest.raises(MemoryError):
        certificate(w, M, region)
    assert ratios == stored
    monkeypatch.undo()
    seen = recorded_oscillations(monkeypatch)
    certificate(w, M, region)
    assert len(seen) == 1 and len(ratios) == len(stored) + 1

    # a region that cuts F off keeps no entry, so it fails on every call
    cut = Region(x_half=2.0, xi_half=3.0, x_step=1 / 16, xi_step=1 / 16)
    size = _window_field.cache_info().currsize
    for _ in range(2):
        with pytest.raises(PreconditionError, match="region boundary"):
            certificate(w, M, cut)
        assert _window_field.cache_info().currsize == size
    assert not seen[1:]


@settings(deadline=None, max_examples=25)
@given(d=st.integers(0, 6), dilation=st.floats(0.5, 2.0),
       step=st.sampled_from([1 / 8, 1 / 16, 1 / 32]),
       widen=st.floats(1.0, 2.0),
       fracs=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
@example(d=0, dilation=1.0, step=1 / 32, widen=2.0, fracs=[0.0, 0.5, 1.0])
@example(d=6, dilation=0.5, step=1 / 8, widen=1.0, fracs=[0.0, 0.9, 1.0])
def test_ratio_is_nondecreasing_in_the_radius(d, dilation, step, widen, fracs):
    # nested radii from just above the step to past F's support box: a
    # larger disc holds the smaller one, so on the smaller disc's view its
    # oscillation is at least as large at every node, and R grows up to the
    # fold's rounding
    w = VectorWindow(range(d + 1), dilation)
    while True:
        region = _stretched_region(widen * default_region(d, step).x_half,
                                   dilation, step)
        F, _, support, *_ = _window_field(w, region)
        far = 1.1 * max(F.x_axis[support[0]], F.xi_axis[support[1]])
        work = 2 * far / step * F.values.size
        if work <= ORACLE_WORK or step == 1 / 8:
            break
        step *= 2
    near = step * (1 + 1e-9)
    radii = sorted(near * (far / near) ** f for f in fracs)
    ratios = [certificate(w, lattice_of_radius(r), region).ratio
              for r in radii]
    for (r1, R1), (r2, R2) in itertools.pairwise(zip(radii, ratios)):
        assert R1 <= R2 * (1 + 1e-14)
        # the view the certificate oscillates at r1, sized from its disc
        rows = _disc_rows(F.x_step, F.xi_step, r1, F.values.shape)
        nx = support[0] + 2 * len(rows) + 1
        nxi = support[1] + 2 * (rows[0][1] + 1) + 1
        view = SampledField(x_axis=F.x_axis[:nx], xi_axis=F.xi_axis[:nxi],
                            values=F.values[:nx, :nxi])
        assert np.all(oscillation(view, r2).values
                      >= oscillation(view, r1).values)


@pytest.mark.parametrize("indices", [(n,) for n in range(61)] + [(0, 5), (2, 7)])
def test_default_region_holds_any_window(indices):
    # the default region is sized from the window's indices: it holds the
    # window's ambiguity function, so the certificate passes its boundary
    # check
    M = LatticeMatrix(0.1, 0, 0, 0.1)
    for dilation in (1.0, 0.5) if len(indices) > 1 else (1.0,):
        w = VectorWindow(indices, dilation)
        F = ambiguity(w).values
        edge = max(np.abs(F[[0, -1], :]).max(), np.abs(F[:, [0, -1]]).max())
        assert edge <= BOUNDARY_DECAY_TOL * np.abs(F).max()
        assert certificate(w, M).window_degree == len(indices) - 1


@pytest.mark.parametrize("indices", [(0,), (0, 1, 2), (2, 0, 1), tuple(range(9))])
def test_window_region_of_consecutive_indices_is_the_default(indices):
    # (h_0,...,h_d), in any order, keeps default_region(d): the CLI's region
    for dilation in (1.0, 2.0):
        w = VectorWindow(indices, dilation)
        assert _window_region(w) == _dilated_region(w.degree, dilation)
    assert _window_region(VectorWindow(indices)) == default_region(len(indices) - 1)


@pytest.mark.parametrize("d", list(range(13)) + [17, 18, 25, 40])
def test_default_region_holds_the_ambiguity(d):
    region = default_region(d)
    root = math.sqrt(2 * d + 1)
    # the two formulas meet at d = 4 (both 11.0); from d = 5 on the first
    # ends where F still exceeds 1e-8 of its maximum
    x_half = root + 8.0 if d <= 4 else 2.0 * root + 5.0
    assert region.x_half == math.ceil(x_half * 16) / 16
    # F depends on x^2 + (2 pi xi)^2: the xi half is the x half over 2 pi,
    # plus room for an oscillation disc of radius 1
    assert region.xi_half == math.ceil((x_half / (2 * math.pi) + 1) * 16) / 16
    F = ambiguity(certification_window(d), region).values
    edge = max(np.abs(F[[0, -1], :]).max(), np.abs(F[:, [0, -1]]).max())
    assert edge <= BOUNDARY_DECAY_TOL * np.abs(F).max()


@pytest.mark.parametrize("d", range(41))
def test_dilated_region_passes_its_boundary_check(d):
    # the certificate's boundary check on the outer rows and columns of
    # every default region, its halves rounded up to each step: F is below
    # BOUNDARY_DECAY_TOL of its maximum F(0) = d + 1 there
    for step in (1 / 8, 1 / 16, 1 / 32, 1 / 64):
        for a in (0.5, 1.0, 2.0):
            region = _dilated_region(d, a, step)
            w = VectorWindow(range(d + 1), a)
            x, xi = region.x_axis, region.xi_axis
            ring = max(np.abs(_laguerre_field(w, x[-1:], xi)).max(),
                       np.abs(_laguerre_field(w, x, xi[-1:])).max())
            assert ring <= BOUNDARY_DECAY_TOL * (d + 1), (step, a)


@pytest.mark.parametrize("a", [0.25, 1.1, 2.0, 4.0])
def test_default_region_follows_the_dilation(a):
    # the ambiguity function of h_{n,a} at (x, xi) is that of h_n at
    # (x/sqrt(a), sqrt(a) xi): the default region is stretched to match
    w, M, step = VectorWindow((0, 1, 2), a), LatticeMatrix(0.1, 0, 0, 0.1), 1 / 16
    x_half = math.sqrt(5) + 8.0
    region = Region(
        x_half=math.ceil(x_half * math.sqrt(a) / step) * step,
        xi_half=math.ceil((x_half / (2 * math.pi * math.sqrt(a)) + 1) / step) * step,
        x_step=step, xi_step=step)
    assert certificate(w, M) == certificate(w, M, region)
    assert np.array_equal(ambiguity(w).values, ambiguity(w, region).values)


@pytest.mark.parametrize("d", [360, 370, 1000])
def test_ambiguity_matches_mpmath_where_the_gaussian_underflows(d):
    # the default region reaches s = x^2/2 of 1700 to 4500, where e^{-s/2}
    # underflows and l_n(s) does not vanish. sum_{n<=d} L_n = L_d^(1), the
    # y = 0 case of the Laguerre convolution formula (DLMF 18.18), gives
    # F = e^{-s/2} L_d^(1)(s) on xi = 0, in mpmath's arbitrary precision
    x_half = default_region(d).x_half
    region = Region(x_half=x_half, xi_half=1 / 16, x_step=x_half / 40,
                    xi_step=1 / 16)
    F = ambiguity(certification_window(d), region)
    column = F.values[:, F.xi_axis.size // 2]
    with mp.workdps(30):
        want = np.array([float(mp.exp(-mp.mpf(x) ** 2 / 4)
                               * mp.laguerre(d, 1, mp.mpf(x) ** 2 / 2))
                         for x in F.x_axis])
    assert F.x_axis[-1] == x_half
    assert np.max(np.abs(column - want)) <= 1e-12 * (d + 1)
