import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (lattice_matrix_error, numpy_box_norm,
                      sampled_box_norm_oracle)
from hermgabor import (BudgetError, LatticeMatrix, box_norm, covolume,
                       enumerate_points)
from hermgabor.lattice import enumeration_box

# the unimodular matrices with entries in [-2, 2]: bases of Z^2
UNIMODULAR = [u for u in (np.array(e).reshape(2, 2) - 2
                          for e in np.ndindex(5, 5, 5, 5))
              if abs(round(np.linalg.det(u))) == 1]


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


@pytest.mark.parametrize("exponent", [*range(-160, -149), *range(150, 161)])
def test_scale_alone_never_makes_a_lattice_or_its_adjoint_singular(exponent):
    # s I and s R(0.3), s = 10^exponent, where ||M||_F^2 or |det M|
    # over- or underflows: each is a lattice, so is its adjoint, and the
    # adjoint's adjoint is -M (J^{-1} J^{-1} = -I)
    s, c, sn = 10.0 ** exponent, math.cos(0.3), math.sin(0.3)
    for M in (LatticeMatrix(s, 0, 0, s), LatticeMatrix(s * c, -s * sn, s * sn, s * c)):
        np.testing.assert_allclose(M.adjoint().adjoint().as_array(), -M.as_array(),
                                   rtol=4e-15, atol=0)


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
    # the generating k of each point, and the points rebuilt from them
    ks = {}
    for name, pts in (("small", small), ("large", large)):
        k = pts.points @ np.linalg.inv(M.as_array()).T
        ks[name] = np.round(k).astype(int)
        np.testing.assert_allclose(k, ks[name], atol=1e-12)
        np.testing.assert_allclose(pts.points, ks[name] @ M.as_array().T,
                                   atol=1e-14)
    assert {tuple(k) for k in ks["small"]} <= {tuple(k) for k in ks["large"]}
    order = [tuple(k) for k in ks["large"]]
    assert order == sorted(order)
    # every returned point respects the cutoff
    assert np.all(np.hypot(*large.points.T) <= 4.0)


def test_enumerate_budget():
    M = LatticeMatrix(1e-3, 0, 0, 1e-3)
    with pytest.raises(BudgetError):
        enumerate_points(M, 10.0, budget=1000)
    with pytest.raises(ValueError):
        enumerate_points(M, -1.0)


def square_box_points(M, radius):
    """The points of norm <= radius in the square box |k|_inf <= ceil(radius
    ||M^{-1}||_2), lexicographic in k: the enumeration before the box was
    sized per coordinate."""
    A = M.as_array()
    kmax = int(np.ceil(radius * np.linalg.norm(np.linalg.inv(A), 2)))
    rng = np.arange(-kmax, kmax + 1)
    k1, k2 = np.meshgrid(rng, rng, indexing="ij")
    pts = np.column_stack([k1.ravel(), k2.ravel()]) @ A.T
    return pts[np.einsum("ij,ij->i", pts, pts) <= radius * radius]


def lattices():
    entry = st.floats(min_value=-3, max_value=3)
    return st.tuples(entry, entry, entry, entry).filter(
        lambda m: abs(m[0] * m[3] - m[1] * m[2]) > 0.2).map(
        lambda m: LatticeMatrix(*m))


@settings(deadline=None, max_examples=100)
@given(lattices(), st.floats(min_value=0.1, max_value=6.0))
@example(M=LatticeMatrix(1, 100, 0, 1), radius=3.0)
@example(M=LatticeMatrix(0, 1, -1, 0), radius=2.0)
def test_enumeration_box_matches_square_box(M, radius):
    # the box sized per coordinate holds exactly the points of the square one
    np.testing.assert_array_equal(enumerate_points(M, radius).points,
                                  square_box_points(M, radius))


@settings(deadline=None, max_examples=100)
@given(lattices(), st.floats(min_value=0.1, max_value=6.0))
@example(M=LatticeMatrix(0.3, 0.12, -0.05, 0.28), radius=6.0)
def test_enumeration_symmetric_under_negation(M, radius):
    # the point of -k is exactly the negation of the point of k, and the
    # order by k puts it at the mirrored position
    pts = enumerate_points(M, radius).points
    assert np.array_equal(pts[::-1], -pts)


@settings(deadline=None, max_examples=100)
@given(lattices(), st.sampled_from(UNIMODULAR),
       st.floats(min_value=0.1, max_value=6.0))
def test_enumeration_independent_of_basis(M, U, radius):
    # M and MU generate one lattice: each point of one set that is not
    # within rounding of the disc's edge is a point of the other
    MU = LatticeMatrix.from_array(M.as_array() @ U)
    sets = [enumerate_points(L, radius).points for L in (M, MU)]
    for mine, other in (sets, sets[::-1]):
        inner = mine[np.hypot(*mine.T) <= radius * (1 - 1e-9)]
        gaps = np.hypot(*(inner[:, None, :] - other[None, :, :]).T)
        assert np.all(gaps.min(axis=0) < 1e-9)


def scaled_lattices():
    """Well-conditioned matrices of entries up to 3 times 2^-40 .. 2^40."""
    return st.tuples(lattices(), st.integers(-40, 40)).map(
        lambda me: me[0].scaled(2.0 ** me[1]))


@settings(deadline=None, max_examples=300)
@given(st.one_of(lattices(), scaled_lattices()))
@example(M=LatticeMatrix(1, -1, 0, 1))
@example(M=LatticeMatrix(0.1, 0.02, -0.03, 0.09))
def test_box_norm_matches_the_numpy_form(M):
    # hypot of the two vertex images against numpy's norm of them: the
    # images are the same floats, their norms round apart by at most 2 ulp
    want = numpy_box_norm(M)
    assert abs(box_norm(M) - want) <= 2 * math.ulp(want)


def disc_extent(M, radius, samples=1 << 16):
    """max |k_i| over k = M^{-1} y, y on the circle of the radius, by
    sampling the circle: below the extent by a relative 1.2e-9 at most."""
    theta = np.linspace(0.0, 2 * np.pi, samples, endpoint=False)
    circle = radius * np.vstack([np.cos(theta), np.sin(theta)])
    return np.abs(np.linalg.solve(M.as_array(), circle)).max(axis=1)


@settings(deadline=None, max_examples=300)
@given(st.one_of(lattices(), scaled_lattices()),
       st.floats(min_value=0.1, max_value=100.0),
       st.integers(min_value=1, max_value=10 ** 7))
@example(M=LatticeMatrix(0.5, 0.5, -0.5, 0.5), radius=3.0, budget=10 ** 7)
@example(M=LatticeMatrix(3, 1, 0, 0.5), radius=1.5, budget=25)
# a tie: k = (0, 1) lies on the circle, which ends at k2 = 1 exactly
@example(M=LatticeMatrix(1.59375, 0, 0, 0.47656130306139044),
         radius=0.47656130306139044, budget=9)
def test_enumeration_box_holds_the_disc_and_is_minimal(M, radius, budget):
    # by brute force: every k with ||Mk|| <= radius lies in the box, and
    # the disc reaches past the box one smaller on each axis, up to ties of
    # its extent with an integer; the box is refused exactly when it holds
    # more than the budget's points
    try:
        box = enumeration_box(M, radius, budget)
    except BudgetError:
        box = enumeration_box(M, radius, math.inf)
        assert (2 * box[0] + 1) * (2 * box[1] + 1) > budget
    else:
        assert (2 * box[0] + 1) * (2 * box[1] + 1) <= budget
    extent = disc_extent(M, radius)
    for k_max, reach in zip(box, extent):
        assert k_max - 1 < reach * (1 + 1e-8) and reach <= k_max * (1 + 1e-12)
    # every k of the disc within the singular-value bound ||k|| <=
    # radius / s_min, when that square has at most ~10^6 points
    side = math.ceil(radius / np.linalg.svd(M.as_array(), compute_uv=False)[-1])
    if side > 500:
        return
    k = np.stack(np.meshgrid(*[np.arange(-side, side + 1)] * 2), -1).reshape(-1, 2)
    inside = k[np.hypot(*(k @ M.as_array().T).T) <= radius * (1 - 1e-12)]
    assert np.all(np.abs(inside) <= box)


def lattice_entries():
    """Entries of every kind: any float (NaN, infinities and subnormals
    included), moderate ones, and numpy scalars."""
    return st.one_of(st.floats(), st.floats(-3, 3),
                     st.sampled_from([0.0, -0.0, 1.0, 1e-160, 5e-324,
                                      np.float64(0.25), np.int64(2)]))


def near_singular():
    """Rank-one matrices (a, b, c a, c b) with the last entry moved by a
    relative 2^-52 to 2^-40, across the threshold |det| = 1e-14 ||M||_F^2."""
    entry = st.floats(-3, 3)
    return st.tuples(entry, entry, entry, st.integers(-4, 4),
                     st.integers(40, 52)).map(
        lambda e: (e[0], e[1], e[2] * e[0],
                   e[2] * e[1] * (1 + e[3] * 2.0 ** -e[4])))


@settings(deadline=None, max_examples=400)
@given(st.one_of(st.tuples(*[lattice_entries()] * 4), near_singular()))
@example(entries=(1, 1, 1, 1 + 1e-15))
@example(entries=(1, 1, 1, 1 + 5e-14))
@example(entries=(np.nan, 0, 0, 1))
@example(entries=(1, 0, 0, -math.inf))
@example(entries=(1e154, 0, 0, 1e154))
@example(entries=(1e-160, 0, 0, 1e-163))
@example(entries=(1e300, 1e300, 1e300, 1e300 * (1 + 1e-15)))
@example(entries=(1e-160, 2e-160, 2e-160, 4e-160 * (1 + 1e-12)))
def test_lattice_matrix_rejects_what_its_field_validation_rejects(entries):
    # NaN, infinities and numerically singular matrices, with the message
    # of the field-by-field validation on the matrix scaled by its largest
    # entry; every other matrix is accepted. Where the unscaled validation
    # neither overflows nor underflows, it is the same
    want = lattice_matrix_error(*entries)
    values = [float(e) for e in entries if e != 0]
    frob2 = sum(v * v for v in values)
    products = [a * b for a in values for b in values] + [frob2, 1e-14 * frob2]
    if all(sys.float_info.min <= abs(p) < math.inf for p in products):
        assert want == lattice_matrix_error(*entries, scaled=False)
    if want is None:
        M = LatticeMatrix(*entries)
        assert (M.m11, M.m12, M.m21, M.m22) == tuple(map(float, entries))
        return
    kind, message = want
    with pytest.raises(kind) as info:
        LatticeMatrix(*entries)
    assert type(info.value) is kind and str(info.value) == message
