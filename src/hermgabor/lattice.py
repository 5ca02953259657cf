"""2x2 generating matrices, the box norm and truncated lattice enumeration."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError

DEFAULT_POINT_BUDGET = 10 ** 7


@dataclass(frozen=True)
class LatticeMatrix:
    """Invertible matrix M generating the lattice M(Z^2)."""

    m11: float
    m12: float
    m21: float
    m22: float

    def __post_init__(self):
        m = m11, m12, m21, m22 = (float(self.m11), float(self.m12),
                                  float(self.m21), float(self.m22))
        if not all(map(math.isfinite, m)):
            raise ValueError("lattice matrix entries must be finite")
        self.__dict__.update(m11=m11, m12=m12, m21=m21, m22=m22)  # frozen: bypass __setattr__
        # |det| / ||M||_F^2 ~ 1/cond(M) is scale-free; 1e-14 is ~100x its rounding
        # error. With ||M||_F^2 outside 1e+-270 a product may over- or underflow,
        # so the ratio is read off M = 2^e N, an exact scale that changes no verdict
        frob2 = m11 * m11 + m12 * m12 + m21 * m21 + m22 * m22
        if not 1e-270 < frob2 < 1e270:
            m11, m12, m21, m22 = self._unit_scaled()[1]
            frob2 = m11 * m11 + m12 * m12 + m21 * m21 + m22 * m22
        if not abs(m11 * m22 - m12 * m21) > 1e-14 * frob2:
            raise ValueError("lattice matrix must be invertible (|det| > 1e-14 ||M||_F^2)")

    def _unit_scaled(self) -> tuple:
        """(e, (n11, n12, n21, n22)): M = 2^e N exactly, N's largest entry in [1/2, 1)."""
        m11, m12, m21, m22 = self.m11, self.m12, self.m21, self.m22
        e = math.frexp(max(abs(m11), abs(m12), abs(m21), abs(m22)))[1]
        return e, (math.ldexp(m11, -e), math.ldexp(m12, -e),
                   math.ldexp(m21, -e), math.ldexp(m22, -e))

    @property
    def determinant(self) -> float:
        return self.m11 * self.m22 - self.m12 * self.m21

    def as_array(self) -> np.ndarray:
        return np.array([[self.m11, self.m12], [self.m21, self.m22]])

    @classmethod
    def from_array(cls, arr) -> "LatticeMatrix":
        a = np.asarray(arr, dtype=float)
        if a.shape != (2, 2):
            raise ValueError("lattice matrix must be 2x2")
        return cls(a[0, 0], a[0, 1], a[1, 0], a[1, 1])

    @classmethod
    def parse(cls, text: str) -> "LatticeMatrix":
        """Parse the CLI shorthand "a,b,c,d" (row-major)."""
        parts = [float(p) for p in text.split(",")]
        if len(parts) != 4:
            raise ValueError('matrix shorthand must be "a,b,c,d"')
        return cls(*parts)

    def scaled(self, t: float) -> "LatticeMatrix":
        return LatticeMatrix(t * self.m11, t * self.m12, t * self.m21, t * self.m22)

    def left_diag(self, b1: float, b2: float) -> "LatticeMatrix":
        """diag(b1, b2) @ M."""
        return LatticeMatrix(b1 * self.m11, b1 * self.m12, b2 * self.m21, b2 * self.m22)

    def adjoint(self) -> "LatticeMatrix":
        """J^{-1} M^{-T}, J^{-1} = [[0, -1], [1, 0]]: the generator of the
        adjoint lattice, the points mu with gamma1*mu2 - gamma2*mu1 in Z for
        every gamma in M(Z^2); its covolume is 1/|det M|. Computed as 2^-e
        J^{-1} N^{-T}, M = 2^e N, so det M may over- or underflow; where its
        products are normal floats, that is (m12, -m11, m22, -m21) / det M."""
        e, (n11, n12, n21, n22) = self._unit_scaled()
        det = n11 * n22 - n12 * n21
        return LatticeMatrix(*(math.ldexp(v / det, -e) for v in (n12, -n11, n22, -n21)))


def box_norm(M: LatticeMatrix) -> float:
    """sup { ||M z||_2 : ||z||_inf <= 1/2 }.

    The norm is convex on the square, so the supremum sits at a vertex;
    the two vertices not checked are negations of the checked ones.
    """
    return 0.5 * max(math.hypot(M.m11 + M.m12, M.m21 + M.m22),
                     math.hypot(M.m11 - M.m12, M.m21 - M.m22))


def covolume(M: LatticeMatrix) -> float:
    """|det M|, the Lebesgue measure of the fundamental domain M([-1/2,1/2)^2)."""
    return abs(M.determinant)


@dataclass(frozen=True, eq=False)
class LatticePointSet:
    """Finite truncation { Mk : ||Mk||_2 <= radius }, lexicographic in k."""

    points: np.ndarray  # (n, 2) float, rows (gamma1, gamma2)

    def __len__(self):
        return self.points.shape[0]


def enumeration_box(M: LatticeMatrix, radius: float,
                    budget: int = DEFAULT_POINT_BUDGET) -> tuple:
    """Half sides (k1max, k2max) of the smallest box |k_i| <= k_imax holding
    every k with ||Mk||_2 <= radius: k_i is row i of M^{-1} applied to a
    point of norm <= radius, so k_imax = ceil(radius * ||row i of M^{-1}||_2).
    BudgetError when the box has more than ``budget`` points."""
    # numpy's inverse, not the closed form [[m22, -m12], [-m21, m11]] / det:
    # where radius * ||row|| is an integer the two round to either side of
    # it, and the box, so the budget's boundary, would move by one
    rows = np.linalg.norm(np.linalg.inv(M.as_array()), axis=1)
    k1max, k2max = (int(np.ceil(radius * n)) for n in rows)
    side1, side2 = 2 * k1max + 1, 2 * k2max + 1
    if side1 * side2 > budget:
        raise BudgetError(f"enumeration box {side1}x{side2} exceeds point budget {budget}")
    return k1max, k2max


def enumerate_points(M: LatticeMatrix, radius: float,
                     budget: int = DEFAULT_POINT_BUDGET) -> LatticePointSet:
    """All lattice points with Euclidean norm <= radius, sorted by (k1, k2).

    The point of -k is set to the negation of the point of k, so the set is
    exactly symmetric under g -> -g, which the frame matrix's fold relies
    on, however the product rounds."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    A = M.as_array()
    k1max, k2max = enumeration_box(M, radius, budget)
    k1, k2 = np.meshgrid(np.arange(-k1max, k1max + 1), np.arange(-k2max, k2max + 1),
                         indexing="ij")  # lexicographic when flattened
    pts = np.column_stack([k1.ravel(), k2.ravel()]) @ A.T
    # the box is symmetric, so row n-1-i holds -k of row i
    centre = pts.shape[0] // 2
    pts[centre + 1:] = -pts[:centre][::-1]
    mask = np.einsum("ij,ij->i", pts, pts) <= radius * radius
    return LatticePointSet(points=pts[mask])
