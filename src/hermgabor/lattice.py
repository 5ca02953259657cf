"""2x2 generating matrices, the box norm and truncated lattice enumeration."""

from __future__ import annotations

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
        for name in ("m11", "m12", "m21", "m22"):
            object.__setattr__(self, name, float(getattr(self, name)))
        # |det| / ||M||_F^2 ~ 1/cond(M) is scale-free; 1e-14 is ~100x its rounding error
        frob2 = sum(m * m for m in (self.m11, self.m12, self.m21, self.m22))
        if not abs(self.determinant) > 1e-14 * frob2:
            raise ValueError("lattice matrix must be invertible (|det| > 1e-14 ||M||_F^2)")

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
        every gamma in M(Z^2); its covolume is 1/|det M|."""
        det = self.determinant
        return LatticeMatrix(self.m12 / det, -self.m11 / det,
                             self.m22 / det, -self.m21 / det)


def box_norm(M: LatticeMatrix) -> float:
    """sup { ||M z||_2 : ||z||_inf <= 1/2 }.

    The norm is convex on the square, so the supremum sits at a vertex;
    the two vertices not checked are negations of the checked ones.
    """
    A = M.as_array()
    v1 = A @ np.array([0.5, 0.5])
    v2 = A @ np.array([0.5, -0.5])
    return float(max(np.linalg.norm(v1), np.linalg.norm(v2)))


def covolume(M: LatticeMatrix) -> float:
    """|det M|, the Lebesgue measure of the fundamental domain M([-1/2,1/2)^2)."""
    return abs(M.determinant)


@dataclass(frozen=True, eq=False)
class LatticePointSet:
    """Finite truncation { Mk : ||Mk||_2 <= radius }, lexicographic in k."""

    points: np.ndarray  # (n, 2) float, rows (gamma1, gamma2)
    coords: np.ndarray  # (n, 2) int, the generating k

    def __len__(self):
        return self.points.shape[0]


def enumeration_box(M: LatticeMatrix, radius: float,
                    budget: int = DEFAULT_POINT_BUDGET) -> int:
    """Half side kmax of the box ||k||_inf <= kmax holding every k with
    ||Mk||_2 <= radius; BudgetError when it has more than ``budget`` points."""
    kmax = int(np.ceil(radius * np.linalg.norm(np.linalg.inv(M.as_array()), 2)))
    side = 2 * kmax + 1
    if side * side > budget:
        raise BudgetError(f"enumeration box {side}x{side} exceeds point budget {budget}")
    return kmax


def enumerate_points(M: LatticeMatrix, radius: float,
                     budget: int = DEFAULT_POINT_BUDGET) -> LatticePointSet:
    """All lattice points with Euclidean norm <= radius, sorted by (k1, k2)."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    A = M.as_array()
    kmax = enumeration_box(M, radius, budget)
    rng = np.arange(-kmax, kmax + 1)
    k1, k2 = np.meshgrid(rng, rng, indexing="ij")  # lexicographic when flattened
    ks = np.column_stack([k1.ravel(), k2.ravel()])
    pts = ks @ A.T
    mask = np.einsum("ij,ij->i", pts, pts) <= radius * radius
    return LatticePointSet(points=pts[mask], coords=ks[mask])
