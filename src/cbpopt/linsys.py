"""Dense solves of (I - U) x = c for nonnegative systems.

Elimination runs only inside the lower band of the matrix, so a policy's head
system, which is upper Hessenberg, costs O(n^2) rather than O(n^3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularSystem

# A pivot below this fraction of the largest initial entry is a breakdown.
PIVOT_RTOL = 1e-12


@dataclass(frozen=True)
class UnitSystem:
    """Nonnegative square matrix U and nonnegative constants c."""

    U: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        U = np.array(self.U, dtype=float)
        c = np.array(self.c, dtype=float)
        if U.ndim != 2 or U.shape[0] != U.shape[1]:
            raise ValueError("U must be a square matrix")
        if c.shape != (U.shape[0],):
            raise ValueError("c must be a vector matching U")
        if U.size and float(U.min()) < 0.0:
            raise ValueError("U entries must be nonnegative")
        if c.size and float(c.min()) < 0.0:
            raise ValueError("c entries must be nonnegative")
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return self.U.shape[0]


def has_invertible_structure(U) -> bool:
    """Sufficient structural test for invertibility of I - U.

    True iff the diagonal and everything below the first subdiagonal vanish,
    the first row sums to strictly less than one with the remaining rows at
    most one, and every subdiagonal entry is strictly positive.
    """
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        return False
    n = U.shape[0]
    if U.size and float(U.min()) < 0.0:
        return False
    for i in range(n):
        if U[i, i] != 0.0:
            return False
        if any(U[i, j] != 0.0 for j in range(i - 1)):
            return False
    if n and float(U[0].sum()) >= 1.0:
        return False
    for i in range(1, n):
        if float(U[i].sum()) > 1.0:
            return False
        if U[i, i - 1] <= 0.0:
            return False
    return True


def solve_unit(system: UnitSystem) -> np.ndarray:
    """Solve (I - U) x = c by Gaussian elimination with partial pivoting.

    With p the lower bandwidth of U (the largest row - col of a nonzero
    entry), the pivot search and the elimination of column col stay in rows
    col..col+p, so the solve costs O(n^2 p): O(n^2) for upper Hessenberg
    systems, the same algorithm as a full search for dense ones.  A row below
    the band has never been swapped or updated, so its entries in the current
    column are still the exact zeros of U; a full search would pick the same
    pivot and subtract exactly zero from those rows, and the result is the
    same bit for bit (Golub & Van Loan, Matrix Computations, section 4.3).

    Raises SingularSystem when the best available pivot falls below
    ``PIVOT_RTOL`` times the largest entry of the initial matrix, which
    signals that the system's invertibility hypotheses do not hold.
    """
    n = system.n
    if n == 0:
        return np.zeros(0)
    A = np.eye(n) - system.U
    x = system.c.copy()
    scale = float(np.abs(A).max())
    if scale == 0.0:
        raise SingularSystem("coefficient matrix is identically zero")
    threshold = PIVOT_RTOL * scale
    rows, cols = np.nonzero(system.U)
    band = int((rows - cols).max(initial=0))
    for col in range(n):
        end = min(col + band + 1, n)
        p = col + int(np.argmax(np.abs(A[col:end, col])))
        if abs(A[p, col]) < threshold:
            raise SingularSystem(
                f"pivot {abs(A[p, col]):.3e} below threshold {threshold:.3e} at column {col}"
            )
        if p != col:
            A[[col, p]] = A[[p, col]]
            x[[col, p]] = x[[p, col]]
        if col + 1 < end:
            factors = A[col + 1 : end, col] / A[col, col]
            A[col + 1 : end, col:] -= np.outer(factors, A[col, col:])
            x[col + 1 : end] -= factors * x[col]
    for i in range(n - 1, -1, -1):
        x[i] = (x[i] - A[i, i + 1 :] @ x[i + 1 :]) / A[i, i]
    return x
