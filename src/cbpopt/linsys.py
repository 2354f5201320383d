"""Solves of (I - U) x = c for nonnegative systems.

A policy's head system is upper Hessenberg with a narrow upper band, and
:func:`solve_hessenberg` solves it from its nonzero entries in O(n q) time
and memory, q being the upper bandwidth.  :func:`solve_unit` is the dense
reference, and solves the general-model policies whose jumps go two or more
states down: the same pivoted elimination on a full matrix, run only inside
its lower band, so O(n^2) for upper Hessenberg systems.
"""

from __future__ import annotations

from collections import deque
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


def solve_hessenberg(n: int, row, col, weight, c) -> np.ndarray:
    """Solve (I - U) x = c for the n x n upper Hessenberg U given by its
    entries ``U[row[e], col[e]] = weight[e]``, every other entry zero.

    With one subdiagonal, partial pivoting can only swap a row with the one
    below it, which widens the upper band by one (Golub & Van Loan, Matrix
    Computations, section 4.3).  Each row of I - U is held as its q + 2 entries from column row - 1
    on, q being the largest col - row, so the solve costs O(n q) and no n x n
    array is built.  Pivots, the breakdown threshold and the elimination
    arithmetic are those of :func:`solve_unit` on the dense system, and so is
    every SingularSystem raised.  Back substitution sums each row's band in
    column order, where solve_unit takes a BLAS dot product over the whole
    row, so the two solutions can differ in the last bits.
    """
    if n == 0:
        return np.zeros(0)
    row = np.asarray(row, dtype=np.int64)
    offset = np.asarray(col, dtype=np.int64) - row
    if offset.min(initial=0) < -1:
        raise ValueError("U must be upper Hessenberg")
    q = int(offset.max(initial=0))
    # Row n is a zero row below the last, so column n - 1 runs the same steps.
    A = np.zeros((n + 1, q + 2))
    A[:n, 1] = 1.0
    A[row, offset + 1] -= weight
    scale = float(np.abs(A).max())
    if scale == 0.0:
        raise SingularSystem("coefficient matrix is identically zero")
    threshold = PIVOT_RTOL * scale
    A = A.tolist()
    x = np.asarray(c, dtype=float).tolist()
    x.append(0.0)
    # cur is the pivot row of column k over columns k..k+q+1; row k + 1 over
    # the same columns is the only other candidate.
    cur = A[0][1:] + [0.0]
    done = []
    for k in range(n):
        below = A[k + 1]
        if abs(below[0]) > abs(cur[0]):
            cur, below = below, cur
            x[k], x[k + 1] = x[k + 1], x[k]
        if abs(cur[0]) < threshold:
            raise SingularSystem(
                f"pivot {abs(cur[0]):.3e} below threshold {threshold:.3e} at column {k}"
            )
        done.append(cur)
        factor = below[0] / cur[0]
        x[k + 1] -= factor * x[k]
        cur = [b - factor * a for a, b in zip(cur, below)]
        del cur[0]
        cur.append(0.0)
    later = deque(maxlen=q + 1)  # x[i + 1 : i + q + 2]
    for i in range(n - 1, -1, -1):
        entries = iter(done[i])
        pivot = next(entries)
        total = 0.0
        for a, v in zip(entries, later):
            total += a * v
        x[i] = (x[i] - total) / pivot
        later.appendleft(x[i])
    return np.array(x[:n])
