"""Solves of (I - U) x = c for nonnegative systems.

Every solve is one pivoted elimination inside the band of U,
:func:`solve_banded`, which takes U as its rows' nonzero ``(col, weight)``
entries and works in O(n p (p + q)) time and O(n (p + q)) memory, p and q
being the lower and upper bandwidths.  General-model policies whose jumps go
two or more states down widen p.  Band set-up (one scan for the bandwidths,
one scatter of each row into its band row) and elimination are plain
Python, so a solve loads no numpy.  The elimination owns the band set up
for it and updates its rows in place, so a solve makes no list per column
and leaves the caller's rows untouched.  :func:`solve_unit` hands a dense
U's rows to the same kernel; it, :class:`UnitSystem` and
:func:`has_invertible_structure` load numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import TYPE_CHECKING

from .errors import SingularSystem

if TYPE_CHECKING:
    import numpy as np

# A pivot below this fraction of the largest initial entry is a breakdown.
PIVOT_RTOL = 1e-12


@dataclass(frozen=True)
class UnitSystem:
    """Finite nonnegative square matrix U and finite nonnegative constants c."""

    U: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        import numpy as np

        U = np.array(self.U, dtype=float)
        c = np.array(self.c, dtype=float)
        if U.ndim != 2 or U.shape[0] != U.shape[1]:
            raise ValueError("U must be a square matrix")
        if c.shape != (U.shape[0],):
            raise ValueError("c must be a vector matching U")
        if not (np.isfinite(U).all() and np.isfinite(c).all()):
            raise ValueError("U and c entries must be finite")
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

    True iff U is square, finite and nonnegative, the diagonal and everything
    below the first subdiagonal vanish, the first row sums to strictly less
    than one with the remaining rows at most one, and every subdiagonal entry
    is strictly positive.
    """
    import numpy as np

    # Rows contiguous, so each is summed pairwise as a 1-D sum of it would be.
    U = np.ascontiguousarray(U, dtype=float)
    if U.ndim != 2 or U.shape[0] != U.shape[1] or not np.isfinite(U).all():
        return False
    sums = U.sum(axis=1)
    return bool(
        (U >= 0.0).all()
        and not np.diagonal(U).any()
        and not np.tril(U, -2).any()
        and (sums[:1] < 1.0).all()
        and (sums[1:] <= 1.0).all()
        and (np.diagonal(U, -1) > 0.0).all()
    )


def solve_unit(system: UnitSystem):
    """Solve (I - U) x = c for a dense U by :func:`solve_banded` on its
    rows' nonzero entries; returns a numpy array."""
    import numpy as np

    rows = [[(j, w) for j, w in enumerate(row) if w] for row in system.U.tolist()]
    return np.array(solve_banded(rows, system.c.tolist()))


def solve_banded(rows, c) -> list[float]:
    """Solve (I - U) x = c by Gaussian elimination with partial pivoting,
    for the n x n matrix U given by its n rows: ``rows[i]`` lists the ``(j,
    U[i, j])`` pairs of row i, in any order, each column at most once; every
    other entry is zero.

    With p = max(1, largest i - j) the lower and q the upper bandwidth,
    the pivot of column k is the first largest among rows k..k+p, and each
    swap widens the upper band to at most q + p, as in LAPACK gbtrf (Golub &
    Van Loan, Matrix Computations, section 4.3).  A row below the band has
    never been swapped or updated, so its entries in column k are still
    exact zeros: a search of every row would pick the same pivot and
    subtract exactly zero from those rows.  Each row of I - U is held as its
    p + q + 1 entries from column i - p on, so no n x n array is built, and
    back substitution sums each row's band in column order.

    Raises SingularSystem when the chosen pivot falls below ``PIVOT_RTOL``
    times the largest entry of I - U, which signals that the system's
    invertibility hypotheses do not hold.
    """
    if not rows:
        return []
    return _eliminate(len(rows), *_band(rows, c))


def _band(rows, c) -> tuple:
    """The band rows of I - U, c padded with p zeros, p and the largest
    entry of I - U."""
    offsets = [j - i for i, row in enumerate(rows) for j, _ in row]
    p = max(1, -min(offsets, default=0))
    unit = [0.0] * (max(0, max(offsets, default=0)) + p + 1)
    unit[p] = 1.0
    A = []
    for first, row in enumerate(rows, -p):  # row i is held from column i - p
        band = unit.copy()
        for j, w in row:
            band[j - first] -= w
        A.append(band)
    # Rows n..n+p-1 are zero rows below the last, so the last p columns run
    # the same steps as the others.
    A += [[0.0] * len(unit) for _ in range(p)]
    x = [*map(float, c), *[0.0] * p]
    return A, x, p, max(map(abs, chain.from_iterable(A)))


def _eliminate(n: int, A: list, x: list, p: int, scale: float) -> list[float]:
    """The elimination of :func:`solve_banded` on the band rows ``A`` of
    I - U, each held from column row - p on, with right-hand side ``x``.

    The kernel owns ``A`` and ``x``, which :func:`_band` built for it, and
    updates both in place: a row
    eliminated at column k drops its first entry and takes a zero at its
    end, so it is held from column k + 1 on.  No list is made per column,
    which keeps a large solve from feeding the cyclic garbage collector.
    """
    if scale == 0.0:
        raise SingularSystem("coefficient matrix is identically zero")
    threshold = PIVOT_RTOL * scale
    width = len(A[0])
    shifted = range(1, width)  # a row's entries from its second column on
    # cur holds row k and mid rows k+1..k+p-1 over columns k..k+p+q; the
    # untouched row k+p, stored from column k on, is the last candidate.
    cur = A[0][p:] + [0.0] * p
    mid = [A[i][p - i :] + [0.0] * (p - i) for i in range(1, p)]
    done = []
    for k in range(n):
        below = A[k + p]
        if mid:
            best, at = cur, 0
            for j, r in enumerate([*mid, below], 1):
                if abs(r[0]) > abs(best[0]):
                    best, at = r, j
            if at == p:
                cur, below = below, cur
            elif at:
                cur, mid[at - 1] = best, cur
            x[k], x[k + at] = x[k + at], x[k]
        elif abs(below[0]) > abs(cur[0]):
            cur, below = below, cur
            x[k], x[k + 1] = x[k + 1], x[k]
        pivot = cur[0]
        if abs(pivot) < threshold:
            raise SingularSystem(
                f"pivot {abs(pivot):.3e} below threshold {threshold:.3e} at column {k}"
            )
        done.append(cur)
        factor = below[0] / pivot
        x[k + p] -= factor * x[k]
        for i in shifted:
            below[i] -= factor * cur[i]
        del below[0]
        below.append(0.0)
        if mid:
            for j, r in enumerate(mid, 1):
                factor = r[0] / pivot
                x[k + j] -= factor * x[k]
                for i in shifted:
                    r[i] -= factor * cur[i]
                del r[0]
                r.append(0.0)
            mid.append(below)
            below = mid.pop(0)
        cur = below
    # Every row is zero from column n on, so x is padded with zeros there
    # and each row's band is summed in column order over x[i + 1 : i + width].
    x[n:] = repeat(0.0, width - 1)
    for i in range(n - 1, -1, -1):
        row = done[i]
        total = 0.0
        for j in shifted:
            total += row[j] * x[i + j]
        x[i] = (x[i] - total) / row[0]
    del x[n:]
    return x
