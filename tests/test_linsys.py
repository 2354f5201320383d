import contextlib
import copy
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbpopt import SingularSystem, UnitSystem, has_invertible_structure, solve_unit
from cbpopt.linsys import PIVOT_RTOL, _band, solve_banded


def random_structured(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random matrix satisfying the structural invertibility conditions."""
    U = np.zeros((n, n))
    for i in range(n):
        if i >= 1:
            U[i, i - 1] = rng.uniform(0.05, 1.0)
        for j in range(i + 1, n):
            U[i, j] = rng.uniform(0.0, 1.0)
        total = U[i].sum()
        cap = rng.uniform(0.1, 0.95) if i == 0 else rng.uniform(0.1, 1.0)
        if total > 0:
            U[i] *= cap / total
    return U


def unrestricted_solve(
    U: np.ndarray, c: np.ndarray, ordered_sums: bool = False
) -> tuple[np.ndarray, int]:
    """Pivoted elimination that searches and eliminates every row below the
    pivot, whatever the band; returns the solution and the number of swaps.
    Back substitution takes a dot product over each row, or with
    ``ordered_sums`` adds the row's terms one by one in column order."""
    n = len(c)
    A = np.eye(n) - U
    x = c.copy()
    threshold = PIVOT_RTOL * float(np.abs(A).max())
    swaps = 0
    for col in range(n):
        p = col + int(np.argmax(np.abs(A[col:, col])))
        if abs(A[p, col]) < threshold:
            raise SingularSystem(
                f"pivot {abs(A[p, col]):.3e} below threshold {threshold:.3e} at column {col}"
            )
        if p != col:
            swaps += 1
            A[[col, p]] = A[[p, col]]
            x[[col, p]] = x[[p, col]]
        if col + 1 < n:
            factors = A[col + 1 :, col] / A[col, col]
            A[col + 1 :, col:] -= np.outer(factors, A[col, col:])
            x[col + 1 :] -= factors * x[col]
    for i in range(n - 1, -1, -1):
        if ordered_sums:
            total = 0.0
            for j in range(i + 1, n):
                total += A[i, j] * x[j]
        else:
            total = A[i, i + 1 :] @ x[i + 1 :]
        x[i] = (x[i] - total) / A[i, i]
    return x, swaps


def random_banded(rng: np.random.Generator, n: int, band: int, density: float) -> np.ndarray:
    """Nonnegative matrix with lower bandwidth exactly ``band``.  Entries up
    to 2 beat the unit diagonal of I - U often, so rows swap inside the band."""
    U = rng.uniform(0.0, 2.0, (n, n)) * (rng.random((n, n)) < density)
    U[np.subtract.outer(np.arange(n), np.arange(n)) > band] = 0.0
    U[band, 0] = rng.uniform(0.5, 2.0)
    return U


def singular_column(exc: SingularSystem) -> int:
    return int(re.search(r"at column (\d+)", str(exc)).group(1))


band_st = st.sampled_from([0, 1, 2, None])  # None: n - 1, a dense lower part


def _structure_reference(U: np.ndarray) -> bool:
    """has_invertible_structure's conditions checked entry by entry."""
    n = len(U)
    if not all(math.isfinite(v) and v >= 0.0 for v in U.flat):
        return False
    if any(U[i, j] != 0.0 for i in range(n) for j in range(n) if j == i or j < i - 1):
        return False
    if n and float(U[0].sum()) >= 1.0:
        return False
    return all(float(U[i].sum()) <= 1.0 and U[i, i - 1] > 0.0 for i in range(1, n))


class TestStructureCheck:
    def test_accepts_structured(self):
        assert has_invertible_structure(np.array([[0.0, 0.5], [0.9, 0.0]]))

    def test_rejects_first_row_sum_one(self):
        assert not has_invertible_structure(np.array([[0.0, 1.0], [0.9, 0.0]]))

    def test_rejects_zero_subdiagonal(self):
        assert not has_invertible_structure(np.array([[0.0, 0.5], [0.0, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        assert not has_invertible_structure(np.array([[0.1, 0.5], [0.9, 0.0]]))

    def test_rejects_entry_below_subdiagonal(self):
        U = np.zeros((3, 3))
        U[1, 0] = 0.5
        U[2, 1] = 0.5
        U[2, 0] = 0.1
        assert not has_invertible_structure(U)

    def test_rejects_negative_entries(self):
        assert not has_invertible_structure(np.array([[0.0, -0.5], [0.9, 0.0]]))

    @pytest.mark.parametrize("U", [np.zeros((2, 3)), np.zeros(2), 0.0], ids=["2x3", "1d", "0d"])
    def test_rejects_non_square(self, U):
        assert not has_invertible_structure(U)

    def test_rejects_later_row_sum_above_one(self):
        U = np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.6], [0.0, 0.5, 0.0]])
        assert not has_invertible_structure(U)
        U[1, 2] = 0.5  # a row after the first may sum to exactly one
        assert has_invertible_structure(U)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("at", [(1, 0), (0, 1), (0, 0)], ids=["sub", "upper", "diagonal"])
    def test_rejects_non_finite_entries(self, value, at):
        U = np.array([[0.0, 0.5], [0.9, 0.0]])
        U[at] = value
        assert not has_invertible_structure(U)

    @given(st.integers(0, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_entrywise_reference(self, n, seed):
        rng = np.random.default_rng(seed)
        U = random_structured(rng, n)
        if n:
            # One entry perturbed, and rows scaled to sum to about one.
            U[rng.integers(n), rng.integers(n)] = rng.choice([0.0, 0.3, -0.1, np.nan, np.inf])
            U[rng.integers(n)] *= rng.choice([1.0, 2.0, 1.0 + 2**-52])
        assert has_invertible_structure(U) == _structure_reference(U)


class TestSolveUnit:
    def test_scalar(self):
        x = solve_unit(UnitSystem(np.array([[1 / 3]]), np.array([1 / 3])))
        assert x[0] == pytest.approx(0.5, abs=1e-14)

    def test_identity(self):
        c = np.array([0.3, 0.7, 0.1])
        x = solve_unit(UnitSystem(np.zeros((3, 3)), c))
        assert np.array_equal(x, c)

    def test_two_by_two(self):
        system = UnitSystem(np.array([[0.0, 0.5], [0.9, 0.0]]), np.array([0.5, 0.1]))
        x = solve_unit(system)
        assert np.allclose(x, [1.0, 1.0], atol=1e-12)

    def test_empty(self):
        assert solve_unit(UnitSystem(np.zeros((0, 0)), np.zeros(0))).shape == (0,)

    def test_singular_detected(self):
        # Permutation cycle: I - U has a zero eigenvalue.
        with pytest.raises(SingularSystem):
            solve_unit(UnitSystem(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.0, 0.0])))

    @pytest.mark.parametrize(
        "U, c, message",
        [
            (np.zeros((2, 3)), np.zeros(2), "U must be a square matrix"),
            (np.zeros(2), np.zeros(2), "U must be a square matrix"),
            (np.zeros((2, 2)), np.zeros(3), "c must be a vector matching U"),
            (np.zeros((2, 2)), np.zeros((2, 1)), "c must be a vector matching U"),
        ],
        ids=["2x3", "1d", "c_too_long", "c_column"],
    )
    def test_rejects_mismatched_shapes(self, U, c, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            UnitSystem(U, c)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            UnitSystem(np.array([[-0.1]]), np.array([0.0]))
        with pytest.raises(ValueError):
            UnitSystem(np.array([[0.1]]), np.array([-1.0]))

    @pytest.mark.parametrize(
        "U, c",
        [
            ([[np.nan]], [0.5]),
            ([[np.inf]], [0.5]),
            ([[0.0, 0.5], [0.9, 0.0]], [np.inf, 0.1]),
            ([[0.0, 0.5], [0.9, 0.0]], [0.5, np.nan]),
        ],
    )
    def test_rejects_non_finite_inputs(self, U, c):
        with pytest.raises(ValueError, match="finite"):
            UnitSystem(np.array(U), np.array(c))

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=80, deadline=None)
    def test_structured_never_singular(self, n, seed):
        rng = np.random.default_rng(seed)
        U = random_structured(rng, n)
        assert has_invertible_structure(U)
        c = rng.uniform(0.0, 1.0, size=n)
        x = solve_unit(UnitSystem(U, c))
        residual = np.abs(x - U @ x - c).max()
        assert residual <= 1e-10 * (1.0 + c.max())
        assert np.allclose(x, np.linalg.solve(np.eye(n) - U, c), atol=1e-9)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_substochastic_solutions_are_probabilities(self, n, seed):
        rng = np.random.default_rng(seed)
        U = random_structured(rng, n)
        slack = 1.0 - U.sum(axis=1)
        c = np.array([rng.uniform(0.0, s) for s in slack])
        x = solve_unit(UnitSystem(U, c))
        assert np.all(x >= -1e-12)
        assert np.all(x <= 1.0 + 1e-12)


class TestBandLimit:
    @given(
        st.integers(min_value=1, max_value=30),
        band_st,
        st.sampled_from([0.3, 1.0]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_unrestricted_search(self, n, band, density, seed):
        rng = np.random.default_rng(seed)
        band = n - 1 if band is None else min(band, n - 1)
        U = random_banded(rng, n, band, density)
        c = rng.uniform(0.0, 1.0, size=n)
        try:
            want, _ = unrestricted_solve(U, c, ordered_sums=True)
        except SingularSystem as exc:
            with pytest.raises(SingularSystem) as err:
                solve_unit(UnitSystem(U, c))
            assert singular_column(err.value) == singular_column(exc)
        else:
            assert solve_unit(UnitSystem(U, c)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, band", [(12, 1), (12, 2), (12, 11), (30, 1)])
    def test_swaps_inside_the_band(self, n, band):
        rng = np.random.default_rng(n + band)
        U = random_banded(rng, n, band, 1.0)
        c = rng.uniform(0.0, 1.0, size=n)
        want, swaps = unrestricted_solve(U, c, ordered_sums=True)
        assert swaps > 0
        assert solve_unit(UnitSystem(U, c)).tobytes() == want.tobytes()

    @given(
        st.integers(min_value=2, max_value=30),
        band_st,
        st.data(),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_singular_band_names_the_same_column(self, n, band, data, seed):
        rng = np.random.default_rng(seed)
        band = n - 1 if band is None else min(band, n - 1)
        U = random_banded(rng, n, band, 1.0)
        # Column k of I - U vanishes, and elimination keeps it zero.
        k = data.draw(st.integers(min_value=1, max_value=n - 1))
        U[:, k] = 0.0
        U[k, k] = 1.0
        c = rng.uniform(0.0, 1.0, size=n)
        with pytest.raises(SingularSystem) as want:
            unrestricted_solve(U, c)
        with pytest.raises(SingularSystem) as got:
            solve_unit(UnitSystem(U, c))
        assert singular_column(got.value) == singular_column(want.value) <= k


def nonzero_rows(U: np.ndarray) -> list:
    return [[(j, w) for j, w in enumerate(row) if w] for row in U.tolist()]


def banded_solve(U: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.array(solve_banded(nonzero_rows(U), c.tolist()))


class TestHessenberg:
    """:func:`solve_banded` on rows of entries, against dense elimination."""

    @given(
        st.integers(min_value=1, max_value=30),
        band_st,
        st.sampled_from([0.3, 1.0]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_dense_elimination_with_ordered_sums(self, n, band, density, seed):
        # Same pivots, threshold and elimination as a search of every row,
        # and back substitution summing each row in column order.
        rng = np.random.default_rng(seed)
        band = n - 1 if band is None else min(band, n - 1)
        U = random_banded(rng, n, band, density)
        c = rng.uniform(0.0, 1.0, size=n)
        try:
            want, _ = unrestricted_solve(U, c, ordered_sums=True)
        except SingularSystem as exc:
            with pytest.raises(SingularSystem) as err:
                banded_solve(U, c)
            assert str(err.value) == str(exc)
        else:
            assert banded_solve(U, c).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [12, 30])
    def test_swaps(self, n):
        rng = np.random.default_rng(n + 1)
        U = random_banded(rng, n, 1, 1.0)
        c = rng.uniform(0.0, 1.0, size=n)
        want, swaps = unrestricted_solve(U, c, ordered_sums=True)
        assert swaps > 0
        assert banded_solve(U, c).tobytes() == want.tobytes()

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_within_four_ulps_of_dot_product_sums(self, n, seed):
        # Substochastic systems like the head systems: summing back
        # substitution in column order instead of by a BLAS dot product moves
        # the solution by a few ulps at most.
        rng = np.random.default_rng(seed)
        U = random_structured(rng, n)
        c = rng.uniform(0.0, 1.0, size=n)
        want, _ = unrestricted_solve(U, c)
        got = banded_solve(U, c)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))

    @given(
        st.integers(min_value=2, max_value=30),
        band_st,
        st.data(),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_singular_message_matches_dense_elimination(self, n, band, data, seed):
        rng = np.random.default_rng(seed)
        band = n - 1 if band is None else min(band, n - 1)
        U = random_banded(rng, n, band, 1.0)
        k = data.draw(st.integers(min_value=1, max_value=n - 1))
        U[:, k] = 0.0
        U[k, k] = 1.0
        c = rng.uniform(0.0, 1.0, size=n)
        with pytest.raises(SingularSystem) as want:
            unrestricted_solve(U, c)
        with pytest.raises(SingularSystem) as got:
            banded_solve(U, c)
        assert str(got.value) == str(want.value)
        assert singular_column(got.value) <= k

    def test_edge_cases(self):
        assert banded_solve(np.zeros((0, 0)), np.zeros(0)).shape == (0,)
        with pytest.raises(SingularSystem, match="identically zero"):
            banded_solve(np.eye(3), np.ones(3))
        # An entry two below the diagonal widens the lower band to 2.
        x = solve_banded([[], [], [(0, 0.5)]], [1.0, 1.0, 1.0])
        assert x == [1.0, 1.0, 1.5]


class TestKernelOwnsTheBand:
    """The elimination updates the band built for it in place and touches
    nothing its caller passed."""

    def test_peak_stays_near_the_band(self):
        # p = 1, q = 2: a band of width 4.  A kernel that made a list per
        # column would nearly double the band's footprint.
        n = 2000
        rows = [
            [(j, w) for j, w in ((i - 1, 0.5), (i + 1, 0.2), (i + 2, 0.1)) if 0 <= j < n]
            for i in range(n)
        ]
        c = [0.2] * n

        def peak(setup):
            tracemalloc.start()
            try:
                setup(rows, c)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        band = peak(_band)
        assert peak(solve_banded) <= 1.25 * band

    @pytest.mark.parametrize(
        "n, band, density, singular",
        [(1, 0, 1.0, False), (3, 2, 1.0, False), (4, 3, 1.0, False), (12, 1, 0.3, False),
         (12, 3, 1.0, False), (30, 2, 0.3, False), (12, 2, 1.0, True)],
    )
    def test_inputs_are_untouched(self, n, band, density, singular):
        # n < p + q + 1 in the first three cases, and p >= 2 in five.
        rng = np.random.default_rng(100 * n + band)
        U = random_banded(rng, n, band, density)
        if singular:
            U[:, n // 2] = 0.0
            U[n // 2, n // 2] = 1.0
        c = rng.uniform(0.0, 1.0, size=n)
        listed = [nonzero_rows(U), c.tolist()]
        system = UnitSystem(U, c)
        arrays = [U, c, system.U, system.c]
        copies = copy.deepcopy([listed, arrays])
        with contextlib.suppress(SingularSystem):
            solve_banded(*listed)
        with contextlib.suppress(SingularSystem):
            solve_unit(system)
        # repr prints every float exactly, and every row's list and tuples.
        assert repr(listed) == repr(copies[0])
        for got, want in zip(arrays, copies[1]):
            assert got.tobytes() == want.tobytes()
