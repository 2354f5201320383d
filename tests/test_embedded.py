import math
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbpopt import validate_mechanism
from cbpopt.embedded import JumpRows, oe_defect, policy_iteration
from conftest import embedded_row, mechanism_st

# Three states and the target column 3.  At HELD, state 0's rows value
# 0.75, 0.25, 0.25 (an exact tie), state 1's 0.5, 0.5 (a tie at its own
# value) and state 2's single row 0.125.
ACTIONS = ("a", "b", "c", "a", "b", "a")
STATE_PTR = [0, 3, 5]
ENTRIES = [
    [(3, 0.5), (1, 0.5)],
    [(3, 0.125), (2, 0.5)],
    [(1, 0.5)],
    [(3, 0.5)],
    [(0, 0.5), (3, 0.25)],
    [(3, 0.125)],
]
VALUES = [0.5, 0.5, 0.25]
HELD = [*VALUES, 1.0]
LEAST = [0.25, 0.5, 0.125]


# The id keeps the test names of the rows held as Python lists.
@pytest.fixture(params=["list"])
def rows(request):
    return JumpRows(ACTIONS, STATE_PTR, ENTRIES)


class TestJumpRowsContract:
    def test_least_takes_the_first_row_of_a_tie(self, rows):
        best, first = rows.least(rows.candidates(HELD))
        assert (best, first) == (LEAST, [1, 3, 5])
        assert type(best) is list and type(first) is list

    def test_exact_tie_goes_to_the_smallest_id_row(self, rows):
        assert rows.improve([0, 4, 5], VALUES, HELD) == ([1, 4, 5], [0], LEAST)
        assert rows.improve([2, 4, 5], VALUES, HELD) == ([1, 4, 5], [0], LEAST)

    def test_current_row_at_the_minimum_does_not_move(self, rows):
        # State 1 plays row 4, which ties row 3 at the state's own value.
        improved, changed, best = rows.improve([1, 4, 5], VALUES, HELD)
        assert (improved, changed) == ([1, 4, 5], [])
        assert best == LEAST and type(best) is list

    def test_single_row_never_moves(self, rows):
        # Row 5 is below state 2's value, but it is the state's only row.
        assert rows.improve([1, 3, 5], VALUES, HELD) == ([1, 3, 5], [], LEAST)
        # Only the states before len(values) are open to improvement.
        assert rows.improve([0, 4, 5], VALUES[:0], HELD) == ([0, 4, 5], [], LEAST)

    def test_oe_residual_zeroes_the_least_value_from_zero_from(self, rows):
        best = rows.least(rows.candidates(HELD))[0]
        assert oe_defect(VALUES, best, 3) == 0.25
        assert oe_defect(VALUES, best, 1) == 0.5
        assert type(oe_defect(VALUES, best, 0)) is float

    def test_oe_defect_of_the_least_values_is_oe_residual(self, rows):
        best = rows.least(rows.candidates(HELD))[0]
        for zero_from in range(5):
            assert oe_defect(VALUES, LEAST, zero_from) == oe_defect(VALUES, best, zero_from)

    def test_defect(self, rows):
        # Rows 1, 3 and 5 value 0.25, 0.5 and 0.125 at HELD.
        defect = rows.defect(VALUES, HELD, [1, 3, 5])
        assert defect == 0.25 and type(defect) is float
        assert rows.defect(VALUES[:2], [*VALUES[:2], 0.0, 1.0], [3, 3]) == 0.0
        assert rows.defect([], [0.0, 0.0, 0.0, 1.0], []) == 0.0

    def test_evaluate(self, rows):
        assert rows.evaluate([1, 3, 5]) == ([0.1875, 0.5, 0.125], 0.0)
        # State 2 is held at zero.
        assert rows.evaluate([1, 3], residual=False) == ([0.125, 0.5], None)

    def test_evaluate_nothing(self, rows):
        # A zero tail from state 1 on leaves no state to solve.
        head, defect = rows.evaluate([])
        assert (head, defect) == ([], 0.0)
        assert type(defect) is float


def test_defect_of_a_nan_is_nan():
    # max() over a list skips a NaN that is not first; the defect keeps it.
    x = [0.5, 0.5, float("nan")]
    assert math.isnan(JumpRows(ACTIONS, STATE_PTR, ENTRIES).defect(x, [*x, 1.0], [0, 3, 5]))


class TestEmbeddedRow:
    def test_basic_row(self):
        mech = validate_mechanism({0: 1.0, 2: 2.0})
        row = embedded_row(mech, 1)
        assert row.entries == {0: pytest.approx(1 / 3, abs=1e-15), 2: pytest.approx(2 / 3, abs=1e-15)}

    def test_shift_invariance(self):
        mech = validate_mechanism({0: 1.0, 2: 2.0})
        row = embedded_row(mech, 4)
        assert set(row.entries) == {3, 5}
        assert row.entries[3] == embedded_row(mech, 1).entries[0]

    def test_no_death_entry_absent(self):
        mech = validate_mechanism({0: 0.0, 2: 1.0})
        row = embedded_row(mech, 2)
        assert dict(row.entries) == {3: 1.0}

    @given(mechanism_st(), st.integers(min_value=1, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_rows_are_distributions(self, mech, i):
        row = embedded_row(mech, i)
        assert abs(sum(row.entries.values()) - 1.0) <= 1e-12
        assert i not in row.entries
        assert all(j >= i - 1 for j in row.entries)


class _AlternatingRows:
    """Rows whose improvement swaps between two policies on every sweep, as a
    rounding-level tie can."""

    @staticmethod
    def improve(chosen, values, held):
        return ([1] if chosen == [0] else [0]), [0], [0.25]


def test_policy_iteration_stops_before_a_repeated_policy():
    evaluated = []

    def evaluate(chosen):
        evaluated.append(chosen)
        return len(evaluated), [0.5], [0.5, 1.0]

    sweeps = list(policy_iteration(_AlternatingRows(), [0], evaluate))
    assert evaluated == [[0], [1]]
    # The second sweep would bring [0] back, so it stays at [1] and reports
    # no change.
    assert sweeps == [(1, [1], [0], None), (2, [1], [], [0.25])]


class _Vector(list):
    """A list that takes weak references."""


class _ClimbingRows:
    """Rows that move state 0 one row up per sweep until row 2, keeping weak
    references to the least values they return."""

    def __init__(self):
        self.least = []

    def improve(self, chosen, values, held):
        best = _Vector([0.25])
        self.least.append(weakref.ref(best))
        if chosen[0] < 2:
            return [chosen[0] + 1], [0], best
        return chosen, [], best


def test_policy_iteration_frees_each_sweep_before_the_next_evaluation():
    rows, vectors = _ClimbingRows(), []
    alive = []

    def evaluate(chosen):
        alive.extend(ref() is not None for ref in rows.least + vectors)
        held = _Vector([0.5, 1.0])
        vectors.append(weakref.ref(held))
        return chosen[0], [0.5], held

    *_, (record, improved, changed, best) = policy_iteration(rows, [0], evaluate)
    # The second evaluation looks at the first sweep's least values and held
    # vector, the third at both sweeps': every one was already freed.
    assert alive == [False] * 6
    assert (record, improved, changed) == (2, [2], [])
    assert best is rows.least[-1]()
