import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbpopt import SingularSystem, UnitSystem, solve_unit, validate_mechanism
from cbpopt.embedded import JumpRows, oe_defect, policy_iteration
from conftest import embedded_row, mechanism_st

# Three states.  At VALUES, state 0's rows value 0.75, 0.25, 0.25 (an exact
# tie), state 1's 0.5, 0.5 (a tie at its own value) and state 2's single
# row 0.125.
ACTIONS = ("a", "b", "c", "a", "b", "a")
STATE_PTR = [0, 3, 5]
ENTRIES = [[(1, 0.5)], [(2, 0.5)], [(1, 0.5)], [], [(0, 0.5)], []]
TARGET = [0.5, 0.125, 0.0, 0.5, 0.25, 0.125]
VALUES = [0.5, 0.5, 0.25]
LEAST = [0.25, 0.5, 0.125]


@pytest.fixture
def rows():
    return JumpRows(ACTIONS, STATE_PTR, ENTRIES, TARGET)


class TestJumpRowsContract:
    def test_least_takes_the_first_row_of_a_tie(self, rows):
        best, first = rows.least(rows.candidates(VALUES))
        assert (best, first) == (LEAST, [1, 3, 5])
        assert type(best) is list and type(first) is list

    def test_exact_tie_goes_to_the_smallest_id_row(self, rows):
        cand = rows.candidates(VALUES)
        assert rows.improve([0, 4, 5], VALUES, cand) == ([1, 4, 5], [0], LEAST)
        assert rows.improve([2, 4, 5], VALUES, cand) == ([1, 4, 5], [0], LEAST)

    def test_current_row_at_the_minimum_does_not_move(self, rows):
        # State 1 plays row 4, which ties row 3 at the state's own value.
        improved, changed, best = rows.improve([1, 4, 5], VALUES, rows.candidates(VALUES))
        assert (improved, changed) == ([1, 4, 5], [])
        assert best == LEAST and type(best) is list

    def test_single_row_never_moves(self, rows):
        cand = rows.candidates(VALUES)
        # Row 5 is below state 2's value, but it is the state's only row.
        assert rows.improve([1, 3, 5], VALUES, cand) == ([1, 3, 5], [], LEAST)
        # Only the states before len(values) are open to improvement.
        assert rows.improve([0, 4, 5], VALUES[:0], cand) == ([0, 4, 5], [], LEAST)

    def test_oe_residual_zeroes_the_least_value_from_zero_from(self, rows):
        best = rows.least(rows.candidates(VALUES))[0]
        assert oe_defect(VALUES, best, 3) == 0.25
        assert oe_defect(VALUES, best, 1) == 0.5
        assert type(oe_defect(VALUES, best, 0)) is float

    def test_oe_defect_of_the_least_values_is_oe_residual(self, rows):
        best = rows.least(rows.candidates(VALUES))[0]
        for zero_from in range(5):
            assert oe_defect(VALUES, LEAST, zero_from) == oe_defect(VALUES, best, zero_from)

    def test_candidates_add_the_target_mass_last(self):
        # (0.1 + 0.2) + 0.6 is 0.9, but (0.6 + 0.1) + 0.2 is
        # 0.8999999999999999.
        rows = JumpRows(("a", "a"), [0, 1], [[(0, 0.1), (1, 0.2)], []], [0.6, 0.0])
        assert rows.candidates([1.0, 1.0]) == [0.9, 0.0]

    def test_evaluate(self, rows):
        assert rows.evaluate([1, 3, 5]) == [0.1875, 0.5, 0.125]

    def test_evaluate_nothing(self):
        # A general model whose interior states all avoid the target leaves
        # no state to solve.
        assert JumpRows((), [], [], []).evaluate([]) == []


def _clipped(x) -> list[float]:
    return [0.0 if v < 0.0 else 1.0 if v > 1.0 else v for v in x]


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_evaluate_is_solve_unit_on_the_chosen_rows(n, seed):
    # One or two rows per state, each jumping at most 3 states down and
    # anywhere up, normalized by a total that may include mass to the
    # target and to a cemetery, the entries in random order.  The dense U
    # and c of the chosen rows go through solve_unit, which TestBandLimit
    # ties to dense pivoted elimination: the bits must be the same.
    rng = np.random.default_rng(seed)
    actions, state_ptr, entries, target, chosen = [], [], [], [], []
    U, c = np.zeros((n, n)), np.zeros(n)
    for i in range(n):
        state_ptr.append(len(actions))
        for a in "ab"[: rng.integers(1, 3)]:
            cols = [j for j in range(max(0, i - 3), n) if rng.random() < 0.5]
            rates = rng.uniform(0.1, 2.0, size=len(cols))
            to_target = rng.uniform(0.1, 2.0) if rng.random() < 0.6 else 0.0
            to_cemetery = rng.uniform(0.0, 1.0) if rng.random() < 0.5 else 0.0
            total = rates.sum() + to_target + to_cemetery
            if total == 0.0:
                total = 1.0
            row = [(j, float(r / total)) for j, r in zip(cols, rates)]
            entries.append([row[k] for k in rng.permutation(len(row))])
            target.append(float(to_target / total))
            actions.append(a)
        chosen.append(int(rng.integers(state_ptr[-1], len(actions))))
        for j, w in entries[chosen[-1]]:
            U[i, j] = w
        c[i] = target[chosen[-1]]
    rows = JumpRows(tuple(actions), state_ptr, entries, target)
    try:
        want = _clipped(solve_unit(UnitSystem(U, c)).tolist())
    except SingularSystem as exc:
        with pytest.raises(SingularSystem, match=re.escape(str(exc))):
            rows.evaluate(chosen)
    else:
        assert np.array(rows.evaluate(chosen)).tobytes() == np.array(want).tobytes()


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
    def candidates(held):
        return held

    @staticmethod
    def improve(chosen, values, cand):
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
    references to the row values and least values they return."""

    def __init__(self):
        self.cand, self.least = [], []

    def candidates(self, held):
        cand = _Vector(held)
        self.cand.append(weakref.ref(cand))
        return cand

    def improve(self, chosen, values, cand):
        best = _Vector([0.25])
        self.least.append(weakref.ref(best))
        if chosen[0] < 2:
            return [chosen[0] + 1], [0], best
        return chosen, [], best


def test_policy_iteration_frees_each_sweep_before_the_next_evaluation():
    rows, vectors = _ClimbingRows(), []
    alive = []

    def evaluate(chosen):
        alive.extend(ref() is not None for ref in rows.cand + rows.least + vectors)
        held = _Vector([0.5, 1.0])
        vectors.append(weakref.ref(held))
        return chosen[0], [0.5], held

    *_, (record, improved, changed, best) = policy_iteration(rows, [0], evaluate)
    # The second evaluation looks at the first sweep's row values, least
    # values and held vector, the third at both sweeps': every one was
    # already freed.
    assert alive == [False] * 9
    assert (record, improved, changed) == (2, [2], [])
    assert best is rows.least[-1]()
