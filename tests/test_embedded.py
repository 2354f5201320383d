import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbpopt import tail_weight, validate_mechanism
from conftest import embedded_row, mechanism_st


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


class TestTailWeight:
    def test_single_upward_term(self):
        mech = validate_mechanism({0: 1.0, 2: 2.0})
        assert tail_weight(mech, 1, 1, 0.5) == pytest.approx(1 / 3, abs=1e-15)

    def test_zero_rho_short_reach(self):
        mech = validate_mechanism({0: 1.0, 2: 2.0})
        assert tail_weight(mech, 1, 3, 0.0) == 0.0

    def test_rare_birth(self):
        mech = validate_mechanism({0: 3.0, 2: 1.0})
        assert tail_weight(mech, 1, 1, 0.5) == pytest.approx(1 / 8, abs=1e-15)

    def test_zero_rho_keeps_landing_mass(self):
        # The j = m term survives at rho = 0 because its power is zero.
        mech = validate_mechanism({0: 1.0, 2: 2.0})
        assert tail_weight(mech, 2, 3, 0.0) == pytest.approx(2 / 3, abs=1e-15)

    @given(
        mechanism_st(),
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_bounded_by_tail_mass(self, mech, i, rho_value):
        m = 6
        weight = tail_weight(mech, i, m, rho_value)
        mass = sum(p for j, p in embedded_row(mech, i).entries.items() if j >= m)
        assert -1e-15 <= weight <= mass + 1e-15
        assert mass <= 1.0 + 1e-15

    @given(mechanism_st(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_rho(self, mech, i):
        m = 4
        grid = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
        weights = [tail_weight(mech, i, m, r) for r in grid]
        assert all(b >= a - 1e-15 for a, b in zip(weights, weights[1:]))
