import math
import operator
import re
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings

from cbpopt import (
    GEOMETRIC,
    EmptyActionSet,
    EntryForKEqualsOne,
    ExtinctionProfile,
    InadmissibleAction,
    MZero,
    NegativeRate,
    NonConservativeRow,
    RateOverflow,
    TargetNotAbsorbing,
    TrivialMechanism,
    Policy,
    SimCaps,
    UnknownActionId,
    ValidationError,
    ZeroExitRate,
    brute_force_table,
    cbp_truncate,
    default_policy,
    estimate_ep,
    simulate_trajectory,
    validate_cbp_model,
    validate_general_model,
    validate_mechanism,
)
from conftest import mechanism_st, random_cbp_model


class TestMechanism:
    def test_diagonal_derived(self):
        mech = validate_mechanism({0: 1.0, 2: 2.0})
        assert mech.b1 == -3.0
        assert mech.max_k == 2

    def test_diagonal_derived_other_split(self):
        mech = validate_mechanism({0: 2.0, 2: 1.0})
        assert mech.b1 == -3.0

    def test_trivial_rejected(self):
        with pytest.raises(TrivialMechanism):
            validate_mechanism({0: 1.0})

    def test_negative_rate_rejected(self):
        with pytest.raises(NegativeRate) as err:
            validate_mechanism({0: 1.0, 2: -0.5})
        assert err.value.k == 2

    def test_offspring_count_bound(self):
        # Root finding allocates one coefficient per count up to the largest.
        assert validate_mechanism({0: 1.0, 10**7: 1e-5}).max_k == 10**7
        with pytest.raises(ValidationError, match=r"must lie in 0\.\.10000000, got 10000001"):
            validate_mechanism({0: 1.0, 10**7 + 1: 1e-5})

    def test_k_equals_one_rejected(self):
        with pytest.raises(EntryForKEqualsOne):
            validate_mechanism({1: 1.0, 2: 1.0})

    def test_rate_total_overflow_rejected(self):
        # Each rate is finite; their total, and so the diagonal, is not.
        with pytest.raises(RateOverflow):
            validate_mechanism({0: 1.0, 2: 1e308, 3: 1e308})

    def test_zero_entries_dropped(self):
        mech = validate_mechanism({0: 0.0, 2: 1.0, 3: 0.0})
        assert dict(mech.support) == {2: 1.0}
        assert mech.b0 == 0.0

    @given(mechanism_st())
    def test_rates_sum_to_zero_exactly(self, mech):
        # Added left to right, as validation adds them.
        assert reduce(operator.add, mech.support.values(), 0.0) + mech.b1 == 0.0

    def test_rates_add_left_to_right(self):
        # Compensated summation, the builtin sum's since Python 3.12, gives
        # b1 = -1.0 here and a drift of 0.5000000000000001 below; left to
        # right, every Python version gives the bits of the versions before.
        assert validate_mechanism({k: 0.1 for k in (0, *range(2, 11))}).b1 == -0.9999999999999999
        assert validate_mechanism({k: 0.1 for k in (0, 2, 3, 4)}).drift() == 0.5

    @given(mechanism_st())
    def test_diagonal_dominates_births(self, mech):
        births = sum(r for k, r in mech.support.items() if k >= 2)
        assert births > 0.0
        assert mech.abs_b1 >= births

    @given(mechanism_st())
    def test_rate_rows_conservative(self, mech):
        for i in (1, 2, 7):
            row = mech.rate_row(i)
            scale = max(abs(v) for v in row.values())
            assert abs(sum(row.values())) <= 1e-12 * scale

    def test_growth_bounds_with_linear_weight(self):
        # One-jump growth of R(i) = i + 1 stays within c0 * R(i), and the
        # worst exit rate within L0 * R(i).
        rng = np.random.default_rng(7)
        model = random_cbp_model(rng, zero_death_prob=0.3)
        drifts = [mech.drift() for mech in model.mechanisms.values()]
        c0 = max(max(drifts), 0.0)
        l0 = max(mech.abs_b1 for mech in model.mechanisms.values())
        for mech in model.mechanisms.values():
            for i in range(1, 21):
                growth = sum(rate * (j + 1) for j, rate in mech.rate_row(i).items())
                assert growth <= c0 * (i + 1) + 1e-9
                assert i * mech.abs_b1 <= l0 * (i + 1)


class TestCbpModel:
    def test_unknown_action(self):
        with pytest.raises(UnknownActionId):
            validate_cbp_model(1, {1: ["a1", "ghost"]}, ["a1"], {"a1": {0: 1.0, 2: 1.0}})

    def test_empty_action_set(self):
        with pytest.raises(EmptyActionSet) as err:
            validate_cbp_model(2, {1: ["a1"], 2: []}, ["a1"], {"a1": {0: 1.0, 2: 1.0}})
        assert err.value.state == 2

    def test_missing_state(self):
        with pytest.raises(EmptyActionSet):
            validate_cbp_model(2, {1: ["a1"]}, ["a1"], {"a1": {0: 1.0, 2: 1.0}})

    def test_repeated_bad_list_names_its_first_state(self):
        admissible = {i: ["a1"] for i in range(1, 7)}
        admissible[2] = admissible[5] = ["a1", "ghost"]
        with pytest.raises(UnknownActionId, match=r"\(at 2\)"):
            validate_cbp_model(6, admissible, ["a1"], {"a1": {0: 1.0, 2: 1.0}})

    def test_unhashable_action_id_is_a_validation_error(self):
        with pytest.raises(ValidationError, match=r"must be strings, got \['a1'\] at 2"):
            validate_cbp_model(2, {1: ["a1"], 2: [["a1"]]}, ["a1"], {"a1": {0: 1.0, 2: 1.0}})

    def test_equal_lists_clean_alike(self):
        mechs = {"a1": {0: 1.0, 2: 1.0}, "a2": {0: 2.0, 2: 1.0}}
        admissible = {1: ["a2", "a1"], 2: ("a2", "a1"), 3: ["a1", "a2", "a1"], 4: ["a2", "a1"]}
        model = validate_cbp_model(4, admissible, ["a1"], mechs)
        assert model.admissible == (("a1", "a2"),) * 4

    def test_m_zero(self):
        with pytest.raises(MZero):
            validate_cbp_model(0, {}, ["a1"], {"a1": {0: 1.0, 2: 1.0}})

    def test_duplicates_removed_and_sorted(self):
        model = validate_cbp_model(
            1,
            {1: ["a2", "a1", "a2"]},
            ["a1"],
            {"a1": {0: 1.0, 2: 1.0}, "a2": {0: 2.0, 2: 1.0}},
        )
        assert model.admissible[0] == ("a1", "a2")

    def test_actions_at_tail(self):
        model = validate_cbp_model(
            1,
            {1: ["a2"]},
            ["a1"],
            {"a1": {0: 1.0, 2: 1.0}, "a2": {0: 2.0, 2: 1.0}},
        )
        assert model.actions_at(1) == ("a2",)
        assert model.actions_at(5) == ("a1",)

    def test_materialized_rows_conservative(self):
        rng = np.random.default_rng(11)
        model = random_cbp_model(rng)
        for aid, mech in model.mechanisms.items():
            for i in (1, 3, 10):
                row = mech.rate_row(i)
                assert abs(sum(row.values())) <= 1e-12 * i * mech.abs_b1


class TestGeneralModel:
    def test_diagonal_forced(self):
        model = validate_general_model(
            [0, 1, "delta"],
            [0],
            "delta",
            {(1, "a"): {0: 1.0, "delta": 3.0}},
        )
        assert model.exit_rates[(1, "a")] == 4.0
        assert model.rate_row(1, "a")[1] == -4.0

    def test_exit_rate_adds_left_to_right(self):
        # Ten rates of 0.1, which compensated summation would add to 1.0.
        rows = {(i, "a"): {0: 1.0} for i in range(1, 10)}
        rows[(10, "a")] = {j: 0.1 for j in [*range(9), "delta"]}
        model = validate_general_model([*range(11), "delta"], [0], "delta", rows)
        assert model.exit_rates[(10, "a")] == 0.9999999999999999

    def test_zero_exit_rate(self):
        with pytest.raises(ZeroExitRate):
            validate_general_model([0, 1], [0], None, {(1, "a"): {0: 0.0}})

    def test_rate_total_overflow_rejected(self):
        with pytest.raises(RateOverflow):
            validate_general_model(
                [0, 1, "d"], [0], "d", {(1, "a"): {0: 1e308, "d": 1e308}}
            )

    def test_negative_off_diagonal(self):
        with pytest.raises(NonConservativeRow):
            validate_general_model([0, 1, 2], [0], None, {(1, "a"): {0: 1.0, 2: -0.5}})

    def test_supplied_diagonal_reconciled(self):
        model = validate_general_model(
            [0, 1], [0], None, {(1, "a"): {0: 2.0, 1: -2.0}}
        )
        assert model.exit_rates[(1, "a")] == 2.0

    @pytest.mark.parametrize("diagonal", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("state", [1, 0], ids=["interior", "target"])
    def test_non_finite_supplied_diagonal(self, diagonal, state):
        # NaN compares false with the tolerance, so it must be caught on its own.
        with pytest.raises(NonConservativeRow):
            validate_general_model(
                [0, 1], [0], None, {(1, "a"): {0: 1.0}, (state, "a"): {state: diagonal}}
            )
        with pytest.raises(NonConservativeRow):
            validate_general_model([0, 1], [0], None, {(1, "a"): {0: 1.0, 1: diagonal}})

    def test_supplied_diagonal_mismatch(self):
        with pytest.raises(NonConservativeRow):
            validate_general_model([0, 1], [0], None, {(1, "a"): {0: 2.0, 1: -2.5}})

    def test_target_not_absorbing(self):
        with pytest.raises(TargetNotAbsorbing):
            validate_general_model([0, 1], [0], None, {(0, "a"): {1: 1.0}, (1, "a"): {0: 1.0}})

    def test_cemetery_must_absorb(self):
        with pytest.raises(TargetNotAbsorbing):
            validate_general_model(
                [0, 1, "delta"],
                [0],
                "delta",
                {(1, "a"): {0: 1.0}, ("delta", "a"): {0: 1.0}},
            )

    def test_unknown_state_in_row(self):
        with pytest.raises(ValidationError):
            validate_general_model([0, 1], [0], None, {(1, "a"): {0: 1.0, 9: 1.0}})

    def test_interior_needs_actions(self):
        with pytest.raises(EmptyActionSet):
            validate_general_model([0, 1, 2], [0], None, {(1, "a"): {0: 1.0}})

    @pytest.mark.parametrize(
        "states, target, cemetery, rows, message",
        [
            ([0, 1, 0], [0], None, {}, "duplicate states in the state list"),
            ([0, 1], [], None, {}, "the target set must not be empty"),
            ([0, 1], [7], None, {}, "target state 7 is not in the state list"),
            ([0, 1], [0], "d", {}, "cemetery state 'd' is not in the state list"),
            ([0, 1], [0], 0, {}, "the cemetery state cannot be a target state"),
            ([0, 1], [0], None, {(9, "a"): {0: 1.0}}, "rate row references unknown state 9"),
        ],
        ids=[
            "duplicate_states",
            "empty_target",
            "target_outside",
            "cemetery_outside",
            "cemetery_is_target",
            "row_of_unknown_state",
        ],
    )
    def test_inconsistent_state_sets(self, states, target, cemetery, rows, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            validate_general_model(states, target, cemetery, rows)

    def test_zero_rate_row_on_an_absorbing_state_is_dropped(self):
        model = validate_general_model(
            [0, 1, "d"], [0], "d", {(0, "a"): {1: 0.0}, ("d", "a"): {}, (1, "a"): {0: 1.0}}
        )
        assert dict(model.rows) == {(1, "a"): {0: 1.0}}
        assert model.actions_at(0) == model.actions_at("d") == ()


TWO_ACTION_MECHS = {"a1": {0: 1.0, 2: 2.0}, "a2": {0: 3.0, 2: 1.0}}
PLAY_A2 = Policy(("a2",), "a1")


def _two_action():
    return validate_cbp_model(1, {1: ["a1", "a2"]}, ["a1"], TWO_ACTION_MECHS)


# Every place that takes a population state, and the error it raises for one
# that is not an integer.
STATE_SITES = {
    "default_policy": (
        lambda s: default_policy(_two_action(), "a1", {s: "a2"}).head,
        InadmissibleAction,
    ),
    "admissible_key": (
        lambda s: validate_cbp_model(1, {s: ["a1"]}, ["a1"], TWO_ACTION_MECHS).admissible,
        ValidationError,
    ),
    "action_at": (lambda s: PLAY_A2.action_at(s), TypeError),
    "actions_at": (lambda s: _two_action().actions_at(s), TypeError),
    "ep": (lambda s: ExtinctionProfile((0.25,), GEOMETRIC, rho_star=0.5).ep(s), TypeError),
    "estimate_ep": (
        lambda s: estimate_ep(_two_action(), PLAY_A2, s, 50, SimCaps(1000, 50), 1),
        TypeError,
    ),
    "simulate_trajectory": (
        lambda s: simulate_trajectory(_two_action(), PLAY_A2, s, SimCaps(1000, 50), 1),
        TypeError,
    ),
}


@pytest.mark.parametrize("state", [True, 1.0, "1"], ids=["bool", "float", "str"])
@pytest.mark.parametrize("site", STATE_SITES)
def test_state_that_is_not_an_integer_is_rejected(site, state):
    call, error = STATE_SITES[site]
    with pytest.raises(error, match="is not an integer"):
        call(state)


@pytest.mark.parametrize("site", STATE_SITES)
def test_numpy_integer_state_is_accepted(site):
    call, _ = STATE_SITES[site]
    assert call(np.int64(1)) == call(1)


# Every other integer argument: a call that returns what keeps the value, the
# error for a value that is not an integer, and a valid value.
INTEGER_SITES = {
    "m": (lambda m: validate_cbp_model(m, {1: ["a1"]}, ["a1"], TWO_ACTION_MECHS), MZero, 1),
    "offspring_count": (lambda k: validate_mechanism({0: 1.0, k: 2.0}), ValidationError, 3),
    "truncation_level": (
        lambda level: cbp_truncate(_two_action(), None, level).states,
        TypeError,
        4,
    ),
    "brute_force_cap": (lambda cap: brute_force_table(_two_action(), cap)[0], TypeError, 2),
}


@pytest.mark.parametrize("value", [True, 2.0, 2.5], ids=["bool", "float", "fraction"])
@pytest.mark.parametrize("site", INTEGER_SITES)
def test_integer_argument_that_is_not_an_integer_is_rejected(site, value):
    call, error, _ = INTEGER_SITES[site]
    with pytest.raises(error, match=re.escape(f"integer, got {value!r}") + "$"):
        call(value)


@pytest.mark.parametrize("site", INTEGER_SITES)
def test_numpy_integer_argument_is_stored_as_int(site):
    call, _, valid = INTEGER_SITES[site]
    # repr tells a numpy integer from a Python int wherever one is kept.
    assert repr(call(np.int64(valid))) == repr(call(valid))
