import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbpopt import (
    CEMETERY,
    NumericalError,
    Policy,
    cbp_truncate,
    rho_star,
    solve,
    validate_cbp_model,
    validate_general_model,
    value_iterate,
)
from cbpopt import general
from cbpopt.embedded import oe_defect
from conftest import far_jumping_model, random_cbp_model


@pytest.fixture
def single_action_cbp():
    return validate_cbp_model(1, {1: ["a"]}, ["a"], {"a": {0: 1.0, 2: 2.0}})


def assert_exact_for_policy(model, solution):
    """The values solve the returned policy's system to 1e-12, by
    np.linalg.solve over the interior states, and certify it to 1e-12."""
    interior = list(model.interior_states())
    P, c = np.zeros((len(interior), len(interior))), np.zeros(len(interior))
    for pos, s in enumerate(interior):
        row = model.rows[(s, solution.policy[s])]
        exit_rate = sum(row.values())
        for j, rate in row.items():
            if j in model.target:
                c[pos] += rate / exit_rate
            elif j in interior:
                P[pos, interior.index(j)] += rate / exit_rate
    exact = np.linalg.solve(np.eye(len(interior)) - P, c)
    got = np.array([solution.values[s] for s in interior])
    assert np.abs(got - exact).max() <= 1e-12
    assert solution.oe_residual <= 1e-12


class TestValueIterate:
    def test_certain_absorption(self):
        model = validate_general_model([0, 1], [0], None, {(1, "a"): {0: 1.0}})
        solution = value_iterate(model)
        assert solution.values[1] == pytest.approx(1.0, abs=1e-10)
        assert solution.values[0] == 1.0

    def test_split_between_target_and_cemetery(self):
        model = validate_general_model(
            [0, 1, "delta"], [0], "delta", {(1, "a"): {0: 1.0, "delta": 3.0}}
        )
        solution = value_iterate(model)
        assert solution.values[1] == pytest.approx(0.25, abs=1e-12)
        assert solution.values["delta"] == 0.0

    def test_two_actions_take_minimum(self):
        model = validate_general_model(
            [0, 1, "delta"],
            [0],
            "delta",
            {
                (1, "a1"): {0: 1.0, "delta": 1.0},
                (1, "a2"): {0: 1.0, "delta": 3.0},
            },
        )
        solution = value_iterate(model)
        assert solution.values[1] == pytest.approx(0.25, abs=1e-12)
        assert solution.policy[1] == "a2"

    def test_iterates_monotone_and_bounded(self):
        # The smallest-id action "a" is the worse one, so policy iteration
        # starts away from the optimum and every later policy is better.
        model = validate_cbp_model(
            2,
            {1: ["a", "b"], 2: ["a", "b"]},
            ["b"],
            {"a": {0: 3.0, 2: 1.0}, "b": {0: 1.0, 2: 2.0}},
        )
        trace: list[list[float]] = []
        solution = value_iterate(cbp_truncate(model, None, 40), trace=trace)
        assert len(trace) == solution.iterations >= 2
        trace = [np.asarray(x) for x in trace]
        for earlier, later in zip(trace, trace[1:]):
            assert np.all(later <= earlier + 1e-15)
        for x in trace:
            assert np.all(x >= 0.0)
            assert np.all(x <= 1.0)
        assert solution.policy[1] == solution.policy[2] == "b"

    def test_policy_tie_break_smallest_id(self):
        model = validate_general_model(
            [0, 1, "delta"],
            [0],
            "delta",
            {
                (1, "b"): {0: 1.0, "delta": 1.0},
                (1, "a"): {0: 1.0, "delta": 1.0},
            },
        )
        solution = value_iterate(model)
        assert solution.policy[1] == "a"


class TestAvoidableStates:
    def test_swap_pair_is_exactly_zero(self):
        # The smallest-id start swaps 1 and 2 forever: I - P is singular for
        # that policy, and the pre-pass drops both states before any solve.
        model = validate_general_model(
            [0, 1, 2, 3],
            [0],
            None,
            {
                (1, "a"): {2: 1.0},
                (1, "b"): {0: 1.0},
                (2, "a"): {1: 1.0},
                (2, "b"): {0: 1.0},
                (3, "a"): {0: 1.0, 1: 1.0},
            },
        )
        solution = value_iterate(model)
        assert solution.values[1] == 0.0
        assert solution.values[2] == 0.0
        assert solution.values[3] == pytest.approx(0.5, abs=1e-15)
        assert solution.policy == {1: "a", 2: "a", 3: "a"}

    def test_all_interior_avoidable(self):
        model = validate_general_model(
            [0, 1, 2, "delta"],
            [0],
            "delta",
            {(1, "a"): {2: 1.0}, (1, "b"): {0: 1.0}, (2, "a"): {"delta": 1.0}},
        )
        solution = value_iterate(model)
        assert solution.values == {0: 1.0, 1: 0.0, 2: 0.0, "delta": 0.0}
        assert solution.policy == {1: "a", 2: "a"}
        assert solution.oe_residual == 0.0

    def test_jump_two_states_down_is_solved_exactly(self):
        model = validate_general_model(
            [0, 1, 2, 3, "delta"],
            [0],
            "delta",
            {
                (1, "a"): {0: 1.0, 2: 1.0},
                (1, "b"): {0: 1.0, 3: 3.0},
                (2, "a"): {1: 1.0, 3: 1.0},
                (2, "b"): {1: 1.0, "delta": 1.0},
                (3, "a"): {1: 2.0, "delta": 1.0},
            },
        )
        solution = value_iterate(model)
        assert_exact_for_policy(model, solution)

    def test_tol_below_residual_is_a_numerical_error(self, monkeypatch):
        truncated = cbp_truncate(
            validate_cbp_model(1, {1: ["a"]}, ["a"], {"a": {0: 1.0, 2: 2.0}}), None, 40
        )
        residual = value_iterate(truncated).oe_residual
        assert residual > 0.0
        monkeypatch.setattr("cbpopt.general.OE_TOL", residual / 2)
        with pytest.raises(NumericalError, match="residual"):
            value_iterate(truncated)


@st.composite
def _far_jumping_model(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return far_jumping_model(rng, draw(st.integers(1, 12)))


@given(_far_jumping_model())
@settings(max_examples=100, deadline=None)
def test_rows_jumping_three_states_down_are_solved_exactly(model):
    assert_exact_for_policy(model, value_iterate(model))


def _recomputed_oe_residual(model, solution):
    """The OE residual at the solution's values, from freshly compiled rows."""
    interior, rows, _ = general._compile(model)
    x = [solution.values[s] for s in interior]
    return oe_defect(x, rows.least(rows.candidates(x))[0], len(interior))


@given(_far_jumping_model())
@settings(max_examples=60, deadline=None)
def test_reused_certificate_is_recomputed_residual_bit_for_bit(model):
    solution = value_iterate(model)
    assert solution.oe_residual.hex() == _recomputed_oe_residual(model, solution).hex()


def test_rounding_cycle_through_several_policies_stops():
    # Even under the tie rule, policy iteration here goes back and forth
    # between two policies whose values differ only in the last bits.
    model = far_jumping_model(np.random.default_rng(122), 12)
    solution = value_iterate(model)
    assert_exact_for_policy(model, solution)
    # The last sweep is the one the stop cut short; its least values still
    # certify the policy it kept.
    assert solution.oe_residual.hex() == _recomputed_oe_residual(model, solution).hex()


@st.composite
def _model_and_level(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = random_cbp_model(rng, max_m=5, ks=(0, 2, 3), zero_death_prob=0.3)
    reach = max(mech.max_k for mech in model.mechanisms.values())
    return model, model.m + reach + draw(st.integers(1, 30))


@given(_model_and_level())
@settings(max_examples=60, deadline=None)
def test_truncation_cross_checks_solve(case):
    model, level = case
    exact = solve(model).optimal_profile
    short = value_iterate(cbp_truncate(model, None, level))
    wide = value_iterate(cbp_truncate(model, None, 2 * level))
    for solution, window in ((short, level), (wide, 2 * level)):
        assert solution.oe_residual <= 1e-12
        again = _recomputed_oe_residual(cbp_truncate(model, None, window), solution)
        assert solution.oe_residual.hex() == again.hex()
    for i in range(1, level + 1):
        assert short.values[i] <= exact.ep(i) + 1e-12
        assert wide.values[i] <= exact.ep(i) + 1e-12
        assert wide.values[i] >= short.values[i] - 1e-12
        if exact.ep(i) == 0.0:
            # The pre-pass finds what zero_death_cutoff finds.
            assert short.values[i] == wide.values[i] == 0.0


def test_truncation_rounding_tie_does_not_cycle():
    # Every value is 1 up to rounding.  At state 5, rows a0 and a2 each
    # come out an ulp below the value under the policy playing the other,
    # so comparing with the value alone alternates between them forever.
    mechanisms = {
        "a0": {0: 2.893077546003844, 2: 2.1097701601231513, 3: 2.8544540936040455},
        "a1": {0: 2.8434218857086457, 2: 0.6550736527303715},
        "a2": {0: 1.6245582647336532, 2: 2.71807769961493, 3: 1.5199409515707056},
        "a3": {0: 0.5217733847416107, 2: 2.1250532793486347, 3: 2.8681143529267596},
    }
    admissible = {1: ["a3"], 2: ["a0"], 3: ["a1", "a3"], 4: ["a0", "a1"], 5: ["a0", "a2", "a3"]}
    model = validate_cbp_model(5, admissible, ["a1"], mechanisms)
    solution = value_iterate(cbp_truncate(model, None, 36))
    assert solution.oe_residual <= 1e-12
    assert all(solution.values[i] <= 1.0 for i in range(1, 37))
    assert solution.values[1] == pytest.approx(1.0, abs=1e-9)


class TestCbpTruncate:
    def test_level_guard(self, single_action_cbp):
        with pytest.raises(ValueError):
            cbp_truncate(single_action_cbp, None, 3)

    def test_rates_and_redirection(self, single_action_cbp):
        truncated = cbp_truncate(single_action_cbp, None, 10)
        assert truncated.cemetery == CEMETERY
        # Interior state: per-particle rates scale with the population.
        assert truncated.rows[(4, "a")] == {3: 4.0, 5: 8.0}
        # Births at the boundary leave the window and land in the cemetery.
        assert truncated.rows[(10, "a")][CEMETERY] == 20.0
        assert truncated.exit_rates[(4, "a")] == 12.0

    def test_policy_restriction(self):
        model = validate_cbp_model(
            1,
            {1: ["a1", "a2"]},
            ["a1"],
            {"a1": {0: 1.0, 2: 2.0}, "a2": {0: 3.0, 2: 1.0}},
        )
        truncated = cbp_truncate(model, Policy(("a2",), "a1"), 12)
        assert (1, "a2") in truncated.rows
        assert (1, "a1") not in truncated.rows
        assert (2, "a1") in truncated.rows

    def test_truncation_is_lower_bound_increasing_in_level(self, single_action_cbp):
        exact = [0.5**i for i in range(1, 11)]
        previous = None
        for level in (50, 100, 200):
            solution = value_iterate(cbp_truncate(single_action_cbp, None, level))
            values = [solution.values[i] for i in range(1, 11)]
            assert all(v <= e + 1e-12 for v, e in zip(values, exact))
            if previous is not None:
                assert all(b >= a - 1e-12 for a, b in zip(previous, values))
            previous = values

    def test_matches_closed_form_at_large_level(self, single_action_cbp):
        solution = value_iterate(cbp_truncate(single_action_cbp, None, 200))
        for i in range(1, 11):
            assert solution.values[i] == pytest.approx(0.5**i, abs=1e-3)

    def test_agrees_with_exact_solver_under_policy(self):
        model = validate_cbp_model(
            1,
            {1: ["a1", "a2"]},
            ["a1"],
            {"a1": {0: 1.0, 2: 2.0}, "a2": {0: 3.0, 2: 1.0}},
        )
        roots = rho_star(model)
        from cbpopt import evaluate_policy

        exact = evaluate_policy(model, Policy(("a2",), "a1"), roots.rho_star)
        truncated = cbp_truncate(model, Policy(("a2",), "a1"), 200)
        solution = value_iterate(truncated)
        assert solution.values[1] == pytest.approx(exact.ep(1), abs=1e-6)
        assert solution.values[5] == pytest.approx(exact.ep(5), abs=1e-6)
