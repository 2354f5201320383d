import json
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbpopt import (
    GEOMETRIC,
    ZERO,
    ExtinctionProfile,
    InadmissibleAction,
    NumericalError,
    Policy,
    TooManyPolicies,
    brute_force,
    brute_force_table,
    default_policy,
    evaluate_policy,
    improve_policy,
    rho_star,
    solve,
    validate_cbp_model,
    verify_oe,
    zero_death_cutoff,
)
from cbpopt import solver
from cbpopt.cli import main
from cbpopt.embedded import Passage
from conftest import (
    bisect_min_root,
    embedded_row,
    exact_values,
    random_cbp_model,
    random_mechanism_entries,
    relative_errors,
)


class TestZeroDeathCutoff:
    def test_none_available(self, two_action_model):
        assert zero_death_cutoff(two_action_model) == 2

    def test_mid_state(self):
        model = validate_cbp_model(
            3,
            {1: ["a1"], 2: ["a1", "z"], 3: ["a1"]},
            ["a1"],
            {"a1": {0: 1.0, 2: 2.0}, "z": {2: 1.0}},
        )
        assert zero_death_cutoff(model) == 2

    def test_state_one(self):
        model = validate_cbp_model(1, {1: ["z"]}, ["z"], {"z": {2: 1.0}})
        assert zero_death_cutoff(model) == 1

    def test_tail_zero_death_not_consulted(self):
        # A no-death action only in the tail set leaves the cutoff at m+1.
        model = validate_cbp_model(
            1, {1: ["a1"]}, ["a1", "z"], {"a1": {0: 1.0, 2: 2.0}, "z": {2: 1.0}}
        )
        assert zero_death_cutoff(model) == 2


def _reference_cutoff(model):
    for i in range(1, model.m + 1):
        if min(model.mechanism(a).b0 for a in model.admissible[i - 1]) == 0.0:
            return i
    return model.m + 1


@st.composite
def _model_and_head(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = random_cbp_model(rng, max_m=7, ks=(0, 2, 3, 4), zero_death_prob=0.3)
    head = tuple(draw(st.sampled_from(choices)) for choices in model.admissible)
    return model, head


class TestNoDeathDecision:
    @given(_model_and_head())
    @settings(max_examples=150, deadline=None)
    def test_cutoff_and_i0_match_reference_loops(self, case):
        model, head = case
        assert zero_death_cutoff(model) == _reference_cutoff(model)
        f = Policy(head, model.tail_actions[0])
        profile = evaluate_policy(model, f, 0.5)
        reference_i0 = next(
            (i for i, a in enumerate(head, 1) if model.mechanism(a).b0 == 0.0), None
        )
        assert profile.i0 == reference_i0
        assert profile.tail_kind == (GEOMETRIC if reference_i0 is None else ZERO)
        if reference_i0 is not None:
            # States from i0 on are padded with exact zeros.
            assert profile.head_values[reference_i0 - 1 :] == (0.0,) * (
                model.m - reference_i0 + 1
            )
        # State s plays its own row of the policy's action.
        rows = Passage(model, 0.5)
        ends = np.append(rows.state_ptr[1:], len(rows.actions))
        for s, r in enumerate(rows.rows_playing(head)):
            assert rows.state_ptr[s] <= r < ends[s]
            assert rows.actions[r] == head[s]


def _tail_weight(mech, i, m, rho_value):
    """sum over j >= m of p(j|i) * rho_value**(j - m): the values above m,
    rho**(j - m) x_m, folded into state m's column."""
    entries = embedded_row(mech, i).entries.items()
    return sum(p * rho_value ** (j - m) for j, p in entries if j >= m)


def _reference_system(model, head, rho_value):
    """Dense (U, c) behind a head policy's values and its i0, written out per
    entry: the states in front of the first no-death choice i0 with landings
    past them dropped, or without one all m states with the tail weight
    folded into state m."""
    m = model.m
    i0 = next((i for i, a in enumerate(head, 1) if model.mechanism(a).b0 == 0.0), None)
    size = m if i0 is None else i0 - 1
    U, c = np.zeros((size, size)), np.zeros(size)
    for i in range(1, size + 1):
        mech = model.mechanism(head[i - 1])
        for j, p in embedded_row(mech, i).entries.items():
            if j == 0:
                c[i - 1] = p
            elif j <= size and j < m:
                U[i - 1, j - 1] = p
        if i0 is None:
            U[i - 1, m - 1] = _tail_weight(mech, i, m, rho_value)
    return U, c, i0


class TestDefaultPolicy:
    @pytest.fixture
    def model(self):
        return validate_cbp_model(
            3,
            {1: ["a1", "a2"], 2: ["a1", "a2"], 3: ["a2"]},
            ["a1"],
            {"a1": {0: 1.0, 2: 2.0}, "a2": {0: 3.0, 2: 1.0}},
        )

    def test_smallest_id_without_overrides(self, model):
        assert default_policy(model, "a1") == Policy(("a1", "a1", "a2"), "a1")

    def test_overrides_replace_the_default(self, model):
        assert default_policy(model, "a1", {2: "a2"}) == Policy(("a1", "a2", "a2"), "a1")

    @pytest.mark.parametrize(
        "overrides, state",
        [({0: "a1"}, 0), ({4: "a1"}, 4), ({"1": "a1"}, "1"), ({3: "a1"}, 3), ({1: "x"}, 1)],
        ids=["below_range", "above_range", "non_int_key", "inadmissible", "unknown_action"],
    )
    def test_bad_override_names_its_state(self, model, overrides, state):
        with pytest.raises(InadmissibleAction) as err:
            default_policy(model, "a1", overrides)
        assert err.value.state == state

    def test_tail_outside_shared_set(self, model):
        with pytest.raises(InadmissibleAction):
            default_policy(model, "a2")


class TestEvaluatePolicy:
    def test_geometric_case(self, two_action_model):
        profile = evaluate_policy(two_action_model, Policy(("a1",), "a1"), 0.5)
        assert profile.tail_kind == GEOMETRIC
        assert profile.ep(1) == pytest.approx(0.5, abs=1e-12)
        assert profile.ep(2) == pytest.approx(0.25, abs=1e-12)
        assert profile.ep(3) == pytest.approx(0.125, abs=1e-12)

    def test_geometric_case_other_head(self, two_action_model):
        profile = evaluate_policy(two_action_model, Policy(("a2",), "a1"), 0.5)
        assert profile.ep(1) == pytest.approx(6 / 7, abs=1e-12)

    def test_zero_tail_case(self, zero_death_model):
        roots = rho_star(zero_death_model)
        profile = evaluate_policy(zero_death_model, Policy(("a1", "z"), "a1"), roots.rho_star)
        assert profile.tail_kind == ZERO
        assert profile.i0 == 2
        assert profile.ep(1) == pytest.approx(1 / 3, abs=1e-12)
        assert profile.ep(2) == 0.0
        assert profile.ep(9) == 0.0

    def test_inadmissible_policy(self, two_action_model):
        with pytest.raises(InadmissibleAction):
            evaluate_policy(two_action_model, Policy(("missing",), "a1"), 0.5)

    @pytest.mark.parametrize("rho", [-0.5, math.inf, 1.5, math.nan])
    def test_tail_ratio_must_be_a_probability(self, two_action_model, rho):
        # The ratio is the passage probability above m.
        f = Policy(("a1",), "a1")
        message = f"^tail ratio must be a number in \\[0, 1\\], got {rho!r}$"
        with pytest.raises(ValueError, match=message):
            evaluate_policy(two_action_model, f, rho)
        profile = ExtinctionProfile((0.5,), GEOMETRIC, rho_star=rho)
        with pytest.raises(ValueError, match=message):
            improve_policy(two_action_model, f, profile)

    def test_values_within_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            model = random_cbp_model(rng, zero_death_prob=0.2)
            roots = rho_star(model)
            combo = tuple(choices[0] for choices in model.admissible)
            profile = evaluate_policy(model, Policy(combo, roots.a_star), roots.rho_star)
            assert all(0.0 <= v <= 1.0 for v in profile.head_values)

    def test_subcritical_values_clamped_to_one(self):
        # The solve rounds to 1 + 2**-52 here; extinction is certain.
        model = validate_cbp_model(1, {1: ["a"]}, ["a"], {"a": {0: 7.0, 2: 5.0}})
        profile = evaluate_policy(model, Policy(("a",), "a"), 1.0)
        assert profile.head_values == (1.0,)

    def test_system_rows_substochastic(self):
        # Probability systems built for evaluation admit probability solutions.
        rng = np.random.default_rng(5)
        for _ in range(25):
            model = random_cbp_model(rng, zero_death_prob=0.2)
            roots = rho_star(model)
            f = Policy(tuple(c[0] for c in model.admissible), roots.a_star)
            U, c, _ = _reference_system(model, f.head, roots.rho_star)
            if len(c) == 0:
                continue
            sums = U.sum(axis=1)
            assert np.all(sums <= 1.0 + 1e-12)
            assert np.all(c <= 1.0 - sums + 1e-12)
            x = np.array(evaluate_policy(model, f, roots.rho_star).head_values[: len(c)])
            assert np.abs(x - U @ x - c).max() <= 1e-12


class TestImprovePolicy:
    def test_switches_to_better_action(self, two_action_model):
        profile = evaluate_policy(two_action_model, Policy(("a2",), "a1"), 0.5)
        improved = improve_policy(two_action_model, Policy(("a2",), "a1"), profile)
        assert improved.head == ("a1",)
        assert improved.tail == "a1"

    def test_fixed_point_unchanged(self, two_action_model):
        profile = evaluate_policy(two_action_model, Policy(("a1",), "a1"), 0.5)
        improved = improve_policy(two_action_model, Policy(("a1",), "a1"), profile)
        assert improved.head == ("a1",)

    def test_geometric_profile_needs_its_ratio(self, two_action_model):
        profile = ExtinctionProfile((0.5,), GEOMETRIC)
        message = "^geometric-tail improvement needs the profile's tail ratio$"
        with pytest.raises(ValueError, match=message):
            improve_policy(two_action_model, Policy(("a1",), "a1"), profile)

    def test_equal_value_is_not_an_improvement(self, two_action_model):
        # The candidate's one-jump value equals the current value exactly
        # (1/3 + 1/3 * 1/2 rounds to exactly 0.5), so the choice stays put.
        profile = ExtinctionProfile((0.5,), GEOMETRIC, rho_star=0.5)
        improved = improve_policy(two_action_model, Policy(("a1",), "a1"), profile)
        assert improved.head == ("a1",)


class TestSolve:
    def test_default_start_already_optimal(self, two_action_model):
        report = solve(two_action_model)
        assert report.optimal_policy == Policy(("a1",), "a1")
        assert len(report.iterations) == 1
        assert report.iterations[0].improved_states == ()
        assert report.optimal_profile.ep(1) == pytest.approx(0.5, abs=1e-12)
        assert report.optimal_profile.ep(2) == pytest.approx(0.25, abs=1e-12)
        assert report.oe_residual <= 1e-9

    def test_forced_start_improves(self, two_action_model):
        report = solve(two_action_model, start_head={1: "a2"})
        assert [r.policy.head for r in report.iterations] == [("a2",), ("a1",)]
        assert report.iterations[0].improved_states == (1,)
        assert report.iterations[0].profile.ep(1) == pytest.approx(6 / 7, abs=1e-12)
        assert report.iterations[1].profile.ep(1) == pytest.approx(0.5, abs=1e-12)

    def test_zero_death_solve(self, zero_death_model):
        report = solve(zero_death_model)
        assert report.zero_death_cutoff == 2
        assert report.optimal_profile.tail_kind == ZERO
        assert report.optimal_profile.head_values[0] == pytest.approx(1 / 3, abs=1e-12)
        assert report.optimal_profile.head_values[1] == 0.0
        assert report.oe_residual <= 1e-9

    def test_zero_death_reached_from_positive_start(self):
        # State 2 starts on a death-prone action and must switch to the
        # no-death one.
        model = validate_cbp_model(
            2,
            {1: ["a1"], 2: ["a1", "z"]},
            ["a1"],
            {"a1": {0: 1.0, 2: 2.0}, "z": {2: 1.0}},
        )
        report = solve(model, start_head={2: "a1"})
        assert report.optimal_policy.head == ("a1", "z")
        assert report.optimal_profile.ep(2) == 0.0
        assert report.optimal_profile.ep(1) == pytest.approx(1 / 3, abs=1e-12)

    def test_dont_care_states_reported(self):
        model = validate_cbp_model(
            3,
            {1: ["a1"], 2: ["z"], 3: ["a1"]},
            ["a1"],
            {"a1": {0: 1.0, 2: 2.0}, "z": {2: 1.0}},
        )
        report = solve(model)
        assert report.zero_death_cutoff == 2
        assert report.dont_care_states == (3,)
        assert report.optimal_profile.ep(3) == 0.0

    def test_start_head_outside_range(self, two_action_model):
        with pytest.raises(InadmissibleAction) as err:
            solve(two_action_model, start_head={4: "a1"})
        assert err.value.state == 4

    def test_exhaustive_ties(self, monkeypatch):
        # a1 and a3 have the same root 0.5, so one solve serves both.
        model = validate_cbp_model(
            1,
            {1: ["a1", "a2"]},
            ["a1", "a3"],
            {
                "a1": {0: 1.0, 2: 2.0},
                "a2": {0: 3.0, 2: 1.0},
                "a3": {0: 2.0, 2: 4.0},
            },
        )
        built = []
        head_iteration = solver._head_iteration

        def record_root(model, root, *args):
            built.append(root)
            return head_iteration(model, root, *args)

        monkeypatch.setattr(solver, "_head_iteration", record_root)
        report = solve(model)
        assert report.tied == ("a1", "a3")
        assert built == [0.5]
        assert report.optimal_profile.ep(1) == pytest.approx(0.5, abs=1e-10)

    def test_exhaustive_ties_compares_each_root(self, monkeypatch):
        # Four ulps more on a2's birth rate move its root below a1's, inside
        # a1's bracket; head values solved under each root then differ in
        # the last bits, which a zero tolerance catches.
        model = validate_cbp_model(
            1,
            {1: ["a1"]},
            ["a1", "a2"],
            {"a1": {0: 1.0, 2: 2.0}, "a2": {0: 1.0, 2: 2.0 + 4 * math.ulp(2.0)}},
        )
        roots = rho_star(model)
        a1, a2 = roots.per_action["a1"], roots.per_action["a2"]
        assert a2.rho < a1.rho and a1.bracket[0] <= a2.bracket[1]
        assert solve(model).tied == ("a1", "a2")
        monkeypatch.setattr(solver, "_TIE_PROFILE_TOL", 0.0)
        with pytest.raises(NumericalError, match="disagree at state 1"):
            solve(model)

    @staticmethod
    def _near_tie_model(smaller_root: str, larger_root: str):
        # Roots 1/c and 1/(c - eta), 5e-10 apart with brackets about 5e-15
        # wide; every head state plays the smaller-root mechanism.
        c = 1 + 1e-4
        eta = 5e-10 * c**2
        m = 40
        return validate_cbp_model(
            m,
            {i: [smaller_root] for i in range(1, m + 1)},
            [smaller_root, larger_root],
            {smaller_root: {0: 1.0, 2: c}, larger_root: {0: 1.0, 2: c - eta}},
        )

    def test_disjoint_brackets_are_not_tied(self):
        # The roots lie within 1e-9 of each other, and their head values
        # differ by about 1e-8; only the brackets tell the roots apart.
        model = self._near_tie_model("a1", "a2")
        assert rho_star(model).tied == ("a1",)
        report = solve(model)
        assert report.tied == ("a1",)
        assert report.oe_residual <= 1e-12

    def test_profile_is_the_reported_policys_value(self):
        # The larger root has the smaller id; a_star is the other action and
        # the profile is solved under a_star's own root.
        model = self._near_tie_model("a2", "a1")
        report = solve(model)
        assert report.a_star == "a2"
        assert report.rho_star == rho_star(model).per_action["a2"].rho
        own = evaluate_policy(
            model, report.optimal_policy, rho_star(model).per_action[report.a_star].rho
        )
        assert report.optimal_profile == own

    def test_monotone_improvement_and_termination(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            model = random_cbp_model(rng, zero_death_prob=0.25)
            report = solve(model)
            assert len(report.iterations) <= model.head_policy_count()
            for earlier, later in zip(report.iterations, report.iterations[1:]):
                drops = [
                    earlier.profile.ep(i) - later.profile.ep(i)
                    for i in range(1, model.m + 1)
                ]
                assert all(d >= -1e-12 for d in drops)
                assert any(d > 0.0 for d in drops)

    @pytest.mark.parametrize("no_death_at", [None, 1975])
    def test_large_head_from_worst_start(self, no_death_at):
        # Two actions of one birth shape, a0 growing faster than a1 at every
        # state; starting from a1 everywhere forces m-state solves.
        m = 2000
        mechs = {"a0": {0: 1.0, 2: 1.2, 3: 0.6}, "a1": {0: 1.0, 2: 0.6, 3: 0.3}}
        admissible = {i: ["a0", "a1"] for i in range(1, m + 1)}
        if no_death_at is not None:
            mechs["z"] = {2: 1.0}
            admissible[no_death_at].append("z")
        model = validate_cbp_model(m, admissible, ["a0", "a1"], mechs)
        # Banded head solves: no m x m array (32 MB at m = 2000) is built.
        tracemalloc.start()
        try:
            report = solve(model, start_head={i: "a1" for i in range(1, m + 1)})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert len(report.iterations) >= 2
        assert report.oe_residual <= 1e-9
        profile = report.optimal_profile
        U, c, i0 = _reference_system(model, report.optimal_policy.head, report.rho_star)
        kind = GEOMETRIC if i0 is None else ZERO
        assert kind == profile.tail_kind == (GEOMETRIC if no_death_at is None else ZERO)
        assert i0 == profile.i0 == no_death_at
        direct = np.linalg.solve(np.eye(len(c)) - U, c)
        assert np.abs(np.array(profile.head_values[: len(c)]) - direct).max() <= 1e-12
        assert all(v == 0.0 for v in profile.head_values[len(c) :])


class TestVerifyOe:
    def test_nonoptimal_profile_has_residual(self, two_action_model):
        profile = evaluate_policy(two_action_model, Policy(("a2",), "a1"), 0.5)
        residual = verify_oe(two_action_model, profile)
        assert residual == pytest.approx(5 / 21, abs=1e-12)

    def test_optimal_profile_residual_small(self, two_action_model):
        report = solve(two_action_model)
        assert verify_oe(two_action_model, report.optimal_profile) <= 1e-9

    def test_profile_of_another_size_is_rejected(self, two_action_model):
        profile = ExtinctionProfile((0.5, 0.25), GEOMETRIC, rho_star=0.5)
        with pytest.raises(ValueError, match="profile covers 2 states"):
            verify_oe(two_action_model, profile)

    def test_zero_tail_certificate_checks_zeros(self, zero_death_model):
        # A profile that is positive beyond the cutoff cannot certify.
        fake = ExtinctionProfile((1 / 3, 0.2), ZERO, i0=2)
        assert verify_oe(zero_death_model, fake) >= 0.2


def _exact_one_jump(model, i, action, x, rho_value, cutoff):
    """Exact one-jump value of ``action`` at state i from the exact values
    ``x`` of states 1..m, with x_0 = 1, x_{m+e} = rho**e x_m above the head
    and every value held at zero from the cutoff on."""
    m, rates = model.m, model.mechanism(action).support
    total = sum(map(Fraction, rates.values()))
    value = Fraction(0)
    for k, b in rates.items():
        j = i - 1 + k
        if j == 0:
            landing = Fraction(1)
        elif j >= cutoff:  # past m only when the cutoff is m + 1
            landing = Fraction(0) if cutoff <= m else Fraction(rho_value) ** (j - m) * x[m - 1]
        else:
            landing = x[j - 1]
        value += Fraction(b) / total * landing
    return value


def _exact_jumps(model, x, rho_value):
    """Each state's exact one-jump value per admissible action, up to the
    cutoff."""
    cutoff = zero_death_cutoff(model)
    return [
        {a: _exact_one_jump(model, i, a, x, rho_value, cutoff) for a in model.admissible[i - 1]}
        for i in range(1, min(cutoff, model.m) + 1)
    ]


def _exact_oe(model, x, rho_value):
    """Exact optimality-equation residual at the exact values ``x``."""
    jumps = _exact_jumps(model, x, rho_value)
    gaps = [abs(v - min(row.values())) for v, row in zip(x, jumps)]
    gaps += [abs(v) for v in x[zero_death_cutoff(model) - 1 :]]
    return float(max(gaps))


def _steep(values, cutoff):
    """Whether a value in front of the cutoff lies above an earlier zero, or
    above an earlier positive value by a factor past 2**900: values that
    cannot be read as passage probabilities x_j / x_{j-1} in floats."""
    low = 1.0
    for v in values[: cutoff - 1]:
        if v > 0.0 and (low == 0.0 or v / low > 2.0**900):
            return True
        low = min(low, v)
    return False


@st.composite
def _model_policy_values(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = random_cbp_model(
        rng, max_m=7, ks=(0, 2, 3, 4), zero_death_prob=draw(st.sampled_from([0.0, 0.3]))
    )
    head = tuple(draw(st.sampled_from(choices)) for choices in model.admissible)
    unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    values = tuple(draw(st.lists(unit, min_size=model.m, max_size=model.m)))
    return model, head, values


# Improvement decisions and certificates are checked against exact arithmetic
# where the exact margin exceeds this, relative to the largest value from the
# state below on (the scale of every one-jump value there).
_EXACT_TOL = 1e-12


class TestOneJumpOperator:
    @given(_model_policy_values())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_loops_exactly(self, case):
        # Improvement and certificate at the drawn values, and at the
        # policy's evaluated values, agree with exact one-jump arithmetic on
        # those same values wherever the margin is clear of rounding.
        model, head, drawn = case
        roots = rho_star(model)
        f = Policy(head, roots.a_star)
        cutoff = zero_death_cutoff(model)
        evaluated = evaluate_policy(model, f, roots.rho_star).head_values
        for values in (drawn, evaluated):
            profile = ExtinctionProfile(values, GEOMETRIC, rho_star=roots.rho_star)
            try:
                improved = improve_policy(model, f, profile).head
                oe = verify_oe(model, profile)
            except ValueError:
                assert _steep(values, cutoff)
                continue
            x = list(map(Fraction, values))
            # A ratio over a subnormal value decides nothing: the states
            # above the first one stay.
            top = next((j for j, v in enumerate(values, 1) if 0.0 < v < sys.float_info.min), 0)
            for i, jumps in enumerate(_exact_jumps(model, x, roots.rho_star), 1):
                # Every one-jump value at state i is a mean of values from
                # state i - 1 on.
                tol = _EXACT_TOL * max((1, *x)[i - 1 :])
                low, mine = min(jumps.values()), jumps[improved[i - 1]]
                if top and i > top:
                    assert improved[i - 1] == head[i - 1]
                elif improved[i - 1] != head[i - 1]:
                    assert mine - low <= tol and mine - x[i - 1] < tol
                else:
                    assert x[i - 1] - low <= tol or mine - low <= tol
            assert abs(oe - _exact_oe(model, x, roots.rho_star)) <= _EXACT_TOL

    def test_value_above_a_zero_is_rejected(self):
        # (0, 0.5) is no extinction profile: nothing reaches 0 through state
        # 1 from state 2 if state 1 cannot.  Its OE residual, 5/6, has no
        # reading in passage probabilities.
        model = validate_cbp_model(2, {1: ["a"], 2: ["a"]}, ["a"], {"a": {0: 2.0, 2: 1.0}})
        f = Policy(("a", "a"), "a")
        profile = ExtinctionProfile((0.0, 0.5), GEOMETRIC, rho_star=1.0)
        message = "cannot be read as passage probabilities"
        with pytest.raises(ValueError, match=message):
            verify_oe(model, profile)
        with pytest.raises(ValueError, match=message):
            improve_policy(model, f, profile)
        zeros = ExtinctionProfile((0.0, 0.0), GEOMETRIC, rho_star=1.0)
        assert verify_oe(model, zeros) == 2 / 3
        assert improve_policy(model, f, zeros) == f

    def test_profile_of_another_model_of_the_same_size(self):
        # The certificate reads the values under the model it is given, here
        # one reaching further than the model the values came from.
        short = validate_cbp_model(3, {i: ["a"] for i in (1, 2, 3)}, ["a"], {"a": {0: 1.0, 2: 2.0}})
        mechs = {"a": {0: 1.0, 2: 2.0}, "b": {0: 0.2, 5: 1.0}, "c": {0: 3.0, 4: 1.0}}
        far = validate_cbp_model(3, {i: ["a", "b", "c"] for i in (1, 2, 3)}, ["a"], mechs)
        roots = rho_star(short)
        profile = evaluate_policy(short, Policy(("a",) * 3, "a"), roots.rho_star)
        x = list(map(Fraction, profile.head_values))
        exact_oe = _exact_oe(far, x, roots.rho_star)
        assert exact_oe > 0.01
        assert abs(verify_oe(far, profile) - exact_oe) <= _EXACT_TOL
        improved = improve_policy(far, Policy(("a",) * 3, "a"), profile).head
        for i, jumps in enumerate(_exact_jumps(far, x, roots.rho_star), 1):
            assert jumps[improved[i - 1]] == min(jumps.values())

    @given(_model_policy_values())
    @settings(max_examples=80, deadline=None)
    def test_reused_certificate_is_verify_oe_bit_for_bit(self, case):
        # solve certifies from its last sweep's least values; verify_oe
        # recomputes them from the profile alone.
        model = case[0]
        report = solve(model)
        again = verify_oe(model, report.optimal_profile)
        assert report.oe_residual.hex() == again.hex()

    def test_reused_certificate_below_a_zero_death_cutoff(self, zero_death_model):
        report = solve(zero_death_model)
        assert report.zero_death_cutoff <= zero_death_model.m
        again = verify_oe(zero_death_model, report.optimal_profile)
        assert report.oe_residual.hex() == again.hex()

    @given(_model_policy_values())
    @settings(max_examples=50, deadline=None)
    def test_solve_certificate_matches_reference(self, case):
        # The reported policy is optimal in exact arithmetic, and its values
        # and certificate agree with its exact values.
        model = case[0]
        report = solve(model)
        x = exact_values(model, report.optimal_policy.head, report.rho_star)
        values = report.optimal_profile.head_values
        assert max(relative_errors(values, x), default=0.0) <= 1e-14
        exact_residual = _exact_oe(model, x, report.rho_star)
        assert exact_residual <= _EXACT_TOL
        assert abs(report.oe_residual - exact_residual) <= _EXACT_TOL


def _trap(m: int, split: int):
    """Supercritical u at states 1..split, subcritical d above, u in the
    tail: the head system's pivots cancel to rounding at these sizes."""
    mechs = {"u": {0: 1.0, 2: 2.0}, "d": {0: 2.0, 2: 1.0}}
    model = validate_cbp_model(m, {i: ["d", "u"] for i in range(1, m + 1)}, ["u"], mechs)
    return model, tuple("u" if i <= split else "d" for i in range(1, m + 1))


class TestExactOracle:
    """Values against the exact solve from the rates (conftest.exact_values)."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.3]))
    @settings(max_examples=200, deadline=None)
    def test_random_policies_are_accurate(self, seed, zero_death_prob):
        rng = np.random.default_rng(seed)
        model = random_cbp_model(
            rng, max_m=7, max_actions=3, ks=(0, 2, 3, 4), zero_death_prob=zero_death_prob
        )
        roots = rho_star(model)
        head = tuple(c[int(rng.integers(len(c)))] for c in model.admissible)
        profile = evaluate_policy(model, Policy(head, roots.a_star), roots.rho_star)
        exact = exact_values(model, head, roots.rho_star)
        assert max(relative_errors(profile.head_values, exact)) <= 1e-14

    def test_trap_at_m_70_is_accurate(self, tmp_path, capsys):
        # The head system's elimination was off by 1.3e-5 here with residual
        # 1.1e-16, and exited 0.
        model, head = _trap(70, 35)
        doc = {
            "kind": "cbp",
            "cbp": {
                "m": 70,
                "actions": [{"id": a, "b": {str(k): b for k, b in mech.support.items()}}
                            for a, mech in model.mechanisms.items()],
                "admissible": {str(i): ["d", "u"] for i in range(1, 71)},
                "tail": ["u"],
            },
        }
        path = tmp_path / "trap.json"
        path.write_text(json.dumps(doc))
        spec = ",".join(f"{i}:{a}" for i, a in enumerate(head, 1))
        assert main(["evaluate", str(path), "--policy", spec, "--json"]) == 0
        values = json.loads(capsys.readouterr().out)["profile"]["head_values"]
        exact = exact_values(model, head, rho_star(model).rho_star)
        assert max(relative_errors(values, exact)) <= 1e-13

    def test_half_split_at_m_100_is_accurate(self):
        # The head system was singular to working precision here.
        model, head = _trap(100, 50)
        rho = rho_star(model).rho_star
        profile = evaluate_policy(model, Policy(head, "u"), rho)
        assert max(relative_errors(profile.head_values, exact_values(model, head, rho))) <= 1e-13

    def test_certain_extinction_is_exactly_one(self):
        # Every exact value is 1; the head system gave 0.99999999998628.
        model = random_cbp_model(
            np.random.default_rng(2210), max_m=6, max_actions=3, ks=(0, 2, 3, 4),
            zero_death_prob=0.15,
        )
        report = solve(model)
        exact = exact_values(model, report.optimal_policy.head, report.rho_star)
        assert exact == [1] * model.m
        assert report.optimal_profile.head_values == (1.0,) * model.m


class TestBruteForce:
    def test_matches_solve(self, two_action_model):
        assert brute_force(two_action_model).ep(1) == pytest.approx(0.5, abs=1e-12)

    def test_unattained_floor_is_an_error(self, two_action_model, monkeypatch):
        monkeypatch.setattr(solver, "_ATTAIN_TOL", -1.0)
        with pytest.raises(NumericalError):
            brute_force(two_action_model)

    def test_cap_enforced(self, two_action_model):
        with pytest.raises(TooManyPolicies):
            brute_force(two_action_model, cap=1)

    def test_table_lists_every_policy(self, two_action_model):
        profile, table = brute_force_table(two_action_model)
        assert sorted(f.head for f, _ in table) == [("a1",), ("a2",)]
        assert profile.ep(1) == min(p.ep(1) for _, p in table)

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            model = random_cbp_model(rng, zero_death_prob=0.25)
            report = solve(model)
            oracle = brute_force(model)
            for i in range(1, model.m + 3):
                assert report.optimal_profile.ep(i) == pytest.approx(
                    oracle.ep(i), abs=1e-10
                )


class TestBranchingIdentity:
    def test_single_action_powers(self):
        # Extinction from i independent lines is the single-line root to the
        # i-th power.
        rng = np.random.default_rng(9)
        for _ in range(10):
            entries = random_mechanism_entries(rng, ks=(0, 2, 3, 4))
            model = validate_cbp_model(1, {1: ["a"]}, ["a"], {"a": entries})
            roots = rho_star(model)
            if roots.rho_star == 1.0:
                continue
            profile = evaluate_policy(model, Policy(("a",), "a"), roots.rho_star)
            root = bisect_min_root(model.mechanism("a"))
            for i in range(1, 11):
                assert profile.ep(i) == pytest.approx(root**i, abs=1e-8)
