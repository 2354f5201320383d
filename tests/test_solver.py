import math
import tracemalloc

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
    SingularSystem,
    TooManyPolicies,
    brute_force,
    brute_force_table,
    default_policy,
    evaluate_policy,
    improve_policy,
    rho_star,
    solve,
    tail_weight,
    validate_cbp_model,
    verify_oe,
    zero_death_cutoff,
)
from cbpopt import solver
from cbpopt.embedded import ArrayRows, ListRows
from cbpopt.solver import _head_rows
from conftest import bisect_min_root, embedded_row, random_cbp_model, random_mechanism_entries


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
        rows = _head_rows(model, 0.5)
        ends = np.append(rows.state_ptr[1:], len(rows.actions))
        for s, r in enumerate(rows.rows_playing(head)):
            assert rows.state_ptr[s] <= r < ends[s]
            assert rows.actions[r] == head[s]


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
            U[i - 1, m - 1] = tail_weight(mech, i, m, rho_value)
    return U, c, i0


@st.composite
def _random_head(draw):
    """A head of m = 1..40 states over 1..4 actions with supports in
    {0, 2..8}, some without death; each state admits its own subset."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mechanisms = {}
    for j in range(int(rng.integers(1, 5))):
        births = [k for k in range(2, 9) if rng.random() < 0.4] or [int(rng.integers(2, 9))]
        ks = births if rng.random() < 0.3 else [0, *births]
        mechanisms[f"a{j}"] = {k: float(rng.uniform(0.1, 3.0)) for k in ks}
    ids = list(mechanisms)
    m = int(rng.integers(1, 41))
    admissible = {
        i: [a for a in ids if rng.random() < 0.6] or [ids[int(rng.integers(len(ids)))]]
        for i in range(1, m + 1)
    }
    return validate_cbp_model(m, admissible, ids, mechanisms), float(rng.uniform(0.0, 1.0))


def _compiled(model, rho_value, limit):
    saved = solver.ARRAY_HEAD_ROWS
    solver.ARRAY_HEAD_ROWS = limit
    try:
        return _head_rows(model, rho_value)
    finally:
        solver.ARRAY_HEAD_ROWS = saved


@given(_random_head())
@settings(max_examples=150, deadline=None)
def test_array_head_rows_keep_the_list_summation_order(case):
    # ArrayRows sums each row in array order (bincount), ListRows in list
    # order; the two give the same bits only if every row's entries come in
    # the same order: target, in-head terms ascending, tail term last.
    model, rho_value = case
    arrays = _compiled(model, rho_value, 0)
    lists = _compiled(model, rho_value, math.inf)
    assert (type(arrays), type(lists)) == (ArrayRows, ListRows)
    assert (arrays.actions, arrays.state_ptr) == (lists.actions, lists.state_ptr)
    by_row = [[] for _ in arrays.actions]
    for r, col, weight in zip(
        arrays.ent_row.tolist(), arrays.ent_col.tolist(), arrays.ent_weight.tolist()
    ):
        by_row[r].append((col, weight.hex()))
    assert by_row == [[(col, weight.hex()) for col, weight in row] for row in lists.entries]


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

    def test_singular_system_names_the_case_and_size(self):
        # With the tail ratio forced to 2, state 1's tail weight is 0.5 * 2 = 1
        # and its row of I - U vanishes.
        model = validate_cbp_model(1, {1: ["a"]}, ["a"], {"a": {0: 1.0, 2: 1.0}})
        with pytest.raises(SingularSystem) as err:
            evaluate_policy(model, Policy(("a",), "a"), 2.0)
        assert str(err.value) == (
            "policy evaluation (geometric-tail case, 1-state system):"
            " coefficient matrix is identically zero"
        )
        assert type(err.value.__cause__) is SingularSystem

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

        def head_rows(model, root):
            built.append(root)
            return _head_rows(model, root)

        monkeypatch.setattr(solver, "_head_rows", head_rows)
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


def _reference_one_jump(model, i, action, values, rho_value, cutoff):
    """One-jump value at state i, written out per entry: with the geometric
    tail folded in when no no-death action exists, truncated below the
    cutoff otherwise."""
    m = model.m
    mech = model.mechanism(action)
    row = embedded_row(mech, i).entries
    total = row.get(0, 0.0)
    last = m - 1 if cutoff == m + 1 else cutoff - 1
    for j, p in row.items():
        if 1 <= j <= last:
            total += p * values[j - 1]
    if cutoff == m + 1:
        total += tail_weight(mech, i, m, rho_value) * values[m - 1]
    return total


def _reference_improve(model, f, values, rho_value):
    cutoff = zero_death_cutoff(model)
    head = list(f.head)
    for i in range(1, min(cutoff, model.m) + 1):
        best_action, best_value = None, np.inf
        for a in model.admissible[i - 1]:
            v = _reference_one_jump(model, i, a, values, rho_value, cutoff)
            if v < values[i - 1] and v < best_value:
                best_action, best_value = a, v
        if best_action is not None:
            head[i - 1] = best_action
    return Policy(tuple(head), f.tail)


def _reference_oe(model, values, rho_value):
    cutoff = zero_death_cutoff(model)
    worst = 0.0
    for i in range(1, model.m + 1):
        if i < cutoff:
            best = min(
                _reference_one_jump(model, i, a, values, rho_value, cutoff)
                for a in model.admissible[i - 1]
            )
            worst = max(worst, abs(values[i - 1] - best))
        else:
            worst = max(worst, abs(values[i - 1]))
    return worst


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


class TestOneJumpOperator:
    @given(_model_policy_values())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_loops_exactly(self, case):
        model, head, values = case
        roots = rho_star(model)
        f = Policy(head, roots.a_star)
        profile = ExtinctionProfile(values, GEOMETRIC, rho_star=roots.rho_star)
        assert improve_policy(model, f, profile) == _reference_improve(
            model, f, values, roots.rho_star
        )
        assert verify_oe(model, profile) == _reference_oe(model, values, roots.rho_star)

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
        model = case[0]
        report = solve(model)
        values = report.optimal_profile.head_values
        assert report.oe_residual == _reference_oe(model, values, report.rho_star)
        assert _reference_improve(model, report.optimal_policy, values, report.rho_star) == (
            report.optimal_policy
        )


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
