import math
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cbpopt.sim as sim
from cbpopt import (
    CENSORED_JUMPS,
    CENSORED_POPULATION,
    EXTINCT,
    Policy,
    SimCaps,
    SimOutcome,
    estimate_ep,
    simulate_trajectory,
    validate_cbp_model,
    wilson_interval,
)

CAPS = SimCaps(max_jumps=20_000, max_pop=300)
MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def _reference(model, f, i0, caps, master_seed, t) -> SimOutcome:
    """One trajectory, one jump at a time, in Python integers and floats: draw
    j is mix(key + (j + 1)·γ) taken to 53 bits, and jump j + 1 picks the
    first offspring count whose cumulative probability exceeds it."""
    key = _mix(((_mix((master_seed + GAMMA) & MASK64) ^ t) + GAMMA) & MASK64)
    tables = {}
    for a in set(f.head) | {f.tail}:
        pmf = model.mechanism(a).offspring_pmf()
        ks = sorted(pmf)
        cum = np.cumsum([pmf[k] for k in ks]).tolist()
        cum[-1] = 1.0
        tables[a] = (cum, [k - 1 for k in ks])
    state, jumps, peak = i0, 0, i0
    while True:
        if state == 0:
            return SimOutcome(EXTINCT, jumps, peak)
        if state > caps.max_pop:
            return SimOutcome(CENSORED_POPULATION, jumps, peak)
        if jumps >= caps.max_jumps:
            return SimOutcome(CENSORED_JUMPS, jumps, peak)
        cum, steps = tables[f.action_at(state)]
        u = (_mix((key + (jumps + 1) * GAMMA) & MASK64) >> 11) * 2.0**-53
        state += steps[bisect_right(cum, u)]
        jumps += 1
        peak = max(peak, state)


def _three_atom_model():
    return validate_cbp_model(1, {1: ["a"]}, ["a"], {"a": {0: 1.0, 2: 1.5, 3: 0.5}})


def _near_critical_model():
    """m = 4, two head actions, and the tail {0: 1, 2: 1 + eps} of the
    near-critical benchmark models."""
    mechs = {
        "h1": {0: 1.0, 2: 0.45, 3: 0.3},
        "h2": {0: 0.45, 2: 1.0, 3: 0.2},
        "t": {0: 1.0, 2: 1.001},
    }
    return validate_cbp_model(4, {i: list(mechs) for i in range(1, 5)}, ["t"], mechs)


# The near-critical model's head actions, mixed across its states.
NEAR_POLICY = Policy(("h1", "h2", "h2", "h1"), "t")
# Block and cohort sizes at both extremes; none of them may change a result.
BLOCK_AND_COHORT_SIZES = pytest.mark.parametrize(
    "constants",
    [
        {"_FIRST_BLOCK": 1, "_MAX_BLOCK": 1, "_BLOCK_ENTRIES": 1, "_COHORT": 1},
        {
            "_FIRST_BLOCK": 4096,
            "_MAX_BLOCK": 1 << 16,
            "_BLOCK_ENTRIES": 1 << 20,
            "_COHORT": 1 << 20,
        },
    ],
    ids=["smallest", "large"],
)


def _all_outcomes(model, f, i0, n, caps, master_seed):
    parts = list(sim._outcomes(model, f, i0, caps, master_seed, 0, n))
    return tuple(np.concatenate([part[k] for part in parts]) for k in range(3))


class TestSimulateTrajectory:
    def test_seed_determinism(self, two_action_model):
        f = Policy(("a1",), "a1")
        runs = [
            simulate_trajectory(two_action_model, f, 1, CAPS, master_seed=123, t=4)
            for _ in range(3)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_jump_cap_zero(self, two_action_model):
        outcome = simulate_trajectory(
            two_action_model, Policy(("a1",), "a1"), 3, SimCaps(max_jumps=0, max_pop=100), 0
        )
        assert outcome.result == CENSORED_JUMPS
        assert outcome.jumps == 0
        assert outcome.peak_population == 3

    def test_population_cap_at_start(self, two_action_model):
        outcome = simulate_trajectory(
            two_action_model, Policy(("a1",), "a1"), 50, SimCaps(max_jumps=10, max_pop=10), 0
        )
        assert outcome.result == CENSORED_POPULATION
        assert outcome.jumps == 0

    def test_numpy_start_gives_an_int_peak(self, two_action_model):
        # The start is past the population cap, so the peak is the start.
        caps = SimCaps(max_jumps=10, max_pop=3)
        outcome = simulate_trajectory(two_action_model, Policy(("a1",), "a1"), np.int64(5), caps, 0)
        assert outcome == SimOutcome(CENSORED_POPULATION, 0, 5)
        assert type(outcome.peak_population) is int

    def test_start_past_int64_is_censored_at_once(self, two_action_model):
        f = Policy(("a1",), "a1")
        caps = SimCaps(max_jumps=10, max_pop=2**63)
        outcome = simulate_trajectory(two_action_model, f, 2**70, caps, 0)
        assert outcome == SimOutcome(CENSORED_POPULATION, 0, 2**70)
        assert estimate_ep(two_action_model, f, 2**63, 5, caps, 0).censored == 5

    def test_bad_start_state(self, two_action_model):
        with pytest.raises(ValueError):
            simulate_trajectory(two_action_model, Policy(("a1",), "a1"), 0, CAPS, 0)
        with pytest.raises(TypeError):
            simulate_trajectory(two_action_model, Policy(("a1",), "a1"), 1.5, CAPS, 0)

    def test_extinct_outcomes_consistent(self, two_action_model):
        f = Policy(("a2",), "a1")
        hits = 0
        for t in range(200):
            outcome = simulate_trajectory(two_action_model, f, 1, CAPS, 5, t)
            assert outcome.peak_population >= 1
            if outcome.result == EXTINCT:
                hits += 1
                assert outcome.jumps >= 1
        assert hits > 100  # exact extinction probability is 6/7

    @pytest.mark.parametrize("t", [-1, 2**64])
    def test_trajectory_index_outside_64_bits_is_a_value_error(self, two_action_model, t):
        with pytest.raises(ValueError, match="trajectory index"):
            simulate_trajectory(two_action_model, Policy(("a1",), "a1"), 1, CAPS, 0, t)

    @pytest.mark.parametrize("t", [True, 1.0], ids=["bool", "float"])
    def test_non_integer_trajectory_index_is_a_type_error(self, two_action_model, t):
        with pytest.raises(TypeError, match="trajectory index"):
            simulate_trajectory(two_action_model, Policy(("a1",), "a1"), 5, CAPS, 0, t)


class TestSimCaps:
    def test_numpy_integers_are_stored_as_python_ints(self):
        caps = SimCaps(np.int64(10), np.uint64(5))
        assert caps == SimCaps(10, 5)
        assert type(caps.max_jumps) is int and type(caps.max_pop) is int

    @pytest.mark.parametrize(
        "max_jumps, max_pop, name",
        [
            (10.5, 50, "max_jumps"),
            (True, 50, "max_jumps"),
            (10, 50.0, "max_pop"),
            (10, "50", "max_pop"),
        ],
    )
    def test_non_integer_caps_are_type_errors(self, max_jumps, max_pop, name):
        with pytest.raises(TypeError, match=name):
            SimCaps(max_jumps, max_pop)

    @pytest.mark.parametrize(
        "max_jumps, max_pop, name", [(-1, 50, "max_jumps"), (10, -1, "max_pop")]
    )
    def test_negative_caps_are_value_errors(self, max_jumps, max_pop, name):
        with pytest.raises(ValueError, match=f"{name} must be nonnegative, got -1"):
            SimCaps(max_jumps, max_pop)


class TestEngine:
    @pytest.mark.parametrize(
        "head, i0, caps",
        [
            (("a1",), 1, SimCaps(max_jumps=2_000, max_pop=40)),
            (("a2",), 3, SimCaps(max_jumps=2_000, max_pop=40)),
            (("a1",), 1, SimCaps(max_jumps=300, max_pop=10**6)),
            (("a1",), 25, SimCaps(max_jumps=7, max_pop=30)),
        ],
        ids=["head_a1", "head_a2", "jump_capped", "budget_in_block"],
    )
    def test_matches_scalar_reference(self, two_action_model, head, i0, caps):
        f = Policy(head, "a1")
        result, jumps, peak = _all_outcomes(two_action_model, f, i0, 200, caps, 31)
        for t in range(200):
            got = SimOutcome(sim._RESULTS[result[t]], int(jumps[t]), int(peak[t]))
            assert got == _reference(two_action_model, f, i0, caps, 31, t)

    def test_three_atom_tail_matches_scalar_reference(self):
        model = _three_atom_model()
        f = Policy(("a",), "a")
        caps = SimCaps(max_jumps=500, max_pop=60)
        for t in range(100):
            assert simulate_trajectory(model, f, 2, caps, 8, t) == _reference(
                model, f, 2, caps, 8, t
            )

    @pytest.mark.parametrize(
        "i0, caps",
        [
            (1, SimCaps(max_jumps=10**6, max_pop=30)),
            (1, SimCaps(max_jumps=10**6, max_pop=2)),
            (3, SimCaps(max_jumps=40, max_pop=30)),
        ],
        ids=["pop_30", "pop_below_m", "budget_in_block"],
    )
    def test_near_critical_matches_scalar_reference(self, i0, caps):
        # Rows end at very different steps here: the engine's batched ends
        # and its head and tail sets must not change any outcome.
        model = _near_critical_model()
        result, jumps, peak = _all_outcomes(model, NEAR_POLICY, i0, 300, caps, 7)
        for t in range(300):
            got = SimOutcome(sim._RESULTS[result[t]], int(jumps[t]), int(peak[t]))
            assert got == _reference(model, NEAR_POLICY, i0, caps, 7, t)

    @staticmethod
    def _assert_sizes_change_nothing(monkeypatch, constants, model, f, n, caps, master_seed):
        want = _all_outcomes(model, f, 1, n, caps, master_seed)
        for name, value in constants.items():
            monkeypatch.setattr(sim, name, value)
        got = _all_outcomes(model, f, 1, n, caps, master_seed)
        for a, b in zip(want, got):
            np.testing.assert_array_equal(a, b)

    @BLOCK_AND_COHORT_SIZES
    def test_outcomes_do_not_depend_on_block_or_cohort_sizes(
        self, two_action_model, monkeypatch, constants
    ):
        caps = SimCaps(max_jumps=1_000, max_pop=60)
        model, f = two_action_model, Policy(("a1",), "a1")
        self._assert_sizes_change_nothing(monkeypatch, constants, model, f, 150, caps, 17)

    @BLOCK_AND_COHORT_SIZES
    def test_near_critical_outcomes_do_not_depend_on_block_or_cohort_sizes(
        self, monkeypatch, constants
    ):
        caps = SimCaps(max_jumps=1_000, max_pop=30)
        model = _near_critical_model()
        self._assert_sizes_change_nothing(monkeypatch, constants, model, NEAR_POLICY, 300, caps, 5)

    @pytest.mark.parametrize("i0", [1, 5], ids=["head_start", "tail_start"])
    def test_first_jump_matches_offspring_pmf(self, i0):
        # One jump from i0 lands on i0 - 1, i0 + 1 or i0 + 2, which the
        # result and the peak tell apart.
        model = _three_atom_model()
        pmf = model.mechanism("a").offspring_pmf()
        n = 20_000
        result, _, peak = _all_outcomes(
            model, Policy(("a",), "a"), i0, n, SimCaps(max_jumps=1, max_pop=100), 4
        )
        rise = peak - i0
        for k, p in pmf.items():
            count = int(np.count_nonzero(rise == max(k - 1, 0)))
            low, high = wilson_interval(count, n, z=6.0)
            assert low <= p <= high, (k, count)
        np.testing.assert_array_equal(result == 0, (rise == 0) & (i0 == 1))


class TestEstimateEp:
    def test_brackets_exact_values(self, two_action_model):
        n = 20_000
        for head, exact in ((("a1",), 0.5), (("a2",), 6 / 7)):
            estimate = estimate_ep(
                two_action_model, Policy(head, "a1"), 1, n, CAPS, master_seed=2026
            )
            se = math.sqrt(exact * (1 - exact) / n)
            assert abs(estimate.p_hat - exact) <= 4 * se
            assert estimate.ci_low <= exact <= estimate.ci_high

    def test_estimate_aggregates_per_trajectory_runs(self, two_action_model):
        # The estimate is exactly the aggregate of trajectories 0 .. n - 1.
        f = Policy(("a1",), "a1")
        n = 300
        estimate = estimate_ep(two_action_model, f, 1, n, CAPS, master_seed=99)
        outcomes = [simulate_trajectory(two_action_model, f, 1, CAPS, 99, t) for t in range(n)]
        extinct = sum(1 for o in outcomes if o.result == EXTINCT)
        assert estimate.p_hat == extinct / n
        assert estimate.censored == n - extinct

    def test_censoring_monotone_in_caps(self, two_action_model):
        f = Policy(("a1",), "a1")
        tight = SimCaps(max_jumps=50, max_pop=20)
        loose = SimCaps(max_jumps=500, max_pop=200)
        n = 1_000
        censored_tight = estimate_ep(two_action_model, f, 1, n, tight, master_seed=11).censored
        censored_loose = estimate_ep(two_action_model, f, 1, n, loose, master_seed=11).censored
        assert censored_loose <= censored_tight

    def test_per_trajectory_prefix_stability(self, two_action_model):
        # Raising caps extends each trajectory rather than resampling it: an
        # extinct outcome under tight caps stays extinct under loose caps.
        f = Policy(("a1",), "a1")
        tight = SimCaps(max_jumps=50, max_pop=20)
        loose = SimCaps(max_jumps=500, max_pop=200)
        result_a, jumps_a, _ = _all_outcomes(two_action_model, f, 1, 2_000, tight, 11)
        result_b, jumps_b, _ = _all_outcomes(two_action_model, f, 1, 2_000, loose, 11)
        extinct = result_a == 0
        assert extinct.sum() > 500
        assert (result_b[extinct] == 0).all()
        np.testing.assert_array_equal(jumps_b[extinct], jumps_a[extinct])

    def test_rejects_zero_trajectories(self, two_action_model):
        with pytest.raises(ValueError):
            estimate_ep(two_action_model, Policy(("a1",), "a1"), 1, 0, CAPS, master_seed=0)

    @pytest.mark.parametrize(
        "seed",
        [-1, 2**64, 2**128, 2**126],
        ids=["negative", "2**64", "2**128", "127_bit_alias_of_0"],
    )
    def test_seed_outside_64_bits_is_a_value_error(self, two_action_model, seed):
        # Below 2**64 each seed gets draws of its own; outside it seeds would
        # share them (2**64, 2**128 and the 127-bit 2**126 with seed 0).
        f = Policy(("a1",), "a1")
        with pytest.raises(ValueError, match="master seed"):
            estimate_ep(two_action_model, f, 1, 10, CAPS, master_seed=seed)
        with pytest.raises(ValueError, match="master seed"):
            simulate_trajectory(two_action_model, f, 1, CAPS, seed)

    def test_top_64_bit_seed_has_its_own_stream(self, two_action_model):
        f = Policy(("a1",), "a1")
        top = [simulate_trajectory(two_action_model, f, 1, CAPS, 2**64 - 1, t) for t in range(20)]
        zero = [simulate_trajectory(two_action_model, f, 1, CAPS, 0, t) for t in range(20)]
        assert top != zero
        assert top[3] == _reference(two_action_model, f, 1, CAPS, 2**64 - 1, 3)

    @pytest.mark.parametrize("seed", [np.int64(5), np.uint64(5)], ids=["int64", "uint64"])
    def test_numpy_integer_seed_is_its_value(self, two_action_model, seed):
        f = Policy(("a1",), "a1")
        want = estimate_ep(two_action_model, f, 1, 500, CAPS, master_seed=5)
        assert estimate_ep(two_action_model, f, 1, 500, CAPS, master_seed=seed) == want

    def test_float_seed_is_a_type_error(self, two_action_model):
        with pytest.raises(TypeError):
            estimate_ep(two_action_model, Policy(("a1",), "a1"), 1, 10, CAPS, master_seed=5.0)

    def test_bool_seed_is_a_type_error(self, two_action_model):
        f = Policy(("a1",), "a1")
        with pytest.raises(TypeError, match="master seed must be an integer, got True"):
            estimate_ep(two_action_model, f, 1, 10, CAPS, master_seed=True)
        with pytest.raises(TypeError, match="master seed"):
            simulate_trajectory(two_action_model, f, 1, CAPS, True)

    @pytest.mark.parametrize("n", [True, 3.0], ids=["bool", "float"])
    def test_non_integer_trajectory_count_is_a_type_error(self, two_action_model, n):
        with pytest.raises(TypeError, match="trajectory count n"):
            estimate_ep(two_action_model, Policy(("a1",), "a1"), 1, n, CAPS, master_seed=0)

    def test_numpy_integer_count_is_a_python_int(self, two_action_model):
        f = Policy(("a1",), "a1")
        estimate = estimate_ep(two_action_model, f, 1, np.int64(3), CAPS, master_seed=0)
        assert estimate == estimate_ep(two_action_model, f, 1, 3, CAPS, master_seed=0)
        assert type(estimate.n) is int and type(estimate.p_hat) is float

    def test_memory_does_not_grow_with_n(self, two_action_model):
        f = Policy(("a1",), "a1")
        caps = SimCaps(max_jumps=10**6, max_pop=30)
        peaks = []
        for n in (20_000, 200_000):
            tracemalloc.start()
            try:
                estimate_ep(two_action_model, f, 1, n, caps, master_seed=3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks

    def test_forced_bad_tail_dominates(self):
        # Playing the larger-root action in the tail cannot lower extinction
        # below the pinned-tail optimum.
        from cbpopt import solve

        model = validate_cbp_model(
            1,
            {1: ["a1"]},
            ["a1", "a2"],
            {"a1": {0: 1.0, 2: 2.0}, "a2": {0: 3.0, 2: 1.0}},
        )
        exact = solve(model).optimal_profile.ep(2)
        estimate = estimate_ep(
            model, Policy(("a1",), "a2"), 2, 4_000, CAPS, master_seed=3
        )
        se = math.sqrt(max(exact * (1 - exact), 0.0625) / estimate.n)
        assert estimate.p_hat >= exact - 4 * se


class TestWilson:
    @given(st.integers(min_value=0, max_value=1000), st.integers(min_value=1, max_value=1000))
    @settings(max_examples=100, deadline=None)
    def test_interval_orders(self, successes, n):
        if successes > n:
            successes = n
        low, high = wilson_interval(successes, n)
        p = successes / n
        assert 0.0 <= low <= p <= high <= 1.0

    def test_degenerate_endpoints(self):
        low, high = wilson_interval(0, 10)
        assert low == 0.0
        low, high = wilson_interval(10, 10)
        assert high == 1.0

    @pytest.mark.parametrize(
        "successes, n, match",
        [
            (0, 0, "n must be at least 1, got 0"),
            (0, -3, "n must be at least 1, got -3"),
            (11, 10, r"successes must lie in \[0, n\] = \[0, 10\], got 11"),
            (-1, 10, r"successes must lie in \[0, n\] = \[0, 10\], got -1"),
        ],
    )
    def test_counts_out_of_range_are_value_errors(self, successes, n, match):
        with pytest.raises(ValueError, match=match):
            wilson_interval(successes, n)

    @pytest.mark.parametrize("successes, n", [(5, 10.5), (5.0, 10), (5, "10")])
    def test_non_integer_counts_are_type_errors(self, successes, n):
        with pytest.raises(TypeError):
            wilson_interval(successes, n)

    @pytest.mark.parametrize(
        "successes, n, name", [(True, 2, "successes"), (1, True, "the trial count n")]
    )
    def test_bool_counts_are_type_errors(self, successes, n, name):
        with pytest.raises(TypeError, match=f"{name} must be an integer, got True"):
            wilson_interval(successes, n)

    def test_integer_like_counts_are_their_values(self):
        assert wilson_interval(np.int64(3), np.int32(10)) == wilson_interval(3, 10)
