import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbpopt import (
    CENSORED_JUMPS,
    CENSORED_POPULATION,
    EXTINCT,
    Policy,
    SimCaps,
    estimate_ep,
    simulate_trajectory,
    trajectory_rng,
    wilson_interval,
)
from cbpopt.sim import _splitmix64

CAPS = SimCaps(max_jumps=20_000, max_pop=300)


class TestSimulateTrajectory:
    def test_seed_determinism(self, two_action_model):
        f = Policy(("a1",), "a1")
        runs = [
            simulate_trajectory(two_action_model, f, 1, CAPS, seed=123) for _ in range(3)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_jump_cap_zero(self, two_action_model):
        outcome = simulate_trajectory(
            two_action_model, Policy(("a1",), "a1"), 3, SimCaps(max_jumps=0, max_pop=100), seed=0
        )
        assert outcome.result == CENSORED_JUMPS
        assert outcome.jumps == 0
        assert outcome.peak_population == 3

    def test_population_cap_at_start(self, two_action_model):
        outcome = simulate_trajectory(
            two_action_model, Policy(("a1",), "a1"), 50, SimCaps(max_jumps=10, max_pop=10), seed=0
        )
        assert outcome.result == CENSORED_POPULATION
        assert outcome.jumps == 0

    def test_bad_start_state(self, two_action_model):
        with pytest.raises(ValueError):
            simulate_trajectory(two_action_model, Policy(("a1",), "a1"), 0, CAPS, seed=0)

    def test_extinct_outcomes_consistent(self, two_action_model):
        f = Policy(("a2",), "a1")
        hits = 0
        for t in range(200):
            outcome = simulate_trajectory(
                two_action_model, f, 1, CAPS, seed=np.random.SeedSequence((5, t))
            )
            assert outcome.peak_population >= 1
            if outcome.result == EXTINCT:
                hits += 1
                assert outcome.jumps >= 1
        assert hits > 100  # exact extinction probability is 6/7


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
        # The estimate is exactly the aggregate of per-trajectory runs on the
        # counter-derived generators.
        f = Policy(("a1",), "a1")
        n = 300
        estimate = estimate_ep(two_action_model, f, 1, n, CAPS, master_seed=99)
        outcomes = [
            simulate_trajectory(two_action_model, f, 1, CAPS, trajectory_rng(99, t))
            for t in range(n)
        ]
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
        for t in range(200):
            seed_tight = np.random.SeedSequence((11, t))
            seed_loose = np.random.SeedSequence((11, t))
            a = simulate_trajectory(two_action_model, f, 1, tight, seed_tight)
            b = simulate_trajectory(two_action_model, f, 1, loose, seed_loose)
            if a.result == EXTINCT:
                assert b.result == EXTINCT
                assert b.jumps == a.jumps

    def test_rejects_zero_trajectories(self, two_action_model):
        with pytest.raises(ValueError):
            estimate_ep(two_action_model, Policy(("a1",), "a1"), 1, 0, CAPS, master_seed=0)

    @pytest.mark.parametrize(
        "seed",
        [-1, 2**64, 2**128, 1 + ((_splitmix64(1) ^ _splitmix64(0)) << 64)],
        ids=["negative", "2**64", "2**128", "127_bit_alias_of_0"],
    )
    def test_seed_outside_64_bits_is_a_value_error(self, two_action_model, seed):
        # Below 2**64 the seed derivation is one-to-one; outside it seeds
        # would share streams (2**128 and the 127-bit case with seed 0).
        with pytest.raises(ValueError, match="master seed"):
            estimate_ep(two_action_model, Policy(("a1",), "a1"), 1, 10, CAPS, master_seed=seed)
        with pytest.raises(ValueError, match="master seed"):
            trajectory_rng(seed, 0)

    def test_top_64_bit_seed_has_its_own_stream(self):
        assert trajectory_rng(2**64 - 1, 0).random() != trajectory_rng(0, 0).random()

    def test_forced_bad_tail_dominates(self):
        # Playing the larger-root action in the tail cannot lower extinction
        # below the pinned-tail optimum.
        from cbpopt import solve, validate_cbp_model

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
