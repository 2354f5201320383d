"""The three oracles (brute force, exact truncation and Monte Carlo) against
``solve`` on the same random models."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cbpopt import (
    SimCaps,
    brute_force,
    cbp_truncate,
    estimate_ep,
    solve,
    value_iterate,
    wilson_interval,
    zero_death_cutoff,
)
from conftest import random_cbp_model

TRAJECTORIES = 2000


@st.composite
def _model_and_seed(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = random_cbp_model(rng, max_m=4, ks=(0, 2, 3), zero_death_prob=0.3)
    return model, draw(st.integers(0, 2**32 - 1))


@given(_model_and_seed())
@settings(max_examples=60, deadline=None)
def test_oracles_agree_with_solve(case):
    model, seed = case
    report = solve(model)
    exact, f = report.optimal_profile, report.optimal_policy
    level = model.m + 30
    floor = brute_force(model)
    for i in range(1, model.m + 1):
        assert abs(floor.ep(i) - exact.ep(i)) <= 1e-10
    truncated = value_iterate(cbp_truncate(model, f, level)).values
    for i in range(1, level + 1):
        assert truncated[i] <= exact.ep(i) + 1e-12
    # A walk at or above a no-death head state never dies and may run to the
    # jump cap before it passes the level: too slow, so that case is skipped.
    if zero_death_cutoff(model) > model.m:
        # Passing the level is exactly a jump into the truncation's cemetery,
        # so the extinct count is Binomial(n, truncated value at 1).
        caps = SimCaps(max_jumps=10**5, max_pop=level)
        estimate = estimate_ep(model, f, 1, TRAJECTORIES, caps, seed)
        low, high = wilson_interval(TRAJECTORIES - estimate.censored, TRAJECTORIES, z=6.0)
        assert low <= truncated[1] <= high
