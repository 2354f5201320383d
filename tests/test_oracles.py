"""The three oracles (brute force, exact truncation and Monte Carlo) against
``solve`` on the same random models."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import cbpopt.sim as sim
from cbpopt import (
    CENSORED_JUMPS,
    EXTINCT,
    SimCaps,
    brute_force,
    cbp_truncate,
    solve,
    validate_cbp_model,
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
        assert_walks_bracket(model, f, level, truncated[1], 10**5, seed)


def assert_walks_bracket(model, f, level, value, max_jumps, seed):
    """Passing the level is exactly a jump into the truncation's cemetery, so
    ``value``, the truncated value at 1, is the chance that a walk from 1
    dies first.  A walk that dies within the jump cap does so, and one that
    does so dies within the cap or reaches it: the extinct count, and the
    extinct and jump-capped count together, are binomial with chances at
    most and at least ``value``."""
    caps = SimCaps(max_jumps=max_jumps, max_pop=level)
    parts = sim._outcomes(model, f, 1, caps, seed, 0, TRAJECTORIES)
    result = np.concatenate([part[0] for part in parts])
    extinct = int(np.count_nonzero(result == sim._RESULTS.index(EXTINCT)))
    capped = int(np.count_nonzero(result == sim._RESULTS.index(CENSORED_JUMPS)))
    low = wilson_interval(extinct, TRAJECTORIES, z=6.0)[0]
    high = wilson_interval(extinct + capped, TRAJECTORIES, z=6.0)[1]
    assert low <= value <= high


def test_walks_that_reach_the_jump_cap_are_bracketed():
    # The head pushes walks up and the tail pulls them down, so most walks
    # from 1 neither die nor pass the level within the jump cap.
    model = validate_cbp_model(
        4,
        {1: ["a1", "a3"], 2: ["a1", "a3"], 3: ["a1", "a2", "a4"], 4: ["a3"]},
        ["a1"],
        {
            "a1": {0: 2.6365855947333072, 2: 1.7589166315881206},
            "a2": {0: 0.2979095317956331, 2: 1.470309096359623, 3: 1.9403663124922124},
            "a3": {0: 0.3415991615193628, 2: 0.8245459178008059, 3: 2.9283256911240314},
            "a4": {0: 1.4785810422307195, 2: 1.1768919824940562, 3: 2.833301019937671},
        },
    )
    f = solve(model).optimal_policy
    level = model.m + 30
    truncated = value_iterate(cbp_truncate(model, f, level)).values
    assert_walks_bracket(model, f, level, truncated[1], 1000, 0)
