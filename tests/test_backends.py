"""ListRows and ArrayRows give the same bits on branching heads.

Each result is computed twice, once with every head compiled to ListRows and
once with every head compiled to ArrayRows, by setting
``solver.ARRAY_HEAD_ROWS``.  General models compile to ListRows whatever its
value.  Results compare by ``repr``, which tells every float apart, -0.0 from
0.0 included.
"""

import math
from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cbpopt import (
    Policy,
    brute_force_table,
    cbp_truncate,
    evaluate_policy,
    improve_policy,
    rho_star,
    solve,
    validate_cbp_model,
    verify_oe,
)
from cbpopt import embedded, general, solver
from cbpopt.errors import CbpError
from conftest import random_cbp_model

LIST, ARRAY = math.inf, 0  # ARRAY_HEAD_ROWS forcing each backend


@contextmanager
def backend(limit):
    saved = solver.ARRAY_HEAD_ROWS
    solver.ARRAY_HEAD_ROWS = limit
    try:
        yield
    finally:
        solver.ARRAY_HEAD_ROWS = saved


def outcome(fn) -> str:
    """repr of what ``fn()`` returns, or of the error it raises."""
    try:
        return repr(fn())
    except CbpError as exc:
        return f"raised {type(exc).__name__}: {exc}"


def assert_same_on_both(fn) -> str:
    with backend(LIST):
        listed = outcome(fn)
    with backend(ARRAY):
        arrays = outcome(fn)
    assert listed == arrays
    return listed


def test_limit_picks_the_backend(two_action_model):
    truncated = cbp_truncate(two_action_model, None, 40)
    with backend(LIST):
        assert type(solver._head_rows(two_action_model, 0.5)) is embedded.ListRows
        assert type(general._compile(truncated)[1]) is embedded.ListRows
    # The limit counts head rows only: a general model is never ArrayRows.
    with backend(ARRAY):
        assert type(solver._head_rows(two_action_model, 0.5)) is embedded.ArrayRows
        assert type(general._compile(truncated)[1]) is embedded.ListRows


@st.composite
def _cbp_case(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = random_cbp_model(rng, max_m=7, ks=(0, 2, 3, 4), zero_death_prob=0.3)
    head = tuple(draw(st.sampled_from(choices)) for choices in model.admissible)
    return model, head


@given(_cbp_case())
@settings(max_examples=120, deadline=None)
def test_cbp_results_are_identical(case):
    model, head = case
    roots = rho_star(model)
    f = Policy(head, roots.a_star)
    assert_same_on_both(lambda: solve(model))
    assert_same_on_both(lambda: solve(model, start_head=dict(enumerate(head, 1))))
    profile = evaluate_policy(model, f, roots.rho_star)
    assert_same_on_both(lambda: evaluate_policy(model, f, roots.rho_star))
    assert_same_on_both(lambda: improve_policy(model, f, profile))
    assert_same_on_both(lambda: verify_oe(model, profile))
    assert_same_on_both(lambda: brute_force_table(model, cap=200))


def test_ladder_sized_head_is_identical():
    # The top rung of the large_head benchmark ladder: m = 700, four actions
    # of one birth shape reaching 3 states up, solved from the worst start.
    m = 700
    mechs = {
        f"a{j}": {0: 1.0, 2: 0.4 * (2.2 - 0.3 * j), 3: 0.3 * (2.2 - 0.3 * j)} for j in range(4)
    }
    model = validate_cbp_model(m, {i: list(mechs) for i in range(1, m + 1)}, list(mechs), mechs)
    report = assert_same_on_both(lambda: solve(model, start_head={i: "a3" for i in range(1, m + 1)}))
    assert "IterationRecord" in report and "raised" not in report
