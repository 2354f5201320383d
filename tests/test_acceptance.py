"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.
"""

import math
import time
from functools import lru_cache

import numpy as np
import pytest

from cbpopt import (
    Policy,
    SimCaps,
    SingularSystem,
    UnitSystem,
    brute_force,
    cbp_truncate,
    estimate_ep,
    evaluate_policy,
    has_invertible_structure,
    rho,
    rho_star,
    solve,
    solve_unit,
    validate_cbp_model,
    validate_mechanism,
    value_iterate,
    verify_oe,
    zero_death_cutoff,
)
from conftest import bisect_min_root, random_cbp_model, random_mechanism_entries
from test_linsys import random_structured


def _report(name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_1_quadratic_root_closed_form():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        d = float(rng.uniform(0.1, 10.0))
        b = float(rng.uniform(0.1, 10.0))
        result = rho(validate_mechanism({0: d, 2: b}))
        worst = max(worst, abs(result.rho - min(1.0, d / b)))
    elapsed = time.perf_counter() - start
    _report(
        "1 root closed form",
        worst <= 1e-10 and elapsed < 1.0,
        f"worst error {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_branching_identity():
    rng = np.random.default_rng(202)
    worst = 0.0
    checked = 0
    while checked < 50:
        entries = random_mechanism_entries(rng, ks=(0, 2, 3, 4))
        mech = validate_mechanism(entries)
        if mech.drift() <= 0.0:
            continue
        checked += 1
        model = validate_cbp_model(1, {1: ["a"]}, ["a"], {"a": entries})
        roots = rho_star(model)
        profile = evaluate_policy(model, Policy(("a",), "a"), roots.rho_star)
        independent_root = bisect_min_root(mech)
        for i in range(1, 11):
            worst = max(worst, abs(profile.ep(i) - independent_root**i))
    _report("2 branching identity", worst <= 1e-8, f"worst error {worst:.2e}")


@lru_cache(maxsize=1)
def _random_solve_runs():
    rng = np.random.default_rng(303)
    runs = []
    start = time.perf_counter()
    for _ in range(300):
        model = random_cbp_model(rng, max_m=4, max_actions=3, ks=(0, 2, 3), zero_death_prob=0.2)
        report = solve(model)
        oracle = brute_force(model)
        runs.append((model, report, oracle))
    return runs, time.perf_counter() - start


def test_criterion_3_oracle_equivalence():
    runs, elapsed = _random_solve_runs()
    worst_gap = 0.0
    worst_residual = 0.0
    for model, report, oracle in runs:
        for i in range(1, model.m + 3):
            worst_gap = max(worst_gap, abs(report.optimal_profile.ep(i) - oracle.ep(i)))
        worst_residual = max(worst_residual, report.oe_residual)
    _report(
        "3 oracle equivalence",
        worst_gap <= 1e-10 and worst_residual <= 1e-9 and elapsed < 30.0,
        f"worst gap {worst_gap:.2e}, worst residual {worst_residual:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_monotone_improvement_and_termination():
    runs, _ = _random_solve_runs()
    ok = True
    for model, report, _ in runs:
        if len(report.iterations) > model.head_policy_count():
            ok = False
        for earlier, later in zip(report.iterations, report.iterations[1:]):
            drops = [
                earlier.profile.ep(i) - later.profile.ep(i) for i in range(1, model.m + 1)
            ]
            if any(d < -1e-12 for d in drops):
                ok = False
            if earlier.improved_states and not any(d > 0.0 for d in drops):
                ok = False
    _report("4 monotone improvement and termination", ok)


def test_criterion_5_zero_tail():
    rng = np.random.default_rng(505)
    checked = 0
    ok = True
    details = []
    while checked < 40:
        model = random_cbp_model(rng, max_m=4, max_actions=3, ks=(0, 2, 3), zero_death_prob=0.5)
        cutoff = zero_death_cutoff(model)
        if cutoff > model.m:
            continue
        checked += 1
        report = solve(model)
        for i in range(cutoff, model.m + 6):
            if report.optimal_profile.ep(i) != 0.0:
                ok = False
                details.append(f"nonzero at {i}")
        if report.oe_residual > 1e-9:
            ok = False
            details.append(f"residual {report.oe_residual:.2e}")
    _report("5 zero tail", ok, "; ".join(details[:3]))


def test_criterion_6_structured_invertibility():
    rng = np.random.default_rng(606)
    ok = True
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        U = random_structured(rng, n)
        if not has_invertible_structure(U):
            ok = False
            continue
        c = rng.uniform(0.0, 1.0, size=n)
        try:
            x = solve_unit(UnitSystem(U, c))
        except SingularSystem:
            ok = False
            continue
        residual = float(np.abs(x - U @ x - c).max())
        worst = max(worst, residual / (1.0 + float(c.max())))
        if residual > 1e-10 * (1.0 + float(c.max())):
            ok = False
    # Violating family: zero subdiagonal somewhere and row sums pushed to one.
    for trial in range(100):
        n = int(rng.integers(2, 9))
        U = random_structured(rng, n)
        row = int(rng.integers(1, n))
        U[row, row - 1] = 0.0
        for i in range(n):
            total = U[i].sum()
            if total > 0:
                U[i] /= total
        c = rng.uniform(0.0, 1.0, size=n)
        try:
            x = solve_unit(UnitSystem(U, c))
        except SingularSystem:
            continue  # detection is an acceptable outcome
        residual = float(np.abs(x - U @ x - c).max())
        if residual > 1e-10 * (1.0 + float(c.max())):
            ok = False
    _report("6 structured invertibility", ok, f"worst scaled residual {worst:.2e}")


def test_criterion_7_monte_carlo_agreement(two_action_model):
    caps = SimCaps(max_jumps=20_000, max_pop=300)
    n = 100_000
    start = time.perf_counter()
    gaps = []
    ok = True
    for head, exact in ((("a1",), 0.5), (("a2",), 6 / 7)):
        estimate = estimate_ep(
            two_action_model, Policy(head, "a1"), 1, n, caps, master_seed=7070
        )
        se = math.sqrt(exact * (1.0 - exact) / n)
        gaps.append(abs(estimate.p_hat - exact) / se)
        if abs(estimate.p_hat - exact) > 4.0 * se:
            ok = False
    elapsed = time.perf_counter() - start
    _report(
        "7 Monte Carlo agreement",
        ok and elapsed < 10.0,
        f"gaps {gaps[0]:.2f}se, {gaps[1]:.2f}se, {elapsed:.1f}s",
    )


def test_criterion_8_truncation_cross_check():
    model = validate_cbp_model(1, {1: ["a"]}, ["a"], {"a": {0: 1.0, 2: 2.0}})
    previous = None
    values = None
    ok = True
    for level in (50, 100, 200, 500):
        solution = value_iterate(cbp_truncate(model, None, level))
        values = [solution.values[i] for i in range(1, 11)]
        if previous is not None and any(b < a - 1e-12 for a, b in zip(previous, values)):
            ok = False
        previous = values
    worst = max(abs(v - 0.5**i) for i, v in zip(range(1, 11), values))
    _report("8 truncation cross-check", ok and worst <= 1e-3, f"worst gap {worst:.2e}")
