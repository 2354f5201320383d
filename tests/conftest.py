"""Shared fixtures, strategies, and independent oracles."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import numpy as np
import pytest
from hypothesis import strategies as st

import cbpopt
from cbpopt import (
    CEMETERY,
    BranchingMechanism,
    CbpModel,
    GeneralModel,
    eval_gen_fn,
    validate_cbp_model,
    validate_general_model,
    validate_mechanism,
)


@pytest.fixture
def two_action_model() -> CbpModel:
    """m=1 model with a cheap-death and an eager-death action, tail pinned."""
    return validate_cbp_model(
        1,
        {1: ["a1", "a2"]},
        ["a1"],
        {"a1": {0: 1.0, 2: 2.0}, "a2": {0: 3.0, 2: 1.0}},
    )


@pytest.fixture
def zero_death_model() -> CbpModel:
    """m=2 model whose state 2 admits a no-death action."""
    return validate_cbp_model(
        2,
        {1: ["a1"], 2: ["z"]},
        ["a1"],
        {"a1": {0: 1.0, 2: 2.0}, "z": {2: 1.0}},
    )


def fresh_env() -> dict[str, str]:
    """The environment of a new interpreter that imports this checkout's
    cbpopt."""
    src = str(Path(cbpopt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_fresh(script: str) -> str:
    """Run a Python script in a new interpreter that imports this checkout's
    cbpopt; return its standard output."""
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=fresh_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout


@dataclass(frozen=True)
class EmbeddedRow:
    state: int
    action: str | None
    entries: Mapping[int, float]


def embedded_row(mech: BranchingMechanism, i: int, action: str | None = None) -> EmbeddedRow:
    """Reference one-jump distribution out of population i >= 1."""
    pmf = mech.offspring_pmf()
    return EmbeddedRow(
        state=i,
        action=action,
        entries=MappingProxyType({i - 1 + k: p for k, p in pmf.items()}),
    )


def exact_values(model: CbpModel, head, rho: float) -> list[Fraction]:
    """Exact values ep(1..m) of the policy playing ``head``, tail ratio
    ``rho`` taken as an exact rational: the minimal solution of x = P x,
    P built from the rates, x_0 = 1 and x_{m+e} = rho**e x_m above the head.

    States from the first no-death choice i0 on are zero; the states before
    it are solved by Gaussian elimination over the rationals, so the oracle
    shares no arithmetic, and no algorithm, with the package.
    """
    m, rho = model.m, Fraction(rho)
    i0 = next((i for i, a in enumerate(head, 1) if model.mechanism(a).b0 == 0.0), m + 1)
    n = i0 - 1
    # Row i - 1 of [I - U | c] for state i; landings from i0 on weigh zero.
    system = [[Fraction(0)] * (n + 1) for _ in range(n)]
    for i in range(1, n + 1):
        rates = {k: Fraction(b) for k, b in model.mechanism(head[i - 1]).support.items()}
        total = sum(rates.values())
        row = system[i - 1]
        row[i - 1] += 1
        for k, b in rates.items():
            j = i - 1 + k
            if j == 0:
                row[n] += b / total
            elif j <= m and j < i0:
                row[j - 1] -= b / total
            elif j > m and i0 > m:
                row[m - 1] -= b / total * rho ** (j - m)
    for col in range(n):
        pivot = next(r for r in range(col, n) if system[r][col] != 0)
        system[col], system[pivot] = system[pivot], system[col]
        for r in range(col + 1, n):
            if system[r][col]:
                factor = system[r][col] / system[col][col]
                system[r] = [a - factor * b for a, b in zip(system[r], system[col])]
    x = [Fraction(0)] * m
    for i in range(n - 1, -1, -1):
        row = system[i]
        x[i] = (row[n] - sum(row[j] * x[j] for j in range(i + 1, n))) / row[i]
    return x


def relative_errors(values, exact) -> list[float]:
    """|value - exact| / exact per state, 0 where both are 0 and inf where
    only the exact value is."""
    return [
        float(abs(Fraction(v) - e) / e) if e else (0.0 if v == 0.0 else math.inf)
        for v, e in zip(values, exact)
    ]


def bisect_min_root(mech: BranchingMechanism, tol: float = 1e-12) -> float:
    """Independent root oracle: bisection on the generating function.

    The function is convex with value b0 >= 0 at zero and a zero at one; for
    supercritical mechanisms it is negative just left of one, so bisection on
    [0, 1 - 1e-9] brackets the smallest root.  Mechanisms without a sign
    change on that interval have smallest root 0 (b0 == 0) or 1.
    """
    if mech.b0 == 0.0:
        return 0.0
    lo, hi = 0.0, 1.0 - 1e-9
    if eval_gen_fn(mech, hi) >= 0.0:
        return 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if eval_gen_fn(mech, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def random_mechanism_entries(
    rng: np.random.Generator,
    ks=(0, 2, 3),
    zero_death: bool = False,
    min_drift: float = 0.05,
) -> dict[int, float]:
    """Sparse rate entries with drift bounded away from zero.

    ``zero_death`` forces b0 = 0 (automatically supercritical); otherwise
    entries are redrawn until |drift| exceeds ``min_drift`` times the total
    rate, keeping root iterations fast.
    """
    birth_ks = [k for k in ks if k >= 2]
    for _ in range(200):
        entries = {k: float(rng.uniform(0.2, 3.0)) for k in birth_ks if rng.random() < 0.8}
        if not entries:
            entries = {birth_ks[0]: float(rng.uniform(0.2, 3.0))}
        if not zero_death and 0 in ks:
            entries[0] = float(rng.uniform(0.2, 3.0))
        total = sum(entries.values())
        drift = sum(k * r for k, r in entries.items()) - total
        if abs(drift) >= min_drift * total:
            return entries
    raise AssertionError("could not draw a mechanism away from criticality")


def random_cbp_model(
    rng: np.random.Generator,
    max_m: int = 4,
    max_actions: int = 3,
    ks=(0, 2, 3),
    zero_death_prob: float = 0.0,
) -> CbpModel:
    """Random small model; every action id is defined once and shared sets
    are drawn from the same pool."""
    m = int(rng.integers(1, max_m + 1))
    pool_size = int(rng.integers(2, 6))
    mechanisms = {}
    for idx in range(pool_size):
        zero_death = rng.random() < zero_death_prob
        mechanisms[f"a{idx}"] = random_mechanism_entries(rng, ks=ks, zero_death=zero_death)
    ids = sorted(mechanisms)

    def pick(k: int) -> list[str]:
        k = min(k, len(ids))
        chosen = rng.choice(len(ids), size=k, replace=False)
        return [ids[c] for c in chosen]

    admissible = {i: pick(int(rng.integers(1, max_actions + 1))) for i in range(1, m + 1)}
    tail = pick(int(rng.integers(1, max_actions + 1)))
    return validate_cbp_model(m, admissible, tail, mechanisms)


def far_jumping_model(rng: np.random.Generator, n: int) -> GeneralModel:
    """States 0..n and a cemetery, 0 the target.  Each row jumps 1 to 3
    states down (below 0 into the target) and may jump up to 2 states up
    (past n into the cemetery), so every policy reaches the target with
    positive probability and the lower band of a policy is up to 3."""
    rows = {}
    for i in range(1, n + 1):
        for a in "abc"[: int(rng.integers(1, 4))]:
            row, down = {}, -int(rng.integers(1, 4))
            for step in range(-3, 3):
                if step == down or (step != 0 and rng.random() < 0.4):
                    j = CEMETERY if i + step > n else max(i + step, 0)
                    row[j] = row.get(j, 0.0) + float(rng.uniform(0.1, 3.0))
            rows[(i, a)] = row
    return validate_general_model([*range(n + 1), CEMETERY], [0], CEMETERY, rows)


# Hypothesis strategies ------------------------------------------------------

rate_st = st.floats(min_value=0.05, max_value=20.0, allow_nan=False, allow_infinity=False)


@st.composite
def mechanism_st(draw, ks=(0, 2, 3, 4, 5), allow_zero_death: bool = True):
    birth_ks = [k for k in ks if k >= 2]
    chosen = draw(
        st.lists(st.sampled_from(birth_ks), min_size=1, max_size=len(birth_ks), unique=True)
    )
    entries = {k: draw(rate_st) for k in chosen}
    if 0 in ks and (not allow_zero_death or draw(st.booleans())):
        entries[0] = draw(rate_st)
    return validate_mechanism(entries)


@st.composite
def supercritical_mechanism_st(draw, ks=(0, 2, 3, 4, 5)):
    mech = draw(mechanism_st(ks=ks))
    total = sum(mech.support.values())
    if mech.drift() < 0.05 * total:
        bump = {k: r for k, r in mech.support.items()}
        top = max(k for k in bump if k >= 2)
        bump[top] = bump.get(top, 0.0) + 2.0 * total
        mech = validate_mechanism(bump)
    return mech
