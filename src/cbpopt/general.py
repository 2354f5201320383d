"""Minimal hitting probabilities for general finite rate models.

Value iteration from zero converges upward to the smallest nonnegative
solution of the optimality equation, which is the minimal hitting probability;
the equation can have larger solutions, and starting anywhere else risks
landing on one of those.  Branching models are bridged in by truncating the
population to a finite window: jumps past the window are routed into the
cemetery (value zero), so truncated values are lower bounds that grow with
the window size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .embedded import JumpRows
from .errors import NoConvergence
from .model import CbpModel, GeneralModel, State, validate_general_model
from .solver import Policy, validate_policy

CEMETERY = "cemetery"

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10**7


@dataclass(frozen=True)
class HittingSolution:
    """Converged values (targets at 1, cemetery at 0), the greedy policy on
    interior states, and how the iteration stopped."""

    values: Mapping[State, float]
    policy: Mapping[State, str]
    iterations: int
    delta: float


def _compile(model: GeneralModel) -> tuple[tuple[State, ...], JumpRows]:
    """Interior states and their one-jump rows.

    Entries carry normalized rates into interior states, then the row's
    target mass; cemetery mass is dropped (value zero).
    """
    interior = model.interior_states()
    index = {s: pos for pos, s in enumerate(interior)}
    actions: list[str] = []
    state_ptr: list[int] = []
    ent_row: list[int] = []
    ent_col: list[int] = []
    ent_weight: list[float] = []
    for s in interior:
        state_ptr.append(len(actions))
        for a in model.actions_at(s):
            exit_rate = model.exit_rates[(s, a)]
            const = 0.0
            for j, rate in model.rows[(s, a)].items():
                if j in model.target:
                    const += rate / exit_rate
                elif j != model.cemetery:
                    ent_row.append(len(actions))
                    ent_col.append(index[j])
                    ent_weight.append(rate / exit_rate)
            if const > 0.0:
                ent_row.append(len(actions))
                ent_col.append(len(interior))
                ent_weight.append(const)
            actions.append(a)
    return interior, JumpRows(
        actions=tuple(actions),
        state_ptr=np.asarray(state_ptr, dtype=np.int64),
        ent_row=np.asarray(ent_row, dtype=np.int64),
        ent_col=np.asarray(ent_col, dtype=np.int64),
        ent_weight=np.asarray(ent_weight, dtype=float),
    )


def _greedy(interior, rows: JumpRows, x: np.ndarray) -> dict:
    return {s: rows.actions[r] for s, r in zip(interior, rows.argmin(x)[1])}


def value_iterate(
    model: GeneralModel,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    trace: list | None = None,
) -> HittingSolution:
    """Monotone value iteration from zero with Jacobi sweeps.

    Stops when the sup-norm change of one sweep drops below ``tol``.
    ``trace``, when a list is given, collects a copy of every iterate.
    """
    interior, rows = _compile(model)
    if not interior:
        values = {s: (1.0 if s in model.target else 0.0) for s in model.states}
        return HittingSolution(values=values, policy={}, iterations=0, delta=0.0)
    n = len(interior)
    x = np.zeros(n + 1)
    x[n] = 1.0  # the target's value
    inner = x[:n]  # the interior values, a view into x
    if trace is not None:
        trace.append(inner.copy())
    for sweep in range(1, max_iter + 1):
        xn = rows.minimum(x)
        delta = float(np.max(np.abs(xn - inner)))
        inner[:] = xn
        if trace is not None:
            trace.append(xn)
        if delta < tol:
            solved = dict(zip(interior, xn.tolist()))
            values = {
                s: solved.get(s, 1.0 if s in model.target else 0.0) for s in model.states
            }
            return HittingSolution(
                values=values, policy=_greedy(interior, rows, x), iterations=sweep, delta=delta
            )
    raise NoConvergence(f"value iteration still moving after {max_iter} sweeps")


def extract_policy(model: GeneralModel, values: Mapping[State, float]) -> dict:
    """Greedy argmin of the optimality equation at the given values,
    smallest action id on ties."""
    interior, rows = _compile(model)
    x = np.asarray([values[s] for s in interior] + [1.0], dtype=float)
    return _greedy(interior, rows, x)


def cbp_truncate(model: CbpModel, policy: Policy | None, level: int) -> GeneralModel:
    """Window 0..level of a branching model, cemetery beyond.

    With a policy, each state keeps only the action the policy plays there;
    with ``None`` the full admissible sets survive.  Jumps past the window are
    redirected into the cemetery, making the truncated hitting values lower
    bounds on the untruncated ones, nondecreasing in ``level``.
    """
    if policy is not None:
        validate_policy(model, policy)
        used = {policy.action_at(i) for i in range(1, level + 1)}
    else:
        used = {a for choices in model.admissible for a in choices}
        used.update(model.tail_actions)
    reach = max(model.mechanism(a).max_k for a in used)
    if level <= model.m + reach:
        raise ValueError(
            f"truncation level {level} must exceed m + max offspring reach = {model.m + reach}"
        )
    states: list[State] = list(range(level + 1))
    states.append(CEMETERY)
    rows: dict[tuple[State, str], dict[State, float]] = {}
    for i in range(1, level + 1):
        if policy is not None:
            actions: tuple[str, ...] = (policy.action_at(i),)
        else:
            actions = model.actions_at(i)
        for a in actions:
            row: dict[State, float] = {}
            for k, rate in model.mechanism(a).support.items():
                j = i - 1 + k
                key: State = CEMETERY if j > level else j
                row[key] = row.get(key, 0.0) + i * rate
            rows[(i, a)] = row
    return validate_general_model(states, (0,), CEMETERY, rows)
