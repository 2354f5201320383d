"""Minimal hitting probabilities for general finite rate models.

A graph pass first gives value exactly zero to the states from which some
policy keeps off the target surely ("Prob0E": Forejt, Kwiatkowska, Norman &
Parker, SFM 2011, section 4).  Every policy leaves the other states with
positive probability, so there the optimality equation has one solution,
which ``embedded``'s policy iteration, the loop behind ``solve`` too,
reaches exactly.  Each policy is evaluated by one banded solve, built
straight from the chosen rows, whose lower bandwidth is the farthest jump
back in the state order.  Branching models are truncated to a finite
window, jumps past it going to the cemetery (value zero), so truncated
values are lower bounds that grow with the window.

The one-jump rows are plain-Python ``JumpRows`` at every size, so this
module never imports numpy; nor does it load ``solver`` or ``gen_fn``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Mapping

from .embedded import JumpRows, oe_defect, policy_iteration
from .errors import NumericalError
from .model import (
    CbpModel,
    GeneralModel,
    Policy,
    State,
    is_integer,
    validate_general_model,
    validate_policy,
)

CEMETERY = "cemetery"

# Largest optimality-equation residual a solution may carry.
OE_TOL = 1e-12


@dataclass(frozen=True)
class HittingSolution:
    """Exact values (targets at 1, cemetery at 0), an optimal action at every
    interior state, policy-iteration sweeps and the certifying OE residual."""

    values: Mapping[State, float]
    policy: Mapping[State, str]
    iterations: int
    oe_residual: float


def _avoiding(model: GeneralModel) -> dict[State, str]:
    """Interior states from which some policy keeps off the target surely,
    each with its smallest-id action that does.  The other states, whose every
    action has a rate into the target or into one of them, grow from the
    target by a worklist that reads each rate entry once."""
    into: dict[State, list] = {}  # state -> the (state, action) rows with a rate into it
    for key, row in model.rows.items():
        for j in row:
            into.setdefault(j, []).append(key)
    left = {s: set(model.actions_at(s)) for s in model.interior_states()}
    stack = list(model.target)
    while stack:
        for s, a in into.get(stack.pop(), ()):
            if a in left.get(s, ()):
                left[s].discard(a)
                if not left[s]:
                    del left[s]
                    stack.append(s)
    return {s: next(a for a in model.actions_at(s) if a in acts) for s, acts in left.items()}


def _compile(model: GeneralModel) -> tuple[tuple[State, ...], JumpRows, dict[State, str]]:
    """Interior states that are not avoiding, their one-jump rows, and the
    avoiding states with their actions.

    Each row's entries carry its normalized rates into the kept states, and
    its target mass is kept apart; mass into the cemetery or an avoiding
    state (value zero) is dropped.
    """
    avoiding = _avoiding(model)
    interior = tuple(s for s in model.interior_states() if s not in avoiding)
    index = {s: pos for pos, s in enumerate(interior)}
    actions: list[str] = []
    state_ptr: list[int] = []
    entries: list[list[tuple[int, float]]] = []
    target: list[float] = []
    for s in interior:
        state_ptr.append(len(actions))
        for a in model.actions_at(s):
            exit_rate = model.exit_rates[(s, a)]
            const = 0.0
            row = []
            for j, rate in model.rows[(s, a)].items():
                if j in model.target:
                    const += rate / exit_rate
                elif j in index:
                    row.append((index[j], rate / exit_rate))
            entries.append(row)
            target.append(const)
            actions.append(a)
    return interior, JumpRows(tuple(actions), state_ptr, entries, target), avoiding


def value_iterate(model: GeneralModel, trace: list | None = None) -> HittingSolution:
    """Exact minimal hitting probabilities by policy iteration.

    Avoiding states get exactly zero and their avoiding action; the rest
    start from their smallest-id action and improve as in ``solve``.  The
    values are certified by the optimality-equation residual, and one above
    ``OE_TOL`` is a NumericalError.  ``trace``, when a list is given, collects
    the values of every evaluated policy at the states that are not avoiding,
    as a list of floats.
    """
    interior, rows, avoiding = _compile(model)

    def evaluate(chosen):
        x = rows.evaluate(chosen)
        if trace is not None:
            trace.append(x)
        return x, x, x

    sweeps = policy_iteration(rows, rows.state_ptr, evaluate)
    for iterations, (x, chosen, _, best) in enumerate(sweeps, 1):
        pass
    residual = oe_defect(x, best, len(interior))
    if not residual <= OE_TOL:
        raise NumericalError(f"optimality-equation residual {residual:.3e} exceeds {OE_TOL:.3e}")
    values = {s: (1.0 if s in model.target else 0.0) for s in model.states}
    values.update(zip(interior, x))
    policy = {**avoiding, **dict(zip(interior, rows.played(chosen)))}
    return HittingSolution(values, policy, iterations=iterations, oe_residual=residual)


def cbp_truncate(model: CbpModel, policy: Policy | None, level: int) -> GeneralModel:
    """Window 0..level of a branching model, cemetery beyond.

    With a policy, each state keeps only the action the policy plays there;
    with ``None`` the full admissible sets survive.  Jumps past the window are
    redirected into the cemetery, making the truncated hitting values lower
    bounds on the untruncated ones, nondecreasing in ``level``.
    """
    if not is_integer(level):
        raise TypeError(f"truncation level must be an integer, got {level!r}")
    level = operator.index(level)
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
