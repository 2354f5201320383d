"""Exact policy iteration for the minimal extinction probability of a
controlled branching model.

Head states 1..m carry free action choices; every state above m plays one
pinned tail action whose generating-function root is smallest over the shared
tail set.  Each policy is evaluated by one small linear solve: either the
m-dimensional system closed by the geometric tail weight, or, when the policy
plays a no-death action somewhere in the head, the smaller system in front of
the first such state with exact zeros behind it.  Improvement replaces an
action only where its one-jump value strictly beats the current value, so the
extinction profile decreases monotonically and the iteration visits each head
policy at most once.  :func:`_head_rows` is the one place where a backend
for the compiled rows is picked, by the number of head rows.

Outside the banded elimination, a solve walks the head states as few times
as it can: a large head is compiled by numpy in one pass over all rows,
policies are validated by one C-level pass, and the scans for no-death
actions are skipped when the model has none.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

from . import gen_fn
from .embedded import ArrayRows, JumpRows, ListRows, oe_defect, policy_iteration, tail_weight
from .errors import NumericalError, SingularSystem, TooManyPolicies
from .model import CbpModel, Policy, default_policy, is_integer, population_state, validate_policy

GEOMETRIC = "geometric"
ZERO = "zero"

DEFAULT_BRUTE_CAP = 100_000
# Attainment slack when matching the componentwise minimum to one policy.
_ATTAIN_TOL = 1e-12
# Profiles solved under tied tail actions must agree this closely.
_TIE_PROFILE_TOL = 1e-8


@dataclass(frozen=True)
class ExtinctionProfile:
    """Extinction probabilities with a closed-form tail.

    ``head_values`` covers states 1..m.  A geometric tail continues above m
    with ratio ``rho_star``; a zero tail is identically zero from ``i0`` on
    (``i0 <= m``, so the zeros already show in the head).  ``residual`` is the
    sup-norm defect of the linear system behind the head values.
    """

    head_values: tuple[float, ...]
    tail_kind: str
    rho_star: float | None = None
    i0: int | None = None
    residual: float = 0.0

    @property
    def m(self) -> int:
        return len(self.head_values)

    def ep(self, i: int) -> float:
        i = population_state(i)
        if i <= self.m:
            return self.head_values[i - 1]
        if self.tail_kind == ZERO:
            return 0.0
        return self.rho_star ** (i - self.m) * self.head_values[-1]


@dataclass(frozen=True)
class IterationRecord:
    policy: Policy
    profile: ExtinctionProfile
    improved_states: tuple[int, ...]


@dataclass(frozen=True)
class SolveReport:
    optimal_policy: Policy
    optimal_profile: ExtinctionProfile
    zero_death_cutoff: int
    rho_star: float
    a_star: str
    tied: tuple[str, ...]
    iterations: tuple[IterationRecord, ...]
    oe_residual: float
    dont_care_states: tuple[int, ...]


def _no_death_actions(model: CbpModel) -> frozenset[str]:
    """Ids of the actions with no death rate (b0 = 0)."""
    return frozenset(a for a, mech in model.mechanisms.items() if mech.b0 == 0.0)


def zero_death_cutoff(model: CbpModel) -> int:
    """Smallest head state where a no-death action is admissible, m+1 if none.

    Only the head action sets are consulted; the shared tail set plays no
    role here.
    """
    no_death = _no_death_actions(model)
    if no_death:
        for i, choices in enumerate(model.admissible, 1):
            if not no_death.isdisjoint(choices):
                return i
    return model.m + 1


# The in-process crossover of the two backends on head rows (CHANGES.md).
ARRAY_HEAD_ROWS = 400


def _head_rows(model: CbpModel, rho_star_value: float) -> JumpRows:
    """The head's compiled one-jump rows under tail ratio ``rho_star_value``.

    State i sits at position i - 1.  Landings on 1..m-1 keep their
    probabilities, landings from m on fold into state m's column through the
    tail weight, and extinction from state 1 goes to the target column.  Each row
    adds its target mass first, its in-head terms in ascending order and its
    tail term last.  A head of ``ARRAY_HEAD_ROWS`` (state, action) rows or
    more is compiled by numpy to :class:`ArrayRows`, so it imports numpy; a
    smaller one is compiled in plain Python to :class:`ListRows`.
    """
    actions = tuple(itertools.chain.from_iterable(model.admissible))
    state_ptr = list(itertools.accumulate(map(len, model.admissible[:-1]), initial=0))
    if len(actions) >= ARRAY_HEAD_ROWS:
        return _head_arrays(model, rho_star_value, actions, state_ptr)
    m = model.m
    mechs = {a: model.mechanism(a) for a in set(actions)}
    pmfs = {a: mech.offspring_pmf().items() for a, mech in mechs.items()}
    entries = []
    for i, choices in enumerate(model.admissible, 1):
        for a in choices:
            row = []
            for k, p in pmfs[a]:
                landing = i - 1 + k
                if landing < m:
                    row.append((landing - 1 if landing else m, p))
            if i - 1 + mechs[a].max_k >= m:
                row.append((m - 1, tail_weight(mechs[a], i, m, rho_star_value)))
            entries.append(row)
    return ListRows(actions, state_ptr, entries)


def _head_arrays(model: CbpModel, rho_star_value: float, actions, state_ptr) -> ArrayRows:
    """:func:`_head_rows` by numpy, for large heads, in one pass over all rows.

    A table padded to the widest support holds each action's offspring counts
    and pmf values; row r reads the line of its action.  Padding counts are
    m, whose landings always leave the head, so one ``inside`` mask over all
    rows picks the in-head entries, row by row in ascending k.  Only rows
    from state m + 1 - max_k on can jump out of the head, so their tail
    terms are found by a loop over those rows alone and stored after every
    in-head entry.  Each row thus keeps the summation order of
    :class:`ListRows`, which ``bincount`` follows.
    """
    import numpy as np

    m = model.m
    names = sorted(set(actions))
    mechs = {a: model.mechanism(a) for a in names}
    width = max(len(mech.support) for mech in mechs.values())
    ks = np.full((len(names), width), m, dtype=np.int64)
    ps = np.zeros((len(names), width))
    for c, mech in enumerate(mechs.values()):
        pmf = mech.offspring_pmf()
        ks[c, : len(pmf)] = list(pmf)
        ps[c, : len(pmf)] = list(pmf.values())
    code = {a: c for c, a in enumerate(names)}
    row_code = np.fromiter(map(code.__getitem__, actions), np.intp, len(actions))
    counts = np.fromiter(map(len, model.admissible), np.intp, m)
    landing = np.repeat(np.arange(m), counts)[:, None] + ks[row_code]
    inside = landing < m
    ent_row = np.nonzero(inside)[0]
    ent_col = landing[inside] - 1
    ent_col[ent_col < 0] = m
    tail_rows, tail_weights = [], []
    first = max(1, m + 1 - max(mech.max_k for mech in mechs.values()))
    r = state_ptr[first - 1]
    for i in range(first, m + 1):
        for a in model.admissible[i - 1]:
            mech = mechs[a]
            if i - 1 + mech.max_k >= m:
                tail_rows.append(r)
                tail_weights.append(tail_weight(mech, i, m, rho_star_value))
            r += 1
    return ArrayRows(
        actions,
        state_ptr,
        np.concatenate([ent_row, np.array(tail_rows, dtype=np.intp)]),
        np.concatenate([ent_col, np.full(len(tail_rows), m - 1)]),
        np.concatenate([ps[row_code][inside], tail_weights]),
    )


def _evaluate(model, rows, chosen, rho_star, no_death) -> ExtinctionProfile:
    """Profile of the policy playing rows ``chosen`` at the head states.

    States from the first no-death choice i0 on are exactly zero, so only the
    leading i0 - 1 states are solved; without one all m are.
    """
    actions = rows.actions
    scan = enumerate(chosen, 1) if no_death else ()
    i0 = next((s for s, r in scan if actions[r] in no_death), None)
    kind = GEOMETRIC if i0 is None else ZERO
    chosen = chosen if i0 is None else chosen[: i0 - 1]
    try:
        head, residual = rows.evaluate(chosen)
    except SingularSystem as exc:
        label = "geometric-tail" if kind == GEOMETRIC else "zero-tail"
        raise SingularSystem(
            f"policy evaluation ({label} case, {len(chosen)}-state system): {exc}"
        ) from exc
    head.extend([0.0] * (model.m - len(head)))
    rho = float(rho_star) if kind == GEOMETRIC else None
    return ExtinctionProfile(tuple(head), kind, rho_star=rho, i0=i0, residual=residual)


def evaluate_policy(model: CbpModel, f: Policy, rho_star: float) -> ExtinctionProfile:
    """Extinction probabilities of one policy whose tail root equals ``rho_star``.

    With no-death actions absent from the policy's head, the head system is
    m-dimensional and the tail continues geometrically; otherwise states from
    the first no-death choice on are exactly zero and only the states in front
    of it need a solve.
    """
    validate_policy(model, f)
    rows = _head_rows(model, rho_star)
    return _evaluate(model, rows, rows.rows_playing(f.head), rho_star, _no_death_actions(model))


def _held(rows: JumpRows, profile: ExtinctionProfile, cutoff: int) -> list[float]:
    """The value vector of the head values, held at zero from ``cutoff`` on."""
    if profile.m != rows.n:
        raise ValueError(f"profile covers {profile.m} states but the model has m={rows.n}")
    return rows.value_vector(profile.head_values[: cutoff - 1])


def improve_policy(model: CbpModel, f: Policy, profile: ExtinctionProfile) -> Policy:
    """One improvement sweep; returns f unchanged at its fixed point.

    An action enters the improvement set only when its one-jump value is
    strictly below the current value, and the replacement is the smallest-id
    action among those attaining the minimum.  When a no-death action exists
    at some head state, only states up to the first such state are improved
    (with values held at zero from there on); later head states are never
    touched.
    """
    validate_policy(model, f)
    cutoff = zero_death_cutoff(model)
    if cutoff > model.m and profile.rho_star is None:
        raise ValueError("geometric-tail improvement needs the profile's tail ratio")
    rho_star_value = 0.0 if profile.rho_star is None else profile.rho_star
    rows = _head_rows(model, rho_star_value)
    held = _held(rows, profile, cutoff)
    improved = rows.improve(rows.rows_playing(f.head), profile.head_values[:cutoff], held)[0]
    return Policy(head=rows.played(improved), tail=f.tail)


def _head_iteration(model, rows, rho_star_value, cutoff, no_death, f) -> tuple[list, float]:
    """The sweeps' records and the final profile's OE residual."""

    def evaluate(chosen):
        profile = _evaluate(model, rows, chosen, rho_star_value, no_death)
        held = _held(rows, profile, cutoff)
        return (chosen, profile), profile.head_values[:cutoff], held

    records = []
    sweeps = policy_iteration(rows, rows.rows_playing(f.head), evaluate)
    for (chosen, profile), _, moved, best in sweeps:
        policy = Policy(rows.played(chosen), f.tail)
        records.append(IterationRecord(policy, profile, tuple(map((1).__add__, moved))))
    return records, oe_defect(profile.head_values, best, cutoff - 1)


def solve(model: CbpModel, start_head: Mapping[int, str] | None = None) -> SolveReport:
    """Optimal stationary policy and minimal extinction probabilities.

    Runs certified root finding over the tail set, pins ``a_star`` as the
    tail, iterates evaluate/improve from the smallest-id head policy (or
    ``start_head`` overrides), and certifies the result by the optimality
    equation residual.  The tail action enters the head only through its
    root, so the iteration runs once per distinct root among the tied
    actions; the report is ``a_star``'s, and a tied root whose head values
    differ from it by more than 1e-8 is a NumericalError.
    """
    cutoff = zero_death_cutoff(model)
    no_death = _no_death_actions(model)
    roots = gen_fn.rho_star(model)
    f = default_policy(model, roots.a_star, start_head)
    solves: dict[float, tuple] = {}
    for a in roots.tied:
        root = roots.per_action[a].rho
        if root not in solves:
            rows = _head_rows(model, root)
            solves[root] = a, *_head_iteration(model, rows, root, cutoff, no_death, f)
    _, records, residual = solves.pop(roots.rho_star)
    final = records[-1]
    for a, alt, _ in solves.values():
        gaps = zip(alt[-1].profile.head_values, final.profile.head_values)
        for i, gap in enumerate((abs(u - v) for u, v in gaps), 1):
            if gap > _TIE_PROFILE_TOL:
                raise NumericalError(
                    f"tied tail actions {roots.a_star!r} and {a!r} disagree at"
                    f" state {i} by {gap:.3e}"
                )
    dont_care = tuple(range(cutoff + 1, model.m + 1))
    return SolveReport(
        optimal_policy=final.policy,
        optimal_profile=final.profile,
        zero_death_cutoff=cutoff,
        rho_star=roots.rho_star,
        a_star=roots.a_star,
        tied=roots.tied,
        iterations=tuple(records),
        oe_residual=residual,
        dont_care_states=dont_care,
    )


def verify_oe(model: CbpModel, profile: ExtinctionProfile) -> float:
    """Sup-norm residual of the optimality equation at the given profile.

    Without no-death actions the equation runs over all head states with the
    geometric tail weight; otherwise it runs over the states in front of the
    cutoff with values held at zero from the cutoff on, and the residual
    additionally includes any nonzero value at or beyond the cutoff (those
    states must be exactly zero at the optimum).
    """
    cutoff = zero_death_cutoff(model)
    rho_star_value = profile.rho_star
    if rho_star_value is None:
        # Below a cutoff the tail column is held at zero and the ratio is moot.
        rho_star_value = gen_fn.rho_star(model).rho_star if cutoff > model.m else 0.0
    rows = _head_rows(model, rho_star_value)
    best = rows.least(rows.candidates(_held(rows, profile, cutoff)))[0]
    return oe_defect(profile.head_values, best, cutoff - 1)


def brute_force_table(
    model: CbpModel, cap: int = DEFAULT_BRUTE_CAP
) -> tuple[ExtinctionProfile, list[tuple[Policy, ExtinctionProfile]]]:
    """Evaluate every head policy; return the componentwise minimum and the table."""
    if not is_integer(cap):
        raise TypeError(f"brute-force cap must be an integer, got {cap!r}")
    count = model.head_policy_count()
    if count > cap:
        raise TooManyPolicies(f"{count} head policies exceed the cap of {cap}")
    roots = gen_fn.rho_star(model)
    rows = _head_rows(model, roots.rho_star)
    no_death = _no_death_actions(model)
    table = []
    for combo in itertools.product(*model.admissible):
        profile = _evaluate(model, rows, rows.rows_playing(combo), roots.rho_star, no_death)
        table.append((Policy(head=combo, tail=roots.a_star), profile))
    m = model.m
    floor = [min(p.head_values[i] for _, p in table) for i in range(m)]
    for _, p in table:
        if all(p.head_values[i] <= floor[i] + _ATTAIN_TOL for i in range(m)):
            return p, table
    # An optimal stationary policy attains the componentwise minimum.
    raise NumericalError(
        f"no head policy attains the componentwise minimum within {_ATTAIN_TOL:.0e};"
        " this is a defect"
    )


def brute_force(model: CbpModel, cap: int = DEFAULT_BRUTE_CAP) -> ExtinctionProfile:
    """Componentwise minimum over all head policies (oracle for ``solve``)."""
    return brute_force_table(model, cap)[0]
