"""Exact policy iteration for the minimal extinction probability of a
controlled branching model.

Head states 1..m carry free action choices; every state above m plays one
pinned tail action whose generating-function root is smallest over the shared
tail set.  ``embedded.Passage`` evaluates every policy in passage
probabilities, with no linear system, and improves and certifies on those
its values give, x_j / x_{j-1}, in ``solve`` as in ``verify_oe``.
Improvement replaces an action only where its one-jump value strictly beats
the current value, so the extinction profile decreases monotonically and the
iteration visits each head policy at most once.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass
from typing import Mapping

from . import gen_fn
from .embedded import Passage, oe_defect, policy_iteration
from .errors import NumericalError, TooManyPolicies
from .model import CbpModel, Policy, default_policy, is_integer, population_state, validate_policy

GEOMETRIC = "geometric"
ZERO = "zero"

DEFAULT_BRUTE_CAP = 100_000
# Attainment slack when matching the componentwise minimum to one policy.
_ATTAIN_TOL = 1e-12
# Profiles solved under tied tail actions must agree this closely.
_TIE_PROFILE_TOL = 1e-8
# The smallest normal float: a ratio over a smaller value decides nothing.
_NORMAL = sys.float_info.min


@dataclass(frozen=True)
class ExtinctionProfile:
    """Extinction probabilities with a closed-form tail.

    ``head_values`` covers states 1..m.  A geometric tail continues above m
    with ratio ``rho_star``; a zero tail is identically zero from ``i0`` on
    (``i0 <= m``, so the zeros already show in the head).  ``residual`` is the
    defect of the policy's one-jump equations at its values, max_j |x_j -
    sum_k p_k x_{j-1+k}|, as ``embedded.Passage.evaluate`` forms it.
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


def _reading(x, cutoff: int) -> tuple[list, tuple]:
    """q_j = x_j / x_{j-1} at the states open to improvement, those up to
    ``cutoff`` and below the first above a subnormal value, and the passage
    vector pair with s_j = (x_{j-1} - x_j) / x_{j-1}, held at q = 0, s = 1
    from ``cutoff`` on and where x_{j-1} = x_j = 0; q = inf above a zero."""
    below = (1.0, *x)
    if min(x, default=1.0) >= _NORMAL:  # the same divisions, in C
        q = list(map(operator.truediv, x, below))
        s = list(map(operator.truediv, map(operator.sub, below, x), below))
        top = len(x)
    else:
        q = [v / u if u else math.inf if v else 0.0 for u, v in zip(below, x)]
        s = [(u - v) / u if u else 1.0 for u, v in zip(below, x)]
        top = next((j for j, u in enumerate(x, 1) if 0.0 < u < _NORMAL), len(x))
    held = len(q) - cutoff + 1  # none for cutoff = m + 1
    return q[: min(cutoff, top)], (q[: cutoff - 1] + [0.0] * held, s[: cutoff - 1] + [1.0] * held)


def _profile(passage, chosen, no_death) -> ExtinctionProfile:
    """Profile of the policy playing rows ``chosen``, zero from i0 on."""
    head, residual = passage.evaluate(chosen)
    scan = enumerate(passage.played(chosen), 1) if no_death else ()
    i0 = next((i for i, a in scan if a in no_death), None)
    kind, rho = (GEOMETRIC, passage.rho) if i0 is None else (ZERO, None)
    return ExtinctionProfile(tuple(head), kind, rho, i0, residual)


def evaluate_policy(model: CbpModel, f: Policy, rho_star: float) -> ExtinctionProfile:
    """Extinction probabilities of one policy whose tail root equals ``rho_star``.

    With no-death actions absent from the policy's head, the tail continues
    geometrically; otherwise states from the first no-death choice on are
    exactly zero.  ``rho_star`` must be a number in [0, 1].
    """
    validate_policy(model, f)
    passage = Passage(model, rho_star)
    return _profile(passage, passage.rows_playing(f.head), _no_death_actions(model))


def _read(passage: Passage, profile: ExtinctionProfile, cutoff: int) -> tuple[list, list]:
    """The q_j open to improvement that :func:`_reading` reads from the
    profile's values, and every row's T_a at its held vectors."""
    if profile.m != passage.n:
        raise ValueError(f"profile covers {profile.m} states but the model has m={passage.n}")
    values, held = _reading(profile.head_values, cutoff)
    cand = passage.candidates(held)
    if not all(map(math.isfinite, cand)):
        raise ValueError("profile values cannot be read as passage probabilities x_j / x_(j-1)")
    return values, cand


def _oe_residual(x, best: list[float], cutoff: int) -> float:
    """|x_j - x_{j-1} min_a T_a(j)| before the cutoff, |x_j| from it on."""
    return oe_defect(x, list(map(operator.mul, (1.0, *x), best)), cutoff - 1)


def improve_policy(model: CbpModel, f: Policy, profile: ExtinctionProfile) -> Policy:
    """One improvement sweep; returns f unchanged at its fixed point.

    An action enters the improvement set only when its one-jump value is
    strictly below the current value, and the replacement is the smallest-id
    action among those attaining the minimum.  When a no-death action exists
    at some head state, only states up to the first such state are improved
    (with values held at zero from there on); later head states are never
    touched.  Decisions are taken on the passage probabilities x_j / x_{j-1}
    of the profile's values, as ``solve`` takes them.
    """
    validate_policy(model, f)
    cutoff = zero_death_cutoff(model)
    if cutoff > model.m and profile.rho_star is None:
        raise ValueError("geometric-tail improvement needs the profile's tail ratio")
    passage = Passage(model, 0.0 if profile.rho_star is None else profile.rho_star)
    values, cand = _read(passage, profile, cutoff)
    improved = passage.improve(passage.rows_playing(f.head), values, cand)[0]
    return Policy(head=passage.played(improved), tail=f.tail)


def _head_iteration(model, rho, cutoff, no_death, f) -> tuple[list, float]:
    """The sweeps' records and the final profile's OE residual."""
    passage = Passage(model, rho)

    def evaluate(chosen):
        profile = _profile(passage, chosen, no_death)
        return (chosen, profile), *_reading(profile.head_values, cutoff)

    records = []
    for (chosen, profile), _, moved, best in policy_iteration(
        passage, passage.rows_playing(f.head), evaluate
    ):
        policy = Policy(passage.played(chosen), f.tail)
        records.append(IterationRecord(policy, profile, tuple(map((1).__add__, moved))))
    return records, _oe_residual(profile.head_values, best, cutoff)


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
            solves[root] = a, *_head_iteration(model, root, cutoff, no_death, f)
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
    values continuing geometrically above m; otherwise it runs over the states
    in front of the cutoff with values held at zero from the cutoff on, and
    the residual additionally includes any nonzero value at or beyond the
    cutoff (those states must be exactly zero at the optimum).  The profile
    is read as :func:`improve_policy` and ``solve`` read it, so ``solve``'s
    certificate is this one bit for bit; a nonzero value above a zero has
    no reading and raises ``ValueError``.
    """
    cutoff = zero_death_cutoff(model)
    rho = profile.rho_star
    if rho is None:
        # Below a cutoff the tail is held at zero and the ratio is moot.
        rho = gen_fn.rho_star(model).rho_star if cutoff > model.m else 0.0
    passage = Passage(model, rho)
    best = passage.least(_read(passage, profile, cutoff)[1])[0]
    return _oe_residual(profile.head_values, best, cutoff)


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
    passage = Passage(model, roots.rho_star)
    no_death = _no_death_actions(model)
    table = []
    for combo in itertools.product(*model.admissible):
        profile = _profile(passage, passage.rows_playing(combo), no_death)
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
