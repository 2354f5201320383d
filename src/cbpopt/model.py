"""Domain models: branching mechanisms, controlled branching models and their
stationary policies, and general finite rate models.

Raw inputs are sparse dictionaries.  Validation derives diagonal rates (never
trusts them), rejects inconsistent rows, and returns immutable objects that
the numeric modules can share freely.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from types import MappingProxyType
from typing import Hashable, Mapping, Sequence

from .errors import (
    EmptyActionSet,
    EntryForKEqualsOne,
    InadmissibleAction,
    MZero,
    NegativeRate,
    NonConservativeRow,
    RateOverflow,
    TargetNotAbsorbing,
    TrivialMechanism,
    UnknownActionId,
    ValidationError,
    ZeroExitRate,
)

State = Hashable

# Supplied diagonals must cancel the off-diagonal sum this closely.
DIAGONAL_TOL = 1e-9
# Root finding allocates one coefficient per offspring count up to the largest.
MAX_OFFSPRING = 10**7


def _left_sum(values) -> float:
    """The floats ``values`` added left to right.  The builtin ``sum``
    compensates rounding since Python 3.12, so its bits depend on the
    Python version; this sum's do not."""
    return reduce(operator.add, values, 0.0)


def _rate(value) -> float | None:
    """A real number as a float, infinite where it is too large for one; None
    for anything else, such as a bool or a numeric string."""
    # float and int come first: they skip the much slower ABC check.
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def is_integer(value) -> bool:
    """Whether ``operator.index`` takes ``value`` and it is not a bool."""
    kind = type(value)
    return kind is int or kind is not bool and hasattr(kind, "__index__")


def population_state(i) -> int:
    """``i`` as a population state: an integer, not ``True`` or ``1.0``, from 1 on."""
    if not is_integer(i):
        raise TypeError(f"population state {i!r} is not an integer")
    if i < 1:
        raise ValueError("population states start at 1")
    return operator.index(i)


@dataclass(frozen=True)
class BranchingMechanism:
    """Finite-support offspring rate family for one action.

    ``support`` maps offspring counts k (k != 1, only positive rates kept) to
    per-particle rates; ``b1`` is the derived diagonal, chosen so that all
    rates sum to zero exactly.
    """

    support: Mapping[int, float]
    b1: float
    max_k: int

    @property
    def abs_b1(self) -> float:
        return -self.b1

    @property
    def b0(self) -> float:
        return self.support.get(0, 0.0)

    def drift(self) -> float:
        """Mean offspring-rate drift sum_k k*b_k; its sign decides criticality."""
        return self.b1 + _left_sum(k * r for k, r in self.support.items())

    def offspring_pmf(self) -> dict[int, float]:
        """Jump distribution of the embedded chain: k -> b_k / |b1|."""
        q = self.abs_b1
        return {k: r / q for k, r in self.support.items()}

    def rate_row(self, i: int) -> dict[int, float]:
        """Transition rates out of population i >= 1, diagonal included."""
        row = {i - 1 + k: i * r for k, r in self.support.items()}
        row[i] = i * self.b1
        return row


def validate_mechanism(raw: Mapping[int, float]) -> BranchingMechanism:
    """Build a mechanism from sparse rate entries keyed by offspring count.

    Zero rates are dropped; the diagonal is always computed from the retained
    entries, so conservativeness holds by construction.
    """
    kept: dict[int, float] = {}
    for key in sorted(raw, key=lambda x: (isinstance(x, bool), str(x))):
        if not is_integer(key):
            raise ValidationError(f"offspring count must be an integer, got {key!r}")
        k = operator.index(key)
        if k == 1:
            raise EntryForKEqualsOne(
                "the rate for k=1 is the derived diagonal and cannot be supplied"
            )
        if not 0 <= k <= MAX_OFFSPRING:
            raise ValidationError(f"offspring count must lie in 0..{MAX_OFFSPRING}, got {k}")
        rate = _rate(raw[key])
        if rate is None:
            raise NegativeRate(f"rate for k={k} is not a number: {raw[key]!r}", k=k)
        if not math.isfinite(rate) or rate < 0.0:
            raise NegativeRate(f"rate for k={k} must be finite and nonnegative, got {rate}", k=k)
        if rate > 0.0:
            kept[k] = rate
    kept = dict(sorted(kept.items()))
    if sum(r for k, r in kept.items() if k >= 2) <= 0.0:
        raise TrivialMechanism("no offspring production: every rate for k>=2 vanishes")
    b1 = -_left_sum(kept.values())
    if not math.isfinite(b1):
        raise RateOverflow(f"the rates sum to {-b1}, which a float cannot hold")
    return BranchingMechanism(support=MappingProxyType(kept), b1=b1, max_k=max(kept))


@dataclass(frozen=True)
class CbpModel:
    """Controlled branching model.

    States 1..m carry their own admissible action lists; every state above m
    shares the single tail action set.  Action lists are deduplicated and
    sorted, so "smallest action id" tie-breaks are just first-in-list.
    """

    m: int
    admissible: tuple[tuple[str, ...], ...]
    tail_actions: tuple[str, ...]
    mechanisms: Mapping[str, BranchingMechanism]

    def actions_at(self, i: int) -> tuple[str, ...]:
        i = population_state(i)
        return self.admissible[i - 1] if i <= self.m else self.tail_actions

    def mechanism(self, action_id: str) -> BranchingMechanism:
        return self.mechanisms[action_id]

    def head_policy_count(self) -> int:
        count = 1
        for choices in self.admissible:
            count *= len(choices)
        return count


def validate_cbp_model(
    m: int,
    admissible: Mapping[int, Sequence[str]],
    tail_actions: Sequence[str],
    mechanisms: Mapping[str, Mapping[int, float] | BranchingMechanism],
) -> CbpModel:
    """Validate a controlled branching model description."""
    if not is_integer(m) or m < 1:
        raise MZero(f"threshold m must be a positive integer, got {m!r}")
    m = operator.index(m)
    mechs: dict[str, BranchingMechanism] = {}
    for aid in sorted(mechanisms, key=str):
        if not isinstance(aid, str) or not aid:
            raise ValidationError(f"action ids must be nonempty strings, got {aid!r}")
        raw = mechanisms[aid]
        mechs[aid] = raw if isinstance(raw, BranchingMechanism) else validate_mechanism(raw)

    def clean(ids: Sequence[str], where: object) -> tuple[str, ...]:
        for aid in ids:
            if not isinstance(aid, str):
                raise ValidationError(f"action ids must be strings, got {aid!r} at {where}")
        out = tuple(sorted(set(ids)))
        if not out:
            raise EmptyActionSet(f"no admissible actions at {where}", state=where)
        for aid in out:
            if aid not in mechs:
                raise UnknownActionId(f"action {aid!r} (at {where}) has no mechanism")
        return out

    for i in admissible:
        if not is_integer(i) or not 1 <= i <= m:
            raise ValidationError(f"admissible map key {i!r} is not an integer in 1..{m}")
    # Each distinct list or tuple of strings is cleaned once.  Every other
    # value goes through clean at its own state, so the first error and its
    # text stay those of a check per state.
    cleaned: dict[tuple[str, ...], tuple[str, ...]] = {}
    head = []
    for i in range(1, m + 1):
        if i not in admissible:
            raise EmptyActionSet(f"no admissible actions at state {i}", state=i)
        ids = admissible[i]
        if isinstance(ids, (list, tuple)) and all(map(isinstance, ids, repeat(str))):
            key = tuple(ids)
            if key not in cleaned:
                cleaned[key] = clean(ids, i)
            head.append(cleaned[key])
        else:
            head.append(clean(ids, i))
    tail = clean(tail_actions, "the tail set")
    return CbpModel(
        m=m,
        admissible=tuple(head),
        tail_actions=tail,
        mechanisms=MappingProxyType(mechs),
    )


@dataclass(frozen=True)
class Policy:
    """Stationary policy: explicit head choices for 1..m, one pinned tail action."""

    head: tuple[str, ...]
    tail: str

    @property
    def m(self) -> int:
        return len(self.head)

    def action_at(self, i: int) -> str:
        i = population_state(i)
        return self.head[i - 1] if i <= len(self.head) else self.tail


def default_policy(model: CbpModel, tail: str, overrides: Mapping | None = None) -> Policy:
    """Smallest-id head choice at every state, with the given tail action.

    ``overrides`` maps head states to the actions played there instead.  A
    state that is not an integer in 1..m, an action not admissible at its
    state or a tail action outside the shared tail set raises
    InadmissibleAction.
    """
    head = [choices[0] for choices in model.admissible]
    for i, a in (overrides or {}).items():
        if not is_integer(i) or not 1 <= i <= model.m:
            raise InadmissibleAction(
                f"policy state {i!r} is not an integer in 1..{model.m}", state=i
            )
        head[i - 1] = a
    f = Policy(head=tuple(head), tail=tail)
    validate_policy(model, f)
    return f


def validate_policy(model: CbpModel, f: Policy) -> None:
    if len(f.head) != model.m:
        raise InadmissibleAction(
            f"policy head covers {len(f.head)} states but the model has m={model.m}"
        )
    if not all(map(operator.contains, model.admissible, f.head)):
        for i in range(1, model.m + 1):
            if f.head[i - 1] not in model.admissible[i - 1]:
                raise InadmissibleAction(
                    f"action {f.head[i - 1]!r} is not admissible at state {i}", state=i
                )
    if f.tail not in model.tail_actions:
        raise InadmissibleAction(f"tail action {f.tail!r} is not in the shared tail set")


@dataclass(frozen=True)
class GeneralModel:
    """Finite rate model with a target set, an optional absorbing cemetery
    state, and one off-diagonal rate row per (state, action) pair.

    Diagonals are implied: the exit rate of a row is the sum of its
    off-diagonal entries, recorded once at validation time.
    """

    states: tuple[State, ...]
    target: frozenset
    cemetery: State | None
    rows: Mapping[tuple[State, str], Mapping[State, float]]
    exit_rates: Mapping[tuple[State, str], float]
    actions: Mapping[State, tuple[str, ...]]

    def interior_states(self) -> tuple[State, ...]:
        return tuple(s for s in self.states if s not in self.target and s != self.cemetery)

    def actions_at(self, state: State) -> tuple[str, ...]:
        return self.actions.get(state, ())

    def rate_row(self, state: State, action: str) -> dict[State, float]:
        """Full rate row including the (derived) diagonal."""
        row = dict(self.rows[(state, action)])
        row[state] = -self.exit_rates[(state, action)]
        return row


def validate_general_model(
    states: Sequence[State],
    target: Sequence[State],
    cemetery: State | None,
    raw_rows: Mapping[tuple[State, str], Mapping[State, float]],
) -> GeneralModel:
    """Validate a general rate model.

    Off-diagonal entries must be nonnegative; a supplied diagonal is checked
    against the off-diagonal sum within ``DIAGONAL_TOL`` and then discarded in
    favor of the exact derived value.  Target and cemetery states must be
    absorbing, and every other state needs a positive exit rate per action
    and at least one action.
    """
    state_list = tuple(states)
    if len(set(state_list)) != len(state_list):
        raise ValidationError("duplicate states in the state list")
    order = {s: pos for pos, s in enumerate(state_list)}
    target_set = frozenset(target)
    if not target_set:
        raise ValidationError("the target set must not be empty")
    for s in target_set:
        if s not in order:
            raise ValidationError(f"target state {s!r} is not in the state list")
    if cemetery is not None:
        if cemetery not in order:
            raise ValidationError(f"cemetery state {cemetery!r} is not in the state list")
        if cemetery in target_set:
            raise ValidationError("the cemetery state cannot be a target state")

    rows: dict[tuple[State, str], Mapping[State, float]] = {}
    exits: dict[tuple[State, str], float] = {}
    actions: dict[State, list[str]] = {}
    # Rows in state-list order and actions sorted within a state, which also
    # sorts each state's action tuple; rows of unknown states sort first, so
    # they are reported before other faults.
    for i, a in sorted(raw_rows, key=lambda key: (order.get(key[0], -1), key[1])):
        if i not in order:
            raise ValidationError(f"rate row references unknown state {i!r}")
        raw = raw_rows[(i, a)]
        offdiag: dict[State, float] = {}
        total = 0.0  # added left to right, as _left_sum does
        diagonal = None
        for j in raw:
            if j not in order:
                raise ValidationError(f"rate row ({i!r}, {a!r}) references unknown state {j!r}")
        for j in sorted(raw, key=order.__getitem__):
            rate = _rate(raw[j])
            if rate is None:
                raise NonConservativeRow(
                    f"rate to {j!r} in row ({i!r}, {a!r}) is not a number: {raw[j]!r}",
                    state=i,
                    action=a,
                )
            if j == i:
                if not math.isfinite(rate):
                    raise NonConservativeRow(
                        f"supplied diagonal in row ({i!r}, {a!r}) must be finite, got {rate}",
                        state=i,
                        action=a,
                    )
                diagonal = rate
                continue
            if not math.isfinite(rate) or rate < 0.0:
                raise NonConservativeRow(
                    f"off-diagonal rate to {j!r} in row ({i!r}, {a!r}) must be"
                    f" finite and nonnegative, got {rate}",
                    state=i,
                    action=a,
                )
            if rate > 0.0:
                offdiag[j] = rate
                total += rate
        if not math.isfinite(total):
            raise RateOverflow(
                f"the rates in row ({i!r}, {a!r}) sum to {total}, which a float cannot hold"
            )
        if i in target_set or i == cemetery:
            if total > 0.0:
                raise TargetNotAbsorbing(
                    f"absorbing state {i!r} has positive exit rate under action {a!r}"
                )
            continue
        if diagonal is not None and abs(diagonal + total) > DIAGONAL_TOL:
            raise NonConservativeRow(
                f"supplied diagonal {diagonal} in row ({i!r}, {a!r}) does not cancel"
                f" the off-diagonal sum {total}",
                state=i,
                action=a,
            )
        if total <= 0.0:
            raise ZeroExitRate(
                f"state {i!r} has zero exit rate under action {a!r}", state=i, action=a
            )
        rows[(i, a)] = MappingProxyType(offdiag)
        exits[(i, a)] = total
        actions.setdefault(i, []).append(a)

    for s in state_list:
        if s in target_set or s == cemetery:
            continue
        if not actions.get(s):
            raise EmptyActionSet(f"no actions defined for state {s!r}", state=s)

    return GeneralModel(
        states=state_list,
        target=target_set,
        cemetery=cemetery,
        rows=MappingProxyType(rows),
        exit_rates=MappingProxyType(exits),
        actions=MappingProxyType({s: tuple(a) for s, a in actions.items()}),
    )
