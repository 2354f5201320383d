"""Seeded Monte Carlo over the embedded jump chain, run in lock-step cohorts.

Extinction in finite time happens exactly when the jump chain reaches zero,
so holding times are never drawn.  Above the head threshold the policy plays
one fixed action, which makes the walk an i.i.d.-increment random walk there.

Draws are counter-based (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC11).  Draw j of trajectory t is the SplitMix64 output
``mix(key_t + (j + 1)·γ)`` taken to 53 bits, where ``key_t`` is a one-to-one
mix of (master_seed, t), and jump j + 1 of a trajectory always consumes its
draw j, in the head and in the tail alike.  So a trajectory's outcome is a
function of (model, policy, start, caps, master_seed, t) alone: it does not
depend on how many trajectories run, in what order or in what batches, and
under looser caps a trajectory extends the one under tighter caps instead of
resampling it.

The trajectories of an estimate run in cohorts of at most ``_COHORT``, one
row of the cohort's arrays each, and all live trajectories of a cohort
advance together.  A step runs in three parts:

- Status: one test marks the live rows, those with a state in
  [1, max_pop] and jumps to spare.  A row that has ended stays frozen in
  the arrays, and the step passes over it, until at least half the rows
  have ended; then the ended rows are recorded, each result read from the
  final state and jump count, and dropped.  Ending rows in batches saves
  compacting the arrays on every step, and changes no result.
- Head: every live trajectory in the head takes one jump from its state's
  inverse-CDF table.
- Tail: every trajectory now in the tail takes a block of jumps at once,
  ending at its first exit from (m, max_pop] or at its jump budget.  Each
  trajectory's preferred width doubles with every block it stays in the
  tail for, and a step's block width is the mean over the tail rows, so
  short excursions waste few draws and long ones take few steps.  One step
  holds at most ``_BLOCK_ENTRIES`` draws, so memory does not grow with n.

None of the cohort or block sizes changes a result either.

numpy is imported when the engine first runs, not when the module loads, so
``SimCaps``, ``wilson_interval`` and the input checks never load it.  Of
this package it imports ``model`` alone, so a simulation loads no solver.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from .model import CbpModel, Policy, is_integer, population_state, validate_policy

if TYPE_CHECKING:
    import numpy as np

EXTINCT = "extinct"
CENSORED_POPULATION = "censored_population"
CENSORED_JUMPS = "censored_jumps"
_RESULTS = (EXTINCT, CENSORED_POPULATION, CENSORED_JUMPS)

_COHORT = 1 << 14
_BLOCK_ENTRIES = 1 << 16
_FIRST_BLOCK = 16
_BLOCK_GROWTH = 2
_MAX_BLOCK = 4096
_Z95 = 1.959963984540054

_MASK64 = (1 << 64) - 1
# Caps beyond this are never reached; clamping them, and a start state past
# the clamped population cap, keeps every state, jump count and cap
# comparison inside int64.
_CAP_LIMIT = 1 << 62
# SplitMix64's increment and its output function's (shift, multiplier)
# steps, cast to uint64 where they are used.
_GAMMA = 0x9E3779B97F4A7C15
_MIX_STEPS = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB), (31, None))


@dataclass(frozen=True)
class SimCaps:
    """Trajectory caps: at most ``max_jumps`` jumps, population at most ``max_pop``.

    Both are nonnegative integers, stored as Python ints.
    """

    max_jumps: int
    max_pop: int

    def __post_init__(self):
        for name in ("max_jumps", "max_pop"):
            value = _integer(getattr(self, name), name)
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class SimOutcome:
    result: str
    jumps: int
    peak_population: int


@dataclass(frozen=True)
class EpEstimate:
    """Extinction frequency with a Wilson 95% interval; censored trajectories
    count as non-extinct, so the bias is downward and at most censored/n."""

    p_hat: float
    ci_low: float
    ci_high: float
    n: int
    censored: int


@functools.cache
def _mix_steps() -> tuple:
    """``_MIX_STEPS`` as uint64 scalars, built on first use."""
    import numpy as np

    return tuple(
        (np.uint64(shift), None if mul is None else np.uint64(mul)) for shift, mul in _MIX_STEPS
    )


def _splitmix64(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """SplitMix64's output function, in place on a uint64 array (a bijection
    of 64-bit words); ``scratch`` is a uint64 array of the same shape."""
    import numpy as np

    for shift, mul in _mix_steps():
        np.right_shift(z, shift, out=scratch)
        np.bitwise_xor(z, scratch, out=z)
        if mul is not None:
            np.multiply(z, mul, out=z)
    return z


def _keys(master_seed: int, first: int, count: int) -> np.ndarray:
    """``key_t`` for t in [first, first + count): mix((mix(seed + γ) ^ t) + γ),
    one-to-one in the seed for each t and in t for each seed."""
    import numpy as np

    gamma = np.uint64(_GAMMA)
    base = np.array([master_seed], dtype=np.uint64) + gamma
    _splitmix64(base, np.empty_like(base))
    keys = np.arange(count, dtype=np.uint64) + np.uint64(first)
    keys ^= base
    keys += gamma
    return _splitmix64(keys, np.empty_like(keys))


def _integer(value, what: str) -> int:
    """``value`` as a Python int; a ``TypeError`` naming ``what`` for a
    non-integer, ``True`` and ``False`` included."""
    if not is_integer(value):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return operator.index(value)


def _checked_index(value, what: str) -> int:
    value = _integer(value, what)
    if not 0 <= value <= _MASK64:
        raise ValueError(f"{what} must lie in [0, 2**64), got {value}")
    return value


def _tables(model: CbpModel, f: Policy) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-CDF tables: row i - 1 for head state i, row m for the tail.

    A cumulative probability c becomes the 64-bit bound
    ``ceil(c·2**53)·2**11 - 1``, so the number of bounds below a draw z is
    exactly the number of c at most ``(z >> 11)·2**-53``, and the jump is the
    increment at that position.  The last bound of a row, and the padding of
    rows with fewer atoms, is 2**64 - 1, which no draw exceeds.
    """
    import numpy as np

    rows = {}
    for a in set(f.head) | {f.tail}:
        pmf = model.mechanism(a).offspring_pmf()
        ks = sorted(pmf)
        cum = np.cumsum([pmf[k] for k in ks])
        cum[-1] = 1.0
        rows[a] = [(math.ceil(c * 2.0**53) << 11) - 1 for c in cum], [k - 1 for k in ks]
    actions = (*f.head, f.tail)
    atoms = max(len(steps) for _, steps in rows.values())
    bounds = np.full((len(actions), atoms), _MASK64, dtype=np.uint64)
    steps = np.zeros((len(actions), atoms), dtype=np.int64)
    for i, a in enumerate(actions):
        row_bounds, row_steps = rows[a]
        bounds[i, : len(row_bounds)] = row_bounds
        steps[i, : len(row_steps)] = row_steps
    return bounds, steps


def _advance(
    bounds: np.ndarray, steps: np.ndarray, i0: int, caps: SimCaps, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the trajectories with these keys to their ends, all together.

    Returns each trajectory's result code (an index into ``_RESULTS``), jump
    count and peak population.
    """
    import numpy as np

    gamma = np.uint64(_GAMMA)
    count = len(keys)
    m = len(bounds) - 1
    # A tail jump is the first increment plus, for each bound below its draw,
    # the rise to the next one: the same increment as the table lookup.
    first_step = int(steps[m, 0])
    tail_rises = [(b, r) for b, r in zip(bounds[m], np.diff(steps[m])) if b < _MASK64]
    max_pop = min(caps.max_pop, _CAP_LIMIT)
    max_jumps = min(caps.max_jumps, _CAP_LIMIT)
    # Read as unsigned, state - 1 < max_pop iff 1 <= state <= max_pop, and
    # state - (m + 1) <= span iff state lies in the tail (m, max_pop].
    pop = np.uint64(max_pop)
    span = np.uint64(max_pop - m - 1) if max_pop > m else None

    result = np.empty(count, dtype=np.int8)
    jumps_at_end = np.empty(count, dtype=np.int64)
    peak_at_end = np.empty(count, dtype=np.int64)

    # Block buffers, reused by every step; a step of L rows and width w uses
    # their first L·w entries, as a (w, L) array with one column per row
    # (of below, one more row).
    size = min(max(count, _BLOCK_ENTRIES), count * _MAX_BLOCK)
    draws = np.empty(size, dtype=np.uint64)
    scratch = np.empty(size, dtype=np.uint64)
    below = np.empty(size + count, dtype=bool)
    path = np.empty(size, dtype=np.int64)
    lags = np.arange(_MAX_BLOCK)
    counters = (lags + 1).astype(np.uint64) * gamma
    columns = np.arange(count)

    ids = np.arange(count)
    state = np.full(count, min(i0, max_pop + 1), dtype=np.int64)
    jumps = np.zeros(count, dtype=np.int64)
    peak = state.copy()
    width = np.full(count, _FIRST_BLOCK, dtype=np.int64)
    while True:
        live = ((state - 1).view(np.uint64) < pop) & (jumps < max_jumps)
        alive = int(np.count_nonzero(live))
        if 2 * alive <= len(ids):
            # At least half the rows have ended (they stay frozen until
            # then): record them and drop them.  Result codes index
            # _RESULTS, checked in its order.
            ended = ~live
            last = state[ended]
            where = ids[ended]
            result[where] = np.where(last == 0, 0, np.where(last > max_pop, 1, 2))
            jumps_at_end[where] = jumps[ended]
            peak_at_end[where] = peak[ended]
            if not alive:
                return result, jumps_at_end, peak_at_end
            ids, keys, state, jumps, peak, width = (
                a[live] for a in (ids, keys, state, jumps, peak, width)
            )
            live = np.ones(alive, dtype=bool)

        head = (live & (state <= m)).nonzero()[0]
        if head.size:
            s = state[head]
            row = s - 1
            after = jumps[head] + 1
            z = keys[head] + after.view(np.uint64) * gamma
            _splitmix64(z, np.empty_like(z))
            picked = (z[:, None] > bounds[row]).sum(axis=1)
            s += steps[row, picked]
            state[head] = s
            jumps[head] = after
            peak[head] = np.maximum(peak[head], s)
            width[head] = _FIRST_BLOCK

        if span is None:
            continue
        # Ended rows fail this test too: their state is 0 or above max_pop,
        # or they have no jumps to spare.
        in_tail = ((state - (m + 1)).view(np.uint64) <= span) & (jumps < max_jumps)
        tail = in_tail.nonzero()[0]
        if not tail.size:
            continue
        n_rows = tail.size
        widths = width[tail]
        w = min(int(widths.sum()) // n_rows, _MAX_BLOCK, max(1, _BLOCK_ENTRIES // n_rows))
        entries = n_rows * w
        z = draws[:entries].reshape(w, n_rows)
        tail_jumps = jumps[tail]
        np.add(counters[:w, None], keys[tail] + tail_jumps.view(np.uint64) * gamma, out=z)
        spare = scratch[:entries].reshape(w, n_rows)
        _splitmix64(z, spare)
        hit = below[: entries + n_rows].reshape(w + 1, n_rows)
        above = hit[:w]
        walk = path[:entries].reshape(w, n_rows)
        walk.fill(first_step)
        rise = spare.view(np.int64)
        for bound, up in tail_rises:
            np.greater(z, bound, out=above)
            np.multiply(above, up, out=rise)
            walk += rise
        # Walk relative to m + 1: a step is inside (m, max_pop] iff its
        # value, read as unsigned, is at most span.
        walk[0] += state[tail] - (m + 1)
        np.cumsum(walk, axis=0, out=walk)
        unsigned = walk.view(np.uint64)
        high = unsigned.max(axis=0)
        taken = np.minimum(max_jumps - tail_jumps, w)
        if (high > span).any() or (taken < w).any():
            # Some rows stop inside the block: at their first step out of
            # (m, max_pop] or at the last step of their jump budget.  The
            # last row of hit is all True, so a row that stays inside finds
            # its first exit past the block.
            np.greater(unsigned, span, out=above)
            hit[w] = True
            np.minimum(taken, hit.argmax(axis=0) + 1, out=taken)
            # The peak over the steps taken: later steps count as 0, the
            # block's start, which the peak already covers.
            np.less(lags[:w, None], taken, out=above)
            np.multiply(walk, above, out=walk)
            high = walk.max(axis=0)
        state[tail] = walk[taken - 1, columns[:n_rows]] + (m + 1)
        jumps[tail] = tail_jumps + taken
        peak[tail] = np.maximum(peak[tail], high.view(np.int64) + (m + 1))
        width[tail] = np.where(taken == w, np.minimum(widths * _BLOCK_GROWTH, _MAX_BLOCK), widths)


def _outcomes(
    model: CbpModel, f: Policy, i0: int, caps: SimCaps, master_seed, first: int, count: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Check the inputs, then iterate over ``_advance``'s arrays for
    trajectories first .. first + count - 1, one cohort at a time."""
    master_seed = _checked_index(master_seed, "master seed")
    validate_policy(model, f)
    i0 = population_state(i0)
    bounds, steps = _tables(model, f)
    return (
        _advance(bounds, steps, i0, caps, _keys(master_seed, t, min(_COHORT, first + count - t)))
        for t in range(first, first + count, _COHORT)
    )


def simulate_trajectory(
    model: CbpModel, f: Policy, i0: int, caps: SimCaps, master_seed: int, t: int = 0
) -> SimOutcome:
    """Trajectory t of the estimates under ``master_seed``, run alone.

    The outcome is exactly the one trajectory t has inside
    :func:`estimate_ep`, whatever n is.  Checks run in the order extinct,
    population cap, jump cap, so reaching zero exactly at the jump budget
    still counts as extinct.
    """
    t = _checked_index(t, "trajectory index")
    ((result, jumps, peak),) = _outcomes(model, f, i0, caps, master_seed, t, 1)
    # max with i0: a start past the population cap is clamped in the engine.
    peak = max(operator.index(i0), int(peak[0]))
    return SimOutcome(result=_RESULTS[result[0]], jumps=int(jumps[0]), peak_population=peak)


def wilson_interval(successes: int, n: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    The degenerate endpoints are exact: zero successes give a lower limit of
    0 and all successes an upper limit of 1.  Both counts must be integers,
    not bools, with n at least 1 and successes in [0, n].
    """
    successes, n = _integer(successes, "successes"), _integer(n, "the trial count n")
    if n < 1:
        raise ValueError(f"the trial count n must be at least 1, got {n}")
    if not 0 <= successes <= n:
        raise ValueError(f"successes must lie in [0, n] = [0, {n}], got {successes}")
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == n else min(1.0, center + half)
    return low, high


def estimate_ep(
    model: CbpModel,
    f: Policy,
    i0: int,
    n: int,
    caps: SimCaps,
    master_seed: int,
) -> EpEstimate:
    """Extinction probability estimate from trajectories 0 .. n - 1.

    The count is exactly that of ``simulate_trajectory(..., master_seed, t)``
    over t < n.
    """
    n = _integer(n, "the trajectory count n")
    if n < 1:
        raise ValueError("need at least one trajectory")
    extinct = sum(
        int((result == _RESULTS.index(EXTINCT)).sum())
        for result, _, _ in _outcomes(model, f, i0, caps, master_seed, 0, n)
    )
    low, high = wilson_interval(extinct, n)
    return EpEstimate(p_hat=extinct / n, ci_low=low, ci_high=high, n=n, censored=n - extinct)
