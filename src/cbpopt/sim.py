"""Seeded Monte Carlo over the embedded jump chain.

Extinction in finite time happens exactly when the jump chain reaches zero,
so holding times are never drawn.  Above the head threshold the policy plays
one fixed action, which makes the walk an i.i.d.-increment random walk there;
those stretches are sampled in blocks that grow while an excursion lasts.
Draw consumption depends only on the path itself, never on the caps (full
blocks are always consumed and the cap comparison happens afterwards), so on
a fixed seed a trajectory under looser caps extends the one under tighter
caps instead of resampling it.

Trajectory t of an estimate runs on its own generator, with state derived
from (master_seed, t) by a fixed 64-bit mixing function: counter-based
seeding, so each trajectory is reproducible on its own, whatever order the
trajectories run in.  The same generator is available from
:func:`trajectory_rng`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .model import BranchingMechanism, CbpModel
from .solver import Policy, validate_policy

EXTINCT = "extinct"
CENSORED_POPULATION = "censored_population"
CENSORED_JUMPS = "censored_jumps"

_FIRST_BLOCK = 64
_BLOCK_GROWTH = 4
_MAX_BLOCK = 1024
_Z95 = 1.959963984540054

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SimCaps:
    """Trajectory caps: at most ``max_jumps`` jumps, population at most ``max_pop``."""

    max_jumps: int
    max_pop: int


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


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _derived_state(master_seed: int, t: int) -> dict:
    """PCG64 state for trajectory t under a master seed in [0, 2**64), where
    the derivation is one-to-one: one seed, one stream."""
    if not 0 <= master_seed <= _MASK64:
        raise ValueError(f"master seed must lie in [0, 2**64), got {master_seed}")
    base = _splitmix64(master_seed)
    w0 = _splitmix64(base ^ ((2 * t) & _MASK64))
    w1 = _splitmix64(base ^ ((2 * t + 1) & _MASK64))
    w2 = _splitmix64(w0 ^ w1 ^ 0xA5A5A5A5A5A5A5A5)
    w3 = _splitmix64(w2)
    return {
        "bit_generator": "PCG64",
        "state": {"state": (w0 << 64) | w1, "inc": ((w2 << 64) | w3) | 1},
        "has_uint32": 0,
        "uinteger": 0,
    }


def trajectory_rng(master_seed: int, t: int) -> np.random.Generator:
    """The generator that trajectory t of an estimate runs on."""
    bit_gen = np.random.PCG64(0)
    bit_gen.state = _derived_state(master_seed, t)
    return np.random.Generator(bit_gen)


class _Sampler:
    """Inverse-CDF tables for one action's jump increments."""

    __slots__ = ("increments", "cum", "increment_list", "cum_list", "pair")

    def __init__(self, mech: BranchingMechanism):
        pmf = mech.offspring_pmf()
        ks = sorted(pmf)
        self.increments = np.asarray(ks, dtype=np.int64) - 1
        cum = np.cumsum(np.asarray([pmf[k] for k in ks], dtype=float))
        cum[-1] = 1.0
        self.cum = cum
        self.increment_list = [k - 1 for k in ks]
        self.cum_list = cum.tolist()
        # Two-atom supports are the common case; sample them by one compare.
        self.pair = (cum[0], ks[0] - 1, ks[1] - 1) if len(ks) == 2 else None

    def block(self, u: np.ndarray) -> np.ndarray:
        if self.pair is not None:
            split, low, high = self.pair
            return np.where(u < split, low, high)
        return self.increments[self.cum.searchsorted(u, side="right")]


def _samplers(model: CbpModel, f: Policy) -> dict[str, _Sampler]:
    return {a: _Sampler(model.mechanism(a)) for a in set(f.head) | {f.tail}}


def _run(samplers, m, f, i0, caps, rng) -> SimOutcome:
    state = i0
    jumps = 0
    peak = i0
    block = _FIRST_BLOCK
    max_jumps = caps.max_jumps
    max_pop = caps.max_pop
    while True:
        if state == 0:
            return SimOutcome(result=EXTINCT, jumps=jumps, peak_population=peak)
        if state > max_pop:
            return SimOutcome(result=CENSORED_POPULATION, jumps=jumps, peak_population=peak)
        if jumps >= max_jumps:
            return SimOutcome(result=CENSORED_JUMPS, jumps=jumps, peak_population=peak)
        if state <= m:
            block = _FIRST_BLOCK
            sampler = samplers[f.head[state - 1]]
            state += sampler.increment_list[bisect_right(sampler.cum_list, rng.random())]
            jumps += 1
            if state > peak:
                peak = state
        else:
            sampler = samplers[f.tail]
            path = state + sampler.block(rng.random(block)).cumsum()
            budget = max_jumps - jumps
            view = path if budget >= block else path[:budget]
            vmin = int(view.min())
            vmax = int(view.max())
            if vmin > m and vmax <= max_pop:
                take = len(view)
                state = int(view[-1])
            else:
                stop = (view <= m) | (view > max_pop)
                take = int(stop.argmax()) + 1
                vmax = int(path[:take].max())
                state = int(path[take - 1])
            if vmax > peak:
                peak = vmax
            jumps += take
            if block < _MAX_BLOCK:
                block *= _BLOCK_GROWTH


def simulate_trajectory(
    model: CbpModel, f: Policy, i0: int, caps: SimCaps, seed
) -> SimOutcome:
    """One trajectory of the embedded chain; deterministic given the seed.

    ``seed`` is anything ``numpy.random.default_rng`` accepts, including a
    ready generator such as :func:`trajectory_rng` returns.  Checks run in the
    order extinct, population cap, jump cap, so reaching zero exactly at the
    jump budget still counts as extinct.
    """
    validate_policy(model, f)
    if i0 < 1:
        raise ValueError("the start state must be at least 1")
    return _run(_samplers(model, f), model.m, f, i0, caps, np.random.default_rng(seed))


def wilson_interval(successes: int, n: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    The degenerate endpoints are exact: zero successes give a lower limit of
    0 and all successes an upper limit of 1.
    """
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
    """Extinction probability estimate from n independent trajectories.

    Trajectory t runs on ``trajectory_rng(master_seed, t)``; one generator is
    reseeded per trajectory, so the result does not depend on execution order.
    """
    if n < 1:
        raise ValueError("need at least one trajectory")
    validate_policy(model, f)
    if i0 < 1:
        raise ValueError("the start state must be at least 1")
    samplers = _samplers(model, f)
    bit_gen = np.random.PCG64(0)
    rng = np.random.Generator(bit_gen)
    extinct = 0
    for t in range(n):
        bit_gen.state = _derived_state(master_seed, t)
        if _run(samplers, model.m, f, i0, caps, rng).result == EXTINCT:
            extinct += 1
    censored = n - extinct
    low, high = wilson_interval(extinct, n)
    return EpEstimate(p_hat=extinct / n, ci_low=low, ci_high=high, n=n, censored=censored)
