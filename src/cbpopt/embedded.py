"""The discounted tail weight and the compiled one-jump operator.

A branching jump from population i lands on i - 1 + k with probability
b_k / |b1|, independent of i after the shift; the self-transition is zero by
convention.  The tail weight folds the geometric continuation of values above
the head threshold back into the head system, closing it at finite size.
:class:`JumpRows` holds one compiled row per (state, action) and is the one
operator that policy evaluation, improvement and the optimality-equation
certificate go through, for branching and general models alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .model import BranchingMechanism


@dataclass(frozen=True, eq=False)
class JumpRows:
    """One-jump operator over n states, one row per (state, action).

    Rows are grouped by state, actions in sorted order; ``state_ptr[s]`` is
    the first row of state s.  A value vector x holds the n state values and
    then the target's value 1, so column n carries each row's target mass.
    Entry e adds ``ent_weight[e] * x[ent_col[e]]`` to row ``ent_row[e]``,
    summed in stored order.
    """

    actions: tuple[str, ...]
    state_ptr: np.ndarray
    ent_row: np.ndarray
    ent_col: np.ndarray
    ent_weight: np.ndarray

    @property
    def n(self) -> int:
        return len(self.state_ptr)

    def candidates(self, x: np.ndarray) -> np.ndarray:
        """One-jump value of every row at value vector x."""
        flow = self.ent_weight * x[self.ent_col]
        # bincount of no entries at all comes back as integers
        return np.bincount(self.ent_row, flow, len(self.actions)).astype(float, copy=False)

    def argmin(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-state minimum at x and the first (smallest-id) row attaining it."""
        return self.least(self.candidates(x))

    def least(self, cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-state minimum of the row values ``cand`` and the first
        (smallest-id) row attaining it."""
        best = np.minimum.reduceat(cand, self.state_ptr)
        n_rows = len(self.actions)
        counts = np.diff(self.state_ptr, append=n_rows)
        hit = cand == np.repeat(best, counts)
        first = np.minimum.reduceat(np.where(hit, np.arange(n_rows), n_rows), self.state_ptr)
        return best, first

    @cached_property
    def _action_codes(self) -> tuple[dict, np.ndarray]:
        """Integer code of each action id, and the code of every row."""
        code = {a: k for k, a in enumerate(dict.fromkeys(self.actions))}
        return code, np.fromiter(map(code.__getitem__, self.actions), np.int64, len(self.actions))

    def rows_playing(self, choice: Sequence[str]) -> np.ndarray:
        """Row of each leading state s playing ``choice[s]``, which must be
        one of its actions."""
        code, row_code = self._action_codes
        k = len(choice)
        counts = np.diff(self.state_ptr, append=len(self.actions))[:k]
        picked = np.repeat(np.fromiter(map(code.__getitem__, choice), np.int64, k), counts)
        return np.flatnonzero(row_code[: len(picked)] == picked)

    def played(self, chosen: np.ndarray) -> tuple[str, ...]:
        """The action of each row in ``chosen``."""
        return tuple(map(self.actions.__getitem__, chosen.tolist()))

    def triplets(self, chosen: np.ndarray) -> tuple[np.ndarray, ...]:
        """``(row, col, weight, c)`` over the leading ``len(chosen)`` states,
        state s playing row ``chosen[s]``: U's entries as triplets and the
        target masses c; entries into later states are dropped."""
        k = len(chosen)
        slot = np.full(len(self.actions), -1)
        slot[chosen] = np.arange(k)
        at = slot[self.ent_row]
        keep = at >= 0
        at, col, weight = at[keep], self.ent_col[keep], self.ent_weight[keep]
        c = np.zeros(k)
        target = col == self.n
        c[at[target]] = weight[target]
        inside = col < k
        return at[inside], col[inside], weight[inside], c


def tail_weight(mech: BranchingMechanism, i: int, m: int, rho_star: float) -> float:
    """sum over j >= m of p(j|i) * rho_star**(j - m).

    The j = m term carries weight one even at rho_star = 0; the self
    transition (j = i) never appears because k = 1 is not in the support.
    Terms are accumulated in ascending j with Kahan compensation.
    """
    scale = mech.abs_b1
    total = 0.0
    comp = 0.0
    for k, rate in mech.support.items():  # stored in ascending k, hence ascending j
        j = i - 1 + k
        if j < m:
            continue
        term = (rate / scale) * rho_star ** (j - m)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total
