"""The discounted tail weight and the compiled one-jump operator.

A branching jump from population i lands on i - 1 + k with probability
b_k / |b1|, independent of i after the shift; the self-transition is zero by
convention.  The tail weight folds the geometric continuation of values above
the head threshold back into the head system, closing it at finite size.
:class:`JumpRows` holds one compiled row per (state, action) and is the one
operator that policy evaluation, improvement and the optimality-equation
certificate go through, for branching and general models alike.

The operator has two backends behind one set of methods.  :class:`ListRows`
keeps each row as a Python list and works in plain Python; :class:`ArrayRows`
keeps the entries in numpy arrays.  An operator with fewer than
``LIST_ENTRIES`` entries is compiled to ``ListRows``, so small models never
import numpy.  Both backends sum each row in stored order, run the same
elimination and give the same bits.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

from .linsys import solve_banded
from .model import BranchingMechanism

# Operators with fewer entries than this are compiled to ListRows, larger
# ones to ArrayRows: the in-process crossover of the two backends (CHANGES.md).
LIST_ENTRIES = 400


class JumpRows:
    """One-jump operator over n states, one row per (state, action).

    Rows are grouped by state, actions in sorted order; ``state_ptr[s]`` is
    the first row of state s.  A value vector x holds the n state values and
    then the target's value 1, so column n carries each row's target mass.
    Each row adds ``weight * x[col]`` over its entries, summed in stored
    order.  A policy over the leading states is the list ``chosen`` of the
    row each one plays.  Value vectors are lists in :class:`ListRows` and
    numpy arrays in :class:`ArrayRows`; :meth:`vector` makes one.
    """

    def __init__(self, actions: tuple[str, ...], state_ptr: list[int]):
        self.actions = actions
        self.state_ptr = state_ptr

    @property
    def n(self) -> int:
        return len(self.state_ptr)

    def rows_playing(self, choice: Sequence[str]) -> list[int]:
        """Row of each leading state s playing ``choice[s]``, which must be
        one of its actions."""
        return list(map(self.actions.index, choice, self.state_ptr))

    def played(self, chosen: Sequence[int]) -> tuple[str, ...]:
        """The action of each row in ``chosen``."""
        return tuple(map(self.actions.__getitem__, chosen))


class ListRows(JumpRows):
    """:class:`JumpRows` in plain Python: ``entries[r]`` lists row r's
    ``(col, weight)`` pairs in summation order."""

    def __init__(self, actions, state_ptr, entries: list[list[tuple[int, float]]]):
        super().__init__(actions, state_ptr)
        self.entries = entries
        ends = [*state_ptr[1:], len(actions)]
        self._spans = list(map(slice, state_ptr, ends))
        # Only a state with two rows or more can change its row.
        self._choices = [(s, lo, hi) for s, (lo, hi) in enumerate(zip(state_ptr, ends)) if hi - lo > 1]

    @staticmethod
    def vector(values) -> list[float]:
        return list(values)

    def candidates(self, x) -> list[float]:
        """One-jump value of every row at value vector x."""
        return self._values(self.entries, x)

    @staticmethod
    def _values(rows, x) -> list[float]:
        """One-jump value of each of ``rows`` at value vector x."""
        out = []
        for row in rows:
            total = 0.0
            for col, weight in row:
                total += weight * x[col]
            out.append(total)
        return out

    def least(self, cand) -> tuple[list[float], list[int]]:
        """Per-state minimum of the row values ``cand`` and the first
        (smallest-id) row attaining it."""
        best = list(map(min, map(cand.__getitem__, self._spans)))
        return best, list(map(cand.index, best, self.state_ptr))

    def _triplets(self, chosen) -> tuple[list, ...]:
        """``(row, col, weight, c)`` of the system of the leading
        ``len(chosen)`` states, as in :meth:`ArrayRows._triplets`."""
        k, target = len(chosen), self.n
        row, col, weight = [], [], []
        add_row, add_col, add_weight = row.append, col.append, weight.append
        c = [0.0] * k
        for s, r in enumerate(chosen):
            for j, w in self.entries[r]:
                if j < k:
                    add_row(s)
                    add_col(j)
                    add_weight(w)
                elif j == target:
                    c[s] = w
        return row, col, weight, c

    def evaluate(self, chosen, residual: bool = True) -> tuple[list[float], float | None]:
        """Values of the policy playing ``chosen`` at the leading states,
        later states held at zero, clipped to [0, 1]; and, if asked, the
        sup-norm defect of its linear system before clipping."""
        k = len(chosen)
        x = solve_banded(k, *self._triplets(chosen))
        # np.clip's comparisons, which keep -0.0
        head = [0.0 if v < 0.0 else 1.0 if v > 1.0 else v for v in x]
        if not residual:
            return head, None
        held = x + [0.0] * (self.n - k)
        held.append(1.0)
        again = self._values(map(self.entries.__getitem__, chosen), held)
        return head, max(map(abs, map(operator.sub, x, again)), default=0.0)

    def improve(self, chosen, values, held) -> tuple[list[int], list[int]]:
        """``chosen`` with each leading state s < len(values) moved to its
        first best row at ``held`` where that is strictly below values[s];
        and the states that moved."""
        improved = list(chosen)
        changed = []
        entries = self.entries
        for s, lo, hi in self._choices:
            if s >= len(values):
                break
            best = math.inf
            for r in range(lo, hi):
                total = 0.0
                for col, weight in entries[r]:
                    total += weight * held[col]
                if total < best:
                    best, first = total, r
            if best < values[s] and first != chosen[s]:
                improved[s] = first
                changed.append(s)
        return improved, changed

    def oe_residual(self, values, held, zero_from: int) -> float:
        """sup over s of |values[s] - least one-jump value at ``held``|, the
        least value taken as 0 from state ``zero_from`` on."""
        best = self.least(self.candidates(held))[0]
        best[zero_from:] = [0.0] * len(best[zero_from:])
        return max(map(abs, map(operator.sub, values, best)), default=0.0)


class ArrayRows(JumpRows):
    """:class:`JumpRows` on numpy arrays: entry e adds ``ent_weight[e] *
    x[ent_col[e]]`` to row ``ent_row[e]``."""

    def __init__(self, actions, state_ptr, ent_row, ent_col, ent_weight):
        import numpy as np

        super().__init__(actions, state_ptr)
        self._ptr = np.asarray(state_ptr, dtype=np.int64)
        self.ent_row = ent_row
        self.ent_col = ent_col
        self.ent_weight = ent_weight

    @classmethod
    def from_entries(cls, actions, state_ptr, entries) -> ArrayRows:
        """The rows of :class:`ListRows` ``entries`` as arrays."""
        import numpy as np

        return cls(
            actions,
            state_ptr,
            np.array([r for r, row in enumerate(entries) for _ in row], dtype=np.int64),
            np.array([j for row in entries for j, _ in row], dtype=np.int64),
            np.array([w for row in entries for _, w in row], dtype=float),
        )

    @staticmethod
    def vector(values):
        import numpy as np

        return np.array(values, dtype=float)

    def candidates(self, x):
        """One-jump value of every row at value vector x."""
        import numpy as np

        flow = self.ent_weight * x[self.ent_col]
        # bincount of no entries at all comes back as integers
        return np.bincount(self.ent_row, flow, len(self.actions)).astype(float, copy=False)

    def least(self, cand):
        """Per-state minimum of the row values ``cand`` and the first
        (smallest-id) row attaining it."""
        import numpy as np

        best = np.minimum.reduceat(cand, self._ptr)
        n_rows = len(self.actions)
        counts = np.diff(self._ptr, append=n_rows)
        hit = cand == np.repeat(best, counts)
        first = np.minimum.reduceat(np.where(hit, np.arange(n_rows), n_rows), self._ptr)
        return best, first

    def _triplets(self, chosen) -> tuple:
        """``(row, col, weight, c)`` over the leading ``len(chosen)`` states,
        state s playing row ``chosen[s]``: U's entries as triplets and the
        target masses c; entries into later states are dropped."""
        import numpy as np

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

    def evaluate(self, chosen, residual: bool = True):
        """As :meth:`ListRows.evaluate`."""
        import numpy as np

        k = len(chosen)
        x = np.array(solve_banded(k, *self._triplets(chosen)), dtype=float)
        head = np.clip(x, 0.0, 1.0).tolist()
        if not residual:
            return head, None
        held = np.zeros(self.n + 1)
        held[:k] = x
        held[-1] = 1.0
        defect = float(np.abs(x - self.candidates(held)[chosen]).max()) if k else 0.0
        return head, defect

    def improve(self, chosen, values, held):
        """As :meth:`ListRows.improve`."""
        import numpy as np

        best, first = self.least(self.candidates(held))
        better = np.flatnonzero(best[: len(values)] < values)
        improved = list(chosen)
        changed = []
        for s, r in zip(better.tolist(), first[better].tolist()):
            if r != improved[s]:
                improved[s] = r
                changed.append(s)
        return improved, changed

    def oe_residual(self, values, held, zero_from: int) -> float:
        """As :meth:`ListRows.oe_residual`."""
        best = self.least(self.candidates(held))[0]
        best[zero_from:] = 0.0
        return float(abs(values - best).max(initial=0.0))


def compile_rows(actions, state_ptr, entries) -> JumpRows:
    """:class:`ListRows` of ``entries``, or their :class:`ArrayRows` once
    they number ``LIST_ENTRIES`` or more."""
    if sum(map(len, entries)) < LIST_ENTRIES:
        return ListRows(actions, state_ptr, entries)
    return ArrayRows.from_entries(actions, state_ptr, entries)


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
