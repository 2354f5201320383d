"""The discounted tail weight, the compiled one-jump operator and its loop.

A branching jump from population i lands on i - 1 + k with probability
b_k / |b1|, independent of i after the shift; the self-transition is zero by
convention.  The tail weight folds the geometric continuation of values above
the head threshold back into the head system, closing it at finite size.
:class:`JumpRows` holds one compiled row per (state, action) and is the one
operator that policy evaluation, improvement and the optimality-equation
certificate go through; :func:`policy_iteration` is the one loop over them,
for branching and general models alike.

Those three are written once, over plain lists; a backend keeps only the
data layout and the defect of a solved system, which numpy finds in one
pass.  :class:`ListRows` keeps each row as a Python list, and
:class:`ArrayRows` the entries in numpy arrays.  General models always
compile to ``ListRows``; only a large branching head
(``solver.ARRAY_HEAD_ROWS`` rows or more) is built as ``ArrayRows``.  Both
backends sum each row in stored order, run the same elimination and give the
same bits.
"""

from __future__ import annotations

import operator
from itertools import compress, count
from typing import Sequence

from .linsys import solve_banded
from .model import BranchingMechanism


class JumpRows:
    """One-jump operator over n states, one row per (state, action).

    Rows are grouped by state, actions in sorted order; ``state_ptr[s]`` is
    the first row of state s.  A value vector x is the list of the n state
    values and then the target's value 1, so column n carries each row's
    target mass.  Each row adds ``weight * x[col]`` over its entries, summed
    in stored order.  A policy over the leading states is the list
    ``chosen`` of the row each one plays.

    Evaluation and improvement are written here once, and the
    optimality-equation certificate is :func:`oe_defect` of the least values
    that ``least(candidates(held))`` gives.  A backend supplies only its data
    layout:

    - ``candidates(x)``: every row's value at value vector x, in the form
      ``least`` reads;
    - ``least(cand)``: lists of each state's least row value and of the
      first (smallest-id) row attaining it;
    - ``_triplets(chosen)``: ``(row, col, weight, c)`` of the policy's
      system over the leading ``len(chosen)`` states, state s playing row
      ``chosen[s]``: U's entries, dropping those into later states, and the
      target masses c;
    - ``defect(x, held, chosen)``: sup over s of |x[s] - the value of row
      ``chosen[s]`` at ``held``|, 0.0 for no states; the sup-norm defect of
      a solved policy system.
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

    def value_vector(self, values) -> list[float]:
        """``values`` at the leading states, then zeros, then the target's 1."""
        return [*values, *[0.0] * (self.n - len(values)), 1.0]

    def evaluate(self, chosen: list[int], residual: bool = True) -> tuple[list, float | None]:
        """Values of the policy playing ``chosen`` at the leading states,
        later states held at zero, clipped to [0, 1]; and, if asked, the
        sup-norm defect of its linear system before clipping."""
        x = solve_banded(len(chosen), *self._triplets(chosen))
        # -0.0 is not below 0.0, so it stays -0.0, as under np.clip
        head = [0.0 if v < 0.0 else 1.0 if v > 1.0 else v for v in x]
        if not residual:
            return head, None
        return head, self.defect(x, self.value_vector(x), chosen)

    def improve(
        self, chosen: list[int], values, held: list[float]
    ) -> tuple[list[int], list[int], list[float]]:
        """``chosen`` with each leading state s < len(values) moved to its
        first best row at ``held`` where that is strictly below values[s];
        the states that moved; and each state's least one-jump value at
        ``held``, from which :func:`oe_defect` certifies the last sweep."""
        best, first = self.least(self.candidates(held))
        better = compress(count(), map(operator.lt, best, values))
        changed = [s for s in better if first[s] != chosen[s]]
        improved = list(chosen)
        for s in changed:
            improved[s] = first[s]
        return improved, changed, best


def policy_iteration(rows: JumpRows, chosen: list[int], evaluate):
    """The one evaluate/improve loop, behind ``solve`` and ``value_iterate``.

    ``evaluate(chosen)`` returns a record of the policy playing rows
    ``chosen``, the values of the leading states open to improvement and the
    value vector ``held``.  Each such state moves to its smallest-id best row
    at ``held`` only if that is strictly below its value.  Values never rise
    in exact arithmetic, so no policy comes twice there; a sweep that would
    bring one back differs from the current policy by rounding alone, and the
    loop stops at the current one.  Every other sweep adds a policy to
    ``seen``, so the loop ends.  Yields ``(record, improved rows, changed
    states, least one-jump values at held)`` per sweep.  Only the last
    sweep's least values certify the final policy, so every earlier sweep
    yields None in their place, and its vectors are dropped before the next
    evaluation.
    """
    seen = set()
    while True:
        seen.add(tuple(chosen))
        record, values, held = evaluate(chosen)
        improved, changed, best = rows.improve(chosen, values, held)
        if changed and tuple(improved) in seen:
            improved, changed = chosen, []
        if not changed:
            yield record, improved, changed, best
            return
        del values, held, best
        yield record, improved, changed, None
        chosen = improved


def oe_defect(values, best: list[float], zero_from: int) -> float:
    """sup over s of |values[s] - best[s]|, ``best`` taken as 0 from state
    ``zero_from`` on: the optimality-equation residual at ``values`` when
    ``best`` holds each state's least one-jump value there."""
    best = best[:zero_from] + [0.0] * (len(best) - zero_from)
    return max(map(abs, map(operator.sub, values, best)), default=0.0)


class ListRows(JumpRows):
    """:class:`JumpRows` in plain Python: ``entries[r]`` lists row r's
    ``(col, weight)`` pairs in summation order."""

    def __init__(self, actions, state_ptr, entries: list[list[tuple[int, float]]]):
        super().__init__(actions, state_ptr)
        self.entries = entries
        self._bounds = list(zip(state_ptr, [*state_ptr[1:], len(actions)]))

    def candidates(self, x) -> list[float]:
        out = []
        for row in self.entries:
            total = 0.0
            for col, weight in row:
                total += weight * x[col]
            out.append(total)
        return out

    def least(self, cand):
        best, first = [], []
        for lo, hi in self._bounds:
            low, at = cand[lo], lo
            for r in range(lo + 1, hi):
                if cand[r] < low:  # strictly, so a tie keeps the smaller id
                    low, at = cand[r], r
            best.append(low)
            first.append(at)
        return best, first

    def defect(self, x, held, chosen) -> float:
        again = list(map(self.candidates(held).__getitem__, chosen))
        return max(map(abs, map(operator.sub, x, again)), default=0.0)

    def _triplets(self, chosen):
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


class ArrayRows(JumpRows):
    """:class:`JumpRows` on numpy arrays: entry e adds ``ent_weight[e] *
    x[ent_col[e]]`` to row ``ent_row[e]``.  Row values stay an array
    between :meth:`candidates` and :meth:`least`."""

    def __init__(self, actions, state_ptr, ent_row, ent_col, ent_weight):
        import numpy as np

        super().__init__(actions, state_ptr)
        self._ptr = np.asarray(state_ptr, dtype=np.int64)
        # Row ids of each state, padded with the id of an extra +inf value.
        n_rows = len(actions)
        counts = np.diff(self._ptr, append=n_rows)
        slot = np.arange(counts.max(initial=1))
        self._pad = np.where(slot < counts[:, None], self._ptr[:, None] + slot, n_rows)
        self.ent_row = ent_row
        self.ent_col = ent_col
        self.ent_weight = ent_weight

    def candidates(self, x):
        import numpy as np

        # fromiter reads a list about twice as fast as asarray
        flow = self.ent_weight * np.fromiter(x, float, len(x))[self.ent_col]
        # bincount of no entries at all comes back as integers
        return np.bincount(self.ent_row, flow, len(self.actions)).astype(float, copy=False)

    def least(self, cand):
        import numpy as np

        # argmin takes the first of equal values
        first = self._ptr + np.append(cand, np.inf)[self._pad].argmin(axis=1)
        return cand[first].tolist(), first.tolist()

    def defect(self, x, held, chosen) -> float:
        import numpy as np

        # a NaN anywhere gives a NaN defect, where max() over a list may skip it
        again = self.candidates(held)[np.fromiter(chosen, np.intp, len(chosen))]
        return float(np.abs(np.fromiter(x, float, len(x)) - again).max(initial=0.0))

    def _triplets(self, chosen):
        import numpy as np

        k = len(chosen)
        slot = np.full(len(self.actions), -1)
        slot[np.fromiter(chosen, np.intp, k)] = np.arange(k)
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
