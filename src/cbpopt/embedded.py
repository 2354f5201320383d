"""The one-jump operators of both model kinds and the one loop over them.

Every operator holds one row per (state, action) and improves by one rule,
:meth:`ActionRows.improve`; :func:`policy_iteration` is the one loop, for
branching and general models alike.  :class:`JumpRows` evaluates a general
model's policy by one banded solve, :class:`Passage` a branching head's by
one backward pass in passage probabilities, with no linear system (the
scalar first-passage decomposition of skip-free chains: Latouche &
Ramaswami, *Introduction to Matrix Analytic Methods in Stochastic
Modeling*, SIAM 1999; subtraction-free as in Grassmann, Taksar & Heyman).
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate, chain, compress, count
from typing import Sequence

from .linsys import solve_banded
from .model import CbpModel


class ActionRows:
    """Rows grouped by state, actions in sorted order; ``state_ptr[s]`` is
    the first row of state s.  A policy over the leading states is the list
    ``chosen`` of the row each one plays.

    An operator supplies ``candidates(held)``, every row's value at the
    vector ``held``; each state's least value there and the first
    (smallest-id) row attaining it decide improvement.
    """

    def __init__(self, actions: tuple[str, ...], state_ptr: list[int]):
        self.actions = actions
        self.state_ptr = state_ptr
        self._bounds = list(zip(state_ptr, [*state_ptr[1:], len(actions)]))

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

    def least(self, cand) -> tuple[list[float], list[int]]:
        """Lists of each state's least row value in ``cand`` and of the
        first row attaining it."""
        best, first = [], []
        for lo, hi in self._bounds:
            low, at = cand[lo], lo
            for r in range(lo + 1, hi):
                if cand[r] < low:  # strictly, so a tie keeps the smaller id
                    low, at = cand[r], r
            best.append(low)
            first.append(at)
        return best, first

    def improve(self, chosen: list[int], values, held) -> tuple[list[int], list[int], list[float]]:
        """``chosen`` with each leading state s < len(values) moved to its
        first best row at ``held`` where that is strictly below values[s];
        the states that moved; and each state's least row value at
        ``held``."""
        best, first = self.least(self.candidates(held))
        better = compress(count(), map(operator.lt, best, values))
        changed = [s for s in better if first[s] != chosen[s]]
        improved = list(chosen)
        for s in changed:
            improved[s] = first[s]
        return improved, changed, best


def policy_iteration(rows: ActionRows, chosen: list[int], evaluate):
    """The one evaluate/improve loop, behind ``solve`` and ``value_iterate``.

    ``evaluate(chosen)`` returns a record of the policy playing rows
    ``chosen``, the values of the leading states open to improvement and the
    vector ``held``.  Each such state moves to its smallest-id best row
    at ``held`` only if that is strictly below its value.  Values never rise
    in exact arithmetic, so no policy comes twice there; a sweep that would
    bring one back differs from the current policy by rounding alone, and the
    loop stops at the current one.  Every other sweep adds a policy to
    ``seen``, so the loop ends.  Yields ``(record, improved rows, changed
    states, least row values at held)`` per sweep.  Only the last
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


class JumpRows(ActionRows):
    """One-jump rows over n states: ``entries[r]`` lists row r's ``(col,
    weight)`` pairs in summation order.  A value vector x is the list of the
    n state values and then the target's value 1, so column n carries each
    row's target mass, and row r's value at x is the sum of ``weight *
    x[col]`` over its entries."""

    def __init__(self, actions, state_ptr, entries: list[list[tuple[int, float]]]):
        super().__init__(actions, state_ptr)
        self.entries = entries

    def value_vector(self, values) -> list[float]:
        """``values`` at the leading states, then zeros, then the target's 1."""
        return [*values, *[0.0] * (self.n - len(values)), 1.0]

    @staticmethod
    def _values(rows, x) -> list[float]:
        out = []
        for row in rows:
            total = 0.0
            for col, weight in row:
                total += weight * x[col]
            out.append(total)
        return out

    def candidates(self, x) -> list[float]:
        return self._values(self.entries, x)

    def evaluate(self, chosen: list[int], residual: bool = True) -> tuple[list, float | None]:
        """Values of the policy playing ``chosen`` at the leading states,
        later states held at zero, clipped to [0, 1]; and, if asked, the
        :meth:`defect` of its linear system before clipping."""
        x = solve_banded(len(chosen), *self._triplets(chosen))
        # -0.0 is not below 0.0, so it stays -0.0
        head = [0.0 if v < 0.0 else 1.0 if v > 1.0 else v for v in x]
        if not residual:
            return head, None
        return head, self.defect(x, self.value_vector(x), chosen)

    def defect(self, x, held, chosen) -> float:
        """sup over s of |x[s] - the value of row ``chosen[s]`` at ``held``|,
        NaN if any of those is NaN and 0.0 for no states: the sup-norm defect
        of a solved policy system."""
        again = self._values(map(self.entries.__getitem__, chosen), held)
        gaps = list(map(abs, map(operator.sub, x, again)))
        return math.nan if any(map(math.isnan, gaps)) else max(gaps, default=0.0)

    def _triplets(self, chosen):
        """``(row, col, weight, c)`` of the policy's system over the leading
        ``len(chosen)`` states: U's entries, dropping those into later
        states, and the target masses c."""
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


class Passage(ActionRows):
    """A branching head's rows over states 1..n, state j at position j - 1.

    A death lowers the population by one, so ep(i) = q_1 ... q_i, q_j the
    probability of ever reaching j - 1 from j; above n, q = rho.  An action
    jumps from j to j - 1 + k with probability p_k, and leaves j's passage
    for good at the e-th state above with probability C_e(j) = A_{e-1}(j)
    s_{j+e}, where s = 1 - q and A_d(j) = q_{j+1} ... q_{j+d}; so its
    passage at j is p_0 / D_a(j), D_a(j) = p_0 + sum_{e>=1} W_e C_e(j), W_e
    = sum_{k>e} p_k, and 1 - q_a(j) is the same sum over D_a(j): only
    nonnegative numbers are added or multiplied.  Above n the terms sum to
    A_{n-j}(j) (1 - rho) G(n - j + 1), G(d) = W_d + rho G(d + 1) formed once
    per action.  D = 0 gives q = 0: every value from a no-death action on is
    exactly zero.

    Action a's one-jump value at j is x_{j-1} T_a(j), T_a(j) = q_j + (p_0 -
    q_j D_a(j)), below x_j = x_{j-1} q_j exactly where T_a(j) < q_j.  The
    candidates at ``(q, s)`` are every row's T_a, with :meth:`evaluate`'s
    D_a bit for bit, so a row whose passage is q_j has T_a = q_j up to the
    rounding of p_0 / D_a.
    """

    def __init__(self, model: CbpModel, rho: float):
        if not 0.0 <= rho <= 1.0:
            raise ValueError(f"tail ratio must be a number in [0, 1], got {rho!r}")
        self.rho = rho = float(rho)
        super().__init__(
            tuple(chain.from_iterable(model.admissible)),
            list(accumulate(map(len, model.admissible[:-1]), initial=0)),
        )
        n, sigma = self.n, 1.0 - rho
        jumps = {}
        for a in sorted(set(self.actions)):
            pmf = model.mechanism(a).offspring_pmf()
            # W_e and sigma G(e), e = 1..min(n, K - 1), from e = K - 1 down
            # over runs of e sharing one W_e = w.
            births = sorted((k for k in pmf if k > 1), reverse=True)
            size = min(n, births[0] - 1)
            tails, closing = [0.0] * size, [0.0] * size
            w = g = 0.0
            for k, below in zip(births, [*births[1:], 1]):
                w += pmf[k]
                for _ in range(k - 1, max(below - 1, size), -1):
                    g = w + rho * g
                for e in range(min(k - 1, size), below - 1, -1):
                    g = w + rho * g
                    tails[e - 1], closing[e - 1] = w, sigma * g
            jumps[a] = pmf.get(0, 0.0), tails, closing
        self.jumps = jumps
        self.reach = max(len(tails) for _, tails, _ in jumps.values())
        # Row r's T_a is at _row_index[r] of the per-action lists end to end.
        offset = {a: c * n for c, a in enumerate(jumps)}
        self._row_index = [offset[a] + j for j, acts in enumerate(model.admissible) for a in acts]

    def evaluate(self, chosen: list[int]) -> tuple[list[float], float]:
        """The values x_1..x_n of the policy playing rows ``chosen`` and the
        defect max_j |x_j - x_{j-1} T(j)| of its one-jump equations at
        them."""
        n = self.n
        # Past n, state j weighs (1 - rho) G(n - j + 1) at a state n + 1, s = 1.
        q, s, jump = [0.0] * (n + 1), [0.0] * n + [1.0], [0.0] * n
        played = self.played(chosen)
        rows = list(map(self.jumps.__getitem__, played))
        for j in range(max(n - self.reach, 0), n):
            p0, tails, closing = rows[j]
            if n - j <= len(tails):
                rows[j] = p0, [*tails[: n - j - 1], closing[n - j - 1]], closing
        for j in range(n - 1, -1, -1):
            p0, tails, _ = rows[j]
            A, leave, l = 1.0, 0.0, j
            for w in tails:
                l += 1
                leave += w * (A * s[l])
                A *= q[l]
            den = p0 + leave
            q[j] = q_j = p0 / den if den else 0.0
            s[j] = leave / den if den else 1.0
            jump[j] = q_j + (p0 - q_j * den)
        values = list(accumulate(q[:n], operator.mul))
        one_jump = map(operator.mul, [1.0, *values], jump)
        defect = max(map(abs, map(operator.sub, values, one_jump)), default=0.0)
        return values, defect

    def candidates(self, held: tuple[list, list]) -> list[float]:
        q, s = held
        n = self.n
        # One pass over e: C_e is added into each action's sums at the
        # states e below n or more, and state n - e takes its closing term.
        leave = {a: [0.0] * n for a in self.jumps}
        closed = {a: [] for a in self.jumps}
        cand = {}
        A = [1.0] * n
        for e in range(1, self.reach + 1):
            col = list(map(operator.mul, A, s[e:]))
            edge = n - e
            for a, (p0, tails, closing) in self.jumps.items():
                if e > len(tails):
                    continue
                t, w = leave[a], tails[e - 1]
                closed[a].append(t[edge] + A[edge] * closing[e - 1])
                if e < len(tails):
                    leave[a] = [x + w * c for x, c in zip(t, col)]
                    continue
                cand[a] = [u + (p0 - u * (p0 + (x + w * c))) for u, x, c in zip(q, t, col)]
                cand[a] += [u + (p0 - u * (p0 + x)) for u, x in zip(q[edge:], closed[a][::-1])]
            A = list(map(operator.mul, A, q[e:]))
        flat = list(chain.from_iterable(map(cand.__getitem__, self.jumps)))
        return list(map(flat.__getitem__, self._row_index))
