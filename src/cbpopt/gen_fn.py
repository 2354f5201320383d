"""Rate generating function: evaluation, criticality, and smallest roots.

For a mechanism with rates b_k the generating function sum_k b_k v^k equals
|b1| * (g(v) - v), where g is the probability generating function of the
embedded offspring distribution p_k = b_k / |b1| (k != 1).  Its smallest
nonnegative root is therefore the smallest fixed point of g on [0, 1]: the
extinction probability of a single line.  Iterating g from zero walks up to
that fixed point monotonically, which is why the iteration (rather than a
Newton step that may land on the root at 1) is used here.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .errors import NoConvergence
from .model import BranchingMechanism, CbpModel

SUBCRITICAL = "subcritical"
CRITICAL = "critical"
SUPERCRITICAL = "supercritical"

# Drift within this band counts as critical.
DRIFT_TOL = 1e-12
# Tail actions with roots this close to the minimum count as tied.
ROOT_TIE_TOL = 1e-9

DEFAULT_ROOT_TOL = 1e-13
DEFAULT_MAX_ITER = 10**6


@dataclass(frozen=True)
class RhoResult:
    """Smallest nonnegative root of one mechanism's generating function."""

    rho: float
    iterations: int
    residual: float
    criticality: str


@dataclass(frozen=True)
class RhoStarResult:
    """Minimal root over the shared tail action set."""

    rho_star: float
    a_star: str
    tied: tuple[str, ...]
    per_action: Mapping[str, RhoResult]


def criticality(mech: BranchingMechanism) -> str:
    d = mech.drift()
    if d > DRIFT_TOL:
        return SUPERCRITICAL
    if d < -DRIFT_TOL:
        return SUBCRITICAL
    return CRITICAL


def eval_gen_fn(mech: BranchingMechanism, v: float) -> float:
    """Value of sum_k b_k v^k, by Horner's rule over the dense span 0..max_k."""
    coeffs = [0.0] * (mech.max_k + 1)
    for k, rate in mech.support.items():
        coeffs[k] = rate
    coeffs[1] = mech.b1
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * v + c
    return acc


def rho(
    mech: BranchingMechanism,
    tol: float = DEFAULT_ROOT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    trace: list | None = None,
) -> RhoResult:
    """Smallest nonnegative root of the generating function.

    Mechanisms with nonpositive drift have root exactly 1 and return at once.
    Otherwise the fixed-point iteration v <- g(v) starts at 0, increases
    monotonically, and stops when a step falls below ``tol``.  ``trace``, when
    a list is given, collects every iterate.  ``max_iter`` below 1 is a
    ValueError, for every mechanism.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    crit = criticality(mech)
    if crit != SUPERCRITICAL:
        if trace is not None:
            trace.append(1.0)
        return RhoResult(
            rho=1.0, iterations=0, residual=abs(eval_gen_fn(mech, 1.0)), criticality=crit
        )
    scale = mech.abs_b1
    const = mech.b0 / scale
    powers = [(k, rate / scale) for k, rate in mech.support.items() if k >= 2]
    v = 0.0
    if trace is not None:
        trace.append(v)
    for n in range(1, max_iter + 1):
        nv = const
        for k, w in powers:
            nv += w * v**k
        if trace is not None:
            trace.append(nv)
        step = nv - v
        if step < tol:
            root = min(max(nv, 0.0), 1.0)
            return RhoResult(
                rho=root, iterations=n, residual=abs(eval_gen_fn(mech, root)), criticality=crit
            )
        v = nv
    raise NoConvergence(
        f"root iteration still moving after {max_iter} steps (last step {step:.3e},"
        f" tol {tol:.3e}); the mechanism is likely near-critical"
    )


def rho_star(
    model: CbpModel,
    tol: float = DEFAULT_ROOT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> RhoStarResult:
    """Roots for every tail action, their minimum, and the tie set.

    The representative action is the tied action with the smallest id.
    """
    per: dict[str, RhoResult] = {}
    for a in model.tail_actions:
        try:
            per[a] = rho(model.mechanism(a), tol=tol, max_iter=max_iter)
        except NoConvergence as exc:
            raise NoConvergence(f"tail action {a!r}: {exc}") from exc
    best = min(result.rho for result in per.values())
    tied = tuple(a for a in model.tail_actions if per[a].rho <= best + ROOT_TIE_TOL)
    return RhoStarResult(
        rho_star=best, a_star=tied[0], tied=tied, per_action=MappingProxyType(per)
    )
