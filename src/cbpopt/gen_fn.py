"""Rate generating function: evaluation, criticality, and certified smallest roots.

For a mechanism with rates b_k the generating function h(v) = sum_k b_k v^k
vanishes at v = 1, because the diagonal b1 is minus the sum of the other
rates.  Dividing that root out leaves the deflated factor

    h(v) = (v - 1) r(v),   r_0 = -b0,   r_j = sum_{k>j} b_k  (j >= 1),

whose coefficients past the constant are sums of nonnegative rates: they are
formed without cancellation and without the rounded b1.  On [0, inf) r rises
strictly from r(0) = -b0 to r(1) = drift, so a supercritical mechanism has
exactly one root of r in [0, 1): the smallest nonnegative root of h, the
extinction probability of a single line.  The slope of r there is at least
r_1 = sum_{k>=2} b_k however small the drift is, so the root stays
well-conditioned near criticality, where the two roots of h merge.

h is convex on [0, 1] with h(0) = b0 >= 0, so Newton's method on h started at
v = 0 rises monotonically to the smallest root and never passes it on the way
to the root at 1 (monotone Newton for least fixed points: Etessami and
Yannakakis, JACM 2009; Hautphenne, Latouche and Remiche, LAA 2008).  Near
criticality each step halves the distance to the root until it is within the
gap to 1, and quadratic convergence follows: about log2(1/drift) + 5 steps.
The result is then certified by a bracket on which r changes sign beyond the
rounding error of its evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .errors import NoConvergence, NumericalError
from .model import BranchingMechanism, CbpModel

SUBCRITICAL = "subcritical"
CRITICAL = "critical"
SUPERCRITICAL = "supercritical"

# Widest certified root bracket; a root that admits no narrower one is a
# numerical error.  Ties are decided on the brackets, so two tied roots are
# at most twice this apart.
ROOT_TIE_TOL = 1e-9

DEFAULT_ROOT_TOL = 1e-13
DEFAULT_MAX_ITER = 10**6

# Unit roundoff and the smallest subnormal, for the evaluation error bound.
_U = 2.0**-53
_ETA = 2.0**-1074


@dataclass(frozen=True)
class RhoResult:
    """Smallest nonnegative root of one mechanism's generating function.

    ``bracket`` is a certified pair lo <= rho <= hi holding the exact root of
    the supplied rates; it is (rho, rho) where the root is exact: 0 when
    b0 = 0, and 1 when the drift is certainly nonpositive or its sign is lost
    in the rounding of the rates (critical).
    """

    rho: float
    iterations: int
    residual: float
    criticality: str
    bracket: tuple[float, float]


@dataclass(frozen=True)
class RhoStarResult:
    """Roots over the shared tail action set, the actions that may hold the
    minimal one (``tied``) and their representative ``a_star`` with its own
    root ``rho_star``."""

    rho_star: float
    a_star: str
    tied: tuple[str, ...]
    per_action: Mapping[str, RhoResult]


def criticality(mech: BranchingMechanism) -> str:
    """The sign of the drift r(1), where rounding leaves it certain; critical
    where it does not.  The test scales with the rates, so it does not depend
    on their units."""
    coeffs = _deflated(mech)[0]
    if _sign_is(coeffs, 1.0, 1.0):
        return SUPERCRITICAL
    if _sign_is(coeffs, 1.0, -1.0):
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


def _deflated(mech: BranchingMechanism) -> tuple[list[float], int]:
    """Coefficients r_0..r_{K-1} of h(v) / (v - 1), times 2**-e with e the
    binary exponent of |b1|, so they are at most one and the scaling is exact."""
    e = math.frexp(mech.abs_b1)[1]
    coeffs = [0.0] * mech.max_k
    tail = 0.0
    for k in range(mech.max_k, 1, -1):
        tail += mech.support.get(k, 0.0)
        coeffs[k - 1] = math.ldexp(tail, -e)
    coeffs[0] = -math.ldexp(mech.b0, -e)
    return coeffs, e


def _horner(coeffs: list[float], v: float) -> tuple[float, float, float]:
    """r(v), r'(v) and sum_j |r_j| v^j, in one Horner pass (v >= 0)."""
    r = dr = mag = 0.0
    for c in reversed(coeffs):
        dr = dr * v + r
        r = r * v + c
        mag = mag * v + abs(c)
    return r, dr, mag


def _sign_is(coeffs: list[float], v: float, sign: float) -> bool:
    """Whether the exact r(v) certainly has the given sign.

    The computed value differs from r(v) with exact coefficients by at most
    gamma_{2K} * sum_j |r_j| v^j from Horner's rule and gamma_K times the same
    sum from the rounding in the suffix sums r_j (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, sections 4.2 and 5.1); 4K units of
    roundoff cover both, their second-order terms and the rounding in the sum
    itself, and the subnormal term covers underflow.
    """
    r, _, mag = _horner(coeffs, v)
    k = len(coeffs)
    return sign * r > 4 * k * (_U * mag + _ETA)


def _bracket(coeffs: list[float], root: float) -> tuple[float, float]:
    """The tightest lo <= root <= hi, stepping out from root by 0, 1, 2, 4, ...
    ulps, with r(lo) < 0 < r(hi) certified; NumericalError if that takes a
    bracket wider than ROOT_TIE_TOL."""
    ends = []
    for sign in (-1.0, 1.0):
        gap = 0.0
        while gap <= ROOT_TIE_TOL:
            v = min(max(root + sign * gap, 0.0), 1.0)
            if _sign_is(coeffs, v, sign):
                ends.append(v)
                break
            gap = 2.0 * gap if gap else math.ulp(root)
    if len(ends) < 2 or ends[1] - ends[0] > ROOT_TIE_TOL:
        raise NumericalError(
            f"root {root!r} cannot be certified: rounding hides the sign of the"
            f" generating function within {ROOT_TIE_TOL:g} of it"
        )
    return (ends[0], ends[1])


def rho(mech: BranchingMechanism, trace: list | None = None) -> RhoResult:
    """Smallest nonnegative root of the generating function, with a bracket.

    Mechanisms whose drift is not certainly positive have root exactly 1 and
    return at once.
    Otherwise Newton's method on h = (v - 1) r starts at 0, increases
    monotonically, and stops when a step falls below DEFAULT_ROOT_TOL; the
    root is then certified by a bracket (NumericalError if none of width
    ROOT_TIE_TOL or less can be found).  Still moving after DEFAULT_MAX_ITER
    steps is a NoConvergence, and a defect.  ``trace``, when a list is given,
    collects every iterate.
    """
    crit = criticality(mech)
    if crit != SUPERCRITICAL:
        if trace is not None:
            trace.append(1.0)
        return RhoResult(
            rho=1.0,
            iterations=0,
            residual=abs(eval_gen_fn(mech, 1.0)),
            criticality=crit,
            bracket=(1.0, 1.0),
        )
    coeffs, e = _deflated(mech)
    v = 0.0
    if trace is not None:
        trace.append(v)
    for n in range(1, DEFAULT_MAX_ITER + 1):
        r, dr, _ = _horner(coeffs, v)
        # h / h' with h = (v - 1) r and h' = r + (v - 1) r'; rounding near the
        # root may turn the step negative, and the iterates stay monotone.
        nv = min(max(v - (v - 1.0) * r / (r + (v - 1.0) * dr), v), 1.0)
        if trace is not None:
            trace.append(nv)
        step = nv - v
        v = nv
        if step < DEFAULT_ROOT_TOL:
            r = _horner(coeffs, v)[0]
            return RhoResult(
                rho=v,
                iterations=n,
                residual=math.ldexp(abs((v - 1.0) * r), e),
                criticality=crit,
                bracket=(0.0, 0.0) if mech.b0 == 0.0 else _bracket(coeffs, v),
            )
    raise NoConvergence(
        f"root iteration still moving after {DEFAULT_MAX_ITER} steps (last step {step:.3e},"
        f" tol {DEFAULT_ROOT_TOL:.3e}); this is a defect"
    )


def rho_star(model: CbpModel) -> RhoStarResult:
    """Roots for every tail action, the tie set and its representative.

    An action is tied when its bracket's lower end is at most the smallest
    upper end over the tail set, so its exact root may be the minimum.
    ``a_star`` is the tied action with the smallest id, ``rho_star`` its root.
    """
    per: dict[str, RhoResult] = {}
    for a in model.tail_actions:
        try:
            per[a] = rho(model.mechanism(a))
        except NumericalError as exc:
            raise type(exc)(f"tail action {a!r}: {exc}") from exc
    top = min(result.bracket[1] for result in per.values())
    tied = tuple(a for a in model.tail_actions if per[a].bracket[0] <= top)
    return RhoStarResult(
        rho_star=per[tied[0]].rho, a_star=tied[0], tied=tied, per_action=MappingProxyType(per)
    )
