#!/usr/bin/env python3
"""End-to-end run on the bundled two-action model.

Solves for the optimal policy from the worse start with a full trace,
enumerates both head policies, and cross-checks each policy's exact ep(1)
against a seeded Monte Carlo estimate: the script exits 1 if an exact value
falls outside its 95% Wilson interval.
"""

import pathlib
import sys

from cbpopt import SimCaps, brute_force_table, estimate_ep, load_model, solve

MODEL = pathlib.Path(__file__).resolve().parent.parent / "models" / "two_action.json"


def main() -> int:
    model = load_model(MODEL)
    report = solve(model, start_head={1: "a2"})
    print(f"rho_star = {report.rho_star:.12g} attained by {report.a_star}")
    print("policy-iteration trace (worst start):")
    for num, record in enumerate(report.iterations):
        head = ", ".join(f"{i}:{record.policy.head[i - 1]}" for i in range(1, model.m + 1))
        print(f"  step {num}: head {head}  ep(1) = {record.profile.ep(1):.12g}")
    print(f"optimality-equation residual = {report.oe_residual:.3g}")

    print("\nexhaustive enumeration:")
    _, table = brute_force_table(model)
    for f, profile in table:
        print(f"  head {f.head[0]}: ep(1) = {profile.ep(1):.12g}")

    print("\nMonte Carlo cross-check (n = 50000 per policy):")
    caps = SimCaps(max_jumps=20_000, max_pop=300)
    outside = 0
    for f, profile in table:
        estimate = estimate_ep(model, f, 1, 50_000, caps, master_seed=1)
        inside = estimate.ci_low <= profile.ep(1) <= estimate.ci_high
        outside += not inside
        print(
            f"  head {f.head[0]}: p_hat = {estimate.p_hat:.4f}"
            f"  Wilson [{estimate.ci_low:.4f}, {estimate.ci_high:.4f}]"
            f"  censored = {estimate.censored}"
            f"  exact {'inside' if inside else 'OUTSIDE'}"
        )
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main())
