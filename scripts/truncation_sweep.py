#!/usr/bin/env python3
"""Truncation ladder for the single-action supercritical model.

Finite-window hitting values are exact minimal values of the truncated
model, certified by their optimality-equation residual, and lower bounds that
climb toward the exact geometric profile 0.5**i as the window widens; the
table makes the convergence visible.
"""

import sys

from cbpopt import cbp_truncate, validate_cbp_model, value_iterate

LEVELS = (50, 100, 200, 500)
STATES = range(1, 11)


def main() -> int:
    model = validate_cbp_model(1, {1: ["a"]}, ["a"], {"a": {0: 1.0, 2: 2.0}})
    columns = {}
    for level in LEVELS:
        solution = value_iterate(cbp_truncate(model, None, level))
        columns[level] = [solution.values[i] for i in STATES]
        print(
            f"level {level}: {solution.iterations} policy-iteration sweeps,"
            f" OE residual {solution.oe_residual:.2e}"
        )

    header = "i     " + "".join(f"N={level:<18}" for level in LEVELS) + "exact"
    print("\n" + header)
    for pos, i in enumerate(STATES):
        row = f"{i:<6}"
        for level in LEVELS:
            row += f"{columns[level][pos]:<20.12g}"
        row += f"{0.5**i:.12g}"
        print(row)

    worst = max(abs(columns[LEVELS[-1]][pos] - 0.5 ** i) for pos, i in enumerate(STATES))
    print(f"\nworst gap at N={LEVELS[-1]}: {worst:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
