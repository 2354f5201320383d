"""Seeded inputs, operations and result checks for the benchmark workloads.

The seed sets rates, action shapes and simulation seeds.  Model sizes,
action counts and the epsilon ladders are fixed, so the amount of work in a
run does not depend on the seed.

Only names that ``cbpopt`` exports are called, with their default tuning
arguments; the CLI replay also calls ``cbpopt.cli.main``.  Program
functions are looked up at call time.  So if a later change removes one,
the operations that use it fail; the benchmark itself keeps running.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import cbpopt
import cbpopt.cli
from cbpopt import Policy, SimCaps

OE_TOL = 1e-9  # optimality-equation residual of a certified solve
REEVAL_TOL = 1e-12  # re-evaluating the returned policy against its profile
ROOT_TOL = 1e-9  # the solver's own ROOT_TIE_TOL, fixed here on purpose
CLI_TOL = 1e-10  # CLI JSON against in-process results; last-ulp changes pass
LOWER_TOL = 1e-12  # truncated values may exceed the exact profile by this
MC_Z = 6.0  # Wilson z of the Monte Carlo check: a correct estimate misses w.p. ~2e-9

# large_head: (m, actions, max_k, no-death action 25 states before m).  The
# top rung appears three times so that op_tail_ms falls inside one group of
# like operations, and the batch has an odd size so that op_p50_ms does too.
LARGE_LADDER = (
    (100, 4, 5, False),
    (200, 2, 2, False),
    (300, 3, 3, True),
    (400, 4, 5, False),
    (500, 2, 4, False),
    (600, 3, 5, True),
    (700, 4, 3, False),
    (700, 4, 3, False),
    (700, 4, 3, False),
)
# Seeded variants of the ladder; round r runs variant r mod LARGE_VARIANTS,
# so one run averages over several draws of the rates.
LARGE_VARIANTS = 3
# near_critical: tail mechanism {0: 1, 2: 1+eps} with root 1/(1+eps).
NEAR_SOLVE_EPS = (0.2, 0.1, 0.05, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
# Windows and simulation sizes keep every operation cheaper than the two
# non-converging root rungs, which then form the tail group of op_tail_ms.
NEAR_TRUNCATION = {0.2: 100, 0.1: 100, 0.05: 60}  # eps -> window level
NEAR_SIM_EPS = (0.2, 0.1, 0.05, 1e-2, 1e-3, 1e-4)
NEAR_M = 4
SIM_N = 1000
SIM_CAPS = SimCaps(max_jumps=10**6, max_pop=30)
# cli_small: (m, actions at every state); 8, 243 and 64 head policies.
CLI_SEEDED = ((3, 2), (5, 3), (6, 2))
# CLI simulate sizes as (n, max_pop).  In cli_small they make simulate about
# twice as slow as the other commands, and the seeded models are simulated
# from two start states.  So about a quarter of the operations are
# simulations, and op_tail_ms falls inside that group even when a slow spell
# on the host stretches the other commands.  The probe only has to reach
# every layer; a light simulation keeps it from swamping the sim figures of
# the workload it runs beside.
CLI_SIM = (10000, 30)
PROBE_SIM = (200, 30)
COMMANDS = ("rho", "solve", "evaluate", "brute", "general", "simulate")
BUNDLED = ("two_action.json", "zero_death.json", "general_split.json")


@dataclass
class Op:
    name: str  # names the operation in failure reports
    kind: str  # solve | truncation | simulate | cli:<command>
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]  # failure reason, None when correct
    corrupt: Callable[[Any], Any]  # a wrong result that the check must reject


@dataclass
class CliResult:
    code: int
    stdout: str
    maxrss_kb: int = 0


@dataclass
class CliSpec:
    command: str
    argv: list
    code: int  # expected exit code
    reference: Callable[[dict], "str | None"] | None  # checks the JSON report


@dataclass
class Workload:
    # batch(mode, r): round r's ops, mode "process" or "inprocess"; the same
    # r gives the same inputs
    batch: Callable[[str, int], list]
    cli_specs: list  # CLI commands whose process timings feed the cli.* metrics
    processes: bool  # end-to-end operations are cbpopt processes (cli_small)


# ---------------------------------------------------------------- inputs


def _mechanism(shape: list, growth: float) -> dict:
    """Death rate 1 and drift growth-1, births spread over k = 2.. by ``shape``."""
    scale = growth / sum((k - 1) * w for k, w in enumerate(shape, start=2))
    rates = {k: round(w * scale, 9) for k, w in enumerate(shape, start=2)}
    rates[0] = 1.0
    return rates


def _family(rng: random.Random, count: int, max_k: int) -> dict:
    """Actions a0..a{count-1} with one birth shape and falling growth, so a
    lower index is better at every state and the last one is the worst."""
    shape = [rng.uniform(0.2, 1.0) for _ in range(2, max_k + 1)]
    top = rng.uniform(1.8, 2.6)
    return {f"a{j}": _mechanism(shape, top * (1.0 - 0.15 * j)) for j in range(count)}


def _large_ladder(rng: random.Random) -> list:
    out = []
    for pos, (m, count, max_k, zero_tail) in enumerate(LARGE_LADDER):
        mechs = _family(rng, count, max_k)
        admissible = {i: list(mechs) for i in range(1, m + 1)}
        if zero_tail:
            mechs["z"] = {2: round(rng.uniform(0.5, 1.5), 9)}
            admissible[m - 25].append("z")
        model = cbpopt.validate_cbp_model(m, admissible, [a for a in mechs if a != "z"], mechs)
        worst = {i: model.admissible[i - 1][-1] for i in range(1, m + 1)}
        out.append((f"#{pos} m={m}", model, worst))
    return out


def _near_model(rng: random.Random, eps: float):
    # Narrow ranges: the head changes how long trajectories live, and so the
    # cost of a simulation; the tail alone sets root and sweep counts.
    shape = [rng.uniform(0.9, 1.1), rng.uniform(0.4, 0.5)]
    mechs = {
        "h1": _mechanism(shape, rng.uniform(1.5, 1.6)),
        "h2": _mechanism(shape[::-1], rng.uniform(1.5, 1.6)),
        "t": {0: 1.0, 2: 1.0 + eps},
    }
    admissible = {i: list(mechs) for i in range(1, NEAR_M + 1)}
    return cbpopt.validate_cbp_model(NEAR_M, admissible, ["t"], mechs)


# ---------------------------------------------------------------- checks


def _gap(label: str, got, want, tol: float) -> "str | None":
    got, want = list(got), list(want)
    if len(got) != len(want):
        return f"{label}: {len(got)} values, expected {len(want)}"
    worst = max((abs(a - b) for a, b in zip(got, want)), default=0.0)
    return f"{label} off by {worst:.1e} > {tol:.0e}" if not worst <= tol else None


def _solve_check(model, eps: float | None = None):
    def check(report) -> "str | None":
        if eps is not None:
            err = abs(report.rho_star - 1.0 / (1.0 + eps))
            if not err <= ROOT_TOL:
                return f"rho_star off by {err:.1e} > {ROOT_TOL:.0e}"
        if not report.oe_residual <= OE_TOL:
            return f"oe_residual {report.oe_residual:.1e} > {OE_TOL:.0e}"
        again = cbpopt.evaluate_policy(model, report.optimal_policy, report.rho_star)
        return _gap(
            "re-evaluated profile",
            report.optimal_profile.head_values,
            again.head_values,
            REEVAL_TOL,
        )

    return check


def _corrupt_solve(report):
    profile = report.optimal_profile
    bumped = tuple(v + 0.01 for v in profile.head_values)
    return replace(report, optimal_profile=replace(profile, head_values=bumped))


def _corrupt_truncation(solution):
    return replace(solution, values={s: v + 1.0 for s, v in solution.values.items()})


def _corrupt_estimate(estimate):
    return replace(estimate, p_hat=0.0 if estimate.p_hat >= 0.5 else 1.0)


def _wilson(successes: int, n: int, z: float) -> tuple[float, float]:
    """Wilson score interval, computed here independently of cbpopt.sim."""
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _mc_check(exact: float, estimate) -> "str | None":
    """Exact value inside a z=6 Wilson interval of the extinct count.

    Censored trajectories count as non-extinct, which biases p_hat down by
    at most censored/n, so the upper end is raised by that much.
    """
    n = estimate.n
    low, high = _wilson(round(estimate.p_hat * n), n, MC_Z)
    high += estimate.censored / n
    if low <= exact <= high:
        return None
    return (
        f"exact {exact:.6f} outside [{low:.6f}, {high:.6f}]"
        f" (n={n}, censored={estimate.censored})"
    )


# ---------------------------------------------------------------- in-process workloads


def _solve_from(model, start_head):
    return cbpopt.solve(model, start_head=start_head)


def _large_head(seed: int, root: Path, workdir: Path) -> Workload:
    rng = random.Random(seed)
    variants = [_large_ladder(rng) for _ in range(LARGE_VARIANTS)]

    def batch(mode: str, r: int) -> list:
        v = r % LARGE_VARIANTS
        return [
            Op(
                f"solve {label} variant {v}",
                "solve",
                functools.partial(_solve_from, model, worst),
                _solve_check(model),
                _corrupt_solve,
            )
            for label, model, worst in variants[v]
        ]

    return Workload(batch, [], False)


def _near_critical(seed: int, root: Path, workdir: Path) -> Workload:
    rng = random.Random(seed)
    models = {eps: _near_model(rng, eps) for eps in NEAR_SOLVE_EPS}

    def batch(mode: str, r: int) -> list:
        solved: dict = {}  # eps -> SolveReport of this round
        # Fresh simulation seeds every round, so that a run averages the
        # cost of many samples instead of repeating one.
        first_seed = (seed << 24) + (r << 8)

        def run_solve(eps):
            solved[eps] = cbpopt.solve(models[eps])
            return solved[eps]

        def run_truncation(eps, level):
            return cbpopt.value_iterate(cbpopt.cbp_truncate(models[eps], None, level))

        def check_truncation(eps, level, solution):
            exact = solved[eps].optimal_profile
            for i in range(1, level + 1):
                v = solution.values[i]
                if not -LOWER_TOL <= v <= exact.ep(i) + LOWER_TOL:
                    return f"truncated value {v:.12f} at state {i} above exact {exact.ep(i):.12f}"
            return None

        def run_simulation(eps, master_seed):
            policy = solved[eps].optimal_policy
            return cbpopt.estimate_ep(models[eps], policy, 1, SIM_N, SIM_CAPS, master_seed)

        def check_simulation(eps, estimate):
            return _mc_check(solved[eps].optimal_profile.ep(1), estimate)

        ops = [
            Op(
                f"solve eps={eps:g}",
                "solve",
                functools.partial(run_solve, eps),
                _solve_check(models[eps], eps),
                _corrupt_solve,
            )
            for eps in NEAR_SOLVE_EPS
        ]
        ops += [
            Op(
                f"truncation eps={eps:g} level={level}",
                "truncation",
                functools.partial(run_truncation, eps, level),
                functools.partial(check_truncation, eps, level),
                _corrupt_truncation,
            )
            for eps, level in NEAR_TRUNCATION.items()
        ]
        ops += [
            Op(
                f"simulate eps={eps:g}",
                "simulate",
                functools.partial(run_simulation, eps, first_seed + pos),
                functools.partial(check_simulation, eps),
                _corrupt_estimate,
            )
            for pos, eps in enumerate(NEAR_SIM_EPS)
        ]
        return ops

    return Workload(batch, [], False)


# ---------------------------------------------------------------- CLI workload


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CBP_OPT_THREADS", None)  # cbpopt's own default: one thread
    src = str(Path(cbpopt.cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv: list, env: dict) -> CliResult:
    """``cbpopt <argv>`` in a fresh interpreter; waits for it and keeps its peak RSS."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "cbpopt.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
    )
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(proc.returncode, out.decode("utf-8"), usage.ru_maxrss)


def run_inprocess(argv: list) -> CliResult:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cbpopt.cli.main(list(argv))
    return CliResult(code, out.getvalue())


def _bump_floats(obj):
    if isinstance(obj, float):
        return obj + 0.01
    if isinstance(obj, list):
        return [_bump_floats(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _bump_floats(v) for k, v in obj.items()}
    return obj


def _corrupt_cli(result: CliResult) -> CliResult:
    if result.code != 0:
        return replace(result, code=0)
    return replace(result, stdout=json.dumps(_bump_floats(json.loads(result.stdout))))


def _cli_check(spec: CliSpec):
    def check(result: CliResult) -> "str | None":
        if result.code != spec.code:
            return f"exit code {result.code}, expected {spec.code}"
        if spec.reference is None:
            return "printed a report on a failing run" if result.stdout.strip() else None
        try:
            return spec.reference(json.loads(result.stdout))
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable report: {type(exc).__name__}: {exc}"

    return check


def cli_ops(specs: list, mode: str) -> list:
    env = child_env() if mode == "process" else None
    ops = []
    for spec in specs:
        if mode == "process":
            run = functools.partial(run_process, spec.argv, env)
        else:
            run = functools.partial(run_inprocess, spec.argv)
        name = f"cli {' '.join(Path(a).name if a.endswith('.json') else a for a in spec.argv)}"
        ops.append(Op(name, f"cli:{spec.command}", run, _cli_check(spec), _corrupt_cli))
    return ops


def _cbp_specs(path: Path, model, sim_seed: int, sim: tuple, starts=(1,)) -> list:
    """rho, solve, evaluate (last action everywhere), brute, and simulate from
    each start state, on one file."""
    p = str(path)
    roots = functools.cache(lambda: cbpopt.rho_star(model))
    last = tuple(choices[-1] for choices in model.admissible)
    spec = ",".join(f"{i}:{a}" for i, a in enumerate(last, start=1))

    def ref_rho(doc):
        if doc["a_star"] != roots().a_star:
            return f"a_star {doc['a_star']!r}, expected {roots().a_star!r}"
        return _gap("rho_star", [doc["rho_star"]], [roots().rho_star], CLI_TOL)

    solved = functools.cache(lambda: cbpopt.solve(model))

    def ref_solve(doc):
        if not doc["oe_residual"] <= OE_TOL:
            return f"oe_residual {doc['oe_residual']:.1e} > {OE_TOL:.0e}"
        want = solved().optimal_profile.head_values
        return _gap("optimal profile", doc["optimal_profile"]["head_values"], want, CLI_TOL)

    evaluated = functools.cache(
        lambda: cbpopt.evaluate_policy(model, Policy(last, roots().a_star), roots().rho_star)
    )

    def ref_evaluate(doc):
        return _gap("profile", doc["profile"]["head_values"], evaluated().head_values, CLI_TOL)

    brute = functools.cache(lambda: cbpopt.brute_force(model))

    def ref_brute(doc):
        if len(doc["policies"]) != model.head_policy_count():
            return f"{len(doc['policies'])} policies, expected {model.head_policy_count()}"
        got = doc["profile"]["head_values"]
        return _gap("componentwise minimum", got, brute().head_values, CLI_TOL)

    n, max_pop = sim
    caps = SimCaps(max_jumps=1_000_000, max_pop=max_pop)  # the CLI's default max_jumps
    default_head = tuple(choices[0] for choices in model.admissible)

    def simulate_spec(start: int) -> CliSpec:
        estimated = functools.cache(
            lambda: cbpopt.estimate_ep(
                model, Policy(default_head, roots().a_star), start, n, caps, sim_seed
            )
        )

        def ref_simulate(doc):
            want = estimated()
            if doc["censored"] != want.censored:
                return f"censored {doc['censored']}, expected {want.censored}"
            return _gap("p_hat", [doc["p_hat"]], [want.p_hat], CLI_TOL)

        argv = ["simulate", p, "--start", str(start), "--n", str(n), "--max-pop", str(max_pop)]
        return CliSpec("simulate", argv + ["--seed", str(sim_seed), "--json"], 0, ref_simulate)

    return [
        CliSpec("rho", ["rho", p, "--json"], 0, ref_rho),
        CliSpec("solve", ["solve", p, "--json"], 0, ref_solve),
        CliSpec("evaluate", ["evaluate", p, "--policy", spec, "--json"], 0, ref_evaluate),
        CliSpec("brute", ["brute", p, "--json"], 0, ref_brute),
    ] + [simulate_spec(start) for start in starts]


def _general_spec(path: Path, model) -> CliSpec:
    want = functools.cache(lambda: cbpopt.value_iterate(model))

    def ref_general(doc):
        got = [doc["values"][str(s)] for s in model.states]
        return _gap("values", got, [want().values[s] for s in model.states], CLI_TOL)

    return CliSpec("general", ["general", str(path), "--json"], 0, ref_general)


def _interleave(specs: list) -> list:
    """Cycle through the six commands."""
    by_command = [[s for s in specs if s.command == c] for c in COMMANDS]
    rows = itertools.zip_longest(*by_command)
    return [s for row in rows for s in row if s is not None]


def _write(path: Path, doc) -> Path:
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc, indent=1), encoding="utf-8")
    return path


def _bundled_specs(root: Path, workdir: Path, seed: int, sim: tuple) -> list:
    """The six commands over the bundled models plus one truncated bundled model."""
    files = [root / "models" / name for name in BUNDLED]
    models = [cbpopt.load_model(f) for f in files]
    truncated = cbpopt.cbp_truncate(models[0], None, 30)
    tpath = _write(workdir / "bundled_truncated.json", cbpopt.model_to_doc(truncated))
    specs = _cbp_specs(files[0], models[0], seed, sim)
    specs += _cbp_specs(files[1], models[1], seed, sim)
    return specs + [_general_spec(files[2], models[2]), _general_spec(tpath, truncated)]


def probe_specs(root: Path, workdir: Path, seed: int) -> list:
    """The CLI probe that traced runs of large_head and near_critical add."""
    return _interleave(_bundled_specs(root, workdir, seed, PROBE_SIM))


def _cli_small(seed: int, root: Path, workdir: Path) -> Workload:
    rng = random.Random(seed)
    specs = _bundled_specs(root, workdir, seed, CLI_SIM)
    seeded = []
    for m, count in CLI_SEEDED:
        mechs = _family(rng, count, 3)
        admissible = {i: list(mechs) for i in range(1, m + 1)}
        model = cbpopt.validate_cbp_model(m, admissible, list(mechs), mechs)
        path = _write(workdir / f"seeded_m{m}.json", cbpopt.model_to_doc(model))
        seeded.append((path, model))
        specs += _cbp_specs(path, model, seed, CLI_SIM, starts=(1, 2))
    truncated = cbpopt.cbp_truncate(seeded[0][1], None, 30)
    tpath = _write(workdir / "seeded_truncated.json", cbpopt.model_to_doc(truncated))
    specs.append(_general_spec(tpath, truncated))
    broken = cbpopt.model_to_doc(seeded[0][1])
    broken["cbp"]["actions"][0]["b"]["1"] = 0.5
    bad_json = _write(workdir / "bad_json.json", '{"kind": "cbp", "cbp": {')
    k_equals_one = _write(workdir / "k_equals_one.json", broken)
    small, large = str(seeded[0][0]), str(seeded[1][0])
    malformed = [
        CliSpec("rho", ["rho", str(bad_json), "--json"], 1, None),
        CliSpec("solve", ["solve", str(k_equals_one), "--json"], 1, None),
        CliSpec("evaluate", ["evaluate", small, "--policy", "1-a0", "--json"], 3, None),
        CliSpec("brute", ["brute", large, "--cap", "10", "--json"], 3, None),
        CliSpec("general", ["general", str(root / "models" / BUNDLED[0]), "--json"], 1, None),
    ]
    specs = _interleave(specs + malformed)

    def batch(mode: str, r: int) -> list:
        return cli_ops(specs, mode)

    return Workload(batch, specs, True)


def setup(name: str, seed: int, root: Path, workdir: Path) -> Workload:
    """Generate and validate the workload's seeded inputs (files for cli_small)."""
    setups = {"cli_small": _cli_small, "large_head": _large_head, "near_critical": _near_critical}
    return setups[name](seed, root, workdir)
