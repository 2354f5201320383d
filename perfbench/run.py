#!/usr/bin/env python3
"""Seeded benchmark of cbpopt: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload cli_small --seed 1 --seconds 32 --trace 0

Run it from a checkout of the repository; it imports cbpopt from ``src/``.
Each workload runs in this one process as a closed loop with one caller:
an operation starts when the previous one has ended.  With ``--trace 0`` the
last stdout line reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  See README.md in this directory.
"""

import os

# One BLAS thread, pinned before numpy loads, here and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("cli_small", "large_head", "near_critical")
SETUP_REPEATS = 21
IMPORT_REPEATS = 3
TRACE_OUT = ROOT / ".bench_out"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("cli.rho.p50_ms", "ms"),
    ("cli.solve.p50_ms", "ms"),
    ("cli.evaluate.p50_ms", "ms"),
    ("cli.brute.p50_ms", "ms"),
    ("cli.general.p50_ms", "ms"),
    ("cli.simulate.p50_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.numpy_import_ms", "ms"),
    ("modelfile.load_model.calls", "count"),
    ("modelfile.load_model.self_s", "s"),
    ("modelfile.dump_json.calls", "count"),
    ("modelfile.dump_json.self_s", "s"),
    ("modelfile.dump_json.bytes", "B"),
    ("model.validate_cbp_model.self_s", "s"),
    ("model.validate_general_model.self_s", "s"),
    ("gen_fn.rho_star.calls", "count"),
    ("gen_fn.rho_star.self_s", "s"),
    ("gen_fn.rho.iterations", "count"),
    ("solver.evaluate_policy.calls", "count"),
    ("solver.evaluate_policy.self_s", "s"),
    ("solver.improve_policy.calls", "count"),
    ("solver.improve_policy.self_s", "s"),
    ("solver.verify_oe.self_s", "s"),
    ("solver.brute_force_table.self_s", "s"),
    ("solver.pi_sweeps", "count"),
    ("solver.improved_states", "count"),
    ("linsys.solve_unit.calls", "count"),
    ("linsys.solve_unit.self_s", "s"),
    ("linsys.dim_sum", "count"),
    ("linsys.flops_computed", "flop"),
    ("linsys.bytes_computed", "B"),
    ("embedded.embedded_row.calls", "count"),
    ("embedded.embedded_row.self_s", "s"),
    ("embedded.tail_weight.calls", "count"),
    ("embedded.tail_weight.self_s", "s"),
    ("general.cbp_truncate.self_s", "s"),
    ("general.value_iterate.calls", "count"),
    ("general.value_iterate.self_s", "s"),
    ("general.vi_sweeps", "count"),
    ("sim.estimate_ep.self_s", "s"),
    ("sim.trajectories", "count"),
    ("sim.censored", "count"),
    ("sim.uncensored_ratio", "ratio"),
    ("trace.overhead_s", "s"),
)


class Ledger:
    """Every operation run in this process: latency, outcome, check samples."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.failures: dict[str, list] = {}  # op name -> [count, first reason]
        self.samples: dict = {}  # kind -> (op, a result that passed its check)
        self.child_rss_kb = 0

    def run(self, op, tracer=None, phase="round") -> float:
        result, reason = None, None
        with tracer.op(op.kind, phase) if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a raising operation counts as failed
                reason = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        if reason is None:
            try:
                reason = op.check(result)
            except Exception as exc:  # e.g. the operation it depends on failed
                reason = f"check raised {type(exc).__name__}: {exc}"
        self.attempted += 1
        self.latencies.append(elapsed)
        self.child_rss_kb = max(self.child_rss_kb, getattr(result, "maxrss_kb", 0))
        if reason is not None:
            self.failed += 1
            self.failures.setdefault(op.name, [0, reason[:160]])[0] += 1
        elif op.kind not in self.samples:
            self.samples[op.kind] = (op, result)
        return elapsed

    def self_check(self) -> list[str]:
        """Kinds whose check accepted a deliberately corrupted result."""
        return [
            kind
            for kind, (op, result) in self.samples.items()
            if op.check(op.corrupt(result)) is None
        ]


def run_round(wl, mode: str, r: int, ledger: Ledger, tracer=None) -> float:
    """Round r of the workload's fixed batch; returns the sum of its
    operations' latencies."""
    return sum(ledger.run(op, tracer) for op in wl.batch(mode, r))


def run_rounds(wl, mode: str, budget: float, ledger: Ledger, between=None) -> list[float]:
    """Repeat the workload's fixed batch while another round fits the budget;
    returns each round's time.

    ``between(share)`` runs after each round, with the share of the budget
    used so far (1.0 after the last round); its own time is not counted
    against the budget.  The next round is predicted from the last round's
    operations alone: the first round also computes the reference results
    its checks cache.
    """
    walls = []
    used = 0.0
    for r in itertools.count():
        start = time.perf_counter()
        walls.append(run_round(wl, mode, r, ledger))
        used += time.perf_counter() - start
        last = used + walls[-1] > budget
        if between is not None:
            between(1.0 if last else used / budget)
        if last:
            return walls


def run_pairs(wl, budget: float, ledger: Ledger, tracer) -> tuple[list, list]:
    """Untraced and traced rounds in pairs over the same inputs, in
    alternating order; returns (untraced, traced) round times."""
    plain, traced = [], []
    used = 0.0
    for r in itertools.count():
        start = time.perf_counter()
        for on in (False, True) if r % 2 == 0 else (True, False):
            if on:
                with tracer.installed():
                    traced.append(run_round(wl, "inprocess", r, ledger, tracer))
            else:
                plain.append(run_round(wl, "inprocess", r, ledger))
        used += time.perf_counter() - start
        if used + plain[-1] + traced[-1] > budget:
            return plain, traced


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten operations beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure_setup(args) -> float:
    """Seconds from starting a fresh workload process to the end of its set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def import_times(env: dict) -> tuple[float, float]:
    """Median (numpy import, cbpopt import after numpy) in fresh interpreters."""
    code = (
        "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter();"
        " import cbpopt; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
    )
    numpy_s, cbpopt_s = [], []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
        a, b = map(float, out.stdout.split())
        numpy_s.append(a)
        cbpopt_s.append(b)
    return statistics.median(numpy_s), statistics.median(cbpopt_s)


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": git_sha(),
        "seed": seed,
    }


def report(ledger: Ledger, metrics: dict, units: tuple) -> dict:
    broken = ledger.self_check()
    if broken:
        print(f"self-check: corrupted results passed the checks of {broken}")
    ratio = ledger.failed / ledger.attempted
    print(f"failed_ratio = {ledger.failed}/{ledger.attempted} = {ratio:.4g}")
    for name, (count, reason) in sorted(ledger.failures.items()):
        print(f"  failing: {name} x{count}: {reason}")
    for name, unit in units:
        print(f"{name} = {metrics[name]:.6g} {unit}")
    return {
        "correct": not broken,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }


def run_plain(args, workloads, workdir: Path) -> dict:
    wl = workloads.setup(args.workload, args.seed, ROOT, workdir)
    ledger = Ledger()
    setups = []

    def probe_setup(share: float) -> None:
        # Set-up probes keep pace with the rounds, so that their median
        # covers the same stretch of the run as the round metrics.
        while len(setups) < math.ceil(SETUP_REPEATS * share):
            setups.append(measure_setup(args))

    mode = "process" if wl.processes else "inprocess"
    walls = run_rounds(wl, mode, args.seconds, ledger, probe_setup)
    tail_s, pct = tail(ledger.latencies)
    if wl.processes:
        rss_kb = ledger.child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"{len(walls)} rounds of {len(ledger.latencies) // len(walls)} operations, one caller;"
          f" op_tail_ms is p{pct:.2f} of {len(ledger.latencies)} operations;"
          f" setup_s is the median of {len(setups)} set-ups")
    print("nothing waits: one thread, no queue")
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_p50_ms": 1000 * statistics.median(ledger.latencies),
        "op_tail_ms": 1000 * tail_s,
        "peak_rss_mb": rss_kb / 1024,
    }
    return report(ledger, metrics, END_TO_END)


def run_traced(args, workloads, spans, workdir: Path, env: dict) -> dict:
    started = time.perf_counter()
    tracer = spans.Tracer()
    ledger = Ledger()
    with tracer.installed():
        with tracer.op("setup", "once"):
            wl = workloads.setup(args.workload, args.seed, ROOT, workdir)
        if wl.processes:
            specs = wl.cli_specs
        else:
            with tracer.op("probe-setup", "once"):
                specs = workloads.probe_specs(ROOT, workdir, args.seed)
    cli_ms = defaultdict(list)
    for spec, op in zip(specs, workloads.cli_ops(specs, "process")):
        elapsed = ledger.run(op)
        if spec.code == 0:
            cli_ms[spec.command].append(1000 * elapsed)
    numpy_s, cbpopt_s = import_times(workloads.child_env())
    budget = max(0.0, args.seconds - (time.perf_counter() - started))
    plain, traced = run_pairs(wl, budget, ledger, tracer)
    with tracer.installed():
        if not wl.processes:
            for op in workloads.cli_ops(specs, "inprocess"):
                ledger.run(op, tracer, "once")
    totals = tracer.totals({"once": 1, "round": len(traced)})
    metrics = {name: totals.get(name, 0.0) for name, _ in PER_LAYER}
    for c in workloads.COMMANDS:
        metrics[f"cli.{c}.p50_ms"] = statistics.median(cli_ms[c]) if cli_ms[c] else 0.0
    metrics["cli.import_ms"] = 1000 * cbpopt_s
    metrics["cli.numpy_import_ms"] = 1000 * numpy_s
    trajectories = metrics["sim.trajectories"]
    metrics["sim.uncensored_ratio"] = (
        (trajectories - metrics["sim.censored"]) / trajectories if trajectories else 0.0
    )
    metrics["trace.overhead_s"] = statistics.median([t - p for p, t in zip(plain, traced)])
    print(f"traced {len(traced)} rounds, untraced {len(plain)}; per-layer figures are per"
          " round plus one set-up" + ("" if wl.processes else " and one CLI probe pass"))
    print("nothing waits: one thread, no queue")
    path = TRACE_OUT / f"trace-{args.workload}.jsonl.gz"
    tracer.write(path, {"workload": args.workload, "env": env})
    print(f"spans written to {path.relative_to(ROOT)}")
    return report(ledger, metrics, PER_LAYER)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cbpopt" / "__init__.py").is_file():
        print(f"no cbpopt sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cbpopt

    if Path(cbpopt.__file__).resolve().parent != (SRC / "cbpopt").resolve():
        print(f"imported cbpopt from {cbpopt.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_probe:
            workloads.setup(args.workload, args.seed, ROOT, workdir)
            print("ready", flush=True)
            return 0
        env = environment(args.seed)
        print("env: " + json.dumps(env))
        if args.trace:
            result = run_traced(args, workloads, spans, workdir, env)
        else:
            result = run_plain(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
