"""Spans and counters recorded around calls into cbpopt's modules.

Each traced public function is replaced, at every name any loaded module
binds it to, by a wrapper that records a span (name, start, end, parent
span, operation id) and, for some functions, a count read off the result.
Wrapping every binding covers the name each caller looks up: ``solver``
calls ``solve_unit`` through its own module globals, not through
``cbpopt.linsys``.  A function that a later refactor removes is skipped and
reads as zero calls.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from cbpopt import NoConvergence

# Traced functions as (module of cbpopt, function name).
TRACED = (
    ("modelfile", "load_model"),
    ("modelfile", "dump_json"),
    ("model", "validate_cbp_model"),
    ("model", "validate_general_model"),
    ("gen_fn", "rho_star"),
    ("gen_fn", "rho"),
    ("solver", "solve"),
    ("solver", "evaluate_policy"),
    ("solver", "improve_policy"),
    ("solver", "verify_oe"),
    ("solver", "brute_force_table"),
    ("linsys", "solve_unit"),
    ("embedded", "embedded_row"),
    ("embedded", "tail_weight"),
    ("general", "cbp_truncate"),
    ("general", "value_iterate"),
    ("sim", "estimate_ep"),
)


def _solve_counts(report):
    records = report.iterations
    return {
        "solver.pi_sweeps": len(records),
        "solver.improved_states": sum(len(r.improved_states) for r in records),
    }


def _solve_unit_counts(x):
    n = len(x)
    return {
        "linsys.dim_sum": n,
        "linsys.flops_computed": 2 * n**3 / 3,
        "linsys.bytes_computed": 8 * n * n,
    }


def _rho_gave_up(kwargs):
    """A rho call that raises NoConvergence has run all of its steps."""
    gen_fn = importlib.import_module("cbpopt.gen_fn")
    return {"gen_fn.rho.iterations": kwargs.get("max_iter", gen_fn.DEFAULT_MAX_ITER)}


# Functions wrapped for their count alone, without a span of their own, so
# that their time stays in the caller's self time (rho in rho_star's).
COUNT_ONLY = {"gen_fn.rho"}
# Counts of a call that raises NoConvergence, read off its keyword arguments.
ON_NO_CONVERGENCE = {"gen_fn.rho": _rho_gave_up}
# Deterministic counts read off a traced function's result.  The flop and
# byte figures are computed from the system size for a dense solve; they
# ignore cache misses and measure nothing.
COUNTERS = {
    "gen_fn.rho": lambda r: {"gen_fn.rho.iterations": r.iterations},
    "solver.solve": _solve_counts,
    "linsys.solve_unit": _solve_unit_counts,
    "modelfile.dump_json": lambda r: {"modelfile.dump_json.bytes": len(r)},
    "general.value_iterate": lambda r: {"general.vi_sweeps": r.iterations},
    "sim.estimate_ep": lambda r: {"sim.trajectories": r.n, "sim.censored": r.censored},
}
COUNT_NAMES = (
    "gen_fn.rho.iterations",
    "solver.pi_sweeps",
    "solver.improved_states",
    "linsys.dim_sum",
    "linsys.flops_computed",
    "linsys.bytes_computed",
    "modelfile.dump_json.bytes",
    "general.vi_sweeps",
    "sim.trajectories",
    "sim.censored",
)


class Tracer:
    """In-memory spans and counts for one benchmark process (one thread)."""

    def __init__(self):
        # [name, start, end, parent, op]; calls outside an op (the benchmark's
        # own checks) record nothing.
        self.spans: list[list] = []
        self.ops: list[tuple[str, str]] = []  # op id -> (label, phase)
        self.counts: list[dict] = []  # op id -> count name -> value
        self.stack: list[int] = []
        self.current_op = -1
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        gave_up = ON_NO_CONVERGENCE.get(name)

        def traced(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            if name in COUNT_ONLY:
                try:
                    result = fn(*args, **kwargs)
                except NoConvergence:
                    self._count(gave_up, kwargs)
                    raise
                self._count(counter, result)
                return result
            idx = len(self.spans)
            span = [name, time.perf_counter(), 0.0, self.stack[-1], self.current_op]
            self.spans.append(span)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            self._count(counter, result)
            return result

        return traced

    def _count(self, counter, result) -> None:
        if counter is None:
            return
        try:
            increments = counter(result)
        except (AttributeError, TypeError):
            return  # the result's or the module's shape changed in a refactor
        counts = self.counts[self.current_op]
        for key, value in increments.items():
            counts[key] += value

    @contextmanager
    def installed(self):
        """Replace every binding of each traced function in every loaded module,
        the benchmark's own included."""
        modules = [m for m in list(sys.modules.values()) if hasattr(m, "__dict__")]
        for mod_name, fn_name in TRACED:
            original = getattr(importlib.import_module(f"cbpopt.{mod_name}"), fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        try:
            yield self
        finally:
            for mod, attr, original in reversed(self._patched):
                setattr(mod, attr, original)
            self._patched.clear()

    @contextmanager
    def op(self, label: str, phase: str):
        """Top-level span around one operation; nested layer spans hang off it."""
        op_id = self.current_op = len(self.ops)
        self.ops.append((label, phase))
        self.counts.append(dict.fromkeys(COUNT_NAMES, 0))
        idx = len(self.spans)
        span = [f"op:{label}", time.perf_counter(), 0.0, -1, op_id]
        self.spans.append(span)
        self.stack.append(idx)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def totals(self, divisors: dict[str, int]) -> dict[str, float]:
        """Calls, self seconds and counts per name: each phase's sum divided
        by that phase's divisor (the number of traced rounds, or 1).

        Self time is a span's duration minus the time its direct children
        cover; spans nest strictly because everything runs on one thread.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        sums: dict[str, dict[str, float]] = {phase: defaultdict(float) for phase in divisors}
        for pos, (name, start, end, parent, op) in enumerate(self.spans):
            phase = sums[self.ops[op][1]]
            phase[f"{name}.calls"] += 1
            phase[f"{name}.self_s"] += end - start - child[pos]
        for op, counts in enumerate(self.counts):
            phase = sums[self.ops[op][1]]
            for name, value in counts.items():
                phase[name] += value
        out: dict[str, float] = defaultdict(float)
        for phase, values in sums.items():
            for name, value in values.items():
                out[name] += value / divisors[phase]
        return dict(out)

    def write(self, path, header: dict) -> None:
        """Spans as gzip'd JSON lines after one header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write(json.dumps({**header, "ops": self.ops}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
