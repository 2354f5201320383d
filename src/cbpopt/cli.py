"""Command-line driver: rho | solve | evaluate | simulate | general | brute.

Exit codes: 0 success, 1 model file unreadable or invalid, 2 numerical
failure, 3 usage error; a reader that closes stdout early is no failure
(exit 0).  ``--json`` replaces the human tables with a byte-stable JSON
report.

Only ``errors``, ``model`` and ``modelfile`` load with this module.  Each
command imports its compute modules once its model file is loaded and
validated and its policy spec parsed; only ``solve``, ``evaluate`` and
``brute`` load ``solver``.  So ``rho``, whose roots are pure Python, and every
command that fails before it computes (unreadable or invalid files, the wrong
model kind, a malformed policy spec, ``brute`` over its cap) never import
numpy.  Neither do ``general``, ``solve``, ``evaluate`` and ``brute``, at
any size; only ``simulate`` does.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

from .errors import NumericalError, UsageError, ValidationError
from .model import CbpModel, GeneralModel, Policy, default_policy
from .modelfile import dump_json, load_model, parse_policy_spec

if TYPE_CHECKING:
    from .solver import ExtinctionProfile, IterationRecord

EXIT_OK = 0
EXIT_MODEL = 1
EXIT_NUMERIC = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _nonneg_int(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _seed(raw: str) -> int:
    value = _nonneg_int(raw)
    if value >= 2**64:
        raise argparse.ArgumentTypeError(f"must be below 2**64, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cbpopt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("model", help="path to a JSON model file")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        return p

    add("rho", "per-action roots over the tail set")

    p = add("solve", "optimal policy and minimal extinction probabilities")
    p.add_argument("--start-policy", default="", help='head overrides, e.g. "1:a2,2:a1"')
    p.add_argument("--trace", action="store_true", help="print every iteration")

    p = add("evaluate", "extinction probabilities of one policy")
    p.add_argument("--policy", default="", help='head assignments, e.g. "1:a2"')

    p = add("simulate", "Monte Carlo extinction estimate for one policy")
    p.add_argument("--policy", default="", help='head assignments, e.g. "1:a2"')
    p.add_argument("--start", type=_positive_int, default=1)
    p.add_argument("--n", type=_positive_int, default=10_000)
    p.add_argument("--max-jumps", type=_nonneg_int, default=1_000_000)
    p.add_argument("--max-pop", type=_nonneg_int, default=1_000_000)
    p.add_argument("--seed", type=_seed, default=0)

    add("general", "exact minimal hitting probabilities, certified by the OE residual")

    p = add("brute", "enumerate every head policy")
    # No default here: the handler falls back to the solver's default once the
    # model file is validated.
    p.add_argument("--cap", type=_positive_int)
    return parser


def _require_cbp(model) -> CbpModel:
    if not isinstance(model, CbpModel):
        raise ValidationError("this command needs a branching model file (kind: cbp)")
    return model


def _require_general(model) -> GeneralModel:
    if not isinstance(model, GeneralModel):
        raise ValidationError("this command needs a general model file (kind: general)")
    return model


def _policy_doc(f: Policy) -> dict:
    return {
        "head": {str(i): f.head[i - 1] for i in range(1, f.m + 1)},
        "tail": f.tail,
    }


def _profile_doc(profile: ExtinctionProfile) -> dict:
    from .solver import GEOMETRIC

    doc: dict = {
        "head_values": list(profile.head_values),
        "tail_kind": profile.tail_kind,
    }
    if profile.tail_kind == GEOMETRIC:
        doc["rho_star"] = profile.rho_star
    else:
        doc["i0"] = profile.i0
    doc["residual"] = profile.residual
    return doc


def _head_text(f: Policy) -> str:
    return " ".join(f"{i}:{a}" for i, a in enumerate(f.head, 1))


def _profile_text(profile: ExtinctionProfile) -> str:
    from .solver import GEOMETRIC

    values = " ".join(
        f"{i}:{profile.ep(i):.12g}" for i in range(1, profile.m + 1)
    )
    if profile.tail_kind == GEOMETRIC:
        tail = f"geometric tail with ratio {profile.rho_star:.12g} above state {profile.m}"
    else:
        tail = f"zero from state {profile.i0} on"
    return f"ep {values} ({tail}; system residual {profile.residual:.3g})"


def _cmd_rho(args):
    model = _require_cbp(load_model(args.model))
    from . import gen_fn

    roots = gen_fn.rho_star(model)
    report = {
        "actions": [
            {
                "id": a,
                "rho": roots.per_action[a].rho,
                "criticality": roots.per_action[a].criticality,
                "iterations": roots.per_action[a].iterations,
                "residual": roots.per_action[a].residual,
                "bracket": list(roots.per_action[a].bracket),
            }
            for a in model.tail_actions
        ],
        "rho_star": roots.rho_star,
        "a_star": roots.a_star,
        "tied": list(roots.tied),
    }
    lines = [f"{'action':<10} {'rho':<22} {'criticality':<14} {'iters':<8} residual"]
    for row in report["actions"]:
        lines.append(
            f"{row['id']:<10} {row['rho']:<22.17g} {row['criticality']:<14}"
            f" {row['iterations']:<8} {row['residual']:.3g}"
        )
    lines.append(
        f"rho_star = {roots.rho_star:.17g}  a_star = {roots.a_star}"
        f"  tied: {', '.join(roots.tied)}"
    )
    return report, "\n".join(lines)


def _iteration_doc(record: IterationRecord) -> dict:
    return {
        "policy": _policy_doc(record.policy),
        "profile": _profile_doc(record.profile),
        "improved_states": list(record.improved_states),
    }


def _cmd_solve(args):
    model = _require_cbp(load_model(args.model))
    start = parse_policy_spec(args.start_policy)
    from . import solver

    report_obj = solver.solve(model, start_head=start)
    best = report_obj.optimal_policy
    report = {
        "m": model.m,
        "zero_death_cutoff": report_obj.zero_death_cutoff,
        "rho_star": report_obj.rho_star,
        "a_star": report_obj.a_star,
        "tied": list(report_obj.tied),
        "optimal_policy": _policy_doc(best),
        "optimal_profile": _profile_doc(report_obj.optimal_profile),
        "oe_residual": report_obj.oe_residual,
        "dont_care_states": list(report_obj.dont_care_states),
        "iterations": [_iteration_doc(r) for r in report_obj.iterations],
    }
    cutoff_text = (
        "none"
        if report_obj.zero_death_cutoff > model.m
        else str(report_obj.zero_death_cutoff)
    )
    lines = [
        f"rho_star = {report_obj.rho_star:.12g} (a_star = {report_obj.a_star})",
        f"zero-death cutoff = {cutoff_text} (m = {model.m})",
        f"optimal head: {_head_text(best)}   tail: {best.tail}",
        _profile_text(report_obj.optimal_profile),
        f"optimality-equation residual = {report_obj.oe_residual:.3g}",
        f"iterations = {len(report_obj.iterations)}",
    ]
    if report_obj.dont_care_states:
        lines.append(
            "don't-care head states (value 0 regardless): "
            + ", ".join(map(str, report_obj.dont_care_states))
        )
    if args.trace:
        for num, record in enumerate(report_obj.iterations):
            improved = (
                ", improved states " + ",".join(map(str, record.improved_states))
                if record.improved_states
                else ", fixed point"
            )
            head, profile = _head_text(record.policy), _profile_text(record.profile)
            lines.append(f"  [{num}] head {head} -> {profile}{improved}")
    return report, "\n".join(lines)


def _model_roots_policy(args):
    model = _require_cbp(load_model(args.model))
    overrides = parse_policy_spec(args.policy)
    from . import gen_fn

    roots = gen_fn.rho_star(model)
    return model, roots, default_policy(model, roots.a_star, overrides)


def _cmd_evaluate(args):
    model, roots, f = _model_roots_policy(args)
    from . import solver

    profile = solver.evaluate_policy(model, f, roots.rho_star)
    report = {
        "policy": _policy_doc(f),
        "rho_star": roots.rho_star,
        "profile": _profile_doc(profile),
    }
    human = f"policy head {_head_text(f)} tail {f.tail}\n{_profile_text(profile)}"
    return report, human


def _cmd_simulate(args):
    model, _, f = _model_roots_policy(args)
    from . import sim

    caps = sim.SimCaps(max_jumps=args.max_jumps, max_pop=args.max_pop)
    estimate = sim.estimate_ep(model, f, args.start, args.n, caps, args.seed)
    report = {
        "policy": _policy_doc(f),
        "start": args.start,
        "n": estimate.n,
        "seed": args.seed,
        "caps": {"max_jumps": caps.max_jumps, "max_pop": caps.max_pop},
        "p_hat": estimate.p_hat,
        "ci_low": estimate.ci_low,
        "ci_high": estimate.ci_high,
        "censored": estimate.censored,
    }
    human = (
        f"p_hat = {estimate.p_hat:.6g} (95% Wilson [{estimate.ci_low:.6g},"
        f" {estimate.ci_high:.6g}], n = {estimate.n}, censored = {estimate.censored})"
    )
    return report, human


def _cmd_general(args):
    model = _require_general(load_model(args.model))
    from . import general

    solution = general.value_iterate(model)
    report = {
        "values": {str(s): solution.values[s] for s in model.states},
        "policy": {str(s): solution.policy[s] for s in model.interior_states()},
        "iterations": solution.iterations,
        "oe_residual": solution.oe_residual,
    }
    lines = [f"{'state':<12} {'value':<22} action"]
    for s in model.states:
        action = solution.policy.get(s, "-")
        lines.append(f"{str(s):<12} {solution.values[s]:<22.17g} {action}")
    lines.append(f"sweeps = {solution.iterations}, OE residual = {solution.oe_residual:.3g}")
    return report, "\n".join(lines)


def _cmd_brute(args):
    model = _require_cbp(load_model(args.model))
    from . import solver

    cap = solver.DEFAULT_BRUTE_CAP if args.cap is None else args.cap
    profile, table = solver.brute_force_table(model, cap=cap)
    report = {
        "profile": _profile_doc(profile),
        "policies": [
            {"policy": _policy_doc(f), "profile": _profile_doc(p)} for f, p in table
        ],
    }
    lines = []
    for f, p in table:
        values = " ".join(f"{v:.12g}" for v in p.head_values)
        lines.append(f"head {_head_text(f):<30} ep {values}")
    lines.append("componentwise minimum: " + _profile_text(profile))
    return report, "\n".join(lines)


_HANDLERS = {
    "rho": _cmd_rho,
    "solve": _cmd_solve,
    "evaluate": _cmd_evaluate,
    "simulate": _cmd_simulate,
    "general": _cmd_general,
    "brute": _cmd_brute,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        report, human = _HANDLERS[args.command](args)
        try:
            print(dump_json(report) if args.json else human, flush=True)
        except BrokenPipeError:  # the reader has gone; quiet the final flush
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except UsageError as exc:  # includes TooManyPolicies
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
