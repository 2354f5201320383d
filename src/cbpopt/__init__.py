"""Minimal extinction probability for continuous-time controlled branching
models, with a general finite-model hitting-probability path and a seeded
Monte Carlo oracle.

Every public name is loaded on first use (PEP 562): ``import cbpopt`` imports
no submodule, and a name imports only the submodule that defines it.  No
submodule imports numpy when it loads, the Monte Carlo oracle ``sim``
included, so code that never computes never loads numpy.
"""

import importlib

__version__ = "0.1.0"

# The public names of each submodule; ``embedded``'s operators are internal.
_EXPORTS = {
    "embedded": "",
    "errors": """CbpError EmptyActionSet EntryForKEqualsOne InadmissibleAction
        ModelFileError MZero NegativeRate NoConvergence NonConservativeRow
        NumericalError RateOverflow SingularSystem TargetNotAbsorbing
        TooManyPolicies TrivialMechanism UnknownActionId UsageError
        ValidationError ZeroExitRate""",
    "gen_fn": """CRITICAL SUBCRITICAL SUPERCRITICAL RhoResult RhoStarResult
        criticality eval_gen_fn rho rho_star""",
    "general": "CEMETERY HittingSolution cbp_truncate value_iterate",
    "linsys": "UnitSystem has_invertible_structure solve_unit",
    "model": """BranchingMechanism CbpModel GeneralModel Policy default_policy
        validate_cbp_model validate_general_model validate_mechanism
        validate_policy""",
    "modelfile": "dump_json load_model model_to_doc parse_model parse_policy_spec",
    "sim": """CENSORED_JUMPS CENSORED_POPULATION EXTINCT EpEstimate SimCaps
        SimOutcome estimate_ep simulate_trajectory wilson_interval""",
    "solver": """GEOMETRIC ZERO ExtinctionProfile IterationRecord SolveReport
        brute_force brute_force_table evaluate_policy improve_policy solve
        verify_oe zero_death_cutoff""",
}
# Public name -> the submodule that defines it.
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    # Nothing is cached here, so a name always reads its submodule's current
    # binding, a monkeypatched one included.
    if name in _SUBMODULE:
        return getattr(importlib.import_module(f"{__name__}.{_SUBMODULE[name]}"), name)
    if name in _EXPORTS:  # the submodule itself, as `cbpopt.solver`
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
