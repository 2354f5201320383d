"""Minimal extinction probability for continuous-time controlled branching
models, with a general finite-model hitting-probability path and a seeded
Monte Carlo oracle."""

from .embedded import EmbeddedRow, embedded_row, tail_weight
from .errors import (
    CbpError,
    EmptyActionSet,
    EntryForKEqualsOne,
    InadmissibleAction,
    IterationBound,
    ModelFileError,
    MZero,
    NegativeRate,
    NoConvergence,
    NonConservativeRow,
    NumericalError,
    RateOverflow,
    SingularSystem,
    TargetNotAbsorbing,
    TooManyPolicies,
    TrivialMechanism,
    UnknownActionId,
    UsageError,
    ValidationError,
    ZeroExitRate,
)
from .gen_fn import (
    CRITICAL,
    SUBCRITICAL,
    SUPERCRITICAL,
    RhoResult,
    RhoStarResult,
    criticality,
    eval_gen_fn,
    rho,
    rho_star,
)
from .general import (
    CEMETERY,
    HittingSolution,
    cbp_truncate,
    value_iterate,
)
from .linsys import UnitSystem, has_invertible_structure, solve_unit
from .model import (
    BranchingMechanism,
    CbpModel,
    GeneralModel,
    validate_cbp_model,
    validate_general_model,
    validate_mechanism,
)
from .modelfile import dump_json, load_model, model_to_doc, parse_model, parse_policy_spec
from .sim import (
    CENSORED_JUMPS,
    CENSORED_POPULATION,
    EXTINCT,
    EpEstimate,
    SimCaps,
    SimOutcome,
    estimate_ep,
    simulate_trajectory,
    wilson_interval,
)
from .solver import (
    GEOMETRIC,
    ZERO,
    ExtinctionProfile,
    IterationRecord,
    Policy,
    SolveReport,
    brute_force,
    brute_force_table,
    default_policy,
    evaluate_policy,
    improve_policy,
    solve,
    validate_policy,
    verify_oe,
    zero_death_cutoff,
)

__version__ = "0.1.0"
