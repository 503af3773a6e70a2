"""Pooled testing under dilution: closed forms, simulation, and sweeps.

The package evaluates three ways of running a screening program over a
population with prevalence p: testing everyone individually, Dorfman
two-stage pooling, and a retest variant that reads a negative pool up to r
times before releasing it. Pool sensitivity degrades with dilution through
a fitted two-parameter curve, which is what makes the trade-off between
test count and missed positives nontrivial.
"""

__version__ = "0.1.0"

from .dilution import (
    BATEMAN_POOL_SENSITIVITIES,
    DEFAULT_KIT,
    DilutionModel,
    FitConvergenceError,
    FitResult,
    SensitivityObservation,
    TestKit,
    bateman_fit_model,
    fit_dilution_model,
    load_observations,
)
from .evaluate import (
    Metrics,
    Procedure,
    ProcedureConfig,
    eval_dorfman,
    eval_individual,
    eval_modified,
    evaluate,
    posterior_given_negative_pool,
    posterior_given_positive_pool,
)
from .pareto import (
    DEFAULT_SWEEP_PREVALENCES,
    FN_INCREASE_CAPS,
    SweepSpec,
    SweepTable,
    fp_summary,
    min_tests_under_fn_cap,
    read_sweep_csv,
    sweep,
    write_sweep_csv,
)
from .simulate import (
    DESK_SCALE_SUBJECTS,
    SimConfig,
    SimResult,
    VerificationRow,
    default_verification_configs,
    simulate,
    verify_against_analytic,
)

__all__ = [
    "__version__",
    "BATEMAN_POOL_SENSITIVITIES",
    "DEFAULT_KIT",
    "DEFAULT_SWEEP_PREVALENCES",
    "DESK_SCALE_SUBJECTS",
    "DilutionModel",
    "FN_INCREASE_CAPS",
    "FitConvergenceError",
    "FitResult",
    "Metrics",
    "Procedure",
    "ProcedureConfig",
    "SensitivityObservation",
    "SimConfig",
    "SimResult",
    "SweepSpec",
    "SweepTable",
    "TestKit",
    "VerificationRow",
    "bateman_fit_model",
    "eval_dorfman",
    "eval_individual",
    "eval_modified",
    "evaluate",
    "fit_dilution_model",
    "fp_summary",
    "load_observations",
    "min_tests_under_fn_cap",
    "posterior_given_negative_pool",
    "posterior_given_positive_pool",
    "read_sweep_csv",
    "simulate",
    "sweep",
    "verify_against_analytic",
    "write_sweep_csv",
]
