"""Closed-form per-subject metrics for individual, two-stage, and retested pooling.

The procedures:

* individual: everyone gets one test, classification is the test result.
* dorfman: pools of n are tested once; only positive pools go to individual
  testing, negatives are classified negative wholesale.
* modified: like dorfman, but a pool that reads negative is retested, up to
  r tests of the pool in total, stopping early at the first positive read.
  Subjects in a pool whose every read was negative are classified negative;
  positives are never retested. r = 1 is exactly dorfman.

All metrics are per subject: expected tests E(T), expected false negatives
E(FN), expected false positives E(FP). Conditioning on the number of
positives k in a pool makes everything a finite sum over the binomial pmf;
the identity Pr(k; n, p | subject s positive) = Pr(k-1; n-1, p) turns the
subject-level error rates into sums over the reduced pmf row.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dilution import DilutionModel, TestKit
from .kernels import (
    MAX_POOL_SIZE,
    MAX_RETESTS,
    PoolOutcomes,
    check_pool_size,
    check_prevalence,
    check_retest_count,
    check_whole,
    pool_outcomes,
)
# Not called here, but bound under this module too: the benchmark's tracer
# wraps these names where the evaluators used to look them up.
from .kernels import binomial_pmf_row, pool_test_outcome_probs  # noqa: F401

__all__ = [
    "Procedure",
    "ProcedureConfig",
    "Metrics",
    "evaluate",
    "posterior_given_negative_pool",
    "posterior_given_positive_pool",
]


class Procedure(str, Enum):
    """The three testing procedures this package evaluates."""

    INDIVIDUAL = "individual"
    DORFMAN = "dorfman"
    MODIFIED = "modified"

    # The value, as format() gives it, so that numpy reads a member as its
    # value: a SweepTable's kind column compares equal to it.
    __str__ = str.__str__


# The Metrics fields that may be None.
_STAGES = ("e_tests_individual_stage", "e_fn_pool_stage", "e_fn_individual_stage")


class RowError(ValueError):
    """A row of columns that fails a rule: which row, and the rule's message."""

    def __init__(self, at: int, message: str):
        super().__init__(f"row {at}: {message}")
        self.at, self.message = at, message


def check_rows(rules, values: dict) -> None:
    """Raise ValueError for the first row that fails a rule, with the message
    of the first rule that row fails.

    rules are (failing rows, message) pairs in the order they run: each mask
    is a bool over scalars or a bool array over numpy columns, and each
    message is called with the failing row's values, which values maps by
    name. Over columns the error is a RowError and reads "row N: message".
    """
    if isinstance(rules[0][0], np.ndarray):
        failing = np.logical_or.reduce([mask for mask, _ in rules])
        if failing.any():
            at = int(failing.argmax())
            # A slice's tolist gives Python scalars from object columns too.
            row = {name: column[at : at + 1].tolist()[0] for name, column in values.items()}
            raise RowError(at, next(message for mask, message in rules if mask[at])(**row))
        return
    for mask, message in rules:
        if mask:
            raise ValueError(message(**values))


def finite_nonnegative(name: str, value) -> tuple:
    """The rule that value, called name in its message, is finite and nonnegative."""
    return (value != value) | (value < 0.0) | (value == math.inf), f"{name} must be finite and nonnegative, got {{{name}!r}}".format


def _reals(value) -> tuple:
    """(value with 0 wherever it holds no real number, where it holds none),
    for a scalar or a column: the shape rules' comparisons raise TypeError on
    a str or None, and the rule on the mask comes first."""
    array = np.asarray(value)
    if array.dtype.kind in "biuf":
        return value, np.zeros(array.shape, dtype=bool)
    cells = array.astype(object)
    unreal = np.array([not isinstance(cell, numbers.Real) for cell in cells.ravel().tolist()], dtype=bool).reshape(array.shape)
    reals = np.where(unreal, 0, cells)
    return (reals.item() if reals.ndim == 0 else reals), unreal


def shape_rules(kind, n, r) -> list[tuple]:
    """The rules on a procedure's shape (kind, n, r); none checks that n and r
    are whole, but one names an n or r that is no number at all."""
    individual, dorfman, modified = kind == "individual", kind == "dorfman", kind == "modified"
    (n, unreal_n), (r, unreal_r) = _reals(n), _reals(r)
    return [
        ((kind != "individual") & (kind != "dorfman") & (kind != "modified"), "{kind!r} is not a valid Procedure".format),
        (unreal_n, "pool size must be an integer, got {n!r}".format),
        ((n != n) | (n < 1) | (n > MAX_POOL_SIZE), f"pool size must lie in [1, {MAX_POOL_SIZE}], got {{n}}".format),
        (unreal_r, "retest count must be an integer, got {r!r}".format),
        ((r != r) | (r < 1) | (r > MAX_RETESTS), f"retest count must lie in [1, {MAX_RETESTS}], got {{r}}".format),
        (individual & ((n != 1) | (r != 1)), "individual testing requires n = r = 1, got n={n}, r={r}".format),
        (dorfman & (n < 2), "dorfman requires pool size n >= 2, got n={n}".format),
        (dorfman & (r != 1), "dorfman tests each pool once, got r={r}".format),
        (modified & (n < 2), "modified procedure requires pool size n >= 2, got n={n}".format),
    ]


def metric_rules(values: dict) -> list[tuple]:
    """The rules on the Metrics fields that values maps to scalars or columns;
    a stage diagnostic that is None or absent is not checked."""
    rules = [finite_nonnegative(name, value) for name, value in values.items() if value is not None or name not in _STAGES]
    stage_tests, fn_pool, fn_individual = values.get(_STAGES[0]), values.get(_STAGES[1]), values.get(_STAGES[2])
    if stage_tests is not None:
        rules.append((stage_tests > values["e_tests"] + 1e-12, "individual-stage tests cannot exceed total expected tests: "
                      "{e_tests_individual_stage} > {e_tests}".format))
    if fn_pool is not None and fn_individual is not None:
        rules.append((abs(fn_pool + fn_individual - values["e_fn"]) > 1e-12, lambda e_fn, e_fn_pool_stage, e_fn_individual_stage, **_:
                      f"stage false negatives {e_fn_pool_stage + e_fn_individual_stage} do not add up to e_fn {e_fn}"))
    return rules


@dataclass(frozen=True)
class ProcedureConfig:
    """A procedure plus its shape: pool size n and total pool-test budget r.

    Individual testing fixes n = r = 1, dorfman fixes r = 1, and the
    modified procedure allows any r >= 1 (r = 1 being dorfman itself).
    """

    kind: Procedure
    n: int = 1
    r: int = 1

    def __post_init__(self) -> None:
        # The shape rules, then whole n and r, as over a table; frozen, so set through vars.
        values = {"kind": self.kind, "n": self.n, "r": self.r}
        check_rows(shape_rules(**values), values)
        vars(self).update(kind=Procedure(self.kind), n=check_whole(self.n, "pool size"), r=check_whole(self.r, "retest count"))


@dataclass(frozen=True)
class Metrics:
    """Per-subject expectations for one procedure configuration.

    The three stage diagnostics are optional because a sweep's rows, swept or
    persisted, carry only the headline numbers; when present they satisfy
    e_fn_pool_stage + e_fn_individual_stage == e_fn and
    e_tests_individual_stage <= e_tests.
    """

    e_tests: float
    e_fn: float
    e_fp: float
    e_tests_individual_stage: float | None = None
    e_fn_pool_stage: float | None = None
    e_fn_individual_stage: float | None = None

    def __post_init__(self) -> None:
        values = {name: None if value is None else float(value) for name, value in vars(self).items()}
        check_rows(metric_rules(values), values)
        vars(self).update(values)


def eval_individual(kit: TestKit, p: float) -> Metrics:
    """Metrics for one-test-per-subject classification.

    E(T) = 1, E(FN) = p (1 - Se_I), E(FP) = (1 - p)(1 - Sp).
    """
    p = check_prevalence(p)
    e_fn = p * (1.0 - kit.se_i)
    return Metrics(
        e_tests=1.0,
        e_fn=e_fn,
        e_fp=(1.0 - p) * (1.0 - kit.sp),
        e_tests_individual_stage=1.0,
        e_fn_pool_stage=0.0,
        e_fn_individual_stage=e_fn,
    )


def pooled_metrics(kit: TestKit, outcomes: PoolOutcomes) -> tuple[np.ndarray, ...]:
    """Dorfman / modified metrics over every entry of outcomes, in Metrics field order.

    Each array has the shape of the outcome arrays, indexed [p, n, r] as they
    are; entry r is the procedure with up to r pool reads, so r = 1 is dorfman.
    """
    # n broadcasts over the r axis, p over the n and r axes.
    n = np.array(outcomes.n)[..., None]
    p = np.array(outcomes.p)
    p = p.reshape(p.shape + (1,) * n.ndim)
    p_declared_pos = outcomes.p_declared_pos

    # A positive subject is missed either because its pool never reads
    # positive, or because the follow-up individual test misses it.
    e_fn_pool = p * outcomes.missed_share
    e_fn_individual = p * (1.0 - kit.se_i) * outcomes.detected_share

    # A negative subject is falsely flagged only in the individual stage, so
    # its pool must read positive first.
    e_fp = (1.0 - kit.sp) * (1.0 - p) * outcomes.false_alarm_share

    # Pool tests per subject: the first read always happens, later ones only
    # after negative reads.
    e_tests = (1.0 + outcomes.extra_reads) / n + p_declared_pos

    return e_tests, e_fn_pool + e_fn_individual, e_fp, p_declared_pos, e_fn_pool, e_fn_individual


def _covering_outcomes(
    model: DilutionModel, p: float, n: int, r: int, outcomes: PoolOutcomes | None
) -> PoolOutcomes:
    """outcomes when it is pool_outcomes of this model, n, p and an r_max >= r;
    a fresh kernel call when it is None."""
    if outcomes is None:
        return pool_outcomes(model, n, p, model.kit.sp, r)
    covered = (outcomes.model, outcomes.n, outcomes.p, outcomes.sp) == (model, n, p, model.kit.sp)
    if not covered or r >= len(outcomes.extra_reads):
        raise ValueError(f"pool outcomes do not cover n={n}, p={p}, sp={model.kit.sp}, r={r}")
    return outcomes


def eval_dorfman(
    model: DilutionModel, p: float, n: int, outcomes: PoolOutcomes | None = None
) -> Metrics:
    """Metrics for classic two-stage pooling: one pool test, no retests.

    outcomes works as in eval_modified, with any r_max.
    """
    return eval_modified(model, p, n, 1, outcomes)


def eval_modified(
    model: DilutionModel, p: float, n: int, r: int, outcomes: PoolOutcomes | None = None
) -> Metrics:
    """Metrics for pooling with up to r pool tests, early-stopped on a positive.

    outcomes, when given, is pool_outcomes of this model, n and p for an
    r_max >= r, so that one kernel call serves every r and the posteriors.
    """
    p = check_prevalence(p)
    n = check_pool_size(n, minimum=2)
    r = check_retest_count(r)
    outcomes = _covering_outcomes(model, p, n, r, outcomes)
    return Metrics(*(values[r] for values in pooled_metrics(model.kit, outcomes)))


def evaluate(
    model: DilutionModel, p: float, config: ProcedureConfig, outcomes: PoolOutcomes | None = None
) -> Metrics:
    """Metrics of config at p: eval_individual's, or eval_modified's for
    dorfman, whose r is 1, and the modified procedure. outcomes works as in
    eval_modified and is not used for individual testing."""
    if config.kind is Procedure.INDIVIDUAL:
        return eval_individual(model.kit, p)
    return eval_modified(model, p, config.n, config.r, outcomes)


def _posterior(
    model: DilutionModel,
    p: float,
    n: int,
    r: int,
    outcomes: PoolOutcomes | None,
    declared_positive: bool,
) -> float:
    p = check_prevalence(p)
    n = check_pool_size(n, minimum=2)
    r = check_retest_count(r)
    outcomes = _covering_outcomes(model, p, n, r, outcomes)
    if declared_positive:
        share, event = outcomes.detected_share[r], outcomes.p_declared_pos[r]
    else:
        share, event = outcomes.missed_share[r], outcomes.p_declared_neg[r]
    if event == 0.0:
        outcome = "positive" if declared_positive else "negative"
        raise ValueError(
            f"P(pool declared {outcome}) is 0 in double precision at p={p}, n={n}, "
            f"r={r}, so the posterior given that outcome is undefined"
        )
    # The event is p * share plus a nonnegative term, so the ratio stays in [0, 1].
    return float(p * share / event)


def posterior_given_negative_pool(
    model: DilutionModel, p: float, n: int, r: int = 1, outcomes: PoolOutcomes | None = None
) -> float:
    """P(subject positive | its pool was declared negative).

    This is the per-subject leakage of the pool stage; with no dilution and a
    perfect kit it would be zero. Raises ValueError when a pool is never
    declared negative. outcomes works as in eval_modified.
    """
    return _posterior(model, p, n, r, outcomes, declared_positive=False)


def posterior_given_positive_pool(
    model: DilutionModel, p: float, n: int, r: int = 1, outcomes: PoolOutcomes | None = None
) -> float:
    """P(subject positive | its pool was declared positive).

    Raises ValueError when a pool is never declared positive, as with pools
    so large that the dilution curve reads 0 and the clean-pool chance
    underflows. outcomes works as in eval_modified.
    """
    return _posterior(model, p, n, r, outcomes, declared_positive=True)
