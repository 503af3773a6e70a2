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
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .dilution import DilutionModel, TestKit
from .kernels import (
    PoolOutcomes,
    check_pool_size,
    check_prevalence,
    check_retest_count,
    pool_outcomes,
)
# Not called here, but bound under this module too: the benchmark's tracer
# wraps these names where the evaluators used to look them up.
from .kernels import binomial_pmf_row, pool_test_outcome_probs  # noqa: F401

__all__ = [
    "Procedure",
    "ProcedureConfig",
    "Metrics",
    "eval_individual",
    "eval_dorfman",
    "eval_modified",
    "pooled_metrics",
    "evaluate",
    "posterior_given_negative_pool",
    "posterior_given_positive_pool",
]


class Procedure(str, Enum):
    """The three testing procedures this package evaluates."""

    INDIVIDUAL = "individual"
    DORFMAN = "dorfman"
    MODIFIED = "modified"


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
        kind = Procedure(self.kind)
        object.__setattr__(self, "kind", kind)
        n = check_pool_size(self.n)
        r = check_retest_count(self.r)
        if kind is Procedure.INDIVIDUAL:
            if n != 1 or r != 1:
                raise ValueError(f"individual testing requires n = r = 1, got n={n}, r={r}")
        elif kind is Procedure.DORFMAN:
            if n < 2:
                raise ValueError(f"dorfman requires pool size n >= 2, got n={n}")
            if r != 1:
                raise ValueError(f"dorfman tests each pool once, got r={r}")
        else:
            if n < 2:
                raise ValueError(f"modified procedure requires pool size n >= 2, got n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)


@dataclass(frozen=True)
class Metrics:
    """Per-subject expectations for one procedure configuration.

    The three stage diagnostics are optional because persisted sweeps only
    carry the headline numbers; when present they satisfy
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
        for name, optional in _METRIC_FIELDS:
            value = getattr(self, name)
            if value is None and optional:  # an optional stage diagnostic
                continue
            value = float(value)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
            object.__setattr__(self, name, value)
        if self.e_tests_individual_stage is not None:
            if self.e_tests_individual_stage > self.e_tests + 1e-12:
                raise ValueError(
                    "individual-stage tests cannot exceed total expected tests: "
                    f"{self.e_tests_individual_stage} > {self.e_tests}"
                )
        if self.e_fn_pool_stage is not None and self.e_fn_individual_stage is not None:
            total = self.e_fn_pool_stage + self.e_fn_individual_stage
            if abs(total - self.e_fn) > 1e-12:
                raise ValueError(
                    f"stage false negatives {total} do not add up to e_fn {self.e_fn}"
                )


# (name, optional) of each Metrics field, taken once rather than per instance.
_METRIC_FIELDS = tuple((f.name, f.default is None) for f in fields(Metrics))


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
    if (outcomes.n, outcomes.p, outcomes.sp) != (n, p, model.kit.sp) or r >= len(outcomes.extra_reads):
        raise ValueError(f"pool outcomes do not cover n={n}, p={p}, sp={model.kit.sp}, r={r}")
    return outcomes


def _pooled_point(
    model: DilutionModel, p: float, n: int, r: int, outcomes: PoolOutcomes | None
) -> Metrics:
    outcomes = _covering_outcomes(model, p, n, r, outcomes)
    return Metrics(*(values[r] for values in pooled_metrics(model.kit, outcomes)))


def eval_dorfman(
    model: DilutionModel, p: float, n: int, outcomes: PoolOutcomes | None = None
) -> Metrics:
    """Metrics for classic two-stage pooling: one pool test, no retests.

    outcomes, when given, is pool_outcomes of this model, n and p for any
    r_max, so that one kernel call serves every r and the posteriors.
    """
    p = check_prevalence(p)
    n = check_pool_size(n, minimum=2)
    return _pooled_point(model, p, n, 1, outcomes)


def eval_modified(
    model: DilutionModel, p: float, n: int, r: int, outcomes: PoolOutcomes | None = None
) -> Metrics:
    """Metrics for pooling with up to r pool tests, early-stopped on a positive.

    outcomes works as in eval_dorfman, with r_max >= r.
    """
    p = check_prevalence(p)
    n = check_pool_size(n, minimum=2)
    r = check_retest_count(r)
    return _pooled_point(model, p, n, r, outcomes)


def evaluate(
    model: DilutionModel, p: float, config: ProcedureConfig, outcomes: PoolOutcomes | None = None
) -> Metrics:
    """Dispatch to the evaluator matching config.kind; outcomes works as in
    eval_modified and is not used for individual testing."""
    if config.kind is Procedure.INDIVIDUAL:
        return eval_individual(model.kit, p)
    if config.kind is Procedure.DORFMAN:
        return eval_dorfman(model, p, config.n, outcomes)
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
