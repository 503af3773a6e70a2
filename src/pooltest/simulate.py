"""Monte Carlo simulation of the testing procedures, chunked and reproducible.

Subjects are grouped into consecutive pools of n; the leftover subjects at
the end form one final short pool of their actual size, with sensitivity
evaluated at that size. Work is split into fixed-size chunks of whole pools,
and every chunk draws from its own counter-based stream seeded by
(seed, chunk_index). Within a chunk the draw order is fixed: subject
statuses first, then r pool reads per pool, then n individual reads per
pool, all consumed whether or not the procedure needed them. Decisions such
as early-stopped retests are applied logically on top of the pre-drawn
values. Because chunk streams are independent and results are reduced by
integer addition, the outcome is identical for any thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dilution import DilutionModel
from .evaluate import Metrics, Procedure, ProcedureConfig, evaluate
from .kernels import check_prevalence, sensitivity_row

__all__ = [
    "DESK_SCALE_SUBJECTS",
    "SimConfig",
    "SimResult",
    "simulate",
    "VerificationRow",
    "verify_against_analytic",
    "default_verification_configs",
]

DESK_SCALE_SUBJECTS = 10_000_000

# Full chunks cover about 2**20 subjects regardless of pool size, keeping the
# per-chunk working set near a few megabytes.
_CHUNK_SUBJECT_TARGET = 1 << 20

_MAX_SEED = 2**64


@dataclass(frozen=True)
class SimConfig:
    """Everything one simulation run depends on, and nothing else."""

    subjects: int
    seed: int
    procedure: ProcedureConfig
    model: DilutionModel
    p: float

    def __post_init__(self) -> None:
        if self.subjects != int(self.subjects) or int(self.subjects) < 1:
            raise ValueError(f"subjects must be a positive integer, got {self.subjects!r}")
        object.__setattr__(self, "subjects", int(self.subjects))
        if self.seed != int(self.seed) or not 0 <= int(self.seed) < _MAX_SEED:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "p", check_prevalence(self.p))


@dataclass(frozen=True)
class SimResult:
    """Counts from one run. tests is pool reads plus individual reads."""

    subjects: int
    tests: int
    pool_tests: int
    individual_tests: int
    true_positives: int
    false_positives: int
    true_negatives: int
    false_negatives: int

    def __post_init__(self) -> None:
        for name in (
            "subjects",
            "tests",
            "pool_tests",
            "individual_tests",
            "true_positives",
            "false_positives",
            "true_negatives",
            "false_negatives",
        ):
            value = getattr(self, name)
            if value != int(value) or int(value) < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.tests != self.pool_tests + self.individual_tests:
            raise ValueError(
                f"tests {self.tests} != pool {self.pool_tests} + individual {self.individual_tests}"
            )
        classified = (
            self.true_positives
            + self.false_positives
            + self.true_negatives
            + self.false_negatives
        )
        if classified != self.subjects:
            raise ValueError(
                f"classified {classified} subjects out of {self.subjects}; "
                "every subject must be classified exactly once"
            )

    @property
    def tests_per_subject(self) -> float:
        return self.tests / self.subjects

    @property
    def fn_per_subject(self) -> float:
        return self.false_negatives / self.subjects

    @property
    def fp_per_subject(self) -> float:
        return self.false_positives / self.subjects


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(chunk_index,)))
    )


def _sensitivity_row(model: DilutionModel, n: int) -> np.ndarray:
    """Read probabilities by positive count k = 0..n; k = 0 is a false positive."""
    return np.concatenate(([1.0 - model.kit.sp], sensitivity_row(model, n)))


def _run_individual_chunk(config: SimConfig, start: int, count: int, chunk_index: int):
    rng = _chunk_rng(config.seed, chunk_index)
    kit = config.model.kit
    status = rng.random(count) < config.p
    reads = rng.random(count)
    positive_read = reads < np.where(status, kit.se_i, 1.0 - kit.sp)
    tp = int(np.count_nonzero(status & positive_read))
    fp = int(np.count_nonzero(~status & positive_read))
    fn = int(np.count_nonzero(status & ~positive_read))
    tn = count - tp - fp - fn
    return 0, count, tp, fp, tn, fn


def _run_pool_chunk(
    config: SimConfig,
    pools: int,
    pool_size: int,
    se_row: np.ndarray,
    chunk_index: int,
):
    """Simulate `pools` pools of `pool_size`, one chunk, one stream."""
    rng = _chunk_rng(config.seed, chunk_index)
    kit = config.model.kit
    r = config.procedure.r

    status = rng.random((pools, pool_size)) < config.p
    k = status.sum(axis=1)
    read_prob = se_row[k]

    pool_reads = rng.random((pools, r))
    read_positive = pool_reads < read_prob[:, None]
    declared_positive = read_positive.any(axis=1)
    # Early stop: reads after the first positive never happen, so a declared
    # positive pool used argmax+1 reads and a negative pool used all r.
    first_positive = read_positive.argmax(axis=1)
    pool_tests = int(np.where(declared_positive, first_positive + 1, r).sum())

    individual_reads = rng.random((pools, pool_size))
    read_hit = individual_reads < np.where(status, kit.se_i, 1.0 - kit.sp)
    classified_positive = read_hit & declared_positive[:, None]

    tp = int(np.count_nonzero(status & classified_positive))
    fp = int(np.count_nonzero(~status & classified_positive))
    fn = int(np.count_nonzero(status & ~classified_positive))
    tn = pools * pool_size - tp - fp - fn
    individual_tests = pool_size * int(np.count_nonzero(declared_positive))
    return pool_tests, individual_tests, tp, fp, tn, fn


def simulate(config: SimConfig, threads: int = 1) -> SimResult:
    """Run one simulation; identical config gives identical result at any thread count."""
    if threads != int(threads) or not 1 <= int(threads) <= 64:
        raise ValueError(f"threads must be an integer in [1, 64], got {threads!r}")
    threads = int(threads)

    if config.procedure.kind is Procedure.INDIVIDUAL:
        chunk = _CHUNK_SUBJECT_TARGET
        spans = [
            (start, min(chunk, config.subjects - start))
            for start in range(0, config.subjects, chunk)
        ]
        jobs = [
            (lambda ci=ci, s=s, c=c: _run_individual_chunk(config, s, c, ci))
            for ci, (s, c) in enumerate(spans)
        ]
    else:
        n = config.procedure.n
        full_pools = config.subjects // n
        remainder = config.subjects % n
        pools_per_chunk = max(1, _CHUNK_SUBJECT_TARGET // n)
        se_row = _sensitivity_row(config.model, n)
        jobs = []
        chunk_index = 0
        for start in range(0, full_pools, pools_per_chunk):
            m = min(pools_per_chunk, full_pools - start)
            jobs.append(
                lambda ci=chunk_index, m=m: _run_pool_chunk(config, m, n, se_row, ci)
            )
            chunk_index += 1
        if remainder:
            short_row = _sensitivity_row(config.model, remainder)
            jobs.append(
                lambda ci=chunk_index: _run_pool_chunk(config, 1, remainder, short_row, ci)
            )

    if threads == 1:
        parts = [job() for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda job: job(), jobs))

    pool_tests = sum(part[0] for part in parts)
    individual_tests = sum(part[1] for part in parts)
    tp = sum(part[2] for part in parts)
    fp = sum(part[3] for part in parts)
    tn = sum(part[4] for part in parts)
    fn = sum(part[5] for part in parts)
    return SimResult(
        subjects=config.subjects,
        tests=pool_tests + individual_tests,
        pool_tests=pool_tests,
        individual_tests=individual_tests,
        true_positives=tp,
        false_positives=fp,
        true_negatives=tn,
        false_negatives=fn,
    )


@dataclass(frozen=True)
class VerificationRow:
    """Aggregate agreement between simulation and the closed forms.

    mode is "relative-mse" (mean over configs of squared relative error)
    except when the analytic value is exactly zero, where relative error is
    undefined and the row falls back to mean absolute error.
    """

    kind: Procedure
    metric: str
    mode: str
    value: float
    configs: int


def default_verification_configs(
    model: DilutionModel,
    subjects: int = DESK_SCALE_SUBJECTS,
    seed: int = 20240801,
) -> tuple[SimConfig, ...]:
    """A fixed spread of prevalences across all three procedures."""
    shapes = (
        ProcedureConfig(Procedure.INDIVIDUAL),
        ProcedureConfig(Procedure.DORFMAN, n=10),
        ProcedureConfig(Procedure.MODIFIED, n=10, r=3),
    )
    configs = []
    for i, p in enumerate((0.001, 0.01, 0.1)):
        for j, shape in enumerate(shapes):
            configs.append(
                SimConfig(
                    subjects=subjects,
                    seed=seed + 10 * i + j,
                    procedure=shape,
                    model=model,
                    p=p,
                )
            )
    return tuple(configs)


def verify_against_analytic(
    configs: tuple[SimConfig, ...] | list[SimConfig],
    threads: int = 1,
) -> tuple[VerificationRow, ...]:
    """Simulate every config and compare per-subject rates to the closed forms."""
    configs = tuple(configs)
    if not configs:
        raise ValueError("need at least one config to verify")

    relative: dict[tuple[Procedure, str], list[float]] = {}
    absolute: dict[tuple[Procedure, str], list[float]] = {}
    for config in configs:
        result = simulate(config, threads=threads)
        analytic: Metrics = evaluate(config.model, config.p, config.procedure)
        pairs = (
            ("e_tests", result.tests_per_subject, analytic.e_tests),
            ("e_fn", result.fn_per_subject, analytic.e_fn),
            ("e_fp", result.fp_per_subject, analytic.e_fp),
        )
        for metric, observed, expected in pairs:
            key = (config.procedure.kind, metric)
            if expected == 0.0:
                absolute.setdefault(key, []).append(abs(observed - expected))
            else:
                err = (observed - expected) / expected
                relative.setdefault(key, []).append(err * err)

    rows = []
    for (kind, metric), errors in sorted(
        relative.items(), key=lambda item: (item[0][0].value, item[0][1])
    ):
        rows.append(
            VerificationRow(
                kind=kind,
                metric=metric,
                mode="relative-mse",
                value=float(np.mean(errors)),
                configs=len(errors),
            )
        )
    for (kind, metric), errors in sorted(
        absolute.items(), key=lambda item: (item[0][0].value, item[0][1])
    ):
        rows.append(
            VerificationRow(
                kind=kind,
                metric=metric,
                mode="absolute-mean",
                value=float(np.mean(errors)),
                configs=len(errors),
            )
        )
    return tuple(rows)
