"""Monte Carlo simulation of the testing procedures, chunked and reproducible.

Subjects are grouped into consecutive pools of n; the leftover subjects at
the end form one final short pool of their actual size, with sensitivity
evaluated at that size. Individual testing runs as pools of one subject,
which are never pool-tested, so every procedure has the same layout. Work
is split into fixed-size chunks of whole pools, and every chunk draws from
its own counter-based stream seeded by (seed, chunk_index). Because chunk
streams are independent and results are reduced by integer addition, the
outcome is identical for any thread count.

simulate() runs one of two engines over the same chunks and streams; within
a chunk each has a fixed draw order.

- The count engine, the default, draws per pool. A pool chunk draws the
  positive count k ~ Binomial(n, p) of every pool, then r pool reads per
  pool against Se(n, k), then, for the pools declared positive only,
  TP ~ Binomial(k, Se_I) and FP ~ Binomial(n - k, 1 - Sp) per pool. FN is
  the chunk's positives less TP, and TN the rest. An individual chunk makes
  three draws: its positives ~ Binomial(pools, p), then TP and FP as above.
- The per-subject engine (per_subject=True), the reference that verify
  runs, draws per subject: subject statuses first, then r pool reads per
  pool, then one individual read per subject, all consumed whether or not
  the procedure needed them. Its draws do not follow the closed forms'
  binomial decomposition, which is what makes verify an independent check.

Both engines draw all r pool reads and apply early-stopped retests
logically on top of them: a pool declared positive used the reads up to its
first positive one.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .dilution import DilutionModel, TestKit
from .evaluate import Metrics, Procedure, ProcedureConfig, evaluate
from .kernels import check_prevalence, is_whole

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
        if not is_whole(self.subjects) or int(self.subjects) < 1:
            raise ValueError(f"subjects must be a positive integer, got {self.subjects!r}")
        object.__setattr__(self, "subjects", int(self.subjects))
        if not is_whole(self.seed) or not 0 <= int(self.seed) < _MAX_SEED:
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
        for name in (f.name for f in fields(self)):
            value = getattr(self, name)
            if not is_whole(value) or int(value) < 0:
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
    k = np.arange(1, n + 1)
    return np.concatenate(([1.0 - model.kit.sp], np.broadcast_to(model.sensitivity(n, k), k.shape)))


def _read_individuals(rng: np.random.Generator, kit: TestKit, status: np.ndarray, tested):
    """One individual read per subject; a subject is classified positive when
    it was tested and its read came back positive. Returns (TP, FP, TN, FN)."""
    reads = rng.random(status.shape)
    positive = (reads < np.where(status, kit.se_i, 1.0 - kit.sp)) & tested
    tp = int(np.count_nonzero(status & positive))
    fp = int(np.count_nonzero(~status & positive))
    fn = int(np.count_nonzero(status & ~positive))
    return tp, fp, status.size - tp - fp - fn, fn


def _run_individual_chunk(config: SimConfig, pools: int, pool_size: int, se_row: np.ndarray, chunk_index: int):
    """Per-subject reference: a status and a read for each subject of `pools`
    pools of one, one chunk, one stream; se_row is unused."""
    rng = _chunk_rng(config.seed, chunk_index)
    status = rng.random(pools) < config.p
    return (0, pools, *_read_individuals(rng, config.model.kit, status, True))


def _count_individual_chunk(config: SimConfig, pools: int, pool_size: int, se_row: np.ndarray, chunk_index: int):
    """`pools` subjects tested once each, in three binomial draws; se_row is unused."""
    rng = _chunk_rng(config.seed, chunk_index)
    kit = config.model.kit
    positives = int(rng.binomial(pools, config.p))
    tp = int(rng.binomial(positives, kit.se_i))
    fp = int(rng.binomial(pools - positives, 1.0 - kit.sp))
    return 0, pools, tp, fp, pools - positives - fp, positives - tp


def _read_pools(rng: np.random.Generator, read_prob: np.ndarray, r: int):
    """Draw r reads per pool: (declared positive per pool, pool reads used)."""
    pools = len(read_prob)
    read_positive = rng.random((pools, r)) < read_prob[:, None]
    # argmax finds the first positive read, or read 0 in a pool with none.
    first_positive = read_positive.argmax(axis=1)
    declared_positive = read_positive[np.arange(pools), first_positive]
    # Early stop: reads after the first positive never happen, so a declared
    # positive pool used argmax+1 reads and a negative pool used all r.
    return declared_positive, int(np.where(declared_positive, first_positive + 1, r).sum())


def _run_pool_chunk(
    config: SimConfig,
    pools: int,
    pool_size: int,
    se_row: np.ndarray,
    chunk_index: int,
):
    """Per-subject reference: `pools` pools of `pool_size`, one chunk, one stream."""
    rng = _chunk_rng(config.seed, chunk_index)
    status = rng.random((pools, pool_size)) < config.p
    declared_positive, pool_tests = _read_pools(
        rng, se_row[status.sum(axis=1)], config.procedure.r
    )
    individual_tests = pool_size * int(np.count_nonzero(declared_positive))
    classified = _read_individuals(rng, config.model.kit, status, declared_positive[:, None])
    return (pool_tests, individual_tests, *classified)


def _count_pool_chunk(
    config: SimConfig,
    pools: int,
    pool_size: int,
    se_row: np.ndarray,
    chunk_index: int,
):
    """`pools` pools of `pool_size` from per-pool counts, one chunk, one stream."""
    rng = _chunk_rng(config.seed, chunk_index)
    kit = config.model.kit

    k = rng.binomial(pool_size, config.p, size=pools)
    declared_positive, pool_tests = _read_pools(rng, se_row[k], config.procedure.r)

    # Only subjects of pools declared positive are read individually.
    k_tested = k[declared_positive]
    tp = int(rng.binomial(k_tested, kit.se_i).sum())
    fp = int(rng.binomial(pool_size - k_tested, 1.0 - kit.sp).sum())
    positives = int(k.sum())
    tn = pools * pool_size - positives - fp
    return pool_tests, pool_size * len(k_tested), tp, fp, tn, positives - tp


def simulate(config: SimConfig, threads: int = 1, *, per_subject: bool = False) -> SimResult:
    """Run one simulation; identical config gives identical result at any thread count.

    per_subject=True runs the per-subject reference engine in place of the
    count engine; the two give different counts for the same seed.
    """
    if not is_whole(threads) or not 1 <= int(threads) <= 64:
        raise ValueError(f"threads must be an integer in [1, 64], got {threads!r}")
    threads = int(threads)
    if config.procedure.kind is Procedure.INDIVIDUAL:
        chunk = _run_individual_chunk if per_subject else _count_individual_chunk
    else:
        chunk = _run_pool_chunk if per_subject else _count_pool_chunk

    # Individual testing is pools of one, whose remainder is always empty.
    n = config.procedure.n
    full_pools, remainder = divmod(config.subjects, n)
    pools_per_chunk = max(1, _CHUNK_SUBJECT_TARGET // n)
    # The Se rows are built here, in the calling thread; workers run chunks only.
    se_row = _sensitivity_row(config.model, n)
    jobs = [
        partial(chunk, config, min(pools_per_chunk, full_pools - start), n, se_row, ci)
        for ci, start in enumerate(range(0, full_pools, pools_per_chunk))
    ]
    if remainder:
        short_row = _sensitivity_row(config.model, remainder)
        jobs.append(partial(chunk, config, 1, remainder, short_row, len(jobs)))

    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(lambda job: job(), jobs))

    pool_tests, individual_tests, tp, fp, tn, fn = (sum(column) for column in zip(*parts))
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
    prevalences = (0.001, 0.01, 0.1)
    # Config (i, j) runs on seed + 10 i + j; the last of them must fit in 64 bits too.
    top = 10 * (len(prevalences) - 1) + len(shapes) - 1
    if not 0 <= seed < _MAX_SEED - top:
        raise ValueError(
            f"base seed must lie in [0, {_MAX_SEED - top - 1}] so that the derived "
            f"seeds up to seed + {top} fit in 64 bits, got {seed!r}"
        )
    configs = []
    for i, p in enumerate(prevalences):
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
    """Simulate every config and compare per-subject rates to the closed forms.

    The simulations run the per-subject reference engine, whose draws are
    independent of the binomial decomposition the closed forms are built on.
    """
    configs = tuple(configs)
    if not configs:
        raise ValueError("need at least one config to verify")

    errors: dict[tuple[str, Procedure, str], list[float]] = {}
    for config in configs:
        result = simulate(config, threads=threads, per_subject=True)
        analytic: Metrics = evaluate(config.model, config.p, config.procedure)
        pairs = (
            ("e_tests", result.tests_per_subject, analytic.e_tests),
            ("e_fn", result.fn_per_subject, analytic.e_fn),
            ("e_fp", result.fp_per_subject, analytic.e_fp),
        )
        for metric, observed, expected in pairs:
            if expected == 0.0:
                mode, error = "absolute-mean", abs(observed)
            else:
                rel = (observed - expected) / expected
                mode, error = "relative-mse", rel * rel
            errors.setdefault((mode, config.procedure.kind, metric), []).append(error)

    # Relative rows first, then by procedure name and metric.
    return tuple(
        VerificationRow(
            kind=kind,
            metric=metric,
            mode=mode,
            value=float(np.mean(values)),
            configs=len(values),
        )
        for (mode, kind, metric), values in sorted(
            errors.items(),
            key=lambda item: (item[0][0] != "relative-mse", item[0][1].value, item[0][2]),
        )
    )
