"""Monte Carlo simulation of the testing procedures, chunked and reproducible.

Subjects are grouped into consecutive pools of n; the leftover subjects at
the end form one final short pool of their actual size, with sensitivity
evaluated at that size. Individual testing runs as pools of one read zero
times, so every pool goes on to individual reads and every procedure has
the same layout. Work is split into fixed-size chunks of whole pools, and
every chunk draws from its own PCG64 stream, spawned from the seed's
SeedSequence at key (chunk_index,). Because chunk streams are independent
and results are reduced by integer addition, the outcome is identical for
any thread count. The Se rows and class laws are built in the calling
thread before any chunk runs; then the calling thread and threads - 1
helper threads run chunks from one job list, taking the next job as each
finishes (next() on a list iterator is atomic under the GIL).

simulate() runs one of two engines, each one chunk function with a fixed
draw order, over the same chunks and streams.

- The count engine, the default, draws by positive-count class and holds
  no per-pool arrays: the pools at each count k ~ Multinomial(pools, the
  Binomial(n, p) row normalised); for each k with pools, the read of their
  first positive result, 1..r or none, ~ Multinomial(pools at k, the
  geometric law of the miss chance 1 - Se(n, k) truncated at r); then
  TP ~ Binomial(sum of k over pools declared positive, Se_I) and
  FP ~ Binomial(sum of n - k over them, 1 - Sp). FN is the chunk's
  positives less TP, and TN the rest.
- The per-subject engine (per_subject=True), the reference that verify
  runs, draws subject statuses, then r pool reads per pool, all consumed
  whether or not early stopping needed them, then one individual read per
  subject of each pool declared positive, and applies early-stopped retests
  logically on top. Statuses, the reads of the pools at each drawn positive
  count k, and individual reads are Bernoulli sequences, drawn as their
  successes' cumulative Geometric gaps (over the misses when success is the
  likelier outcome), each ceil(E / -log1p(-q)) for E ~ Exponential(1): one
  uniform per trial's law at O(successes) draws, and rng.geometric's draws
  for q < 1/3 (its law, not its stream, in [1/3, 1/2]). Using no pmf row or
  class law, they make verify a check independent of the closed forms.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from functools import partial
from typing import NamedTuple

import numpy as np

from .dilution import DilutionModel
from .evaluate import Metrics, Procedure, ProcedureConfig, evaluate
from .kernels import binomial_pmf_row, check_prevalence, is_whole

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
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(chunk_index,)))
    )


class _PoolLaw(NamedTuple):
    """How pools of one size are read and filled.

    reads is the pool reads' budget, 0 for individual testing. read_prob[k] is
    a read's chance to come back positive with k positives in the pool (k = 0
    is a false positive), and classes[k] the chance that a pool holds k, the
    Binomial(size, p) row normalised.
    """

    size: int
    reads: int
    read_prob: np.ndarray
    classes: np.ndarray


def _pool_law(config: SimConfig, n: int) -> _PoolLaw:
    k = np.arange(1, n + 1)
    se = np.broadcast_to(config.model.sensitivity(n, k), k.shape)
    classes = binomial_pmf_row(n, config.p)
    procedure = config.procedure
    return _PoolLaw(
        size=n,
        reads=0 if procedure.kind is Procedure.INDIVIDUAL else procedure.r,
        read_prob=np.concatenate(([1.0 - config.model.kit.sp], se)),
        classes=classes / classes.sum(),
    )


class _Walks(threading.local):
    """Each thread's float64 draw buffer for the walks of one simulate() call.
    A walk overwrites the last, so its positions are valid until that thread's next walk."""

    def __init__(self) -> None:
        self.draws = np.empty(0)


def _rarer(rng: np.random.Generator, q: float, trials: int, walks: _Walks) -> np.ndarray:
    """Sorted positions 1..trials (float64) of the rarer outcome in `trials` Bernoulli(q)
    trials, the successes or for q > 1/2 the misses, at ceil(Exponential / -log1p(-rate))
    gaps: rng.geometric's draws for rate < 1/3, its law but not its stream in [1/3, 1/2].

    The walk is drawn into walks.draws, a second batch after the first, growing it if
    needed; the result is a view of it, valid until the next walk into the same buffer,
    which overwrites it."""
    rate = min(q, 1.0 - q)
    # libm's log1p, as numpy's geometric sampler uses. Capped at trials + 1 (the
    # divide is inf at rate = 5e-324), every gap and sum is a whole number held exactly.
    scale, used, end = -math.log1p(-rate), 0, 0.0
    batch = int(trials * rate + 4.0 * (trials * rate) ** 0.5) + 1
    while rate > 0.0 and end < trials:
        if walks.draws.size < used + batch:
            walks.draws = np.concatenate((walks.draws[:used], np.empty(batch)))
        gaps = walks.draws[used : used + batch]
        rng.standard_exponential(out=gaps)
        with np.errstate(over="ignore"):
            np.minimum(np.ceil(np.divide(gaps, scale, out=gaps), out=gaps), trials + 1, out=gaps)
        gaps[0] += end
        end = np.cumsum(gaps, out=gaps)[-1]
        used += batch
    positions = walks.draws[:used]
    return positions[: np.searchsorted(positions, trials, "right")]


def _count(rng: np.random.Generator, q: float, trials: int, walks: _Walks) -> int:
    """Successes in `trials` Bernoulli(q) trials: the walk's length, or the rest."""
    rarer = _rarer(rng, q, trials, walks).size
    return trials - rarer if q > 0.5 else rarer


def _class_counts(rng: np.random.Generator, q: float, blocks: int, size: int, walks: _Walks) -> np.ndarray:
    """Entry k: how many of `blocks` runs of `size` consecutive Bernoulli(q)
    trials hold k successes, from the lengths of the walk's stretches per run."""
    ids = _rarer(rng, q, blocks * size, walks)
    np.ceil(np.divide(ids, size, out=ids), out=ids)  # each position's run, exact below 2**53
    edge = np.ones(ids.size + 1, dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=edge[1:-1])
    starts = np.flatnonzero(edge)
    lengths = np.subtract(starts[1:], starts[:-1], out=starts[:-1])
    counts = np.bincount(lengths, minlength=size + 1)
    counts[0] = blocks - counts.sum()
    return counts[::-1] if q > 0.5 else counts


def _first_successes(rng: np.random.Generator, q: float, blocks: int, size: int, walks: _Walks) -> tuple[int, int]:
    """Of `blocks` runs of `size` consecutive Bernoulli(q) trials, those with a
    success, and the sum of their first success's index in the run."""
    if size == 1:  # Each run is one trial, its own first success at index 0.
        return _count(rng, q, blocks, walks), 0
    block, offset = np.divmod(_rarer(rng, q, blocks * size, walks).astype(np.int64) - 1, size)
    start = np.diff(block, prepend=-1) != 0
    if q <= 0.5:
        return int(np.count_nonzero(start)), int(offset[start].sum())
    # Misses: a run's leading misses have offset == rank, the index less the run's first index.
    at = np.arange(block.size)
    lead = offset == at - np.maximum.accumulate(at * start)
    missed = int(np.count_nonzero(lead & (offset == size - 1)))
    return blocks - missed, int(np.count_nonzero(lead)) - size * missed


def _subject_chunk(config: SimConfig, pools: int, law: _PoolLaw, chunk_index: int, *, walks: _Walks):
    """Per-subject reference: every status and read of `pools` pools, one chunk, one stream."""
    rng = _chunk_rng(config.seed, chunk_index)
    # No pool stage: every pool goes on to individual reads.
    total = 0 if law.reads else _count(rng, config.p, pools * law.size, walks)
    pool_tests, declared, read_positives = (0, 0, 0) if law.reads else (0, pools, total)
    if law.reads:
        by_count = _class_counts(rng, config.p, pools, law.size, walks)
        total = int(np.arange(law.size + 1) @ by_count)
        # The pools at each drawn count k read as one Bernoulli(read_prob[k])
        # sequence, r trials per pool. Early stop: a declared pool used its first
        # positive read's index + 1 reads, any other all r.
        for k in np.flatnonzero(by_count):
            hit, first = _first_successes(rng, law.read_prob[k], int(by_count[k]), law.reads, walks)
            pool_tests += first + hit + law.reads * (int(by_count[k]) - hit)
            declared, read_positives = declared + hit, read_positives + int(k) * hit

    kit = config.model.kit
    # One individual read per subject of a declared positive pool; a subject is
    # classified positive when its own read comes back positive.
    read = law.size * declared
    tp = _count(rng, kit.se_i, read_positives, walks)
    fp = _count(rng, 1.0 - kit.sp, read - read_positives, walks)
    return pool_tests, read, tp, fp, pools * law.size - total - fp, total - tp


def _count_chunk(config: SimConfig, pools: int, law: _PoolLaw, chunk_index: int):
    """`pools` pools drawn by positive-count class, one chunk, one stream."""
    rng = _chunk_rng(config.seed, chunk_index)
    kit = config.model.kit

    by_class = rng.multinomial(pools, law.classes)
    k = np.flatnonzero(by_class)
    in_class = by_class[k]
    # Per class, the pools whose first positive read is read 1..r, then those
    # with none: a geometric law truncated at r, with the miss chance 1 - Se.
    miss = 1.0 - law.read_prob[k, None]
    powers = miss ** np.arange(law.reads + 1)
    by_read = rng.multinomial(in_class, np.concatenate((powers[:, :-1] * (1.0 - miss), powers[:, -1:]), axis=1))
    # No pool stage: every pool goes on to individual reads.
    declared = by_read[:, :-1].sum(axis=1) if law.reads else in_class
    per_read = by_read.sum(axis=0)
    pool_tests = int(per_read[:-1] @ np.arange(1, law.reads + 1)) + law.reads * int(per_read[-1])

    positives = int(k @ in_class)
    tp = int(rng.binomial(int(k @ declared), kit.se_i))
    fp = int(rng.binomial(int((law.size - k) @ declared), 1.0 - kit.sp))
    tn = pools * law.size - positives - fp
    return pool_tests, law.size * int(declared.sum()), tp, fp, tn, positives - tp


def simulate(config: SimConfig, threads: int = 1, *, per_subject: bool = False) -> SimResult:
    """Run one simulation; identical config gives identical result at any thread count.

    per_subject=True runs the per-subject reference engine in place of the
    count engine; the two give different counts for the same seed.
    """
    if not is_whole(threads) or not 1 <= int(threads) <= 64:
        raise ValueError(f"threads must be an integer in [1, 64], got {threads!r}")
    threads = int(threads)
    # Each thread's walks reuse one buffer, dropped with the job list on return.
    chunk = partial(_subject_chunk, walks=_Walks()) if per_subject else _count_chunk

    # Individual testing is pools of one, whose remainder is always empty.
    n = config.procedure.n
    full_pools, remainder = divmod(config.subjects, n)
    pools_per_chunk = max(1, _CHUNK_SUBJECT_TARGET // n)
    # The laws are built here, in the calling thread, before any chunk runs.
    law = _pool_law(config, n)
    jobs = [
        partial(chunk, config, min(pools_per_chunk, full_pools - start), law, ci)
        for ci, start in enumerate(range(0, full_pools, pools_per_chunk))
    ]
    if remainder:
        jobs.append(partial(chunk, config, 1, _pool_law(config, remainder), len(jobs)))

    # The calling thread and threads - 1 helpers drain one job list; a helper's
    # exception is re-raised by its result(). At one thread no thread starts.
    todo = iter(jobs)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        helpers = [pool.submit(lambda: [job() for job in todo]) for _ in range(min(threads, len(jobs)) - 1)]
        parts = [job() for job in todo] + [part for helper in helpers for part in helper.result()]

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
