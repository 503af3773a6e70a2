"""Probability kernels shared by the analytic evaluators, the sweep and the simulator.

Beside the input validators and the binomial pmf rows, the module holds one
vectorised pool kernel, pool_outcomes. For a sensitivity model, a set of pool
sizes and a set of prevalences it returns every pool-read probability the
closed forms need, for each read budget r = 0..r_max at once; a single (n, p)
is its length-1 case. Se does not depend on the prevalence, so the kernel asks
the model for each size's Se row over k = 1..n once, builds the tensor of miss
chances (1 - Se(n,k))^j over (size, j = 0..r_max, k) and its complement, and
serves every prevalence from them. Per prevalence it weighs them by one binomial
pmf row per size: the law of a subject's n - 1 pool mates. Shifted by one
positive, that row gives a positive subject's shares; unshifted, a negative
subject's. The pool-level chances are the p-mixture of the two (Pascal's rule).
Every probability is a sum of nonnegative terms, never one minus another, so a
missed share near 1e-18 or a declared-positive chance that underflows to 0
keeps its digits.

The tensor is padded to the largest size it holds, so the sizes are taken in
ascending chunks that keep it under TENSOR_BYTES.

The binomial pmf is scipy.special's _binom_pmf ufunc, the function that
scipy.stats.binom.pmf calls, without scipy.stats' 0.8–1.0 s import or its
~90 µs per call. It keeps the row-sum error near the unit roundoff even for
very large n; a naive exp(lgamma) construction loses two digits by n = 10**4.
One call gives the zero-padded rows of every size in a chunk.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Protocol

import numpy as np
from scipy.special._ufuncs import _binom_pmf

__all__ = [
    "binomial_pmf_row",
    "pool_test_outcome_probs",
    "TENSOR_BYTES",
    "PoolOutcomes",
    "pool_outcomes",
    "SensitivityModel",
    "check_prevalence",
    "check_pool_size",
    "check_retest_count",
    "is_whole",
]


class SensitivityModel(Protocol):
    """Anything exposing Se(n, k) over an integer array k, as an array of its
    shape or a scalar that broadcasts to it; structural so test stubs qualify."""

    def sensitivity(self, n: int, k: np.ndarray) -> np.ndarray | float: ...

# Bounds accepted for pool size and total retest count. The upper limits are
# generous relative to anything a sweep visits; they exist to catch corrupted
# config values before they turn into gigantic allocations.
MAX_POOL_SIZE = 10_000
MAX_RETESTS = 100


def check_prevalence(p: float) -> float:
    """Validate a prevalence value, returning it unchanged."""
    p = float(p)
    if not math.isfinite(p) or not 0.0 < p < 1.0:
        raise ValueError(f"prevalence must lie strictly between 0 and 1, got {p!r}")
    return p


def is_whole(value) -> bool:
    """True when value equals an int; inf and nan are not, and do not raise."""
    try:
        return value == int(value)
    except (OverflowError, ValueError):
        return False


def _check_count(value, what: str, minimum: int, maximum: int) -> int:
    if not is_whole(value):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    value = int(value)
    if not minimum <= value <= maximum:
        raise ValueError(f"{what} must lie in [{minimum}, {maximum}], got {value}")
    return value


def check_pool_size(n: int, *, minimum: int = 1) -> int:
    """Validate a pool size, returning it as an int."""
    return _check_count(n, "pool size", minimum, MAX_POOL_SIZE)


def check_retest_count(r: int, *, minimum: int = 1) -> int:
    """Validate a total pool-test count, returning it as an int."""
    return _check_count(r, "retest count", minimum, MAX_RETESTS)


def binomial_pmf_row(n, p: float) -> np.ndarray:
    """The whole pmf row [P(K=0), ..., P(K=n)] for K ~ Binomial(n, p).

    n is an int or an integer array, never a float. For an array of sizes,
    one row per size from one call of scipy.special's _binom_pmf ufunc (the
    function scipy.stats.binom.pmf calls, without scipy.stats' 0.8–1.0 s
    import or its ~90 µs per call), zero-padded to the longest: the shape is
    n.shape + (max(n) + 1,). Clipped to [0, 1] as scipy.stats clips it.
    """
    sizes = np.asarray(n)
    if sizes.dtype.kind not in "iu" or (sizes < 0).any():
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    k = np.arange(sizes.max(initial=0) + 1)
    rows = np.clip(_binom_pmf(k, sizes[..., None], p), 0.0, 1.0)
    return np.where(k <= sizes[..., None], rows, 0.0)


class PoolOutcomes(NamedTuple):
    """Pool-read probabilities of one model and sp over pool sizes n and prevalences p.

    model is the sensitivity model the kernel was given. n and p are each a
    scalar or a tuple. Each array is indexed [p, n, r], with no axis for a
    scalar n or p, and r_max + 1 entries along r. Entry r holds the value for
    a pool read up to r times, stopping at the first positive read; entry 0
    (no read at all) is kept so that r indexes directly. A given positive
    subject's pool is declared positive or negative with the detected and
    missed shares, a given negative subject's pool positive with the
    false-alarm share.
    """

    model: SensitivityModel
    n: int | tuple[int, ...]
    p: float | tuple[float, ...]
    sp: float
    p_declared_pos: np.ndarray
    p_declared_neg: np.ndarray
    detected_share: np.ndarray
    missed_share: np.ndarray
    false_alarm_share: np.ndarray
    extra_reads: np.ndarray  # expected pool reads after the first


# Bytes the tensor of miss powers and their complements may take. Padded to
# n = 10,000 at r = 100, every pool size at once would need gigabytes.
TENSOR_BYTES = 32 * 2**20


def _size_chunks(sizes: list[int], reads: int):
    """Slices of the ascending sizes whose padded tensors fit in TENSOR_BYTES,
    at least one size each."""
    per_k = 2 * reads * np.dtype(float).itemsize
    start = 0
    for stop, size in enumerate(sizes):
        if stop > start and (stop + 1 - start) * per_k * (size + 1) > TENSOR_BYTES:
            yield slice(start, stop)
            start = stop
    if start < len(sizes):
        yield slice(start, len(sizes))


def pool_outcomes(model: SensitivityModel, n, p, sp: float, r_max: int) -> PoolOutcomes:
    """Every pool-read probability of pools of n at prevalence p, for r = 0..r_max.

    n (pool sizes) and p (prevalences) may each be a scalar or a sequence.
    """
    n_array, p_array = np.asarray(n), np.asarray(p)
    sizes = [check_pool_size(size) for size in n_array.ravel().tolist()]
    prevalences = [check_prevalence(value) for value in p_array.ravel().tolist()]
    sp = float(sp)
    if not 0.0 < sp <= 1.0:
        raise ValueError(f"sp must lie in (0, 1], got {sp!r}")
    r_max = check_retest_count(r_max)
    reads = np.arange(r_max + 1)[:, None]
    # Over [p, n, j, r, s]: j = 0 weighs the miss powers, j = 1 their
    # complements; s = 0 weighs by a negative subject's pool mates, s = 1 by
    # a positive subject's.
    shares = np.empty((len(prevalences), len(sizes), 2, r_max + 1, 2))
    order = sorted(range(len(sizes)), key=sizes.__getitem__)
    ascending = [sizes[i] for i in order]
    for chunk in _size_chunks(ascending, r_max + 1):
        chunk_sizes = ascending[chunk]
        width = chunk_sizes[-1] + 1
        # Chance that one read of a pool with k positives comes back negative;
        # for the clean pool (k = 0) that is the specificity. Past a size's own
        # k = n the padding meets a zero weight.
        miss = np.ones((len(chunk_sizes), width))
        miss[:, 0] = sp
        for row, size in zip(miss, chunk_sizes):
            k = np.arange(1, size + 1)
            row[1 : size + 1] = 1.0 - np.broadcast_to(model.sensitivity(size, k), k.shape)
        tensor = np.empty((len(chunk_sizes), 2, r_max + 1, width))
        np.power(miss[:, None, :], reads, out=tensor[:, 0])
        np.subtract(1.0, tensor[:, 0], out=tensor[:, 1])
        weights = np.zeros((len(chunk_sizes), 1, width, 2))
        for i, prevalence in enumerate(prevalences):
            # Pr(j; n-1, p) over a subject's n - 1 pool mates: the pool holds
            # k = j positives for a negative subject and k = j + 1 for a
            # positive one.
            mates = binomial_pmf_row(np.array(chunk_sizes) - 1, prevalence)
            weights[:, 0, :-1, 0] = mates
            weights[:, 0, 1:, 1] = mates
            shares[i, order[chunk]] = tensor @ weights
        del tensor  # before the next chunk's is built
    # Summed in floating point, a share can land one ulp above 1.
    np.minimum(shares, 1.0, out=shares)
    shape = p_array.shape + n_array.shape + (r_max + 1,)
    (cleared, missed), (false_alarm, detected) = shares.transpose(2, 4, 0, 1, 3).reshape(2, 2, *shape)
    # Pascal's rule, Pr(k; n, p) = p Pr(k-1; n-1, p) + (1-p) Pr(k; n-1, p): a
    # p-mixture of shares, each at most 1, rounds to at most 1.
    mix = np.array(prevalences).reshape(p_array.shape + (1,) * (n_array.ndim + 1))
    pos = mix * detected + (1.0 - mix) * false_alarm
    neg = mix * missed + (1.0 - mix) * cleared
    # Read l = 2..r happens only when reads 1..l-1 were all negative.
    extra_reads = np.zeros(shape)
    extra_reads[..., 2:] = np.cumsum(neg[..., 1:-1], axis=-1)
    n = tuple(sizes) if n_array.ndim else sizes[0]
    p = tuple(prevalences) if p_array.ndim else prevalences[0]
    return PoolOutcomes(model, n, p, sp, pos, neg, detected, missed, false_alarm, extra_reads)


def pool_test_outcome_probs(
    model: SensitivityModel, n: int, p: float, sp: float, r: int
) -> tuple[float, float]:
    """(P(pool declared positive), P(declared negative)) under up to r reads.

    A pool with k >= 1 positives is declared positive with probability
    1 - (1 - Se(n,k))^r, a clean pool with probability 1 - sp^r; both are
    averaged over the binomial count distribution. Each of the pair is its
    own sum, so they add to one up to rounding.
    """
    r = check_retest_count(r)
    outcomes = pool_outcomes(model, n, p, sp, r)
    return float(outcomes.p_declared_pos[r]), float(outcomes.p_declared_neg[r])
