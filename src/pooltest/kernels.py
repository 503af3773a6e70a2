"""Probability kernels shared by the analytic evaluators, the sweep and the simulator.

Beside the input validators and the binomial pmf row, the module holds one
vectorised pool kernel, pool_outcomes. For a sensitivity model, pool size n
and prevalence p it returns every pool-read probability the closed forms
need, for each read budget r = 0..r_max at once. It asks the model for the
whole Se row over k = 1..n in one call, builds the matrix of miss chances
(1 - Se(n,k))^j for j = 0..r_max, and weighs it by one binomial pmf row: the
law of a subject's n - 1 pool mates. Shifted by one positive, that row gives
a positive subject's shares; unshifted, a negative subject's. The pool-level
chances are the p-mixture of the two (Pascal's rule). Every probability is a
sum of nonnegative terms, never one minus another, so a missed share near
1e-18 or a declared-positive chance that underflows to 0 keeps its digits.

The binomial pmf is delegated to scipy, whose implementation keeps the
row-sum error near the unit roundoff even for very large n; a naive
exp(lgamma) construction loses two digits by n = 10**4. Its per-call
overhead dominates at small n, which is why the kernel asks for one row per
(n, p) and serves every r from it.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Protocol

import numpy as np
from scipy import stats

__all__ = [
    "binomial_pmf_row",
    "pool_test_outcome_probs",
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


def check_pool_size(n: int, *, minimum: int = 1) -> int:
    """Validate a pool size, returning it as an int."""
    if not is_whole(n):
        raise ValueError(f"pool size must be an integer, got {n!r}")
    n = int(n)
    if not minimum <= n <= MAX_POOL_SIZE:
        raise ValueError(f"pool size must lie in [{minimum}, {MAX_POOL_SIZE}], got {n}")
    return n


def check_retest_count(r: int, *, minimum: int = 1) -> int:
    """Validate a total pool-test count, returning it as an int."""
    if not is_whole(r):
        raise ValueError(f"retest count must be an integer, got {r!r}")
    r = int(r)
    if not minimum <= r <= MAX_RETESTS:
        raise ValueError(f"retest count must lie in [{minimum}, {MAX_RETESTS}], got {r}")
    return r


def binomial_pmf_row(n: int, p: float) -> np.ndarray:
    """The whole pmf row [P(K=0), ..., P(K=n)] for K ~ Binomial(n, p)."""
    if not is_whole(n) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    if p == 0.0 or p == 1.0:
        row = np.zeros(n + 1)
        row[n if p == 1.0 else 0] = 1.0
        return row
    return stats.binom.pmf(np.arange(n + 1), n, p)


class PoolOutcomes(NamedTuple):
    """Pool-read probabilities of one (model, n, p, sp), indexed by read budget.

    Each array has r_max + 1 entries. Entry r holds the value for a pool read
    up to r times, stopping at the first positive read; entry 0 (no read at
    all) is kept so that r indexes directly. A given positive subject's pool
    is declared positive or negative with the detected and missed shares, a
    given negative subject's pool positive with the false-alarm share.
    """

    n: int
    p: float
    sp: float
    p_declared_pos: np.ndarray
    p_declared_neg: np.ndarray
    detected_share: np.ndarray
    missed_share: np.ndarray
    false_alarm_share: np.ndarray
    extra_reads: np.ndarray  # expected pool reads after the first


def pool_outcomes(
    model: SensitivityModel, n: int, p: float, sp: float, r_max: int
) -> PoolOutcomes:
    """Every pool-read probability of a pool of n at prevalence p, for r = 0..r_max."""
    n = check_pool_size(n)
    p = check_prevalence(p)
    sp = float(sp)
    if not 0.0 < sp <= 1.0:
        raise ValueError(f"sp must lie in (0, 1], got {sp!r}")
    r_max = check_retest_count(r_max)
    # Chance that one read of a pool with k positives comes back negative;
    # for the clean pool (k = 0) that is the specificity.
    k = np.arange(1, n + 1)
    miss = np.concatenate(([sp], 1.0 - np.broadcast_to(model.sensitivity(n, k), k.shape)))
    miss_pow = miss ** np.arange(r_max + 1)[:, None]
    # Pr(j; n-1, p) over a subject's n - 1 pool mates: the pool holds k = j
    # positives for a negative subject and k = j + 1 for a positive one.
    mates = binomial_pmf_row(n - 1, p)
    weights = np.column_stack((np.append(mates, 0.0), np.append(0.0, mates)))
    # Summed in floating point, a share can land one ulp above 1.
    cleared, missed = np.minimum(miss_pow @ weights, 1.0).T
    false_alarm, detected = np.minimum((1.0 - miss_pow) @ weights, 1.0).T
    # Pascal's rule, Pr(k; n, p) = p Pr(k-1; n-1, p) + (1-p) Pr(k; n-1, p): a
    # p-mixture of shares, each at most 1, rounds to at most 1.
    pos = p * detected + (1.0 - p) * false_alarm
    neg = p * missed + (1.0 - p) * cleared
    # Read l = 2..r happens only when reads 1..l-1 were all negative.
    extra_reads = np.zeros(r_max + 1)
    extra_reads[2:] = np.cumsum(neg[1:-1])
    return PoolOutcomes(n, p, sp, pos, neg, detected, missed, false_alarm, extra_reads)


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
