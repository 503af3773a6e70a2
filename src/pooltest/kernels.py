"""Probability kernels shared by the analytic evaluators, the sweep and the simulator.

Beside the input validators and a few scalar helpers, the module holds one
vectorised pool kernel, pool_outcomes. For a sensitivity model, pool size n
and prevalence p it returns every pool-read probability the closed forms
need, for each read budget r = 0..r_max at once. It builds the read
probability row over k = 0..n positives once, two binomial pmf rows, and
the matrix of miss chances (1 - Se(n,k))^j for j = 0..r_max; each result is
that matrix, or one minus it, times a pmf row. Every probability is its own
sum of nonnegative terms, never one minus another, so a missed share near
1e-18 or a declared-positive chance that underflows to 0 keeps its digits.

The binomial pmf is delegated to scipy, whose implementation keeps the
row-sum error near machine epsilon even for very large n; a naive
exp(lgamma) construction loses two digits by n = 10**4. Its per-call
overhead dominates at small n, which is why the kernel asks for two rows per
(n, p) and serves every r from them.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Protocol

import numpy as np
from scipy import stats

__all__ = [
    "binomial_pmf",
    "binomial_pmf_row",
    "pool_positive_prob",
    "pool_sensitivity_avg",
    "pool_test_outcome_probs",
    "PoolOutcomes",
    "pool_outcomes",
    "sensitivity_row",
    "SensitivityModel",
    "check_prevalence",
    "check_pool_size",
    "check_retest_count",
]


class SensitivityModel(Protocol):
    """Anything exposing Se(n, k); structural so test stubs qualify too."""

    def sensitivity(self, n: int, k: int) -> float: ...

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


def check_pool_size(n: int, *, minimum: int = 1) -> int:
    """Validate a pool size, returning it as an int."""
    if n != int(n):
        raise ValueError(f"pool size must be an integer, got {n!r}")
    n = int(n)
    if not minimum <= n <= MAX_POOL_SIZE:
        raise ValueError(f"pool size must lie in [{minimum}, {MAX_POOL_SIZE}], got {n}")
    return n


def check_retest_count(r: int, *, minimum: int = 1) -> int:
    """Validate a total pool-test count, returning it as an int."""
    if r != int(r):
        raise ValueError(f"retest count must be an integer, got {r!r}")
    r = int(r)
    if not minimum <= r <= MAX_RETESTS:
        raise ValueError(f"retest count must lie in [{minimum}, {MAX_RETESTS}], got {r}")
    return r


def binomial_pmf(k: int, n: int, p: float) -> float:
    """P(K = k) for K ~ Binomial(n, p).

    Exact at the support edges (p = 0 or 1). Raises ValueError for k outside
    0..n rather than returning 0, because every caller in this package
    enumerates the support explicitly and an out-of-range k is a bug.
    """
    if n != int(n) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    if k != int(k) or not 0 <= k <= n:
        raise ValueError(f"k must be an integer in [0, {n}], got {k!r}")
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    if p == 0.0:
        return 1.0 if k == 0 else 0.0
    if p == 1.0:
        return 1.0 if k == n else 0.0
    return float(stats.binom.pmf(k, n, p))


def binomial_pmf_row(n: int, p: float) -> np.ndarray:
    """The whole pmf row [P(K=0), ..., P(K=n)] for K ~ Binomial(n, p)."""
    if n != int(n) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    k = np.arange(n + 1)
    if p == 0.0 or p == 1.0:
        row = np.zeros(n + 1)
        row[n if p == 1.0 else 0] = 1.0
        return row
    return stats.binom.pmf(k, n, p)


def pool_positive_prob(p: float, n: int) -> float:
    """Probability 1 - (1-p)^n that a pool of n subjects contains a positive.

    Computed as -expm1(n log1p(-p)) so tiny p at large n keeps full relative
    precision; n = 1 short-circuits to p itself so the identity P_pool = p is
    exact rather than round-tripped through logs. Unlike prevalence proper,
    p = 0 and p = 1 are legal here and give the obvious limits.
    """
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    n = check_pool_size(n)
    if n == 1:
        return p
    if p == 0.0 or p == 1.0:
        return p
    return -math.expm1(n * math.log1p(-p))


def sensitivity_row(model: SensitivityModel, n: int) -> np.ndarray:
    """[Se(n,1), ..., Se(n,n)], the one loop over k: models only promise a scalar Se."""
    return np.array([model.sensitivity(n, k) for k in range(1, n + 1)])


def pool_sensitivity_avg(model: SensitivityModel, n: int, p: float) -> float:
    """Average pool sensitivity over the positive-count distribution.

    Se_P = sum_{k=1..n} Se(n,k) Pr(k; n, p) / P(pool contains a positive),
    i.e. the detection probability of a pool known to contain at least one
    positive. k = 0 carries no sensitivity, only specificity, so the sum
    starts at 1 and the weights are renormalized by p_P.
    """
    n = check_pool_size(n)
    p = check_prevalence(p)
    p_pos = pool_positive_prob(p, n)
    if p_pos == 0.0:
        raise ValueError(f"pool-positive probability is zero at p={p}, n={n}")
    return float(sensitivity_row(model, n) @ binomial_pmf_row(n, p)[1:] / p_pos)


class PoolOutcomes(NamedTuple):
    """Pool-read probabilities of one (model, n, p, sp), indexed by read budget.

    Each array has r_max + 1 entries. Entry r holds the value for a pool read
    up to r times, stopping at the first positive read; entry 0 (no read at
    all) is kept so that r indexes directly. The detected and missed shares
    are taken over the pool of a given positive subject.
    """

    n: int
    p: float
    sp: float
    p_declared_pos: np.ndarray
    p_declared_neg: np.ndarray
    detected_share: np.ndarray
    missed_share: np.ndarray
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
    miss = np.concatenate(([sp], 1.0 - sensitivity_row(model, n)))
    miss_pow = miss ** np.arange(r_max + 1)[:, None]
    # Pr(k; n, p), and Pr(k-1; n-1, p) = P(k positives | a given subject is positive).
    weights = np.zeros((n + 1, 2))
    weights[:, 0] = binomial_pmf_row(n, p)
    weights[1:, 1] = binomial_pmf_row(n - 1, p)
    # Summed in floating point, a share can land one ulp above 1.
    neg, missed = np.minimum(miss_pow @ weights, 1.0).T
    pos, detected = np.minimum((1.0 - miss_pow) @ weights, 1.0).T
    # Read l = 2..r happens only when reads 1..l-1 were all negative.
    extra_reads = np.zeros(r_max + 1)
    extra_reads[2:] = np.cumsum(neg[1:-1])
    return PoolOutcomes(n, p, sp, pos, neg, detected, missed, extra_reads)


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
