"""Probability kernels shared by the analytic evaluators, the sweep and the simulator.

Beside the input validators and the binomial pmf rows, the module holds one
vectorised pool kernel, pool_outcomes. For a sensitivity model, a set of pool
sizes and a set of prevalences it returns every pool-read probability the
closed forms need, for each read budget r = 0..r_max at once; a single (n, p)
is its length-1 case. It takes one pool size at a time. Se does not depend on
the prevalence, so the kernel asks the model for the size's Se row over
k = 1..n once, flags the size blind when that row has no nonzero entry, builds
the tensor of miss chances (1 - Se(n,k))^j over (j = 0..r_max, k) and its
complement, and serves every prevalence from them with one matmul. It weighs
them by one binomial pmf row per prevalence: the law of a subject's n - 1
pool mates. Shifted by one positive, that row gives a positive subject's
shares; unshifted, a negative subject's. The pool-level chances are the
p-mixture of the two (Pascal's rule). Every probability is a sum of
nonnegative terms, or one minus such a sum of at most 1/2, so a missed share
near 1e-18 or a declared-positive chance that underflows to 0 keeps its
digits; a share and its complement weigh the same row, so they add to 1, and
the missed share of a pool size that never detects is exactly 1.
The tensors are built one size at a time, 16 MB each at n = 10,000 and r = 100.

The mates' rows of a size that follows the one before it in the call come
from that size's rows by one Pascal step, row_m[k] = q row_{m-1}[k] +
p row_{m-1}[k-1], for every prevalence at once. A run's first size, a size
that does not follow the one before it, and every PASCAL_RUN-th step of a
run take a fresh binomial_pmf_row instead: each step adds at most a few
units of rounding to an entry, so the error grows linearly along a run, and
the restart bounds it to within 1e-12 relative of the exact pmf.

The binomial pmf row is C. Loader's saddle-point form ("Fast and Accurate
Computation of Binomial Probabilities", 2000), which R's dbinom uses, in numpy.
Every entry stays within 1e-12 relative of the exact pmf up to n = 10**4, where
a naive exp(lgamma) construction loses two digits. One call gives a size's rows
for every prevalence.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Protocol

import numpy as np

__all__ = [
    "binomial_pmf_row",
    "pool_test_outcome_probs",
    "PoolOutcomes",
    "pool_outcomes",
    "SensitivityModel",
    "sensitivity_row",
    "check_prevalence",
    "check_pool_size",
    "check_retest_count",
    "check_whole",
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

# Consecutive pool sizes step their mates' rows by Pascal's rule at most this
# many times before a fresh binomial_pmf_row: 1,000 steps at p = 0.3 stay
# within 2e-13 relative of the exact pmf, up to n = 10,000.
PASCAL_RUN = 1_000


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


def check_whole(value, what: str) -> int:
    """value as an int, or ValueError naming it what when it is not whole."""
    if not is_whole(value):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _check_count(value, what: str, minimum: int, maximum: int) -> int:
    value = check_whole(value, what)
    if not minimum <= value <= maximum:
        raise ValueError(f"{what} must lie in [{minimum}, {maximum}], got {value}")
    return value


def check_pool_size(n: int, *, minimum: int = 1) -> int:
    """Validate a pool size, returning it as an int."""
    return _check_count(n, "pool size", minimum, MAX_POOL_SIZE)


def check_retest_count(r: int, *, minimum: int = 1) -> int:
    """Validate a total pool-test count, returning it as an int."""
    return _check_count(r, "retest count", minimum, MAX_RETESTS)


# stirlerr(k) = log(k!) - log(sqrt(2 pi k) (k/e)^k), exact to the double for
# k = 1..15; above 15 Loader's series to the 1/k^9 term is within 2e-16 of it.
_STIRLERR = (
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834, 0.020790672103765093, 0.016644691189821193,
    0.013876128823070748, 0.01189670994589177, 0.010411265261972096, 0.009255462182712733, 0.00833056343336287,
    0.007573675487951841, 0.00694284010720953, 0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)


@lru_cache(maxsize=1)
def _stirling_terms(top: int) -> tuple[np.ndarray, np.ndarray]:
    """j = 1..top, and stirlerr(j) + log(j) / 2, read-only. Callers ask for at
    least MAX_POOL_SIZE, so one 160 kB table serves every pool size."""
    j = np.arange(1.0, top + 1)
    jj = j * j
    stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / jj) / jj) / jj) / jj) / j
    stirlerr[:15] = _STIRLERR
    terms = stirlerr + 0.5 * np.log(j)
    j.flags.writeable = terms.flags.writeable = False
    return j, terms


def binomial_pmf_row(n: int, p) -> np.ndarray:
    """The whole pmf row [P(K=0), ..., P(K=n)] for K ~ Binomial(n, p).

    n is an int, never a float or an array. p is a float or an array of them,
    one row per entry: the shape is p.shape + (n + 1,). For 0 < k < n, P(k) =
    exp(stirlerr(n) - stirlerr(k) - stirlerr(n-k) - bd0(k, np) - bd0(n-k, nq))
    / sqrt(2 pi k (n-k) / n) with bd0(x, m) = x log(x/m) + m - x; the ends are
    (1-p)^n and p^n from logs, exact unit rows at p = 0 and 1. Clipped to [0, 1].
    """
    size = np.asarray(n)
    if size.ndim or size.dtype.kind not in "iu" or size < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    n = int(size)
    p = np.asarray(p, dtype=float)
    if not ((0.0 <= p) & (p <= 1.0)).all():
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    if n == 0:
        return np.ones(p.shape + (1,))
    counts, terms = _stirling_terms(max(n, MAX_POOL_SIZE))
    k, k_terms = counts[: n - 1], terms[: n - 1]
    row = np.empty(p.shape + (n + 1,))
    interior, p = row[..., 1:-1], p[..., None]
    # The two bd0 terms' m - x parts cancel, (np - k) + (nq - (n - k)) = 0,
    # and log1p keeps x log(x/m) accurate where x is near m. At p = 0 or 1 and
    # at subnormal p a log is -inf or a ratio overflows: exp gives 0, never NaN.
    with np.errstate(divide="ignore", over="ignore"):
        mean = n * p
        gap = k - mean
        np.multiply(k, np.log1p(gap / mean), out=interior)
        interior += k[::-1] * np.log1p(-gap / (n * (1.0 - p)))
        np.subtract(terms[n - 1] - 0.5 * math.log(2 * math.pi) - k_terms - k_terms[::-1], interior, out=interior)
        np.multiply(n, np.log1p(-p), out=row[..., :1])
        np.multiply(n, np.log(p), out=row[..., -1:])
    np.exp(row, out=row)
    return np.clip(row, 0.0, 1.0, out=row)


def sensitivity_row(model: SensitivityModel, n: int) -> tuple[np.ndarray | float, bool]:
    """The model's Se(n, k) over k = 1..n, and whether that row has no nonzero
    entry: then a pool of n never reads positive, whatever it holds."""
    se = model.sensitivity(n, np.arange(1, n + 1))
    return se, not np.any(se)


def _mates_rows(sizes: list[int], prevalences: np.ndarray):
    """For each pool size n, Pr(j; n - 1, p) over j = 0..n-1 with one row per
    prevalence: by a Pascal step from the rows before when n follows the size
    before it, at most PASCAL_RUN steps in a row, else from binomial_pmf_row."""
    p = prevalences[:, None]
    q = 1.0 - p
    steps = 0
    for at, size in enumerate(sizes):
        if at and size == sizes[at - 1] + 1 and steps < PASCAL_RUN:
            step = np.empty((len(prevalences), size))
            np.multiply(q, row, out=step[:, :-1])
            step[:, -1] = 0.0
            step[:, 1:] += p * row
            row = step
            steps += 1
        else:
            row = binomial_pmf_row(size - 1, prevalences)
            steps = 0
        yield row


class PoolOutcomes(NamedTuple):
    """Pool-read probabilities of one model and sp over pool sizes n and prevalences p.

    model is the sensitivity model the kernel was given. n and p are each a
    scalar or a tuple. Each array is indexed [p, n, r], with no axis for a
    scalar n or p, and r_max + 1 entries along r. Entry r holds the value for
    a pool read up to r times, stopping at the first positive read; entry 0
    (no read at all) is kept so that r indexes directly. A given positive
    subject's pool is declared positive or negative with the detected and
    missed shares, a given negative subject's pool positive with the
    false-alarm share. blind, indexed [p, n] with no r axis and the same at
    every p, holds whether the model's Se(n, k) is 0 for every k >= 1, as
    sensitivity_row tells: such a pool never reads positive. It is not read
    off a missed share of 1, which at tiny p can come from underflow alone.
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
    blind: np.ndarray


def pool_outcomes(model: SensitivityModel, n, p, sp: float, r_max: int) -> PoolOutcomes:
    """Every pool-read probability of pools of n at prevalence p, for r = 0..r_max.

    n (pool sizes) and p (prevalences) may each be a scalar or a sequence.
    """
    n_array, p_array = np.asarray(n), np.asarray(p)
    sizes = [check_pool_size(size) for size in n_array.ravel().tolist()]
    prevalences = np.array([check_prevalence(value) for value in p_array.ravel().tolist()])
    sp = float(sp)
    if not 0.0 < sp <= 1.0:
        raise ValueError(f"sp must lie in (0, 1], got {sp!r}")
    r_max = check_retest_count(r_max)
    reads = np.arange(r_max + 1)[:, None]
    # Over [p, n, j, r, s]: j = 0 weighs the miss powers, j = 1 their
    # complements; s = 0 weighs by a negative subject's pool mates, s = 1 by
    # a positive subject's.
    shares = np.empty((len(prevalences), len(sizes), 2, r_max + 1, 2))
    blind = np.empty(len(sizes), dtype=bool)
    for at, (size, mates) in enumerate(zip(sizes, _mates_rows(sizes, prevalences))):
        # Chance that one read of a pool with k positives comes back negative;
        # for the clean pool (k = 0) that is the specificity.
        se, blind[at] = sensitivity_row(model, size)
        miss = np.empty(size + 1)
        miss[0] = sp
        miss[1:] = 1.0 - se
        tensor = np.empty((2, r_max + 1, size + 1))
        np.power(miss, reads, out=tensor[0])
        np.subtract(1.0, tensor[0], out=tensor[1])
        # The mates' row weighs pools of k = j positives for a negative
        # subject and k = j + 1 for a positive one.
        weights = np.zeros((len(prevalences), 1, size + 1, 2))
        weights[:, 0, :-1, 0] = mates
        weights[:, 0, 1:, 1] = mates
        shares[:, at] = tensor @ weights
    # Summed in floating point, a share can land one ulp above 1.
    np.minimum(shares, 1.0, out=shares)
    shape = p_array.shape + n_array.shape + (r_max + 1,)
    (cleared, missed), (false_alarm, detected) = shares.transpose(2, 4, 0, 1, 3).reshape(2, 2, *shape)
    # One minus a share of at most 1/2 forms no small number.
    np.subtract(1.0, detected, out=missed, where=detected <= 0.5)
    np.subtract(1.0, false_alarm, out=cleared, where=false_alarm <= 0.5)
    # Pascal's rule, Pr(k; n, p) = p Pr(k-1; n-1, p) + (1-p) Pr(k; n-1, p): a
    # p-mixture of shares, each at most 1, rounds to at most 1.
    mix = prevalences.reshape(p_array.shape + (1,) * (n_array.ndim + 1))
    pos = mix * detected + (1.0 - mix) * false_alarm
    neg = mix * missed + (1.0 - mix) * cleared
    # Read l = 2..r happens only when reads 1..l-1 were all negative.
    extra_reads = np.zeros(shape)
    extra_reads[..., 2:] = np.cumsum(neg[..., 1:-1], axis=-1)
    blind = np.broadcast_to(blind.reshape(n_array.shape), shape[:-1])
    n = tuple(sizes) if n_array.ndim else sizes[0]
    p = tuple(prevalences.tolist()) if p_array.ndim else float(prevalences[0])
    return PoolOutcomes(model, n, p, sp, pos, neg, detected, missed, false_alarm, extra_reads, blind)


def pool_test_outcome_probs(
    model: SensitivityModel, n: int, p: float, sp: float, r: int
) -> tuple[float, float]:
    """(P(pool declared positive), P(declared negative)) under up to r reads:
    entry r of pool_outcomes' pair, which adds to one up to rounding."""
    r = check_retest_count(r)
    outcomes = pool_outcomes(model, n, p, sp, r)
    return float(outcomes.p_declared_pos[r]), float(outcomes.p_declared_neg[r])
