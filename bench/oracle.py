"""Reference values for checking pooltest's outputs, computed apart from it.

Nothing here imports pooltest, numpy's random streams or scipy. The dilution
curve is the benchmark's own copy of the Bateman preset, and every
expectation is an explicit sum over the number of positives k in one pool,
weighted by math.comb(n, k) p^k (1-p)^(n-k), and over how that pool's reads
come out. The program instead works per subject through the reduced pmf row
Pr(k-1; n-1, p) and takes its pmf rows from scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The Bateman preset: a 99%/99% kit and the fitted dilution coefficients.
SE_I = 0.99
SP = 0.99
ALPHA = 0.032482
BETA = -0.001255


def sensitivity(n: int, k: int) -> float:
    """Chance that one read of a pool of n with k positives comes back positive."""
    if k == 0:
        return 1.0 - SP
    raw = (1.0 - SP) + (SE_I + SP - 1.0) * (k / n) ** ALPHA + BETA * n
    return min(1.0, max(0.0, raw))


@dataclass(frozen=True)
class PoolMoments:
    """First and second moments of one pool's counts, plus its read outcome.

    tests, fn and fp hold (E[X], E[X^2]) for the tests spent on the pool and
    its false negatives and false positives. declared is P(pool declared
    positive); positives_declared and positives_cleared are the expected
    numbers of positive subjects in a pool declared positive and in one
    cleared, both unconditional.
    """

    tests: tuple[float, float]
    fn: tuple[float, float]
    fp: tuple[float, float]
    declared: float
    positives_declared: float
    positives_cleared: float


def individual_moments(p: float) -> PoolMoments:
    """One subject tested once: no pool stage, so it is always 'declared'."""
    fn = p * (1.0 - SE_I)
    fp = (1.0 - p) * (1.0 - SP)
    return PoolMoments((1.0, 1.0), (fn, fn), (fp, fp), 1.0, p, 0.0)


def pool_moments(p: float, n: int, r: int) -> PoolMoments:
    """Moments for a pool of n read up to r times, stopping at a positive read."""
    tests = tests2 = fn = fn2 = fp = fp2 = 0.0
    declared = positives_declared = positives_cleared = 0.0
    for k in range(n + 1):
        weight = math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
        if weight == 0.0:
            continue
        hit = sensitivity(n, k)
        miss = 1.0 - hit
        # Read l is the first positive one with chance miss^(l-1) hit; after
        # it the pool's n subjects are tested one by one.
        t1 = t2 = 0.0
        for reads in range(1, r + 1):
            chance = miss ** (reads - 1) * hit
            t1 += chance * (reads + n)
            t2 += chance * (reads + n) ** 2
        cleared = miss**r
        t1 += cleared * r
        t2 += cleared * r * r
        pos = 1.0 - cleared
        # Declared positive: misses among the k positives are Binomial(k,
        # 1-Se_I) and false alarms among the n-k negatives Binomial(n-k,
        # 1-Sp). Cleared: all k positives are missed and none is flagged.
        fn_mean = pos * k * (1.0 - SE_I) + cleared * k
        fn_sq = pos * (k * (1.0 - SE_I) * SE_I + (k * (1.0 - SE_I)) ** 2) + cleared * k * k
        negatives = n - k
        fp_mean = pos * negatives * (1.0 - SP)
        fp_sq = pos * (negatives * (1.0 - SP) * SP + (negatives * (1.0 - SP)) ** 2)

        tests += weight * t1
        tests2 += weight * t2
        fn += weight * fn_mean
        fn2 += weight * fn_sq
        fp += weight * fp_mean
        fp2 += weight * fp_sq
        declared += weight * pos
        positives_declared += weight * k * pos
        positives_cleared += weight * k * cleared
    return PoolMoments((tests, tests2), (fn, fn2), (fp, fp2), declared, positives_declared, positives_cleared)


def moments(p: float, kind: str, n: int, r: int) -> PoolMoments:
    if kind == "individual":
        return individual_moments(p)
    return pool_moments(p, n, r)


def metrics(p: float, kind: str, n: int, r: int) -> dict[str, float]:
    """Per-subject expectations, named as pooltest prints them."""
    m = moments(p, kind, n, r)
    out = {
        "e_tests": m.tests[0] / n,
        "e_fn": m.fn[0] / n,
        "e_fp": m.fp[0] / n,
    }
    if kind != "individual":
        out["e_tests_individual_stage"] = m.declared
        out["e_fn_pool_stage"] = m.positives_cleared / n
        out["e_fn_individual_stage"] = m.positives_declared * (1.0 - SE_I) / n
        out["posterior_given_negative_pool"] = m.positives_cleared / (n * (1.0 - m.declared))
        out["posterior_given_positive_pool"] = m.positives_declared / (n * m.declared)
    return out


def relative_to_individual(p: float, values: dict[str, float]) -> dict[str, float]:
    """relative_tests and relative_fn_increase against testing everyone once."""
    base = metrics(p, "individual", 1, 1)
    return {
        "relative_tests": values["e_tests"] / base["e_tests"],
        "relative_fn_increase": values["e_fn"] / base["e_fn"] - 1.0,
    }


def count_distribution(p: float, kind: str, n: int, r: int, subjects: int) -> dict[str, tuple[float, float]]:
    """(mean, variance) of a simulated run's totals over independent pools.

    Subjects fill consecutive pools of n and the leftover ones one short
    pool, whose reads use the curve at its own size. The totals are sums of
    independent per-pool counts, so their variances add.
    """
    if kind == "individual":
        shapes = [(individual_moments(p), subjects)]
    else:
        shapes = [(pool_moments(p, n, r), subjects // n)]
        if subjects % n:
            shapes.append((pool_moments(p, subjects % n, r), 1))
    out = {}
    for name in ("tests", "fn", "fp", "declared"):
        mean = var = 0.0
        for m, pools in shapes:
            if name == "declared":
                first = second = m.declared
            else:
                first, second = getattr(m, name)
            mean += pools * first
            var += pools * max(0.0, second - first * first)
        out[name] = (mean, var)
    return out


def dominated_flags(tests: list[float], fn: list[float]) -> list[bool]:
    """Brute-force O(m^2) dominance on two minimized objectives.

    Point i is dominated when some point is no worse on both and strictly
    better on one. Rows are compared against every point in blocks, so the
    check's memory stays at a few megabytes even for thousands of points.
    """
    t = np.asarray(tests, dtype=float)
    f = np.asarray(fn, dtype=float)
    flags = np.zeros(len(t), dtype=bool)
    block = 256
    for lo in range(0, len(t), block):
        ti = t[lo : lo + block, None]
        fi = f[lo : lo + block, None]
        beats = (t <= ti) & (f <= fi) & ((t < ti) | (f < fi))
        flags[lo : lo + block] = beats.any(axis=1)
    return flags.tolist()
