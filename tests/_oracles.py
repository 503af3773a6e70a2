"""Independent reference implementations the tests check the package against.

Everything here is deliberately written the slow, obvious way: exact rational
arithmetic where the inputs allow it, and full enumeration of every random
outcome elsewhere. None of it shares code with the package.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product


def exact_binomial_pmf(k: int, n: int, p: Fraction) -> Fraction:
    """C(n,k) p^k (1-p)^(n-k) in exact rational arithmetic."""
    return Fraction(math.comb(n, k)) * p**k * (1 - p) ** (n - k)


def exact_binomial_floats(n: int, p: float, ks=None) -> list[float]:
    """float(exact_binomial_pmf(k, n, Fraction(p))) for each k in ks, all k by default.

    With p = a/b, every entry is the integer C(n,k) a^k (b-a)^(n-k) over b^n,
    and Python rounds an integer quotient correctly, so each float is the
    exact pmf rounded once. That skips the Fraction's gcds on integers of
    n * 53 bits. The whole row walks the numerators with the exact recurrence
    N(k+1) = N(k) (n-k) a / ((k+1) (b-a)).
    """
    a, b = p.as_integer_ratio()
    c, den = b - a, b**n
    if ks is not None:
        return [math.comb(n, k) * a**k * c ** (n - k) / den for k in ks]
    if not c:
        return [0.0] * n + [1.0]
    row, num = [], c**n
    for k in range(n + 1):
        row.append(num / den)
        num = num * (n - k) * a // ((k + 1) * c)
    return row


def exact_pool_positive_prob(p: Fraction, n: int) -> Fraction:
    return 1 - (1 - p) ** n


def exact_pool_sensitivity_avg(model, n: int, p: Fraction) -> Fraction:
    """Renormalized sensitivity average, all weights kept rational."""
    total = Fraction(0)
    for k in range(1, n + 1):
        total += Fraction(model.sensitivity(n, k)) * exact_binomial_pmf(k, n, p)
    return total / exact_pool_positive_prob(p, n)


def enumerate_pooled_metrics(model, p: float, n: int, r: int) -> dict[str, float]:
    """Exact per-subject expectations for one pool, by total enumeration.

    Walks every subject-status vector, every pool-read outcome sequence
    (declared positive after t = 1..r reads, or all r reads negative), and
    every individual-read vector for declared-positive pools, accumulating
    probability-weighted tests and errors. Feasible for n <= 4, r <= 3;
    the state space is 2^n * (r+1) * 2^n.
    """
    kit = model.kit
    e_tests = 0.0
    e_tests_ind = 0.0
    e_fn_pool = 0.0
    e_fn_ind = 0.0
    e_fp = 0.0

    for status in product((0, 1), repeat=n):
        k = sum(status)
        p_status = p**k * (1.0 - p) ** (n - k)
        read_pos = model.sensitivity(n, k) if k >= 1 else 1.0 - kit.sp

        # (probability, pool reads used, declared positive?)
        branches = [
            ((1.0 - read_pos) ** (t - 1) * read_pos, t, True) for t in range(1, r + 1)
        ]
        branches.append(((1.0 - read_pos) ** r, r, False))

        for p_branch, reads, declared in branches:
            weight = p_status * p_branch
            if weight == 0.0:
                continue
            if not declared:
                e_tests += weight * reads
                e_fn_pool += weight * k
                continue
            e_tests_ind += weight * n
            for individual in product((0, 1), repeat=n):
                p_vector = 1.0
                fn = 0
                fp = 0
                for subject_positive, read in zip(status, individual):
                    p_hit = kit.se_i if subject_positive else 1.0 - kit.sp
                    p_vector *= p_hit if read else 1.0 - p_hit
                    if subject_positive and not read:
                        fn += 1
                    if not subject_positive and read:
                        fp += 1
                ww = weight * p_vector
                e_tests += ww * (reads + n)
                e_fn_ind += ww * fn
                e_fp += ww * fp

    return {
        "e_tests": e_tests / n,
        "e_fn": (e_fn_pool + e_fn_ind) / n,
        "e_fp": e_fp / n,
        "e_tests_individual_stage": e_tests_ind / n,
        "e_fn_pool_stage": e_fn_pool / n,
        "e_fn_individual_stage": e_fn_ind / n,
    }


def brute_force_front(objectives) -> set[int]:
    """Indices of non-dominated points on two minimized objectives, O(m^2)."""
    survivors = set()
    for i, (ai, bi) in enumerate(objectives):
        dominated = False
        for j, (aj, bj) in enumerate(objectives):
            if i == j:
                continue
            no_worse = aj <= ai and bj <= bi
            strictly_better = aj < ai or bj < bi
            if no_worse and strictly_better:
                dominated = True
                break
        if not dominated:
            survivors.add(i)
    return survivors
