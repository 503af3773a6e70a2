"""Probability kernel checks against exact rational arithmetic."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from pooltest import bateman_fit_model, pool_test_outcome_probs
from pooltest.kernels import (
    PoolOutcomes,
    binomial_pmf_row,
    check_pool_size,
    check_prevalence,
    check_retest_count,
    pool_outcomes,
)

from _oracles import (
    exact_binomial_pmf,
    exact_pool_positive_prob,
    exact_pool_sensitivity_avg,
)


class _ConstantModel:
    def __init__(self, value: float):
        self.value = value

    def sensitivity(self, n: int, k: int) -> float:
        return self.value


def _single_read_positive(model, n: int, p: float, sp: float = 1.0) -> float:
    """P(pool declared positive) after one read, from the vectorised kernel."""
    return float(pool_outcomes(model, n, p, sp, 1).p_declared_pos[1])


def _exact_row(n: int, p: Fraction) -> list[float]:
    return [float(exact_binomial_pmf(k, n, p)) for k in range(n + 1)]


# int() raises OverflowError for an infinity and a ValueError naming no field for NaN.
NON_FINITE = (float("inf"), float("-inf"), float("nan"))


class TestBinomialPmf:
    def test_degenerate_p_zero(self):
        assert binomial_pmf_row(5, 0.0).tolist() == _exact_row(5, Fraction(0))
        assert binomial_pmf_row(0, 0.0).tolist() == [1.0]

    def test_degenerate_p_one(self):
        assert binomial_pmf_row(5, 1.0).tolist() == _exact_row(5, Fraction(1))
        assert binomial_pmf_row(0, 1.0).tolist() == [1.0]

    def test_symmetric_coin(self):
        row = binomial_pmf_row(2, 0.5)
        assert row[2] == 0.25
        np.testing.assert_allclose(row, [0.25, 0.5, 0.25], rtol=1e-15)

    def test_against_exact_rational_value(self):
        """10 * 0.001 * 0.999^9, evaluated without floating point."""
        exact = exact_binomial_pmf(1, 10, Fraction(1, 1000))
        np.testing.assert_allclose(binomial_pmf_row(10, 0.001)[1], float(exact), rtol=1e-13)

    def test_random_values_match_exact_pmf(self):
        rng = np.random.default_rng(1851)
        for _ in range(200):
            n = int(rng.integers(1, 80))
            num = int(rng.integers(1, 1000))
            np.testing.assert_allclose(
                binomial_pmf_row(n, num / 1000), _exact_row(n, Fraction(num, 1000)), rtol=1e-12
            )

    def test_row_sums_to_one_even_for_huge_n(self):
        for n in (10, 500, 10_000):
            for p in (0.001, 0.3, 0.97):
                row = binomial_pmf_row(n, p)
                assert abs(row.sum() - 1.0) <= 1e-12
        # A numpy integer size of any width gives its whole row.
        assert abs(binomial_pmf_row(np.uint8(255), 0.5).sum() - 1.0) <= 1e-12

    def test_reduced_row_is_normalized(self):
        """The reweighted counts Pr(k-1; n-1, p) used for a known-positive
        subject must themselves sum to one."""
        for n in (2, 7, 50):
            row = binomial_pmf_row(n - 1, 0.013)
            assert abs(row.sum() - 1.0) <= 1e-12

    def test_row_matches_scalar_entries(self):
        """Entry k of the row is the pmf at k, taken one k at a time."""
        row = binomial_pmf_row(12, 0.2)
        assert len(row) == 13
        for k in range(13):
            exact = exact_binomial_pmf(k, 12, Fraction(1, 5))
            np.testing.assert_allclose(row[k], float(exact), rtol=1e-13)

    @pytest.mark.parametrize("p", [0.0, 1e-12, 0.013, 0.5, 1.0 - 1e-12, 1.0])
    def test_rows_of_many_prevalences_are_the_scalar_rows(self, p):
        prevalences = np.array([[p, 0.0, 0.3], [1.0 - p, 1.0, 1e-12]])
        for n in (7, 0, 130, 1, 64):
            rows = binomial_pmf_row(n, prevalences)
            assert rows.shape == (2, 3, n + 1)
            for row, q in zip(rows.reshape(6, n + 1), prevalences.ravel().tolist()):
                np.testing.assert_array_equal(row, binomial_pmf_row(n, q))

    @pytest.mark.parametrize("p", [0.0, 1e-6, 0.001, 0.3, 1.0 - 1e-6, 1.0])
    def test_equals_scipy_stats_bit_for_bit(self, p):
        """The private ufunc gives exactly what the public scipy.stats.binom.pmf
        gives, for a scalar p and as one row of an array of p; a scipy that
        renames or changes it fails here."""
        for n in (0, 1, 15, 16, 49, 500, 641, 789, 10_000):
            for probs in (p, np.array([p, 1.0 - p, 0.013])):
                expected = stats.binom.pmf(np.arange(n + 1), n, np.asarray(probs)[..., None])
                np.testing.assert_array_equal(
                    binomial_pmf_row(n, probs).view(np.uint64), expected.view(np.uint64)
                )

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="n must be"):
            binomial_pmf_row(-2, 0.5)
        for bad in (2.5, 5.0, np.array([3.0, 4.0]), *NON_FINITE):
            with pytest.raises(ValueError, match="n must be"):
                binomial_pmf_row(bad, 0.5)
            with pytest.raises(ValueError, match="n must be"):
                binomial_pmf_row(np.append(3.0, bad), 0.5)
        # One size per call: an array of sizes, even an integer one, is refused,
        # and so is a bool.
        for bad in (np.array([3, 4]), np.array([5]), True, np.True_):
            with pytest.raises(ValueError, match="n must be"):
                binomial_pmf_row(bad, 0.5)
        for bad in (1.5, -0.1, np.array([0.2, 1.5]), [0.0, -1e-300], [0.3, float("nan")]):
            with pytest.raises(ValueError, match="p must lie"):
                binomial_pmf_row(5, bad)


class TestPoolPositiveProb:
    """1 - (1-p)^n: with a perfect kit, one read declares a pool positive
    exactly when it holds a positive."""

    def test_single_subject_is_exact(self):
        assert _single_read_positive(_ConstantModel(1.0), 1, 0.5) == 0.5
        assert _single_read_positive(_ConstantModel(1.0), 1, 0.001) == 0.001

    def test_zero_prevalence(self):
        """p = 0 lies outside the kernel's domain rather than giving 0."""
        with pytest.raises(ValueError, match="prevalence"):
            pool_outcomes(_ConstantModel(1.0), 50, 0.0, 1.0, 1)

    def test_against_exact_rational_value(self):
        exact = exact_pool_positive_prob(Fraction(1, 1000), 10)
        np.testing.assert_allclose(
            _single_read_positive(_ConstantModel(1.0), 10, 0.001), float(exact), rtol=1e-14
        )

    def test_monotone_in_both_arguments(self):
        """Up to the rounding of a sum over k, which near 1 is a few ulps."""
        perfect = _ConstantModel(1.0)
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = float(rng.uniform(0.0005, 0.5))
            n = int(rng.integers(1, 60))
            base = _single_read_positive(perfect, n, p) - 1e-14
            assert _single_read_positive(perfect, n + 1, p) >= base
            assert _single_read_positive(perfect, n, p * 1.5) >= base

    def test_rejects_zero_pool(self):
        with pytest.raises(ValueError, match="pool size"):
            pool_outcomes(_ConstantModel(1.0), 0, 0.5, 1.0, 1)


class TestPoolSensitivityAvg:
    """Se_P = sum_k Se(n,k) Pr(k; n, p) / p_P, the detection chance of a pool
    known to hold a positive. With no false positives (sp = 1) one read
    declares a pool positive with probability Se_P p_P."""

    @staticmethod
    def _average(model, n: int, p: float) -> float:
        return _single_read_positive(model, n, p) / -math.expm1(n * math.log1p(-p))

    def test_perfect_test(self):
        np.testing.assert_allclose(self._average(_ConstantModel(1.0), 10, 0.01), 1.0, rtol=1e-14)

    def test_single_subject_returns_curve_value(self):
        model = bateman_fit_model()
        np.testing.assert_allclose(
            self._average(model, 1, 0.37), model.sensitivity(1, 1), rtol=1e-14
        )

    def test_against_exact_weighted_average(self):
        model = bateman_fit_model()
        exact = exact_pool_sensitivity_avg(model, 10, Fraction(1, 100))
        np.testing.assert_allclose(self._average(model, 10, 0.01), float(exact), rtol=1e-12)

    def test_stays_within_sensitivity_range(self):
        model = bateman_fit_model()
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(2, 51))
            p = float(rng.uniform(0.001, 0.3))
            values = model.sensitivity(n, np.arange(1, n + 1))
            avg = self._average(model, n, p)
            assert values.min() - 1e-12 <= avg <= values.max() + 1e-12


class TestPoolTestOutcomeProbs:
    def test_perfect_test_reduces_to_pool_positive_prob(self):
        pos, neg = pool_test_outcome_probs(_ConstantModel(1.0), 5, 0.1, 1.0, 1)
        exact = exact_pool_positive_prob(Fraction(1, 10), 5)
        np.testing.assert_allclose(pos, float(exact), rtol=1e-13)
        np.testing.assert_allclose(neg, float(1 - exact), rtol=1e-13)

    def test_single_read_matches_average_form(self):
        """For r=1 the declared-positive probability is the classic mixture
        Se_P p_P + (1 - Sp)(1 - p_P)."""
        model = bateman_fit_model()
        n, p, sp = 10, 0.01, 0.99
        pos, _ = pool_test_outcome_probs(model, n, p, sp, 1)
        exact_p = Fraction(1, 100)
        p_pos = exact_pool_positive_prob(exact_p, n)
        mixture = exact_pool_sensitivity_avg(model, n, exact_p) * p_pos + (
            1 - Fraction(sp)
        ) * (1 - p_pos)
        np.testing.assert_allclose(pos, float(mixture), rtol=1e-12)

    def test_components_form_a_distribution(self):
        model = bateman_fit_model()
        rng = np.random.default_rng(4242)
        for _ in range(100):
            n = int(rng.integers(2, 51))
            p = float(rng.uniform(0.001, 0.3))
            r = int(rng.integers(1, 6))
            pos, neg = pool_test_outcome_probs(model, n, p, 0.99, r)
            assert 0.0 <= pos <= 1.0
            assert 0.0 <= neg <= 1.0
            assert abs(pos + neg - 1.0) <= 1e-12

    def test_retesting_shifts_mass_toward_positive(self):
        """More reads can only increase the chance some read is positive."""
        model = bateman_fit_model()
        rng = np.random.default_rng(565)
        for _ in range(100):
            n = int(rng.integers(2, 51))
            p = float(rng.uniform(0.001, 0.3))
            r = int(rng.integers(2, 6))
            pos_1, neg_1 = pool_test_outcome_probs(model, n, p, 0.99, 1)
            pos_r, neg_r = pool_test_outcome_probs(model, n, p, 0.99, r)
            assert pos_r >= pos_1 - 1e-15
            assert neg_r <= neg_1 + 1e-15

    def test_rejects_zero_reads(self):
        with pytest.raises(ValueError, match="retest count"):
            pool_test_outcome_probs(_ConstantModel(1.0), 5, 0.1, 0.99, 0)


class TestPoolOutcomes:
    def test_every_probability_is_its_own_nonnegative_sum(self):
        """At n = 5000, p = 0.5 the stock curve reads 0 for every k, so a pool
        is (almost) never declared positive; forming that chance as one minus
        its complement would leave a tiny negative number."""
        model = bateman_fit_model()
        outcomes = pool_outcomes(model, 5000, 0.5, model.kit.sp, 3)
        for name in (
            "p_declared_pos", "p_declared_neg", "detected_share", "missed_share", "false_alarm_share"
        ):
            values = getattr(outcomes, name)
            assert np.all((values >= 0.0) & (values <= 1.0)), name
        assert np.all(outcomes.detected_share == 0.0)
        np.testing.assert_allclose(outcomes.missed_share, 1.0, rtol=1e-12)

    @pytest.mark.parametrize("n, p, r", [(1000, 0.3, 1), (1000, 0.3, 5), (2, 0.01, 100)])
    def test_rounding_never_lifts_a_probability_past_one(self, n, p, r):
        """Summed in floating point, the detected share at (2, 0.01, r = 100)
        lands one ulp above 1, and so did P(declared negative) at (1000, 0.3)
        as a sum over the n-positive row; the kernel caps the shares, and the
        p-mixtures of capped shares stay at or below 1."""
        model = bateman_fit_model()
        out = pool_outcomes(model, n, p, model.kit.sp, r)
        for name in (
            "p_declared_pos", "p_declared_neg", "detected_share", "missed_share", "false_alarm_share"
        ):
            assert getattr(out, name)[r] <= 1.0, name

    def test_pairs_are_complementary(self):
        model = bateman_fit_model()
        rng = np.random.default_rng(812)
        for _ in range(50):
            n = int(rng.integers(1, 200))
            p = float(rng.uniform(0.001, 0.5))
            out = pool_outcomes(model, n, p, 0.97, 12)
            np.testing.assert_allclose(out.p_declared_pos + out.p_declared_neg, 1.0, atol=1e-12)
            if n > 1:
                np.testing.assert_allclose(out.detected_share + out.missed_share, 1.0, atol=1e-12)

    def test_no_reads_and_read_counts(self):
        """Entry 0 is the unread pool; extra reads accumulate the chance that
        every earlier read was negative."""
        model = bateman_fit_model()
        out = pool_outcomes(model, 8, 0.05, 0.99, 6)
        assert out.p_declared_pos[0] == 0.0
        assert out.detected_share[0] == 0.0
        assert out.extra_reads[0] == out.extra_reads[1] == 0.0
        for r in range(2, 7):
            expected = sum(
                pool_test_outcome_probs(model, 8, 0.05, 0.99, j)[1] for j in range(1, r)
            )
            np.testing.assert_allclose(out.extra_reads[r], expected, rtol=1e-13)

    def test_model_is_asked_for_the_whole_se_row(self):
        """One sensitivity call per pool, over k = 1..n; a scalar answer
        broadcasts, so a constant stub stands in for a curve."""
        model = bateman_fit_model()
        calls = []

        class Recording:
            def sensitivity(self, n, k):
                calls.append((n, k.tolist()))
                return model.sensitivity(n, k)

        got = pool_outcomes(Recording(), 7, 0.1, 0.99, 3)
        assert calls == [(7, list(range(1, 8)))]
        want = pool_outcomes(model, 7, 0.1, 0.99, 3)
        for name in PoolOutcomes._fields[4:]:
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
        constant = pool_outcomes(_ConstantModel(0.5), 3, 0.2, 1.0, 2)
        # With sp = 1 a negative subject's pool reads positive only through its
        # positive mates, present with chance 1 - 0.8**2 = 0.36.
        np.testing.assert_allclose(constant.detected_share, [0.0, 0.5, 0.75], rtol=1e-15)
        np.testing.assert_allclose(constant.false_alarm_share, [0.0, 0.18, 0.27], rtol=1e-14)

    def test_many_sizes_in_chunks_match_per_size_calls(self):
        """A size's entries do not depend on the other sizes of the call: the
        grid, the same sizes split into chunks, and the length-1 call for each
        (n, p) agree, at r_max = 100 and at prevalences 1e-12 from 0 and
        from 1."""
        model = bateman_fit_model()
        sizes = [41, 2, 97, 13, 5, 40, 8, 3, 120]
        prevalences = [1e-12, 0.02, 1.0 - 1e-12]
        grid = pool_outcomes(model, sizes, prevalences, model.kit.sp, 100)
        assert (grid.n, grid.p) == (tuple(sizes), tuple(prevalences))
        for chunk in (slice(0, 4), slice(4, 5), slice(5, None)):
            part = pool_outcomes(model, sizes[chunk], prevalences, model.kit.sp, 100)
            for name in PoolOutcomes._fields[4:]:
                np.testing.assert_array_equal(
                    getattr(grid, name)[:, chunk], getattr(part, name), err_msg=name
                )
        for i, p in enumerate(prevalences):
            for j, n in enumerate(sizes):
                single = pool_outcomes(model, n, p, model.kit.sp, 100)
                for name in PoolOutcomes._fields[4:]:
                    np.testing.assert_allclose(
                        getattr(grid, name)[i, j], getattr(single, name),
                        rtol=1e-13, atol=0, err_msg=f"{name} at n={n}, p={p}",
                    )

    def test_axes_follow_the_shapes_of_n_and_p(self):
        model = bateman_fit_model()
        assert pool_outcomes(model, [4, 6], 0.1, 0.99, 3).missed_share.shape == (2, 4)
        assert pool_outcomes(model, 4, [0.1, 0.2, 0.3], 0.99, 3).missed_share.shape == (3, 4)
        assert pool_outcomes(model, 4, 0.1, 0.99, 3).missed_share.shape == (4,)

    def test_domain_errors(self):
        model = bateman_fit_model()
        with pytest.raises(ValueError, match="sp must lie"):
            pool_outcomes(model, 5, 0.1, 0.0, 2)
        with pytest.raises(ValueError, match="retest count"):
            pool_outcomes(model, 5, 0.1, 0.99, 0)
        with pytest.raises(ValueError, match="prevalence"):
            pool_outcomes(model, 5, 1.0, 0.99, 2)


class TestValidators:
    def test_prevalence_bounds(self):
        assert check_prevalence(0.25) == 0.25
        for bad in (0.0, 1.0, -0.1, float("nan")):
            with pytest.raises(ValueError, match="prevalence"):
                check_prevalence(bad)

    def test_pool_size_bounds(self):
        assert check_pool_size(50) == 50
        with pytest.raises(ValueError, match="pool size"):
            check_pool_size(0)
        with pytest.raises(ValueError, match="pool size"):
            check_pool_size(10_001)
        with pytest.raises(ValueError, match="integer"):
            check_pool_size(2.5)
        for bad in NON_FINITE:
            with pytest.raises(ValueError, match="pool size must be an integer"):
                check_pool_size(bad)

    def test_retest_bounds(self):
        assert check_retest_count(5) == 5
        with pytest.raises(ValueError, match="retest count"):
            check_retest_count(0)
        with pytest.raises(ValueError, match="retest count"):
            check_retest_count(101)
        for bad in NON_FINITE:
            with pytest.raises(ValueError, match="retest count must be an integer"):
                check_retest_count(bad)
