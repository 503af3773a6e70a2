"""Probability kernel checks against exact rational arithmetic."""

from fractions import Fraction

import numpy as np
import pytest

from pooltest import (
    bateman_fit_model,
    binomial_pmf,
    binomial_pmf_row,
    pool_positive_prob,
    pool_sensitivity_avg,
    pool_test_outcome_probs,
)
from pooltest.kernels import (
    check_pool_size,
    check_prevalence,
    check_retest_count,
    pool_outcomes,
    sensitivity_row,
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


class TestBinomialPmf:
    def test_degenerate_p_zero(self):
        assert binomial_pmf(0, 5, 0.0) == 1.0
        assert binomial_pmf(3, 5, 0.0) == 0.0

    def test_symmetric_coin(self):
        assert binomial_pmf(2, 2, 0.5) == 0.25

    def test_against_exact_rational_value(self):
        """10 * 0.001 * 0.999^9, evaluated without floating point."""
        exact = exact_binomial_pmf(1, 10, Fraction(1, 1000))
        np.testing.assert_allclose(binomial_pmf(1, 10, 0.001), float(exact), rtol=1e-13)

    def test_random_values_match_exact_pmf(self):
        rng = np.random.default_rng(1851)
        for _ in range(200):
            n = int(rng.integers(1, 80))
            k = int(rng.integers(0, n + 1))
            num = int(rng.integers(1, 1000))
            p = Fraction(num, 1000)
            exact = exact_binomial_pmf(k, n, p)
            np.testing.assert_allclose(
                binomial_pmf(k, n, num / 1000), float(exact), rtol=1e-12
            )

    def test_row_sums_to_one_even_for_huge_n(self):
        for n in (10, 500, 10_000):
            for p in (0.001, 0.3, 0.97):
                row = binomial_pmf_row(n, p)
                assert abs(row.sum() - 1.0) <= 1e-12

    def test_reduced_row_is_normalized(self):
        """The reweighted counts Pr(k-1; n-1, p) used for a known-positive
        subject must themselves sum to one."""
        for n in (2, 7, 50):
            row = binomial_pmf_row(n - 1, 0.013)
            assert abs(row.sum() - 1.0) <= 1e-12

    def test_row_matches_scalar_entries(self):
        row = binomial_pmf_row(12, 0.2)
        for k in range(13):
            assert row[k] == binomial_pmf(k, 12, 0.2)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="k must be"):
            binomial_pmf(6, 5, 0.5)
        with pytest.raises(ValueError, match="k must be"):
            binomial_pmf(-1, 5, 0.5)
        with pytest.raises(ValueError, match="p must lie"):
            binomial_pmf(1, 5, 1.5)
        with pytest.raises(ValueError, match="n must be"):
            binomial_pmf_row(-2, 0.5)


class TestPoolPositiveProb:
    def test_single_subject_is_exact(self):
        assert pool_positive_prob(0.5, 1) == 0.5
        assert pool_positive_prob(0.001, 1) == 0.001

    def test_zero_prevalence(self):
        assert pool_positive_prob(0.0, 50) == 0.0

    def test_against_exact_rational_value(self):
        exact = exact_pool_positive_prob(Fraction(1, 1000), 10)
        np.testing.assert_allclose(pool_positive_prob(0.001, 10), float(exact), rtol=1e-14)

    def test_monotone_in_both_arguments(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = float(rng.uniform(0.0005, 0.5))
            n = int(rng.integers(1, 60))
            assert pool_positive_prob(p, n + 1) >= pool_positive_prob(p, n)
            assert pool_positive_prob(min(1.0, p * 1.5), n) >= pool_positive_prob(p, n)

    def test_rejects_zero_pool(self):
        with pytest.raises(ValueError, match="pool size"):
            pool_positive_prob(0.5, 0)


class TestPoolSensitivityAvg:
    def test_perfect_test(self):
        np.testing.assert_allclose(
            pool_sensitivity_avg(_ConstantModel(1.0), 10, 0.01), 1.0, rtol=1e-14
        )

    def test_single_subject_returns_curve_value(self):
        model = bateman_fit_model()
        np.testing.assert_allclose(
            pool_sensitivity_avg(model, 1, 0.37), model.sensitivity(1, 1), rtol=1e-14
        )

    def test_against_exact_weighted_average(self):
        model = bateman_fit_model()
        exact = exact_pool_sensitivity_avg(model, 10, Fraction(1, 100))
        np.testing.assert_allclose(
            pool_sensitivity_avg(model, 10, 0.01), float(exact), rtol=1e-12
        )

    def test_stays_within_sensitivity_range(self):
        model = bateman_fit_model()
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(2, 51))
            p = float(rng.uniform(0.001, 0.3))
            values = [model.sensitivity(n, k) for k in range(1, n + 1)]
            avg = pool_sensitivity_avg(model, n, p)
            assert min(values) - 1e-12 <= avg <= max(values) + 1e-12


class TestPoolTestOutcomeProbs:
    def test_perfect_test_reduces_to_pool_positive_prob(self):
        pos, neg = pool_test_outcome_probs(_ConstantModel(1.0), 5, 0.1, 1.0, 1)
        np.testing.assert_allclose(pos, pool_positive_prob(0.1, 5), rtol=1e-13)
        np.testing.assert_allclose(neg, 1.0 - pool_positive_prob(0.1, 5), rtol=1e-13)

    def test_single_read_matches_average_form(self):
        """For r=1 the declared-positive probability is the classic mixture
        Se_P p_P + (1 - Sp)(1 - p_P)."""
        model = bateman_fit_model()
        n, p, sp = 10, 0.01, 0.99
        pos, _ = pool_test_outcome_probs(model, n, p, sp, 1)
        p_pos = pool_positive_prob(p, n)
        mixture = pool_sensitivity_avg(model, n, p) * p_pos + (1 - sp) * (1 - p_pos)
        np.testing.assert_allclose(pos, mixture, rtol=1e-12)

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
        for name in ("p_declared_pos", "p_declared_neg", "detected_share", "missed_share"):
            values = getattr(outcomes, name)
            assert np.all((values >= 0.0) & (values <= 1.0)), name
        assert np.all(outcomes.detected_share == 0.0)
        np.testing.assert_allclose(outcomes.missed_share, 1.0, rtol=1e-12)

    @pytest.mark.parametrize("n, p, r", [(1000, 0.3, 1), (1000, 0.3, 5), (2, 0.01, 100)])
    def test_rounding_never_lifts_a_probability_past_one(self, n, p, r):
        """Summed in floating point, P(declared negative) at (1000, 0.3) and the
        detected share at (2, 0.01, r = 100) land one ulp above 1; the kernel
        caps them."""
        model = bateman_fit_model()
        out = pool_outcomes(model, n, p, model.kit.sp, r)
        for name in ("p_declared_pos", "p_declared_neg", "detected_share", "missed_share"):
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

    def test_sensitivity_row_follows_the_model(self):
        model = bateman_fit_model()
        row = sensitivity_row(model, 7)
        assert row.tolist() == [model.sensitivity(7, k) for k in range(1, 8)]
        assert sensitivity_row(_ConstantModel(0.5), 3).tolist() == [0.5, 0.5, 0.5]

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

    def test_retest_bounds(self):
        assert check_retest_count(5) == 5
        with pytest.raises(ValueError, match="retest count"):
            check_retest_count(0)
        with pytest.raises(ValueError, match="retest count"):
            check_retest_count(101)
