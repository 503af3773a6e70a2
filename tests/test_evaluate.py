"""Closed-form evaluators against exhaustive enumeration and the lemma suite."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pooltest import (
    DilutionModel,
    Metrics,
    Procedure,
    ProcedureConfig,
    SweepSpec,
    TestKit,
    bateman_fit_model,
    eval_dorfman,
    eval_individual,
    eval_modified,
    evaluate,
    posterior_given_negative_pool,
    posterior_given_positive_pool,
    sweep,
)
from pooltest.kernels import MAX_POOL_SIZE, MAX_RETESTS, pool_outcomes

from _oracles import enumerate_pooled_metrics, exact_binomial_pmf

_METRIC_FIELDS = (
    "e_tests",
    "e_fp",
    "e_fn",
    "e_tests_individual_stage",
    "e_fn_pool_stage",
    "e_fn_individual_stage",
)


def _assert_metrics_close(got, want, context):
    for name in _METRIC_FIELDS:
        np.testing.assert_allclose(
            getattr(got, name), getattr(want, name), rtol=1e-12, atol=1e-15,
            err_msg=f"{name} at {context}",
        )


class _ForcedDetectionModel:
    """Pool reads always positive when anything is in the pool; the individual
    stage still uses the real kit. Realizes the repeated-sensitivity = 1 limit."""

    def __init__(self, kit: TestKit):
        self.kit = kit

    def sensitivity(self, n: int, k: int) -> float:
        return 1.0


def _random_model(rng) -> DilutionModel:
    return DilutionModel(
        kit=TestKit(
            se_i=float(rng.uniform(0.85, 1.0)),
            sp=float(rng.uniform(0.85, 1.0)),
        ),
        alpha=float(rng.uniform(0.0, 0.2)),
        beta=float(rng.uniform(-0.004, 0.002)),
    )


class TestProcedureConfig:
    def test_individual_shape_is_fixed(self):
        config = ProcedureConfig(Procedure.INDIVIDUAL)
        assert (config.n, config.r) == (1, 1)
        with pytest.raises(ValueError, match="individual"):
            ProcedureConfig(Procedure.INDIVIDUAL, n=5)

    def test_dorfman_shape(self):
        assert ProcedureConfig(Procedure.DORFMAN, n=2).r == 1
        with pytest.raises(ValueError, match="n >= 2"):
            ProcedureConfig(Procedure.DORFMAN, n=1)
        with pytest.raises(ValueError, match="once"):
            ProcedureConfig(Procedure.DORFMAN, n=5, r=2)

    def test_modified_allows_single_read(self):
        """r = 1 is legal and means plain dorfman."""
        config = ProcedureConfig(Procedure.MODIFIED, n=4, r=1)
        assert config.r == 1
        with pytest.raises(ValueError, match="n >= 2"):
            ProcedureConfig(Procedure.MODIFIED, n=1, r=3)

    def test_accepts_string_kind(self):
        assert ProcedureConfig("dorfman", n=8).kind is Procedure.DORFMAN


class TestMetricsValidation:
    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="e_fn"):
            Metrics(e_tests=1.0, e_fn=-0.1, e_fp=0.0)

    def test_rejects_stage_exceeding_total(self):
        with pytest.raises(ValueError, match="individual-stage"):
            Metrics(e_tests=0.5, e_fn=0.0, e_fp=0.0, e_tests_individual_stage=0.9)

    def test_rejects_inconsistent_stage_split(self):
        with pytest.raises(ValueError, match="add up"):
            Metrics(
                e_tests=1.0,
                e_fn=0.01,
                e_fp=0.0,
                e_fn_pool_stage=0.001,
                e_fn_individual_stage=0.001,
            )

    def test_diagnostics_are_optional(self):
        metrics = Metrics(e_tests=1.0, e_fn=0.0, e_fp=0.0)
        assert metrics.e_fn_pool_stage is None


class TestIndividual:
    def test_closed_forms(self):
        kit = TestKit(se_i=0.99, sp=0.99)
        metrics = eval_individual(kit, 0.001)
        assert metrics.e_tests == 1.0
        np.testing.assert_allclose(metrics.e_fn, 0.001 * 0.01, rtol=1e-15)
        np.testing.assert_allclose(metrics.e_fp, 0.999 * 0.01, rtol=1e-15)
        assert metrics.e_fn_pool_stage == 0.0
        assert metrics.e_fn_individual_stage == metrics.e_fn


class TestPooledEvaluators:
    def test_perfect_test_reduction(self):
        """With Se = Sp = 1 the only cost is the pool stage plus escalation."""
        model = DilutionModel(kit=TestKit(se_i=1.0, sp=1.0), alpha=0.0, beta=0.0)
        metrics = eval_dorfman(model, 0.1, 10)
        np.testing.assert_allclose(
            metrics.e_tests, 1 / 10 + 1 - 0.9**10, rtol=1e-12
        )
        assert metrics.e_fn == 0.0
        assert metrics.e_fp == 0.0

    def test_dorfman_is_modified_with_one_read(self):
        model = bateman_fit_model()
        for n in (2, 7, 23):
            for p in (0.001, 0.05, 0.3):
                assert eval_dorfman(model, p, n) == eval_modified(model, p, n, 1)

    def test_matches_exhaustive_enumeration(self):
        """Every metric, including stage diagnostics, equals the full
        probability-weighted walk of all outcomes."""
        model = bateman_fit_model()
        for n in (2, 3, 4):
            for r in (1, 2, 3):
                for p in (0.01, 0.1, 0.3):
                    metrics = eval_modified(model, p, n, r)
                    oracle = enumerate_pooled_metrics(model, p, n, r)
                    for name, want in oracle.items():
                        got = getattr(metrics, name)
                        assert got == pytest.approx(want, abs=1e-10), (name, n, r, p)

    def test_enumeration_with_random_models(self):
        rng = np.random.default_rng(2718)
        for _ in range(20):
            model = _random_model(rng)
            n = int(rng.integers(2, 5))
            r = int(rng.integers(1, 4))
            p = float(rng.uniform(0.01, 0.4))
            metrics = eval_modified(model, p, n, r)
            oracle = enumerate_pooled_metrics(model, p, n, r)
            for name, want in oracle.items():
                assert getattr(metrics, name) == pytest.approx(want, abs=1e-10)

    def test_stage_split_is_exact(self):
        model = bateman_fit_model()
        metrics = eval_modified(model, 0.01, 10, 3)
        assert metrics.e_fn == metrics.e_fn_pool_stage + metrics.e_fn_individual_stage

    def test_dispatcher(self):
        model = bateman_fit_model()
        assert evaluate(model, 0.01, ProcedureConfig(Procedure.INDIVIDUAL)) == eval_individual(model.kit, 0.01)
        assert evaluate(model, 0.01, ProcedureConfig(Procedure.DORFMAN, n=6)) == eval_dorfman(model, 0.01, 6)
        assert evaluate(model, 0.01, ProcedureConfig(Procedure.MODIFIED, n=6, r=4)) == eval_modified(model, 0.01, 6, 4)

    def test_domain_validation(self):
        model = bateman_fit_model()
        with pytest.raises(ValueError, match="pool size"):
            eval_dorfman(model, 0.01, 1)
        with pytest.raises(ValueError, match="prevalence"):
            eval_modified(model, 0.0, 5, 2)


class TestPoolStageMisses:
    @pytest.mark.parametrize("n", [2, 3])
    def test_pool_stage_misses_match_exact_sum(self, n):
        """p sum_k (1 - Se(n,k))^r Pr(k-1; n-1, p) in rational arithmetic. At
        r = 10 the terms are near 1e-18, where one minus the detected share
        would keep only the digits left over from 1."""
        model = bateman_fit_model()
        p, r = 0.001, 10
        exact_p = Fraction(p)
        exact = exact_p * sum(
            (1 - Fraction(model.sensitivity(n, k))) ** r
            * exact_binomial_pmf(k - 1, n - 1, exact_p)
            for k in range(1, n + 1)
        )
        got = eval_modified(model, p, n, r).e_fn_pool_stage
        np.testing.assert_allclose(got, float(exact), rtol=1e-12)

    def test_false_positives_match_exact_sum(self):
        """(1 - Sp)(1 - p) sum_j (1 - miss(j)^r) Pr(j; n-1, p) in rational
        arithmetic, miss(0) = Sp and miss(j) = 1 - Se(n, j). At p = 1 - 1e-12
        e_fp is near 1e-14, where P(declared +) less p times the detected
        share kept only its leftover digits (9.99867e-15 against 9.99961e-15)."""
        model = bateman_fit_model()
        n, r, p = 10, 3, 1.0 - 1e-12
        exact_p, sp = Fraction(p), Fraction(model.kit.sp)
        miss = [sp] + [1 - Fraction(model.sensitivity(n, k)) for k in range(1, n)]
        exact = (1 - sp) * (1 - exact_p) * sum(
            (1 - miss[j] ** r) * exact_binomial_pmf(j, n - 1, exact_p) for j in range(n)
        )
        got = eval_modified(model, p, n, r).e_fp
        np.testing.assert_allclose(got, float(exact), rtol=1e-12)


def _loop_outcomes(model, p, n, r):
    """The pool-read probabilities written as per-k loops, the way they read on
    paper: the reference for the vectorised kernel."""
    sp = model.kit.sp
    pmf = [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
    pmf_pos = [math.comb(n - 1, k) * p**k * (1 - p) ** (n - 1 - k) for k in range(n)]
    miss = [1.0 - model.sensitivity(n, k) for k in range(1, n + 1)]

    def declared_neg(j):
        return sp**j * pmf[0] + sum(m**j * w for m, w in zip(miss, pmf[1:]))

    return {
        "p_declared_pos": (1 - sp**r) * pmf[0] + sum((1 - m**r) * w for m, w in zip(miss, pmf[1:])),
        "p_declared_neg": declared_neg(r),
        "detected_share": sum((1 - m**r) * w for m, w in zip(miss, pmf_pos)),
        "missed_share": sum(m**r * w for m, w in zip(miss, pmf_pos)),
        "extra_reads": sum(declared_neg(j) for j in range(1, r)),
    }


class TestBatchedOutcomes:
    def test_kernel_matches_per_k_loops(self):
        rng = np.random.default_rng(6011)
        for _ in range(12):
            model = _random_model(rng)
            p = float(10.0 ** rng.uniform(math.log10(1e-4), math.log10(0.5)))
            n = int(rng.integers(2, 501))
            r_max = int(rng.integers(1, 21))
            outcomes = pool_outcomes(model, n, p, model.kit.sp, r_max)
            for r in sorted({1, r_max, int(rng.integers(1, r_max + 1))}):
                for name, want in _loop_outcomes(model, p, n, r).items():
                    np.testing.assert_allclose(
                        getattr(outcomes, name)[r], want, rtol=1e-12, atol=1e-15,
                        err_msg=f"{name} at p={p}, n={n}, r={r}",
                    )

    def test_every_r_of_one_kernel_call_matches_single_r(self):
        """One pool_outcomes per (p, n) read at each r, and the sweep's path
        (one kernel call over a run of pool sizes), against one evaluation per
        configuration."""
        rng = np.random.default_rng(6007)
        for _ in range(25):
            model = _random_model(rng)
            p = float(10.0 ** rng.uniform(math.log10(1e-4), math.log10(0.5)))
            n = int(rng.integers(2, 501))
            r_max = int(rng.integers(1, 21))
            outcomes = pool_outcomes(model, n, p, model.kit.sp, r_max)
            _assert_metrics_close(
                eval_dorfman(model, p, n, outcomes), eval_dorfman(model, p, n), (p, n, 1)
            )
            for r in range(1, r_max + 1):
                _assert_metrics_close(
                    eval_modified(model, p, n, r, outcomes),
                    eval_modified(model, p, n, r),
                    (p, n, r),
                )
            # The sweep against per-size calls, whose every r matches its
            # single-r call (above).
            sizes = range(max(2, n - 2), n + 1)
            swept = [
                pt for pt in sweep(SweepSpec((p,), (sizes[0], n), (1, r_max), model))
                if pt.kind is Procedure.MODIFIED
            ]
            per_size = {size: pool_outcomes(model, size, p, model.kit.sp, r_max) for size in sizes}
            want = [eval_modified(model, p, pt.config.n, pt.config.r, per_size[pt.config.n]) for pt in swept]
            for name in _METRIC_FIELDS:
                np.testing.assert_allclose(
                    [getattr(pt.metrics, name) for pt in swept], [getattr(m, name) for m in want],
                    rtol=1e-12, atol=1e-15, err_msg=f"sweep's {name} at p={p}, n<={n}",
                )

    def test_mismatched_outcomes_are_rejected(self):
        model = bateman_fit_model()
        outcomes = pool_outcomes(model, 10, 0.01, model.kit.sp, 3)
        for args in ((0.01, 11, 2), (0.02, 10, 2), (0.01, 10, 4)):
            with pytest.raises(ValueError, match="pool outcomes do not cover"):
                eval_modified(model, *args, outcomes)
        # Another kit, or another dilution curve over the same kit.
        for other in (DilutionModel(kit=TestKit(se_i=0.99, sp=0.95)), replace(model, alpha=0.5, beta=0.0)):
            with pytest.raises(ValueError, match="pool outcomes do not cover"):
                eval_dorfman(other, 0.01, 10, outcomes)
            with pytest.raises(ValueError, match="pool outcomes do not cover"):
                eval_modified(other, 0.01, 10, 3, outcomes)
        for posterior in (posterior_given_negative_pool, posterior_given_positive_pool):
            assert posterior(model, 0.01, 10, 3, outcomes) == posterior(model, 0.01, 10, 3)
            with pytest.raises(ValueError, match="pool outcomes do not cover"):
                posterior(model, 0.01, 10, 4, outcomes)
        grid = pool_outcomes(model, [10], 0.01, model.kit.sp, 3)
        with pytest.raises(ValueError, match="pool outcomes do not cover"):
            evaluate(model, 0.01, ProcedureConfig("modified", n=10, r=2), grid)


class TestLemmas:
    """Order relations among the procedures, sampled across the sweep box."""

    def test_retesting_cannot_increase_false_negatives(self):
        rng = np.random.default_rng(1009)
        for _ in range(300):
            model = _random_model(rng)
            n = int(rng.integers(2, 51))
            r = int(rng.integers(1, 6))
            p = float(rng.uniform(0.001, 0.3))
            assert (
                eval_modified(model, p, n, r).e_fn
                <= eval_dorfman(model, p, n).e_fn + 1e-12
            )

    def test_retesting_costs_tests_at_both_stages(self):
        rng = np.random.default_rng(1013)
        for _ in range(300):
            model = _random_model(rng)
            n = int(rng.integers(2, 51))
            r = int(rng.integers(1, 6))
            p = float(rng.uniform(0.001, 0.3))
            mod = eval_modified(model, p, n, r)
            dorf = eval_dorfman(model, p, n)
            assert mod.e_tests_individual_stage >= dorf.e_tests_individual_stage - 1e-12
            assert mod.e_tests >= dorf.e_tests - 1e-12

    def test_pooling_never_beats_individual_on_misses(self):
        rng = np.random.default_rng(1019)
        for _ in range(300):
            model = _random_model(rng)
            n = int(rng.integers(2, 51))
            r = int(rng.integers(1, 6))
            p = float(rng.uniform(0.001, 0.3))
            floor = (1.0 - model.kit.se_i) * p
            assert eval_modified(model, p, n, r).e_fn >= floor - 1e-12

    def test_miss_floor_attained_with_certain_pool_detection(self):
        """When every pool read fires, only the individual stage can miss."""
        kit = TestKit(se_i=0.99, sp=0.99)
        forced = _ForcedDetectionModel(kit)
        for n in (2, 10, 40):
            for r in (1, 3):
                metrics = eval_modified(forced, 0.02, n, r)
                np.testing.assert_allclose(
                    metrics.e_fn, (1.0 - kit.se_i) * 0.02, rtol=1e-12
                )

    def test_monotone_in_retests(self):
        model = bateman_fit_model()
        rng = np.random.default_rng(1021)
        for _ in range(60):
            n = int(rng.integers(2, 51))
            p = float(rng.uniform(0.001, 0.3))
            results = [eval_modified(model, p, n, r) for r in range(1, 6)]
            for a, b in zip(results, results[1:]):
                assert b.e_fn <= a.e_fn + 1e-15
                assert b.e_tests >= a.e_tests - 1e-15


class TestPosteriors:
    def test_total_probability(self):
        """The two conditionals glued by the outcome probabilities give back p."""
        from pooltest import pool_test_outcome_probs

        model = bateman_fit_model()
        rng = np.random.default_rng(33)
        for _ in range(100):
            n = int(rng.integers(2, 51))
            r = int(rng.integers(1, 6))
            p = float(rng.uniform(0.001, 0.3))
            pos, neg = pool_test_outcome_probs(model, n, p, model.kit.sp, r)
            post_neg = posterior_given_negative_pool(model, p, n, r)
            post_pos = posterior_given_positive_pool(model, p, n, r)
            assert 0.0 <= post_neg <= 1.0
            assert 0.0 <= post_pos <= 1.0
            np.testing.assert_allclose(post_neg * neg + post_pos * pos, p, atol=1e-12)

    def test_certain_detection_leaves_no_leakage(self):
        forced = _ForcedDetectionModel(TestKit(se_i=0.99, sp=0.99))
        assert posterior_given_negative_pool(forced, 0.05, 8, 2) <= 1e-13

    def test_positive_pool_raises_suspicion(self):
        model = bateman_fit_model()
        assert posterior_given_positive_pool(model, 0.01, 10, 1) > 0.01

    def test_in_range_or_undefined_across_the_domain(self):
        """Either a probability or ValueError, never a crash or a value past 1,
        from the smallest to the largest pools and prevalences."""
        models = (
            bateman_fit_model(),
            DilutionModel(kit=TestKit(se_i=1.0, sp=1.0)),
            bateman_fit_model(TestKit(se_i=0.01, sp=0.01)),
        )
        defined = 0
        for model in models:
            for p in (1e-6, 0.5, 0.9, 1.0 - 1e-9):
                for n in (2, 50, 5000, 10000):
                    for r in (1, 100):
                        for posterior in (
                            posterior_given_negative_pool,
                            posterior_given_positive_pool,
                        ):
                            try:
                                value = posterior(model, p, n, r)
                            except ValueError as exc:
                                assert "is 0 in double precision" in str(exc)
                                continue
                            assert 0.0 <= value <= 1.0, (posterior.__name__, p, n, r)
                            defined += 1
        assert defined > 100

    def test_rounding_never_lifts_a_posterior_past_one(self):
        """With a curve rising as the positive share falls and p next to 1, the
        ratio of p times the missed share to P(declared negative), each summed
        on its own, landed one ulp above 1. P(declared negative) is now p times
        that share plus a nonnegative term, so the ratio cannot pass 1."""
        rising = DilutionModel(kit=TestKit(se_i=1.0, sp=1.0), alpha=-1.0, beta=-0.01)
        assert posterior_given_negative_pool(rising, 1.0 - 1e-12, 2, 1) <= 1.0

    def test_undefined_outcomes_raise(self):
        model = bateman_fit_model()
        with pytest.raises(ValueError, match="declared positive"):
            posterior_given_positive_pool(model, 0.5, 5000)
        perfect = DilutionModel(kit=TestKit(se_i=1.0, sp=1.0))
        with pytest.raises(ValueError, match="declared negative"):
            posterior_given_negative_pool(perfect, 0.9, 10000)


# The accepted domain: p in (0, 1) with both ends at 1e-12, n in [2, 10000],
# r in [1, 100], se/sp in (0, 1], any finite alpha and beta.
_TINY = st.floats(math.log(1e-12), math.log(0.5)).map(math.exp)
_DOMAIN_PREVALENCES = st.one_of(
    st.sampled_from([1e-12, 1.0 - 1e-12]), _TINY, _TINY.map(lambda q: 1.0 - q)
)
_RATES = st.floats(0.0, 1.0, exclude_min=True)
_COEFFICIENTS = st.one_of(
    st.floats(-1.0, 1.0), st.floats(-1e308, 1e308), st.sampled_from([-1000.0, 1000.0])
)
# Most pool sizes small, as the sweeps use; some anywhere up to the limit.
_POOL_SIZES = st.one_of(
    st.integers(2, 60), st.integers(2, MAX_POOL_SIZE), st.just(MAX_POOL_SIZE)
)


@st.composite
def _domain_models(draw):
    return DilutionModel(
        kit=TestKit(se_i=draw(_RATES), sp=draw(_RATES)),
        alpha=draw(_COEFFICIENTS),
        beta=draw(_COEFFICIENTS),
        linear_term=draw(st.sampled_from(["pool-size", "positives"])),
    )


class TestAcceptedDomain:
    """Every input the validators accept gives finite, in-range numbers or the
    documented ValueError."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(_domain_models(), _DOMAIN_PREVALENCES, _POOL_SIZES, st.integers(1, MAX_RETESTS))
    def test_metrics_posteriors_and_lemmas(self, model, p, n, r_max):
        kit = model.kit
        outcomes = pool_outcomes(model, n, p, kit.sp, r_max)
        np.testing.assert_allclose(
            outcomes.p_declared_pos[1:] + outcomes.p_declared_neg[1:], 1.0, rtol=0, atol=1e-12
        )
        results = [eval_modified(model, p, n, r, outcomes) for r in range(1, r_max + 1)]
        floor = (1.0 - kit.se_i) * p
        certain = eval_modified(_ForcedDetectionModel(kit), p, n, r_max)
        np.testing.assert_allclose(certain.e_fn, floor, rtol=1e-12)
        for metrics in results:
            values = [getattr(metrics, name) for name in _METRIC_FIELDS]
            assert all(math.isfinite(v) for v in values), metrics
            assert metrics.e_fn <= p * (1.0 + 1e-12), metrics
            assert metrics.e_fp <= (1.0 - p) * (1.0 - kit.sp), metrics
            assert metrics.e_fn >= floor - 1e-12, metrics
        # Criterion 5's lemmas, between every r and the next.
        pos, neg = outcomes.p_declared_pos, outcomes.p_declared_neg
        assert np.all(np.diff(pos[1:]) >= -1e-12) and np.all(np.diff(neg[1:]) <= 1e-12)
        for fewer, more in zip(results, results[1:]):
            assert more.e_fn <= fewer.e_fn + 1e-12
            assert more.e_tests_individual_stage >= fewer.e_tests_individual_stage - 1e-12
            assert more.e_tests >= fewer.e_tests - 1e-12
        for posterior in (posterior_given_negative_pool, posterior_given_positive_pool):
            for r in {1, r_max}:
                try:
                    value = posterior(model, p, n, r)
                except ValueError as exc:
                    assert "is 0 in double precision" in str(exc)
                else:
                    assert 0.0 <= value <= 1.0, (posterior.__name__, r)
