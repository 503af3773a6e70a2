"""Simulator determinism, conservation, and agreement with the closed forms."""

import dataclasses
import importlib
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pooltest import (
    DilutionModel,
    Procedure,
    ProcedureConfig,
    SimConfig,
    SimResult,
    TestKit,
    bateman_fit_model,
    default_verification_configs,
    evaluate,
    simulate,
    verify_against_analytic,
)

# The package exports the simulate function under the submodule's name.
simulate_module = importlib.import_module("pooltest.simulate")
_Walks = simulate_module._Walks


def _config(kind=Procedure.MODIFIED, n=10, r=3, subjects=100_000, seed=11, p=0.01, model=None):
    return SimConfig(
        subjects=subjects,
        seed=seed,
        procedure=ProcedureConfig(kind, n=n, r=r) if kind is not Procedure.INDIVIDUAL else ProcedureConfig(kind),
        model=model or bateman_fit_model(),
        p=p,
    )


def _assert_pooled_counts_consistent(config, result):
    n, r = config.procedure.n, config.procedure.r
    full_pools, remainder = divmod(config.subjects, n)
    pools = full_pools + (remainder > 0)
    classified = (
        result.true_positives + result.false_positives
        + result.true_negatives + result.false_negatives
    )
    assert classified == result.subjects == config.subjects
    assert result.tests == result.pool_tests + result.individual_tests
    assert pools <= result.pool_tests <= r * pools
    # Whole pools read individually, plus the short pool or not.
    assert any(
        (result.individual_tests - short) % n == 0
        and 0 <= (result.individual_tests - short) // n <= full_pools
        for short in {0, remainder}
    ), result
    # Only subjects read individually can be declared positive.
    assert result.true_positives + result.false_positives <= result.individual_tests


class TestConfigValidation:
    def test_rejects_empty_population(self):
        with pytest.raises(ValueError, match="subjects"):
            _config(subjects=0)

    def test_rejects_a_population_of_2_to_the_63_or_more(self):
        assert _config(subjects=2**63 - 1).subjects == 2**63 - 1
        for bad in (2**63, 10**20, 1e30):
            with pytest.raises(ValueError, match=r"subjects must be a positive integer below 2\*\*63"):
                _config(subjects=bad)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError, match="seed"):
            _config(seed=-1)
        with pytest.raises(ValueError, match="seed"):
            _config(seed=2**64)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_integers_name_their_field(self, bad):
        with pytest.raises(ValueError, match="subjects must be a positive integer"):
            _config(subjects=bad)
        with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
            _config(seed=bad)
        with pytest.raises(ValueError, match="threads must be an integer"):
            simulate(_config(subjects=100), threads=bad)

    def test_result_conservation_enforced(self):
        with pytest.raises(ValueError, match="pool"):
            SimResult(
                subjects=10, tests=5, pool_tests=1, individual_tests=3,
                true_positives=1, false_positives=1, true_negatives=7, false_negatives=1,
            )
        with pytest.raises(ValueError, match="classified"):
            SimResult(
                subjects=10, tests=4, pool_tests=1, individual_tests=3,
                true_positives=1, false_positives=1, true_negatives=7, false_negatives=0,
            )


class TestDeterminism:
    def test_identical_config_identical_result_across_threads(self):
        # subjects chosen to leave a short remainder pool
        config = _config(subjects=1_000_003)
        baseline = simulate(config, threads=1)
        assert simulate(config, threads=2) == baseline
        assert simulate(config, threads=8) == baseline

    def test_individual_procedure_thread_invariance(self):
        config = _config(kind=Procedure.INDIVIDUAL, subjects=3_000_000, p=0.05)
        assert simulate(config, threads=1) == simulate(config, threads=8)

    def test_repeat_run_is_bitwise_stable(self):
        config = _config()
        assert simulate(config) == simulate(config)

    def test_different_seeds_differ(self):
        for seed_a, seed_b in ((1, 2), (3, 300), (123456, 654321)):
            ra = simulate(_config(seed=seed_a))
            rb = simulate(_config(seed=seed_b))
            assert ra != rb

    def test_threads_validation(self):
        with pytest.raises(ValueError, match="threads"):
            simulate(_config(subjects=100), threads=0)


class TestScheduler:
    """Every chunk runs in order on the calling thread, whatever threads is."""

    @pytest.mark.parametrize("per_subject", [False, True])
    def test_every_chunk_runs_in_order_on_the_calling_thread(self, monkeypatch, per_subject):
        """No thread starts at threads = 1, 2, 8 or 64, and the counts are those at one thread."""
        name = "_subject_chunk" if per_subject else "_count_chunk"
        runs, chunk = [], getattr(simulate_module, name)

        def recorded(config, pools, law, chunk_index, **walks):
            runs.append((chunk_index, threading.get_ident()))
            return chunk(config, pools, law, chunk_index, **walks)

        def start(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", start)
        monkeypatch.setattr(simulate_module, name, recorded)
        monkeypatch.setattr(simulate_module, "_CHUNK_SUBJECT_TARGET", _SMALL_CHUNKS)
        # Three of the per-subject engine's full chunks of pools of 10, and a
        # short pool of 7; the count engine draws the full pools as one chunk.
        config = _config(subjects=3 * (_SMALL_CHUNKS // 10 * 10) + 7)
        chunks = 4 if per_subject else 2
        results = []
        for threads in (1, 2, 8, 64):
            runs.clear()
            results.append(simulate(config, threads=threads, per_subject=per_subject))
            assert runs == [(index, threading.get_ident()) for index in range(chunks)], threads
        assert results == results[:1] * 4

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_chunk_is_made_only_when_taken(self, monkeypatch, threads):
        """2**40 subjects are about 10**6 chunks of the per-subject engine; the
        run holds none of them before its first chunk runs."""

        class FirstChunk(Exception):
            pass

        def stop(config, pools, law, chunk_index, *, walks):
            raise FirstChunk(chunk_index)

        monkeypatch.setattr(simulate_module, "_subject_chunk", stop)
        config = _config(subjects=1 << 40)
        tracemalloc.start()
        try:
            with pytest.raises(FirstChunk):
                simulate(config, threads=threads, per_subject=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("per_subject", [False, True])
    def test_engines_agree_across_one_two_and_three_threads(self, per_subject):
        config = _config(subjects=7 * _SMALL_CHUNKS + 3, p=0.05)
        with mock.patch.object(simulate_module, "_CHUNK_SUBJECT_TARGET", _SMALL_CHUNKS):
            results = [simulate(config, threads=threads, per_subject=per_subject) for threads in (1, 2, 3)]
        assert results[0] == results[1] == results[2]


class TestCountEngineChunks:
    """The count engine draws every full pool of a run as chunk 0 and the
    short final pool, if any, as chunk 1, at any population."""

    @pytest.mark.parametrize("target", [None, 4096])
    @pytest.mark.parametrize("subjects", [10_000_000, 2**40])
    @pytest.mark.parametrize("short", [0, 5])
    def test_one_call_per_run_and_one_for_the_short_pool(self, monkeypatch, target, subjects, short):
        runs, chunk = [], simulate_module._count_chunk

        def recorded(config, pools, law, chunk_index):
            runs.append((pools, law.size, chunk_index))
            return chunk(config, pools, law, chunk_index)

        monkeypatch.setattr(simulate_module, "_count_chunk", recorded)
        if target is not None:
            monkeypatch.setattr(simulate_module, "_CHUNK_SUBJECT_TARGET", target)
        # Pools of 8 divide both populations, so `short` is the short pool's size.
        simulate(_config(kind=Procedure.DORFMAN, n=8, r=1, subjects=subjects + short), threads=2)
        assert runs == [(subjects // 8, 8, 0)] + [(1, short, 1)] * (short > 0)

    @pytest.mark.parametrize(
        "kind, n, r, subjects",
        [
            (Procedure.MODIFIED, 2, 100, 2**60),
            (Procedure.INDIVIDUAL, 1, 1, 2**63 - 1),
            (Procedure.DORFMAN, 10, 1, 2**63 - 1),
            (Procedure.MODIFIED, 10, 100, 2**63 - 1),
        ],
    )
    def test_counts_past_int64_are_exact(self, kind, n, r, subjects):
        """2**59 pools of 2 read 62 times each on average, about 2**65 pool
        reads. Each rate lies within 1e-6 of its closed form, up to the largest
        population; SimResult checks that counts are nonnegative and that each
        subject is classified once."""
        config = _config(kind=kind, n=n, r=r, subjects=subjects)
        result = simulate(config)
        if kind is Procedure.INDIVIDUAL:
            assert result.tests == result.individual_tests == subjects
        else:
            _assert_pooled_counts_consistent(config, result)
        analytic = evaluate(config.model, config.p, config.procedure)
        for observed, expected in (
            (result.tests_per_subject, analytic.e_tests),
            (result.fn_per_subject, analytic.e_fn),
            (result.fp_per_subject, analytic.e_fp),
        ):
            assert observed == pytest.approx(expected, rel=1e-6)


class TestProcedureSemantics:
    def test_individual_tests_everyone_once(self):
        result = simulate(_config(kind=Procedure.INDIVIDUAL, subjects=50_000, p=0.02))
        assert result.tests == 50_000
        assert result.pool_tests == 0
        assert result.individual_tests == 50_000

    def test_single_read_pools_use_one_test_each(self):
        """With r=1 the pool stage spends exactly ceil(subjects/n) tests."""
        result = simulate(_config(kind=Procedure.DORFMAN, n=10, r=1, subjects=95, p=0.3))
        assert result.pool_tests == 10  # nine full pools and one short pool
        assert result.individual_tests % 10 in (0, 5)

    def test_remainder_subjects_are_still_classified(self):
        result = simulate(_config(subjects=25, p=0.3))
        classified = (
            result.true_positives + result.false_positives
            + result.true_negatives + result.false_negatives
        )
        assert classified == 25

    def test_perfect_kit_never_errs(self):
        model = DilutionModel(kit=TestKit(se_i=1.0, sp=1.0), alpha=0.0, beta=0.0)
        result = simulate(_config(model=model, subjects=200_000, p=0.05))
        assert result.false_negatives == 0
        assert result.false_positives == 0

    def test_retest_budget_bounds_pool_tests(self):
        for n, r, subjects, p in (
            (5, 4, 10_000, 0.01),
            # Most of the 10,001 positive-count classes hold no pool.
            (10_000, 3, 1_000_003, 1e-4),
            # The largest retest budget the validators accept.
            (7, 100, 100_003, 0.2),
        ):
            config = _config(n=n, r=r, subjects=subjects, p=p)
            _assert_pooled_counts_consistent(config, simulate(config))

    def test_reads_are_drawn_for_occupied_classes_only(self, monkeypatch):
        """Pools of 10,000 at p = 1e-4 fill a handful of the 10,001 classes."""
        read_draws = []
        chunk_rng = simulate_module._chunk_rng

        class Recording:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def multinomial(self, n, pvals):
                if np.ndim(n):
                    read_draws.append(np.asarray(n))
                return self.rng.multinomial(n, pvals)

        config = _config(n=10_000, r=3, subjects=1_000_003, p=1e-4)
        expected = simulate(config)
        monkeypatch.setattr(simulate_module, "_chunk_rng", lambda *key: Recording(chunk_rng(*key)))
        assert simulate(config) == expected
        # Every pool's reads are drawn once, in classes that are never empty.
        assert sum(int(draw.sum()) for draw in read_draws) == math.ceil(config.subjects / 10_000)
        assert all(draw.min() > 0 and len(draw) <= 10 for draw in read_draws)

    def test_pools_past_the_dilution_limit_detect_nothing(self):
        """Bateman Se(800, k) is 0 for every k, so every positive is missed."""
        model = bateman_fit_model()
        assert not model.sensitivity(800, np.arange(1, 801)).any()
        subjects, p = 1_000_003, 0.01
        for r in (1, 5):
            result = simulate(_config(n=800, r=r, subjects=subjects, p=p, model=model))
            assert result.true_positives == 0
            # FN is then every positive, Binomial(subjects, p).
            assert abs(result.false_negatives - subjects * p) <= 5 * math.sqrt(subjects * p * (1 - p))


class TestAgreementWithClosedForms:
    def test_errors_shrink_with_population(self):
        """E(T) error at 10**7 subjects beats the same seed at 10**5."""
        analytic = evaluate(bateman_fit_model(), 0.01, ProcedureConfig(Procedure.MODIFIED, n=10, r=3))
        small = simulate(_config(subjects=10**5, seed=5))
        large = simulate(_config(subjects=10**7, seed=5), threads=4)
        err_small = abs(small.tests_per_subject - analytic.e_tests)
        err_large = abs(large.tests_per_subject - analytic.e_tests)
        assert err_large < err_small

    def test_rates_land_near_analytic_values(self):
        analytic = evaluate(bateman_fit_model(), 0.01, ProcedureConfig(Procedure.MODIFIED, n=10, r=3))
        result = simulate(_config(subjects=2_000_000, seed=17), threads=4)
        np.testing.assert_allclose(result.tests_per_subject, analytic.e_tests, rtol=2e-3)
        np.testing.assert_allclose(result.fp_per_subject, analytic.e_fp, rtol=0.1)
        np.testing.assert_allclose(result.fn_per_subject, analytic.e_fn, rtol=0.4)

    def test_reference_engine_at_scale_within_four_standard_errors(self):
        """verify's three shapes at p = 0.1 on the per-subject engine.

        A pool's FN or FP count X is at most n, so Var X <= n E[X] whatever
        the correlation inside the pool, and a rate e over pools of n has a
        standard error of at most sqrt(n e / subjects).
        """
        configs = default_verification_configs(bateman_fit_model(), subjects=1_000_000)
        for config in (c for c in configs if c.p == 0.1):
            result = simulate(config, threads=2, per_subject=True)
            analytic = evaluate(config.model, config.p, config.procedure)
            for observed, expected in (
                (result.fn_per_subject, analytic.e_fn),
                (result.fp_per_subject, analytic.e_fp),
            ):
                bound = 4 * math.sqrt(config.procedure.n * expected / config.subjects)
                assert abs(observed - expected) <= bound, (config, result)


    @pytest.mark.parametrize("p", [0.5, 0.9])
    def test_reference_engine_past_one_half_within_four_standard_errors(self, p):
        """verify's three shapes where statuses and individual reads draw their
        gaps over the misses.

        As above, for FN and FP; a pool's tests are at most n + r, so the
        tests rate has a standard error of at most sqrt((n + r) e / subjects).
        """
        configs = default_verification_configs(bateman_fit_model(), subjects=1_000_000)
        for config in (dataclasses.replace(c, p=p) for c in configs if c.p == 0.1):
            result = simulate(config, threads=2, per_subject=True)
            analytic = evaluate(config.model, config.p, config.procedure)
            n, r = config.procedure.n, config.procedure.r
            for observed, expected, span in (
                (result.fn_per_subject, analytic.e_fn, n),
                (result.fp_per_subject, analytic.e_fp, n),
                (result.tests_per_subject, analytic.e_tests, n + r),
            ):
                bound = 4 * math.sqrt(span * expected / config.subjects)
                assert abs(observed - expected) <= bound, (config, result)


class TestReferenceEngineDraws:
    """The per-subject engine places each Bernoulli sequence's successes at
    cumulative geometric gaps, each drawn as a ceiled exponential."""

    @pytest.mark.parametrize("q, blocks, size", [(0.0, 5, 7), (1.0, 5, 7), (0.3, 1, 0), (0.9, 1, 0)])
    def test_certain_or_empty_runs_draw_nothing(self, q, blocks, size):
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        counts = simulate_module._class_counts(rng, q, blocks, size, _Walks())
        assert counts.tolist() == np.bincount([int(q * size)] * blocks, minlength=size + 1).tolist()
        assert simulate_module._count(rng, q, blocks * size, _Walks()) == int(q * size) * blocks
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("q", [1e-4, 0.3, 0.34, 0.45, 0.5, 0.55, 0.66, 0.7, 0.9999])
    def test_blocks_follow_the_binomial_law(self, q):
        """100,000 blocks of 10 trials: the mean count, and the shares of empty
        and of full blocks, within 5 standard errors of Binomial(10, q)."""
        blocks, size = 100_000, 10
        counts = simulate_module._class_counts(np.random.default_rng(8), q, blocks, size, _Walks())
        assert counts.shape == (size + 1,) and counts.min() >= 0 and counts.sum() == blocks
        assert abs(np.arange(size + 1) @ counts / blocks - size * q) <= 5 * math.sqrt(size * q * (1 - q) / blocks)
        for k, share in ((0, (1 - q) ** size), (size, q**size)):
            assert abs(counts[k] / blocks - share) <= 5 * math.sqrt(share * (1 - share) / blocks) + 1e-12, k

    @pytest.mark.parametrize("q", [1e-4, 0.1, 0.3, 0.7, 0.9999])
    def test_walk_is_numpys_geometric_inversion_below_one_third(self, q):
        """Where the rarer outcome's rate is below 1/3, the walk's positions are
        those of cumulative rng.geometric gaps on the same stream, bit for bit."""
        trials, rate = 100_000, min(q, 1 - q)
        rng, walk, end = np.random.default_rng(12), [], 0
        while end < trials:
            gaps = rng.geometric(rate, int(trials * rate + 4.0 * (trials * rate) ** 0.5) + 1)
            walk.append(end + np.cumsum(np.minimum(gaps, trials + 1)))
            end = walk[-1][-1]
        positions = np.concatenate(walk)
        expected = positions[positions <= trials]
        assert simulate_module._rarer(np.random.default_rng(12), q, trials, _Walks()).tolist() == expected.tolist()

    @pytest.mark.parametrize("q, blocks, expected", [(0.0, 5, (0, 0)), (1.0, 5, (5, 0)), (0.3, 0, (0, 0)), (0.9, 0, (0, 0))])
    def test_first_success_of_certain_or_empty_runs_draws_nothing(self, q, blocks, expected):
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        assert simulate_module._first_successes(rng, q, blocks, 3, _Walks()) == expected
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("size", [1, 3])
    @pytest.mark.parametrize("q", [1e-4, 0.01, 0.3, 0.34, 0.45, 0.5, 0.55, 0.66, 0.7, 0.99, 0.9999])
    def test_first_successes_follow_the_truncated_geometric_law(self, q, size):
        """100,000 blocks: the share with a success within 5 standard errors of
        1 - (1 - q)**size, and the mean index of their first success within 5
        standard errors of the geometric law's mean truncated at size."""
        blocks = 100_000
        hit, first = simulate_module._first_successes(np.random.default_rng(9), q, blocks, size, _Walks())
        share = 1 - (1 - q) ** size
        assert abs(hit / blocks - share) <= 5 * math.sqrt(share * (1 - share) / blocks) + 1e-12
        index = np.arange(size)
        law = q * (1 - q) ** index / share
        mean = index @ law
        assert abs(first / hit - mean) <= 5 * math.sqrt((index**2 @ law - mean**2) / hit) + 1e-12

    def test_a_gap_past_int64_after_a_success_is_capped(self):
        """At tiny q a large exponential draw divides to a gap past int64, inf at
        the extreme. After the success at 1 of 20 trials it is capped at 21, so
        the walk ends on whole numbers with no third draw."""

        class Gaps:
            def __init__(self):
                self.draws, self.given = [1e-300, 1e300], []

            def standard_exponential(self, *, out):
                out[...] = self.draws.pop(0)  # a third draw is an IndexError
                self.given.append(out)

        gaps, walks = Gaps(), _Walks()
        assert simulate_module._class_counts(gaps, 1e-300, 4, 5, walks).tolist() == [3, 1, 0, 0, 0, 0]
        # The walk divides, caps and sums each draw in place, and the second batch
        # goes after the first in the grown buffer, where the position 1 is now its
        # run, ceil(1 / 5).
        assert [draw.tolist() for draw in gaps.given] == [[1.0], [22.0]]
        assert walks.draws.tolist() == [1.0, 22.0]
        assert simulate_module._first_successes(Gaps(), 1e-300, 4, 5, _Walks()) == (1, 0)

    def test_extreme_prevalences_end_with_exact_counts(self):
        """At p = 5e-324 rng.geometric gives 2**63 - 1, whose running sum
        overflows int64 unless each gap is capped; the runs go to a child
        process so that a sampler that never ends fails here by the timeout."""
        script = (
            "import json\n"
            "from pooltest import Procedure, ProcedureConfig, SimConfig, bateman_fit_model, simulate\n"
            "for p in (5e-324, 1e-300, 1 - 1e-16):\n"
            "    for shape in (ProcedureConfig(Procedure.INDIVIDUAL), ProcedureConfig(Procedure.MODIFIED, n=10, r=3)):\n"
            "        config = SimConfig(subjects=1_000_003, seed=6, procedure=shape, model=bateman_fit_model(), p=p)\n"
            "        result = simulate(config, threads=2, per_subject=True)\n"
            "        print(json.dumps([p, result.true_positives, result.false_positives,"
            " result.true_negatives, result.false_negatives]))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(simulate_module.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=False, timeout=120
        )
        assert (done.returncode, done.stderr) == (0, "")
        runs = [json.loads(line) for line in done.stdout.splitlines()]
        assert len(runs) == 6
        for p, tp, fp, tn, fn in runs:
            if p < 0.5:
                assert (tp, fn, tn + fp) == (0, 0, 1_000_003), p
            else:
                assert (fp, tn, tp + fn) == (0, 0, 1_000_003), p

    @pytest.mark.parametrize("p", [0.01, 0.5, 0.9])
    def test_perfect_specificity_gives_no_false_positive(self, p):
        model = bateman_fit_model(TestKit(0.9, 1.0))
        for kind in Procedure:
            result = simulate(_config(kind=kind, r=1 if kind is Procedure.DORFMAN else 3, subjects=200_003, p=p, model=model), per_subject=True)
            assert result.false_positives == 0, kind
            assert result.true_positives > 0, kind

    @pytest.mark.parametrize("p", [0.01, 0.5, 0.9])
    def test_perfect_individual_sensitivity_reads_every_positive_it_is_given(self, p):
        """With Se_I = 1, TP is every positive of a declared pool. Individual
        testing declares every pool; a flat curve at Se = 1 declares every pool
        that holds a positive. Neither may then miss a positive."""
        model = DilutionModel(kit=TestKit(se_i=1.0, sp=0.75), alpha=0.0, beta=0.0)
        assert (model.sensitivity(10, np.arange(1, 11)) == 1.0).all()
        for kind in Procedure:
            result = simulate(_config(kind=kind, r=1 if kind is Procedure.DORFMAN else 3, subjects=200_003, p=p, model=model), per_subject=True)
            assert result.false_negatives == 0, kind
            assert result.true_positives > 0 and result.false_positives > 0, kind


    @pytest.mark.parametrize(
        "model",
        [bateman_fit_model(TestKit(0.99, 0.3)), DilutionModel(kit=TestKit(1.0, 1.0), alpha=0.0, beta=0.0)],
        ids=["low-specificity", "certain-or-never"],
    )
    def test_pool_reads_on_either_gap_path_match_closed_forms(self, model):
        """With Sp = 0.3 a pool without positives reads positive at 0.7, drawn
        over the misses; with Se_I = Sp = 1 on a flat curve every read is
        certain or never, and no gap is drawn. Within 4 standard errors as in
        TestAgreementWithClosedForms, at 1 thread's counts on 3."""
        for config in default_verification_configs(model, subjects=300_000):
            if config.procedure.kind is Procedure.INDIVIDUAL or config.p == 0.001:
                continue
            with mock.patch.object(simulate_module, "_CHUNK_SUBJECT_TARGET", 1 << 15):
                result = simulate(config, threads=1, per_subject=True)
                assert simulate(config, threads=3, per_subject=True) == result, config
            analytic = evaluate(config.model, config.p, config.procedure)
            n, r = config.procedure.n, config.procedure.r
            for observed, expected, span in (
                (result.fn_per_subject, analytic.e_fn, n),
                (result.fp_per_subject, analytic.e_fp, n),
                (result.tests_per_subject, analytic.e_tests, n + r),
            ):
                bound = 4 * math.sqrt(span * expected / config.subjects)
                assert abs(observed - expected) <= bound, (config, result)


class TestWalkBuffer:
    """Each thread's walks in one simulate() call are drawn into one reused
    buffer; nothing of a walk is seen after the next, or after the call."""

    def test_results_do_not_depend_on_the_runs_before(self):
        """verify's nine configs at 1M subjects, at 1 and 2 threads, forward and
        then in reverse: every run equals that config run alone."""
        configs = default_verification_configs(bateman_fit_model(), subjects=1_000_000)
        alone = {config: simulate(config, per_subject=True) for config in configs}
        for order in (configs, configs[::-1]):
            for threads in (1, 2):
                for config in order:
                    assert simulate(config, threads=threads, per_subject=True) == alone[config], (config, threads)

    def test_a_short_walk_after_a_long_one_holds_only_its_own_positions(self):
        walks = _Walks()
        # The long walk's 50,000-odd positions fill the buffer far past the short walk's draws.
        long = simulate_module._rarer(np.random.default_rng(3), 0.5, 100_000, walks)
        assert long.size > 40_000 and walks.draws.size >= long.size
        short = simulate_module._rarer(np.random.default_rng(5), 0.01, 1_000, walks)
        fresh = simulate_module._rarer(np.random.default_rng(5), 0.01, 1_000, _Walks())
        assert short.tolist() == fresh.tolist()
        assert 0 < short.size < 50

    @pytest.mark.parametrize("q", [0.0, 1e-4, 0.3, 0.7, 0.9999, 1.0])
    def test_first_successes_of_single_trials_are_the_count(self, q):
        """Runs of one trial: each success is its run's first, at index 0, on
        the same draws as counting the successes."""
        rng, rng2, blocks = np.random.default_rng(21), np.random.default_rng(21), 50_000
        count = simulate_module._count(rng2, q, blocks, _Walks())
        assert simulate_module._first_successes(rng, q, blocks, 1, _Walks()) == (count, 0)
        assert rng.bit_generator.state == rng2.bit_generator.state

    @pytest.mark.parametrize("threads", [1, 2])
    def test_no_buffer_outlives_the_call(self, threads):
        """Individual testing at p = 0.5 walks about 2**19 positions per chunk
        of 2**20 subjects, 4 MB of float64 per thread."""
        config = _config(kind=Procedure.INDIVIDUAL, subjects=2 << 20, p=0.5)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            simulate(config, threads=threads, per_subject=True)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before > 4e6
        assert after - before < 1 << 20


class TestVerification:
    def test_rows_cover_kinds_and_metrics(self):
        configs = default_verification_configs(bateman_fit_model(), subjects=50_000)
        rows = verify_against_analytic(configs, threads=4)
        seen = {(row.kind, row.metric) for row in rows}
        assert len(seen) == 9  # three procedures x three metrics
        assert all(row.mode == "relative-mse" for row in rows)
        assert all(row.configs == 3 for row in rows)

    def test_zero_analytic_switches_to_absolute(self):
        model = DilutionModel(kit=TestKit(se_i=1.0, sp=1.0), alpha=0.0, beta=0.0)
        config = SimConfig(
            subjects=10_000,
            seed=3,
            procedure=ProcedureConfig(Procedure.MODIFIED, n=5, r=2),
            model=model,
            p=0.1,
        )
        rows = verify_against_analytic([config])
        modes = {row.metric: row.mode for row in rows}
        assert modes["e_fn"] == "absolute-mean"
        assert modes["e_fp"] == "absolute-mean"
        assert modes["e_tests"] == "relative-mse"

    def test_rows_put_relative_before_absolute(self):
        """A perfect kit makes every e_fn and e_fp zero, so both modes appear."""
        model = DilutionModel(kit=TestKit(se_i=1.0, sp=1.0), alpha=0.0, beta=0.0)
        rows = verify_against_analytic(default_verification_configs(model, subjects=2_000))
        keys = [(row.mode != "relative-mse", row.kind.value, row.metric) for row in rows]
        assert keys == sorted(keys)
        assert {row.mode for row in rows} == {"relative-mse", "absolute-mean"}
        assert len(rows) == 9

    def test_base_seed_leaves_room_for_derived_seeds(self):
        model = bateman_fit_model()
        top = 2**64 - 23
        assert default_verification_configs(model, subjects=10, seed=top)[-1].seed == 2**64 - 1
        for bad in (top + 1, 2**64 - 1, -1):
            with pytest.raises(ValueError, match=f"got {bad}$"):
                default_verification_configs(model, subjects=10, seed=bad)

    def test_requires_configs(self):
        with pytest.raises(ValueError, match="at least one"):
            verify_against_analytic([])

    def test_runs_the_per_subject_engine(self, monkeypatch):
        """verify calls the module's simulate by name, config first, per subject."""
        config = _config(subjects=20_003, seed=9, p=0.05)
        reference = simulate(config, per_subject=True)
        assert reference != simulate(config)
        seen = []
        original = simulate_module.simulate

        def recording(*args, **kwargs):
            result = original(*args, **kwargs)
            seen.append((args[0], result))
            return result

        monkeypatch.setattr(simulate_module, "simulate", recording)
        rows = verify_against_analytic([config], threads=3)
        assert seen == [(config, reference)]
        analytic = evaluate(config.model, config.p, config.procedure)
        value = {row.metric: row.value for row in rows}
        rel = (reference.tests_per_subject - analytic.e_tests) / analytic.e_tests
        assert value["e_tests"] == rel * rel  # verify's own product: ** 2 can differ by an ulp


# Property tests run the per-subject engine on chunks of 4,096 subjects, so a
# few thousand subjects already span several chunks and the thread pool has
# work to split. The count engine ignores the target: its full pools are one
# chunk, and its short pool another.
_SMALL_CHUNKS = 4096
_PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
_KITS = st.sampled_from([TestKit(0.99, 0.99), TestKit(0.7, 0.9), TestKit(1.0, 1.0)])
_PREVALENCES = st.floats(math.log(1e-6), math.log(0.5)).map(math.exp)


@st.composite
def _pooled_configs(draw):
    n = draw(st.integers(2, 200))
    # Up to 60 pools, with a short final pool whenever n does not divide subjects.
    subjects = draw(st.integers(1, 60 * n))
    return SimConfig(
        subjects=subjects,
        seed=draw(st.integers(0, 2**64 - 1)),
        procedure=ProcedureConfig(Procedure.MODIFIED, n=n, r=draw(st.integers(1, 5))),
        model=bateman_fit_model(draw(_KITS)),
        p=draw(_PREVALENCES),
    )


def _both_engines_at_one_and_three_threads(config):
    """Each engine's result, after checking that 3 threads give 1 thread's counts."""
    results = []
    with mock.patch.object(simulate_module, "_CHUNK_SUBJECT_TARGET", _SMALL_CHUNKS):
        for per_subject in (False, True):
            result = simulate(config, threads=1, per_subject=per_subject)
            assert simulate(config, threads=3, per_subject=per_subject) == result, per_subject
            results.append(result)
    return results


class TestEngineProperties:
    @_PROPERTY_SETTINGS
    @given(_pooled_configs())
    def test_pooled_counts_are_consistent(self, config):
        for result in _both_engines_at_one_and_three_threads(config):
            _assert_pooled_counts_consistent(config, result)

    @_PROPERTY_SETTINGS
    @given(st.integers(1, 30_000), st.integers(0, 2**64 - 1), _KITS, _PREVALENCES)
    def test_individual_counts_are_consistent(self, subjects, seed, kit, p):
        config = SimConfig(
            subjects=subjects,
            seed=seed,
            procedure=ProcedureConfig(Procedure.INDIVIDUAL),
            model=bateman_fit_model(kit),
            p=p,
        )
        for result in _both_engines_at_one_and_three_threads(config):
            assert result.pool_tests == 0
            assert result.individual_tests == result.tests == subjects
            assert (
                result.true_positives + result.false_positives
                + result.true_negatives + result.false_negatives
            ) == subjects
