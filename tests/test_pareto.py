"""Sweep construction, dominance filtering, summaries, and CSV persistence."""

import re
import tracemalloc

import numpy as np
import pytest

from pooltest import (
    Metrics,
    ParetoPoint,
    Procedure,
    ProcedureConfig,
    SweepSpec,
    eval_individual,
    evaluate,
    bateman_fit_model,
    fp_summary,
    min_tests_under_fn_cap,
    read_sweep_csv,
    sweep,
    write_sweep_csv,
)
from pooltest.kernels import TENSOR_BYTES
from pooltest.pareto import SWEEP_CSV_COLUMNS, _non_dominated_indices

from _oracles import brute_force_front


def _point(p, e_tests, e_fn, kind=Procedure.MODIFIED, n=5, r=2, e_fp=0.001,
           dominated=False, dominated_joint=False, rel_fn=None):
    if kind is Procedure.INDIVIDUAL:
        config = ProcedureConfig(kind)
    elif kind is Procedure.DORFMAN:
        config = ProcedureConfig(kind, n=n)
    else:
        config = ProcedureConfig(kind, n=n, r=r)
    return ParetoPoint(
        p=p,
        config=config,
        metrics=Metrics(e_tests=e_tests, e_fn=e_fn, e_fp=e_fp),
        relative_tests=e_tests,
        relative_fn_increase=rel_fn if rel_fn is not None else e_fn,
        dominated=dominated,
        dominated_joint=dominated_joint,
    )


@pytest.fixture(scope="module")
def small_sweep():
    spec = SweepSpec(p_values=(0.01,), n_range=(2, 12), r_range=(2, 4))
    return sweep(spec)


class TestSweepSpec:
    def test_defaults(self):
        spec = SweepSpec()
        assert spec.n_range == (2, 50)
        assert spec.r_range == (2, 5)
        assert len(spec.p_values) == 9

    def test_validation(self):
        with pytest.raises(ValueError, match="prevalence"):
            SweepSpec(p_values=(0.0,))
        # Each point of a repeated prevalence used to be swept twice.
        with pytest.raises(ValueError, match=r"p_values repeats prevalence 0\.02$"):
            SweepSpec(p_values=(0.01, 0.02, 0.03, 0.020))
        with pytest.raises(ValueError, match="n_range"):
            SweepSpec(n_range=(1, 50))
        with pytest.raises(ValueError, match="r_range"):
            SweepSpec(r_range=(3, 2))

    @pytest.mark.parametrize("ranges, name", [
        (dict(n_range=(2.7, 4.9)), "n_range"),
        (dict(r_range=(2.5, 3.2)), "r_range"),
        (dict(n_range=(2, 10_001)), "n_range"),
        (dict(r_range=(0, 3)), "r_range"),
        (dict(n_range=(2, float("inf"))), "n_range"),
        (dict(r_range=(1, float("nan"))), "r_range"),
    ])
    def test_ranges_are_validated_not_truncated(self, ranges, name):
        """A fractional bound used to be cut to (2, 4) / (2, 3) silently."""
        with pytest.raises(ValueError, match=name):
            SweepSpec(**ranges)

    def test_integral_float_bounds_become_ints(self):
        spec = SweepSpec(n_range=(2.0, 4.0), r_range=(1.0, 3.0))
        assert spec.n_range == (2, 4) and spec.r_range == (1, 3)
        assert all(type(v) is int for v in spec.n_range + spec.r_range)


class TestSweep:
    def test_point_count_and_order(self, small_sweep):
        # 1 individual + 11 dorfman + 11*3 modified
        assert len(small_sweep) == 1 + 11 + 33
        keys = [
            (pt.p, {"individual": 0, "dorfman": 1, "modified": 2}[pt.kind.value],
             pt.config.n, pt.config.r)
            for pt in small_sweep
        ]
        assert keys == sorted(keys)

    def test_individual_baseline_point(self, small_sweep):
        baseline = [pt for pt in small_sweep if pt.kind is Procedure.INDIVIDUAL]
        assert len(baseline) == 1
        assert baseline[0].relative_tests == 1.0
        assert baseline[0].relative_fn_increase == 0.0
        assert not baseline[0].dominated

    def test_relative_columns_consistent(self, small_sweep):
        base = eval_individual(bateman_fit_model().kit, 0.01)
        for pt in small_sweep:
            np.testing.assert_allclose(pt.relative_tests, pt.metrics.e_tests / base.e_tests, rtol=1e-15)
            np.testing.assert_allclose(
                pt.relative_fn_increase, pt.metrics.e_fn / base.e_fn - 1.0, rtol=1e-12
            )

    def test_deterministic(self, small_sweep):
        again = sweep(SweepSpec(p_values=(0.01,), n_range=(2, 12), r_range=(2, 4)))
        assert again == small_sweep

    def test_family_flags_match_brute_force(self, small_sweep):
        for kind in Procedure:
            family = [pt for pt in small_sweep if pt.kind is kind]
            objectives = [(pt.metrics.e_tests, pt.metrics.e_fn) for pt in family]
            expected = brute_force_front(objectives)
            got = {i for i, pt in enumerate(family) if not pt.dominated}
            assert got == expected

    def test_joint_flags_match_brute_force(self, small_sweep):
        objectives = [(pt.metrics.e_tests, pt.metrics.e_fn) for pt in small_sweep]
        expected = brute_force_front(objectives)
        got = {i for i, pt in enumerate(small_sweep) if not pt.dominated_joint}
        assert got == expected

    def test_default_grid_matches_point_by_point_evaluation(self):
        """The sweep serves every r of a pool size from one kernel call; each
        point must equal its own evaluation, and the dominance flags must be
        the brute-force fronts of those evaluations."""
        model = bateman_fit_model()
        points = sweep(SweepSpec())
        assert len(points) == 2214
        for p in SweepSpec().p_values:
            at_p = [pt for pt in points if pt.p == p]
            single = [evaluate(model, p, pt.config) for pt in at_p]
            for pt, metrics in zip(at_p, single):
                for name in (
                    "e_tests", "e_fn", "e_fp",
                    "e_tests_individual_stage", "e_fn_pool_stage", "e_fn_individual_stage",
                ):
                    np.testing.assert_allclose(
                        getattr(pt.metrics, name), getattr(metrics, name),
                        rtol=1e-12, atol=1e-15, err_msg=f"{name} at {p}, {pt.config}",
                    )
            objectives = [(m.e_tests, m.e_fn) for m in single]
            joint = {i for i, pt in enumerate(at_p) if not pt.dominated_joint}
            assert joint == brute_force_front(objectives)
            for kind in Procedure:
                idx = [i for i, pt in enumerate(at_p) if pt.kind is kind]
                front = brute_force_front([objectives[i] for i in idx])
                assert {idx[j] for j in front} == {i for i in idx if not at_p[i].dominated}

    def test_memory_stays_near_the_tensor_cap_at_the_largest_pools(self):
        """Padded to n = 10,000 at r = 100, one size's miss tensor and its
        complement take 16 MB, so the sweep must take its sizes in chunks and
        hold one chunk's tensor at a time; numpy reports its buffers to
        tracemalloc."""
        spec = SweepSpec((0.01,), (9_990, 10_000), (1, 100))
        tracemalloc.start()
        try:
            points = sweep(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(points) == 1 + 11 + 11 * 100
        one_size = 2 * 101 * 10_001 * 8
        assert one_size < peak < 1.5 * TENSOR_BYTES

    def test_joint_front_prefers_retesting_on_misses(self, small_sweep):
        """Any single-read pooled point is matched or beaten on false
        negatives by some multi-read point of the same pool size."""
        modified = [pt for pt in small_sweep if pt.kind is Procedure.MODIFIED]
        for dorf in (pt for pt in small_sweep if pt.kind is Procedure.DORFMAN):
            same_n = [pt for pt in modified if pt.config.n == dorf.config.n]
            assert min(pt.metrics.e_fn for pt in same_n) <= dorf.metrics.e_fn


class TestParetoFilter:
    def test_matches_brute_force_on_random_clouds(self):
        rng = np.random.default_rng(777)
        for _ in range(30):
            count = int(rng.integers(1, 60))
            # integer grid forces plenty of exact ties
            values = rng.integers(0, 8, size=(count, 2)).astype(float)
            objectives = [(1.0 + t, f) for t, f in values]
            assert _non_dominated_indices(objectives) == brute_force_front(objectives)

    def test_ties_on_both_objectives_survive_together(self):
        assert _non_dominated_indices([(1.5, 0.2), (1.5, 0.2), (1.5, 0.3)]) == {0, 1}

    def test_front_trades_tests_for_misses(self, small_sweep):
        """Sorted by cost, distinct front points must strictly improve on
        false negatives."""
        objectives = [
            (pt.metrics.e_tests, pt.metrics.e_fn)
            for pt in small_sweep
            if pt.kind is Procedure.MODIFIED
        ]
        front = sorted(objectives[i] for i in _non_dominated_indices(objectives))
        assert len(front) > 1
        for (cheaper_tests, cheaper_fn), (tests, fn) in zip(front, front[1:]):
            if tests > cheaper_tests:
                assert fn < cheaper_fn

    def test_empty_input(self):
        assert _non_dominated_indices([]) == set()


class TestMinTestsUnderCap:
    def test_needs_strict_saving(self):
        expensive = _point(0.01, 1.2, 0.0, rel_fn=0.0)
        assert min_tests_under_fn_cap([expensive], cap=1.0) is None

    def test_cap_excludes_leaky_points(self):
        cheap_leaky = _point(0.01, 0.3, 0.0, rel_fn=0.5)
        costly_tight = _point(0.01, 0.6, 0.0, rel_fn=0.005)
        points = [cheap_leaky, costly_tight]
        assert min_tests_under_fn_cap(points, cap=1.0) is cheap_leaky
        assert min_tests_under_fn_cap(points, cap=0.01) is costly_tight
        assert min_tests_under_fn_cap(points, cap=0.001) is None

    def test_monotone_in_cap(self, small_sweep):
        modified = [pt for pt in small_sweep if pt.kind is Procedure.MODIFIED]
        previous = None
        for cap in (0.001, 0.01, 0.1, 1.0, 10.0):
            best = min_tests_under_fn_cap(modified, cap)
            if best is None:
                assert previous is None
                continue
            if previous is not None:
                assert best.relative_tests <= previous + 1e-15
            previous = best.relative_tests

    def test_tie_breaks_toward_fewer_reads_then_smaller_pools(self):
        a = _point(0.01, 0.5, 0.0, rel_fn=0.0, n=8, r=3)
        b = _point(0.01, 0.5, 0.0, rel_fn=0.0, n=12, r=2)
        c = _point(0.01, 0.5, 0.0, rel_fn=0.0, n=9, r=2)
        best = min_tests_under_fn_cap([a, b, c], cap=1.0)
        assert best is c

    def test_cap_validation(self):
        with pytest.raises(ValueError, match="cap"):
            min_tests_under_fn_cap([], cap=-0.5)


class TestFpSummary:
    def test_individual_reports_its_single_point(self):
        kit = bateman_fit_model().kit
        base = eval_individual(kit, 0.001)
        point = ParetoPoint(
            p=0.001,
            config=ProcedureConfig(Procedure.INDIVIDUAL),
            metrics=base,
            relative_tests=1.0,
            relative_fn_increase=0.0,
            dominated=False,
            dominated_joint=False,
        )
        summary = fp_summary([point])
        np.testing.assert_allclose(summary[Procedure.INDIVIDUAL], 0.00999, rtol=1e-12)

    def test_single_point_family_front(self):
        lone = _point(0.01, 0.4, 0.001, e_fp=0.0042)
        assert fp_summary([lone])[Procedure.MODIFIED] == 0.0042

    def test_takes_cheapest_front_point(self):
        cheap = _point(0.01, 0.3, 0.010, e_fp=0.002)
        costly = _point(0.01, 0.6, 0.001, e_fp=0.009, n=7)
        summary = fp_summary([cheap, costly])
        assert summary[Procedure.MODIFIED] == 0.002

    def test_ignores_dominated_points(self):
        worse = _point(0.01, 0.2, 0.5, e_fp=0.001, dominated=True)
        kept = _point(0.01, 0.3, 0.010, e_fp=0.002)
        summary = fp_summary([worse, kept])
        assert summary[Procedure.MODIFIED] == 0.002

    def test_absent_families_are_absent(self, small_sweep):
        dorfman_only = [pt for pt in small_sweep if pt.kind is Procedure.DORFMAN]
        summary = fp_summary(dorfman_only)
        assert set(summary) == {Procedure.DORFMAN}

    def test_empty(self):
        assert fp_summary([]) == {}

    def test_rejects_mixed_prevalences(self):
        with pytest.raises(ValueError, match="mixed prevalences"):
            fp_summary([_point(0.01, 1.0, 0.1), _point(0.02, 1.0, 0.1)])


class TestSweepCsv:
    def test_round_trip_preserves_structure(self, small_sweep, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(small_sweep, path)
        loaded = read_sweep_csv(path)
        assert len(loaded) == len(small_sweep)
        for original, back in zip(small_sweep, loaded):
            assert back.config == original.config
            assert back.p == original.p
            assert back.dominated == original.dominated
            assert back.dominated_joint == original.dominated_joint
            np.testing.assert_allclose(back.metrics.e_tests, original.metrics.e_tests, rtol=1e-5)
            np.testing.assert_allclose(back.relative_fn_increase, original.relative_fn_increase, rtol=1e-5)

    def test_rewrite_is_idempotent(self, small_sweep, tmp_path):
        """Six significant digits round-trip to the same bytes."""
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_sweep_csv(small_sweep, first)
        write_sweep_csv(read_sweep_csv(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_rejects_unknown_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="unexpected header"):
            read_sweep_csv(path)

    def test_rejects_short_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = "p,kind,n,r,e_tests,e_fn,e_fp,relative_tests,relative_fn_increase,dominated,dominated_joint"
        path.write_text(header + "\n0.01,dorfman,5\n")
        with pytest.raises(ValueError, match="expected 11 columns"):
            read_sweep_csv(path)

    @pytest.mark.parametrize("column, cell", [(9, "7"), (9, "-1"), (10, "2"), (10, "True"), (9, " 1"), (10, "")])
    def test_rejects_flags_other_than_0_or_1(self, small_sweep, tmp_path, column, cell):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(small_sweep, path)
        lines = path.read_text().splitlines()
        row = lines[2].split(",")
        row[column] = cell
        lines[2] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        name = SWEEP_CSV_COLUMNS[column]
        with pytest.raises(ValueError, match=re.escape(f"sweep.csv:3: {name} must be 0 or 1, got {cell!r}")):
            read_sweep_csv(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            read_sweep_csv(path)

    def test_rejects_a_repeated_row(self, small_sweep, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(small_sweep, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([*lines, lines[3]]) + "\n")
        config = small_sweep[2].config
        repeated = f"{path}: repeated row for p=0.01, kind={config.kind.value}, n={config.n}, r={config.r}"
        with pytest.raises(ValueError, match=re.escape(repeated)):
            read_sweep_csv(path)

    def test_rejects_a_prevalence_without_its_individual_row(self, small_sweep, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(small_sweep, path)
        lines = path.read_text().splitlines()
        assert lines[1].split(",")[1] == "individual"
        path.write_text("\n".join([lines[0], *lines[2:]]) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: no individual row for prevalence 0.01")):
            read_sweep_csv(path)
