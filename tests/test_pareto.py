"""Sweep construction, dominance filtering, summaries, and CSV persistence."""

import importlib
import math
import re
import tracemalloc
import warnings
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pooltest import (
    Metrics,
    Procedure,
    ProcedureConfig,
    SweepSpec,
    SweepTable,
    TestKit,
    evaluate,
    bateman_fit_model,
    fp_summary,
    min_tests_under_fn_cap,
    read_sweep_csv,
    sweep,
    write_sweep_csv,
)
from pooltest.csvio import fmt, fmt_cells, join_cells
from pooltest.evaluate import check_rows, eval_individual, metric_rules
from pooltest.kernels import check_prevalence
from pooltest.pareto import SWEEP_CSV_COLUMNS, ParetoPoint, _dominated

from _oracles import brute_force_front, write_sweep_csv_reference

pareto_module = importlib.import_module("pooltest.pareto")


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


def _table(*points):
    """A SweepTable of these rows."""
    rows = [
        (pt.p, pt.kind.value, pt.config.n, pt.config.r, pt.metrics.e_tests, pt.metrics.e_fn, pt.metrics.e_fp,
         pt.relative_tests, pt.relative_fn_increase, pt.dominated, pt.dominated_joint)
        for pt in points
    ]
    return SweepTable(*(zip(*rows) if rows else [()] * len(SWEEP_CSV_COLUMNS)))


def _front(objectives):
    """Indices _dominated keeps when every point is in one group."""
    first, second = np.array(objectives, dtype=float).reshape(-1, 2).T
    return set(np.flatnonzero(~_dominated(np.zeros(len(first), dtype=int), first, second)).tolist())


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
        rank = {"individual": 0, "dorfman": 1, "modified": 2}
        keys = list(zip(
            small_sweep.p.tolist(), [rank[kind] for kind in small_sweep.kind.tolist()],
            small_sweep.n.tolist(), small_sweep.r.tolist(),
        ))
        assert keys == sorted(keys)

    def test_individual_baseline_point(self, small_sweep):
        baseline = small_sweep[small_sweep.kind == Procedure.INDIVIDUAL.value]
        assert len(baseline) == 1
        assert baseline.relative_tests[0] == 1.0
        assert baseline.relative_fn_increase[0] == 0.0
        assert not baseline.dominated[0]

    def test_relative_columns_consistent(self, small_sweep):
        base = eval_individual(bateman_fit_model().kit, 0.01)
        np.testing.assert_allclose(small_sweep.relative_tests, small_sweep.e_tests / base.e_tests, rtol=1e-15)
        np.testing.assert_allclose(
            small_sweep.relative_fn_increase, small_sweep.e_fn / base.e_fn - 1.0, rtol=1e-12
        )

    def test_rows_are_points(self, small_sweep):
        """Iteration and integer indexing give each row as a ParetoPoint."""
        rows = list(small_sweep)
        assert len(rows) == len(small_sweep) and rows[-1] == small_sweep[-1]
        assert np.array_equal(small_sweep.kind == Procedure.MODIFIED, [pt.kind is Procedure.MODIFIED for pt in rows])
        for at, pt in enumerate(rows):
            assert isinstance(pt, ParetoPoint)
            assert (pt.p, pt.kind.value, pt.config.n, pt.config.r) == (
                small_sweep.p[at], small_sweep.kind[at], small_sweep.n[at], small_sweep.r[at]
            )
            assert (pt.metrics.e_tests, pt.metrics.e_fn, pt.metrics.e_fp) == (
                small_sweep.e_tests[at], small_sweep.e_fn[at], small_sweep.e_fp[at]
            )
            assert (pt.dominated, pt.dominated_joint) == (small_sweep.dominated[at], small_sweep.dominated_joint[at])

    def test_deterministic(self, small_sweep):
        again = sweep(SweepSpec(p_values=(0.01,), n_range=(2, 12), r_range=(2, 4)))
        assert again == small_sweep

    def test_reads_the_kernel_result_it_is_given(self, small_sweep):
        """A caller that built spec.outcomes() for its blind flags passes it
        on; outcomes of another grid or model are refused."""
        spec = SweepSpec(p_values=(0.01,), n_range=(2, 12), r_range=(2, 4))
        outcomes = spec.outcomes()
        assert outcomes.blind.shape == (1, 11) and not outcomes.blind.any()
        assert sweep(spec, outcomes) == small_sweep
        for other in (
            SweepSpec(p_values=(0.02,), n_range=(2, 12), r_range=(2, 4)),
            SweepSpec(p_values=(0.01,), n_range=(2, 13), r_range=(2, 4)),
            SweepSpec(p_values=(0.01,), n_range=(2, 12), r_range=(2, 5)),
            SweepSpec(p_values=(0.01,), n_range=(2, 12), r_range=(2, 4), model=bateman_fit_model(TestKit(se_i=0.99, sp=0.98))),
        ):
            with pytest.raises(ValueError, match="do not cover the sweep's grid"):
                sweep(spec, other.outcomes())

    def test_family_flags_match_brute_force(self, small_sweep):
        for kind in Procedure:
            family = small_sweep[small_sweep.kind == kind.value]
            objectives = list(zip(family.e_tests.tolist(), family.e_fn.tolist()))
            expected = brute_force_front(objectives)
            got = set(np.flatnonzero(~family.dominated).tolist())
            assert got == expected

    def test_joint_flags_match_brute_force(self, small_sweep):
        objectives = list(zip(small_sweep.e_tests.tolist(), small_sweep.e_fn.tolist()))
        expected = brute_force_front(objectives)
        got = set(np.flatnonzero(~small_sweep.dominated_joint).tolist())
        assert got == expected

    def test_default_grid_matches_point_by_point_evaluation(self):
        """The sweep serves every r of a pool size from one kernel call; each
        point must equal its own evaluation, and the dominance flags must be
        the brute-force fronts of those evaluations."""
        model = bateman_fit_model()
        points = sweep(SweepSpec())
        assert len(points) == 2214
        for p in SweepSpec().p_values:
            at_p = points[points.p == p]
            configs = [ProcedureConfig(*row) for row in zip(at_p.kind.tolist(), at_p.n.tolist(), at_p.r.tolist())]
            single = [evaluate(model, p, config) for config in configs]
            for name in ("e_tests", "e_fn", "e_fp"):
                np.testing.assert_allclose(
                    getattr(at_p, name), [getattr(metrics, name) for metrics in single],
                    rtol=1e-12, atol=1e-15, err_msg=f"{name} at {p}",
                )
            objectives = [(m.e_tests, m.e_fn) for m in single]
            joint = set(np.flatnonzero(~at_p.dominated_joint).tolist())
            assert joint == brute_force_front(objectives)
            for kind in Procedure:
                idx = np.flatnonzero(at_p.kind == kind.value).tolist()
                front = brute_force_front([objectives[i] for i in idx])
                assert {idx[j] for j in front} == {i for i in idx if not at_p.dominated[i]}

    def test_memory_stays_near_the_tensor_cap_at_the_largest_pools(self):
        """At n = 10,000 and r = 100 one size's miss tensor and its complement
        take 16 MB. The kernel takes one size at a time and serves every
        prevalence from that tensor, so that is the cap the sweep's peak must
        stay near, at one prevalence or several; numpy reports its buffers to
        tracemalloc."""
        one_size = 2 * 101 * 10_001 * 8
        for prevalences in ((0.01,), (0.001, 0.01, 0.05, 0.2, 0.3)):
            spec = SweepSpec(prevalences, (9_990, 10_000), (1, 100))
            tracemalloc.start()
            try:
                points = sweep(spec)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(points) == len(prevalences) * (1 + 11 + 11 * 100)
            assert one_size < peak < 3 * one_size, (prevalences, peak / one_size)

    def test_edge_grid_flags_match_brute_force(self):
        """CI's edge grid, n 9,990-10,000 and r 1-100 at p = 0.001 and 0.3,
        holds only pool sizes that never detect under the Bateman preset, so
        each pooled e_fn is p exactly; the flags are the brute-force fronts of
        those exact objectives, and in each pooled family only the cheapest
        point, n = 10,000 read once, survives."""
        table = sweep(SweepSpec((0.001, 0.3), (9_990, 10_000), (1, 100)))
        for p in (0.001, 0.3):
            at_p = table[table.p == p]
            pooled = at_p.kind != Procedure.INDIVIDUAL.value
            assert (at_p.e_fn[pooled] == p).all(), p
            objectives = list(zip(at_p.e_tests.tolist(), at_p.e_fn.tolist()))
            assert set(np.flatnonzero(~at_p.dominated_joint).tolist()) == brute_force_front(objectives)
            for kind in (Procedure.DORFMAN, Procedure.MODIFIED):
                idx = np.flatnonzero(at_p.kind == kind.value).tolist()
                survivors = {idx[j] for j in brute_force_front([objectives[i] for i in idx])}
                assert survivors == {i for i in idx if not at_p.dominated[i]}, (p, kind)
                assert [(at_p.n[i], at_p.r[i]) for i in survivors] == [(10_000, 1)], (p, kind)

    def test_joint_front_prefers_retesting_on_misses(self, small_sweep):
        """Any single-read pooled point is matched or beaten on false
        negatives by some multi-read point of the same pool size."""
        modified = small_sweep[small_sweep.kind == Procedure.MODIFIED.value]
        dorfman = small_sweep[small_sweep.kind == Procedure.DORFMAN.value]
        for n, e_fn in zip(dorfman.n.tolist(), dorfman.e_fn.tolist()):
            assert modified.e_fn[modified.n == n].min() <= e_fn


# Objectives at the edges of the float order, and anywhere between.
_OBJECTIVES = st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.5, 1.0]) | st.floats(
    -10.0, 10.0, allow_subnormal=True
)


@st.composite
def _grouped_clouds(draw):
    """Groups of (first, second) objectives, each of any size from 0 up, whose
    first objectives often repeat; and an order to interleave the groups in."""
    firsts = draw(st.lists(_OBJECTIVES, min_size=1, max_size=3))
    point = st.tuples(st.sampled_from(firsts) | _OBJECTIVES, _OBJECTIVES)
    groups = draw(st.lists(st.lists(point, max_size=10), max_size=5))
    return groups, draw(st.permutations(range(sum(map(len, groups)))))


class TestParetoFilter:
    def test_matches_brute_force_on_random_clouds(self):
        rng = np.random.default_rng(777)
        for _ in range(30):
            count = int(rng.integers(1, 60))
            # integer grid forces plenty of exact ties
            values = rng.integers(0, 8, size=(count, 2)).astype(float)
            objectives = [(1.0 + t, f) for t, f in values]
            assert _front(objectives) == brute_force_front(objectives)

    def test_ties_on_both_objectives_survive_together(self):
        assert _front([(1.5, 0.2), (1.5, 0.2), (1.5, 0.3)]) == {0, 1}

    def test_front_trades_tests_for_misses(self, small_sweep):
        """Sorted by cost, distinct front points must strictly improve on
        false negatives."""
        modified = small_sweep[small_sweep.kind == Procedure.MODIFIED.value]
        objectives = list(zip(modified.e_tests.tolist(), modified.e_fn.tolist()))
        front = sorted(objectives[i] for i in _front(objectives))
        assert len(front) > 1
        for (cheaper_tests, cheaper_fn), (tests, fn) in zip(front, front[1:]):
            if tests > cheaper_tests:
                assert fn < cheaper_fn

    def test_empty_input(self):
        assert _front([]) == set()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_grouped_clouds())
    @example(([[], [(0.0, 1.0)], [(-0.0, 0.0), (0.0, -0.0), (0.0, 5e-324)], []], []))
    @example(([[(5e-324, 0.0), (0.0, 5e-324), (-0.0, 5e-324), (0.0, 0.0)]], []))
    def test_groups_match_brute_force_at_the_edges(self, clouds):
        """Each group's survivors are its brute-force front, over groups of
        every size from 0 up, interleaved in any order, on objectives with
        signed zeros, subnormals and runs of equal first objectives."""
        groups, shuffle = clouds
        group = np.repeat(np.arange(len(groups)), [len(points) for points in groups])
        first, second = np.array([pt for points in groups for pt in points], dtype=float).reshape(-1, 2).T
        order = np.array(shuffle or range(len(group)), dtype=int)
        dominated = np.empty(len(group), dtype=bool)
        dominated[order] = _dominated(group[order], first[order], second[order])
        for at, points in enumerate(groups):
            kept = ~dominated[group == at]
            assert set(np.flatnonzero(kept).tolist()) == brute_force_front(points), points


class TestMinTestsUnderCap:
    def test_needs_strict_saving(self):
        expensive = _point(0.01, 1.2, 0.0, rel_fn=0.0)
        assert min_tests_under_fn_cap(_table(expensive), cap=1.0) is None

    def test_cap_excludes_leaky_points(self):
        cheap_leaky = _point(0.01, 0.3, 0.0, rel_fn=0.5)
        costly_tight = _point(0.01, 0.6, 0.0, rel_fn=0.005)
        points = _table(cheap_leaky, costly_tight)
        assert points[min_tests_under_fn_cap(points, cap=1.0)] == cheap_leaky
        assert points[min_tests_under_fn_cap(points, cap=0.01)] == costly_tight
        assert min_tests_under_fn_cap(points, cap=0.001) is None

    def test_monotone_in_cap(self, small_sweep):
        modified = small_sweep[small_sweep.kind == Procedure.MODIFIED.value]
        previous = None
        for cap in (0.001, 0.01, 0.1, 1.0, 10.0):
            at = min_tests_under_fn_cap(modified, cap)
            if at is None:
                assert previous is None
                continue
            if previous is not None:
                assert modified.relative_tests[at] <= previous + 1e-15
            previous = modified.relative_tests[at]

    def test_tie_breaks_toward_fewer_reads_then_smaller_pools(self):
        a = _point(0.01, 0.5, 0.0, rel_fn=0.0, n=8, r=3)
        b = _point(0.01, 0.5, 0.0, rel_fn=0.0, n=12, r=2)
        c = _point(0.01, 0.5, 0.0, rel_fn=0.0, n=9, r=2)
        points = _table(a, b, c)
        assert points[min_tests_under_fn_cap(points, cap=1.0)] == c

    def test_cap_validation(self):
        with pytest.raises(ValueError, match="cap"):
            min_tests_under_fn_cap(_table(), cap=-0.5)


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
        summary = fp_summary(_table(point))
        np.testing.assert_allclose(summary[Procedure.INDIVIDUAL], 0.00999, rtol=1e-12)

    def test_single_point_family_front(self):
        lone = _point(0.01, 0.4, 0.001, e_fp=0.0042)
        assert fp_summary(_table(lone))[Procedure.MODIFIED] == 0.0042

    def test_takes_cheapest_front_point(self):
        cheap = _point(0.01, 0.3, 0.010, e_fp=0.002)
        costly = _point(0.01, 0.6, 0.001, e_fp=0.009, n=7)
        summary = fp_summary(_table(cheap, costly))
        assert summary[Procedure.MODIFIED] == 0.002

    def test_ignores_dominated_points(self):
        worse = _point(0.01, 0.2, 0.5, e_fp=0.001, dominated=True)
        kept = _point(0.01, 0.3, 0.010, e_fp=0.002)
        summary = fp_summary(_table(worse, kept))
        assert summary[Procedure.MODIFIED] == 0.002

    def test_absent_families_are_absent(self, small_sweep):
        dorfman_only = small_sweep[small_sweep.kind == Procedure.DORFMAN.value]
        summary = fp_summary(dorfman_only)
        assert set(summary) == {Procedure.DORFMAN}

    def test_empty(self):
        assert fp_summary(_table()) == {}

    def test_rejects_mixed_prevalences(self):
        with pytest.raises(ValueError, match="mixed prevalences"):
            fp_summary(_table(_point(0.01, 1.0, 0.1), _point(0.02, 1.0, 0.1)))


def _cell_texts(values):
    """The text of each cell fmt_cells gives, its pads and comma dropped."""
    cells = fmt_cells(values)
    assert (cells[:, -1] == ord(",")).all()
    return [bytes(cell[:-1]).replace(b"\0", b"").decode() for cell in cells]


def _nudged(value, steps):
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


# Doubles nearest a tie of %.6g's rounding, d.ddddd5 * 10**k, and a few ulps either side.
_NEAR_TIES = st.builds(
    lambda digits, exponent, steps, negative: (-1) ** negative * _nudged(float(f"{digits}5e{exponent}"), steps),
    st.integers(100_000, 999_999), st.integers(-330, 310), st.integers(-3, 3), st.booleans(),
)

_METRIC = st.one_of(st.floats(min_value=0.0, allow_infinity=False), st.just(-0.0))
_SHAPES = st.one_of(
    st.just(("individual", 1, 1)),
    st.tuples(st.just("dorfman"), st.integers(2, 10_000), st.just(1)),
    st.tuples(st.just("modified"), st.integers(2, 10_000), st.integers(1, 100)),
)
# Rows of the domain a SweepTable accepts: p in (0, 1) with every digit,
# n <= 10,000, r <= 100, and relative_fn_increase >= -1, inf included.
_TABLE_ROWS = st.builds(
    lambda p, shape, metrics, rel_fn, flags: (p, *shape, *metrics, rel_fn, *flags),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), _SHAPES, st.tuples(*[_METRIC] * 4),
    st.floats(min_value=-1.0), st.tuples(st.booleans(), st.booleans()),
)


class TestSweepCsv:
    def test_round_trip_preserves_structure(self, small_sweep, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(small_sweep, path)
        loaded = read_sweep_csv(path)
        assert len(loaded) == len(small_sweep)
        for name in ("kind", "n", "r", "p", "dominated", "dominated_joint"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(small_sweep, name), err_msg=name)
        np.testing.assert_allclose(loaded.e_tests, small_sweep.e_tests, rtol=1e-5)
        np.testing.assert_allclose(loaded.relative_fn_increase, small_sweep.relative_fn_increase, rtol=1e-5)
        assert [f.name for f in fields(loaded)] == [f.name for f in fields(small_sweep)] == SWEEP_CSV_COLUMNS

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

    def test_row_format_writes_each_metric_as_fmt(self):
        values = [0.0, -0.0, 5e-324, 1e-5, 9.999995e-5, 0.1, 1 / 3, 123456.5, 1e16, -2.5, math.inf, -math.inf, math.nan, 0.25, 2.5]
        assert _cell_texts(np.array(values)) == list(map(fmt, values))
        rows = [values[at : at + 5] for at in range(0, len(values), 5)]
        lines = join_cells([fmt_cells(np.array(rows).reshape(-1)).reshape(len(rows), -1)])
        assert lines == "".join(",".join(map(fmt, five)) + "\r\n" for five in rows).encode()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(), _NEAR_TIES), min_size=1, max_size=40))
    @example([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308, 1e-16, 1e21, 999999.5, 9.999995e-5])
    def test_every_cell_is_fmt_of_its_value(self, values):
        assert _cell_texts(np.array(values)) == list(map(fmt, values))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_TABLE_ROWS, max_size=12), st.sampled_from([1, 2, 5, 4096]), st.sampled_from([1, 2]))
    def test_a_table_is_written_as_the_reference_writes_it(self, tmp_path_factory, rows, run, step):
        """Zero, one and several rows, in runs of one row up to all of them,
        also of a table whose columns are strided views."""
        table = SweepTable(*(zip(*rows) if rows else [()] * len(SWEEP_CSV_COLUMNS)))[::step]
        folder = tmp_path_factory.mktemp("csv")
        with mock.patch.object(pareto_module, "WRITE_ROWS", run):
            write_sweep_csv(table, folder / "sweep.csv")
        write_sweep_csv_reference(table, folder / "reference.csv")
        assert (folder / "sweep.csv").read_bytes() == (folder / "reference.csv").read_bytes()

    def test_a_sweep_of_several_runs_is_written_as_the_reference_writes_it(self, tmp_path):
        table = sweep(SweepSpec(p_values=(0.001, 1 / 3), n_range=(2, 300), r_range=(1, 10)))
        assert len(table) > 4096
        write_sweep_csv(table, tmp_path / "sweep.csv")
        write_sweep_csv_reference(table, tmp_path / "reference.csv")
        assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_header_alone_is_an_empty_table(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text(",".join(SWEEP_CSV_COLUMNS) + "\n")
        assert len(read_sweep_csv(path)) == 0

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
        kind, n, r = small_sweep.kind[2], small_sweep.n[2], small_sweep.r[2]
        repeated = f"{path}: repeated row for p=0.01, kind={kind}, n={n}, r={r}"
        with pytest.raises(ValueError, match=re.escape(repeated)):
            read_sweep_csv(path)

    def test_names_the_first_repeat_in_the_file_not_in_key_order(self, small_sweep, tmp_path):
        """Two keys repeat; the one that sorts later repeats first in the file."""
        path = tmp_path / "sweep.csv"
        write_sweep_csv(small_sweep, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([*lines, lines[-1], lines[3]]) + "\n")
        kind, n, r = small_sweep.kind[-1], small_sweep.n[-1], small_sweep.r[-1]
        assert (kind, n, r) > (small_sweep.kind[2], small_sweep.n[2], small_sweep.r[2])
        with pytest.raises(ValueError) as raised:
            read_sweep_csv(path)
        assert str(raised.value) == f"{path}: repeated row for p=0.01, kind={kind}, n={n}, r={r}"

    def test_rejects_a_prevalence_without_its_individual_row(self, small_sweep, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(small_sweep, path)
        lines = path.read_text().splitlines()
        assert lines[1].split(",")[1] == "individual"
        path.write_text("\n".join([lines[0], *lines[2:]]) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: no individual row for prevalence 0.01")):
            read_sweep_csv(path)


# A valid row, and each rule a table row must pass with one row that fails
# only it: its cells over the valid row's, the scalar check that states the
# same rule (None for the table's own relative columns), and the message.
_VALID_ROW = dict(p=0.01, kind="modified", n=5, r=2, e_tests=0.4, e_fn=0.002, e_fp=0.003,
                  relative_tests=0.4, relative_fn_increase=0.1, dominated=False, dominated_joint=True)


def _config(row):
    return ProcedureConfig(row["kind"], row["n"], row["r"])


def _metrics(row):
    return Metrics(row["e_tests"], row["e_fn"], row["e_fp"])


def _prevalence(row):
    return check_prevalence(row["p"])


class TestTableRulesReadAsScalarRules:
    @pytest.mark.parametrize("cells, scalar, message", [
        (dict(kind="pooled"), _config, "'pooled' is not a valid Procedure"),
        (dict(n=10_001), _config, "pool size must lie in [1, 10000], got 10001"),
        (dict(n=0), _config, "pool size must lie in [1, 10000], got 0"),
        (dict(r=101), _config, "retest count must lie in [1, 100], got 101"),
        (dict(kind="individual", r=1), _config, "individual testing requires n = r = 1, got n=5, r=1"),
        (dict(kind="dorfman", n=1, r=1), _config, "dorfman requires pool size n >= 2, got n=1"),
        (dict(kind="dorfman"), _config, "dorfman tests each pool once, got r=2"),
        (dict(n=1), _config, "modified procedure requires pool size n >= 2, got n=1"),
        (dict(e_tests=-0.5), _metrics, "e_tests must be finite and nonnegative, got -0.5"),
        (dict(e_fn=math.inf), _metrics, "e_fn must be finite and nonnegative, got inf"),
        (dict(e_fp=math.nan), _metrics, "e_fp must be finite and nonnegative, got nan"),
        (dict(p=1.0), _prevalence, "prevalence must lie strictly between 0 and 1, got 1.0"),
        (dict(p=math.nan), _prevalence, "prevalence must lie strictly between 0 and 1, got nan"),
        (dict(relative_tests=math.inf), None, "relative_tests must be finite and nonnegative, got inf"),
        (dict(relative_fn_increase=-1.5), None, "relative_fn_increase must be >= -1, got -1.5"),
        (dict(relative_fn_increase=math.nan), None, "relative_fn_increase must be >= -1, got nan"),
        # n and r beyond int64, or NaN, meet the range rule before any wholeness check.
        (dict(n=1e30), _config, "pool size must lie in [1, 10000], got 1e+30"),
        (dict(n=math.nan), _config, "pool size must lie in [1, 10000], got nan"),
        (dict(n=10**31), _config, f"pool size must lie in [1, 10000], got {10**31}"),
        (dict(r=1e30), _config, "retest count must lie in [1, 100], got 1e+30"),
        (dict(r=math.nan), _config, "retest count must lie in [1, 100], got nan"),
        (dict(r=10**31), _config, f"retest count must lie in [1, 100], got {10**31}"),
        # An n or r that is no number is a ValueError, never a TypeError from a comparison.
        (dict(n="5"), _config, "pool size must be an integer, got '5'"),
        (dict(n=None), _config, "pool size must be an integer, got None"),
        (dict(r="2"), _config, "retest count must be an integer, got '2'"),
        (dict(r=None), _config, "retest count must be an integer, got None"),
        (dict(n="5", r=101), _config, "pool size must be an integer, got '5'"),
        # Two faults: the shape rules run first, so the kind is named, not the fraction.
        (dict(kind="pooled", n=2.5), _config, "'pooled' is not a valid Procedure"),
        (dict(kind="dorfman", n=5, r=2.5), _config, "dorfman tests each pool once, got r=2.5"),
    ])
    def test_table_names_the_row_with_the_scalar_message(self, cells, scalar, message):
        """Rows 0 and 2 pass, row 1 fails one rule (or two, named by the first);
        a later row that fails another rule does not take its place."""
        bad = {**_VALID_ROW, **cells}
        worse = {**_VALID_ROW, "e_tests": -1.0, "kind": "pooled"}
        columns = {name: [_VALID_ROW[name], bad[name], _VALID_ROW[name], worse[name]] for name in SWEEP_CSV_COLUMNS}
        with pytest.raises(ValueError) as raised:
            SweepTable(**columns)
        assert str(raised.value) == f"row 1: {message}"
        if scalar is not None:
            with pytest.raises(ValueError) as raised:
                scalar(bad)
            assert str(raised.value) == message

    @pytest.mark.parametrize("cells", [dict(n=[5.5]), dict(r=[2.5])])
    def test_n_and_r_must_be_whole(self, cells):
        """An n or r in range that is not whole passes every rule and fails
        the integer check; whole values of any type become int64."""
        columns = {name: [value] for name, value in _VALID_ROW.items()}
        name = next(iter(cells))
        with pytest.raises(ValueError, match=f"^{name} must hold integers"):
            SweepTable(**{**columns, **cells})
        table = SweepTable(**{**columns, "n": [5.0], "r": np.array([2], dtype=object)})
        assert table.n.dtype == table.r.dtype == np.int64 and (table.n[0], table.r[0]) == (5, 2)

    @pytest.mark.parametrize("stages, message", [
        (dict(e_tests_individual_stage=-0.1), "e_tests_individual_stage must be finite and nonnegative, got -0.1"),
        (dict(e_fn_pool_stage=math.inf), "e_fn_pool_stage must be finite and nonnegative, got inf"),
        (dict(e_fn_individual_stage=math.nan), "e_fn_individual_stage must be finite and nonnegative, got nan"),
        (dict(e_tests_individual_stage=0.9), "individual-stage tests cannot exceed total expected tests: 0.9 > 0.4"),
        (dict(e_fn_pool_stage=0.002, e_fn_individual_stage=0.001), "stage false negatives 0.003 do not add up to e_fn 0.002"),
    ])
    def test_stage_rules_read_the_same_over_columns(self, stages, message):
        """The stage diagnostics are in no table, but their rules run on
        columns as on a Metrics."""
        valid = dict(e_tests=0.4, e_fn=0.002, e_fp=0.003, e_tests_individual_stage=0.3,
                     e_fn_pool_stage=0.0015, e_fn_individual_stage=0.0005)
        bad = {**valid, **stages}
        with pytest.raises(ValueError) as raised:
            Metrics(**bad)
        assert str(raised.value) == message
        columns = {name: np.array([valid[name], bad[name]]) for name in valid}
        with pytest.raises(ValueError) as raised:
            check_rows(metric_rules(columns), columns)
        assert str(raised.value) == f"row 1: {message}"


@pytest.fixture(scope="module")
def four_prevalences_csv(tmp_path_factory):
    """sweep.csv of a real sweep, 180 rows: the fourth prevalence's
    individual row is line 137, its dorfman rows lines 138-148 and its
    modified rows lines 149-181."""
    path = tmp_path_factory.mktemp("csv") / "sweep.csv"
    write_sweep_csv(sweep(SweepSpec(p_values=(0.005, 0.01, 0.02, 0.05), n_range=(2, 12), r_range=(2, 4))), path)
    return path.read_text().splitlines()


@pytest.fixture(scope="module")
def eight_prevalences_csv(tmp_path_factory):
    """sweep.csv of a real sweep, 360 rows; each prevalence's rows are 45
    lines, its individual row the first."""
    path = tmp_path_factory.mktemp("csv") / "sweep.csv"
    spec = SweepSpec(p_values=(0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2), n_range=(2, 12), r_range=(2, 4))
    write_sweep_csv(sweep(spec), path)
    return path.read_text().splitlines()


class TestReaderChecksEveryRow:
    """Each check a row must pass, failed by one cell of a row past line 100."""

    @pytest.mark.parametrize("line, column, cell, message", [
        (160, "p", "1", "prevalence must lie strictly between 0 and 1"),
        (160, "p", "nan", "prevalence must lie strictly between 0 and 1"),
        (160, "kind", "pooled", "'pooled' is not a valid Procedure"),
        (160, "n", "2.5", "invalid literal for int"),
        (160, "n", "10001", "pool size must lie in"),
        (160, "n", "1" + "0" * 30, "pool size must lie in"),
        (160, "r", "101", "retest count must lie in"),
        (137, "n", "2", "individual testing requires n = r = 1"),
        (140, "r", "2", "dorfman tests each pool once"),
        (160, "n", "1", "modified procedure requires pool size n >= 2"),
        *((160, name, cell, f"{name} must be finite and nonnegative")
          for name in ("e_tests", "e_fn", "e_fp", "relative_tests") for cell in ("-0.5", "inf")),
        (160, "relative_fn_increase", "-1.5", "relative_fn_increase must be >= -1"),
        (160, "relative_fn_increase", "nan", "relative_fn_increase must be >= -1"),
    ])
    def test_first_failing_row_is_named(self, four_prevalences_csv, tmp_path, line, column, cell, message):
        path = _edited(tmp_path, four_prevalences_csv, (line, column, cell))
        with pytest.raises(ValueError) as raised:
            read_sweep_csv(path)
        assert str(raised.value).startswith(f"{path}:{line}: {message}"), str(raised.value)

    def test_kind_is_checked_before_the_range_of_n(self, four_prevalences_csv, tmp_path):
        """Within a row, the table's rules run in their order: kind, then n."""
        path = _edited(tmp_path, four_prevalences_csv, (160, "kind", "pooled"), (160, "n", "10001"))
        with pytest.raises(ValueError, match=re.escape(f"{path}:160: 'pooled' is not a valid Procedure")):
            read_sweep_csv(path)

    @pytest.mark.parametrize("failing, unparsable", [(140, 160), (140, 300), (270, 300)])
    def test_a_cell_that_does_not_parse_is_named_first(self, eight_prevalences_csv, tmp_path, failing, unparsable):
        """A row that fails a rule, above a cell that does not parse 20, 30 or
        160 lines below it: the cell is named, as the file is read, before
        any rule runs."""
        assert len(eight_prevalences_csv) > 300
        path = _edited(tmp_path, eight_prevalences_csv, (failing, "e_tests", "-0.5"), (unparsable, "n", "2.5"))
        with pytest.raises(ValueError, match=re.escape(f"{path}:{unparsable}: invalid literal for int")):
            read_sweep_csv(path)
        path = _edited(tmp_path, eight_prevalences_csv, (failing, "e_tests", "-0.5"))
        with pytest.raises(ValueError, match=re.escape(f"{path}:{failing}: e_tests must be finite and nonnegative")):
            read_sweep_csv(path)

    @pytest.mark.parametrize("unparsable, short", [(10, 200), (200, 10), (10, 300)])
    def test_the_first_faulty_line_in_the_file_is_named(self, eight_prevalences_csv, tmp_path, unparsable, short):
        """A cell that does not parse and a row cut to 10 cells: whichever
        comes first in the file is named, however far apart they are."""
        lines = list(eight_prevalences_csv)
        lines[short - 1] = lines[short - 1].rsplit(",", 1)[0]
        path = _edited(tmp_path, lines, (unparsable, "n", "2.5"))
        message = "invalid literal for int" if unparsable < short else "expected 11 columns, got 10"
        with pytest.raises(ValueError, match=re.escape(f"{path}:{min(unparsable, short)}: {message}")):
            read_sweep_csv(path)


def _edited(tmp_path, lines, *edits):
    """sweep.csv under tmp_path: lines with each (line, column, cell) edit made."""
    lines = list(lines)
    for line, column, cell in edits:
        cells = lines[line - 1].split(",")
        cells[SWEEP_CSV_COLUMNS.index(column)] = cell
        lines[line - 1] = ",".join(cells)
    path = tmp_path / "sweep.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def _walked_instead(path, header, parsers):
    raise AssertionError(f"{path} was read by the walked reader")


def _outcome(path):
    """read_sweep_csv's table for path, or its message."""
    try:
        return read_sweep_csv(path)
    except ValueError as exc:
        return str(exc)


def _walked_outcome(path):
    """_outcome with every file declined by the numpy path."""
    with mock.patch.object(pareto_module, "_read_plain", lambda path: None):
        return _outcome(path)


def _cell(line, column, cell):
    """An edit of sweep.csv's lines: one cell replaced."""
    def edit(lines):
        cells = lines[line - 1].split(",")
        cells[SWEEP_CSV_COLUMNS.index(column)] = cell
        lines[line - 1] = ",".join(cells)
    return edit


def _insert(line, text):
    """An edit of sweep.csv's lines: text put in as line number line."""
    return lambda lines: lines.insert(line - 1, text)


_LINE_160 = "0.05,modified,5,4,0.914846,0.00050081,0.00206706,0.914846,0.00161903,0,0"

# Edits of four_prevalences_csv, whose lines 137, 152, 160 and 173 hold n =
# 1, 3, 5 and 10, and the line ends it is written with.
_EDITED_FILES = {
    **{f"quoted-{name}": ([_cell(160, name, f'"{cell}"')], "\r\n") for name, cell in zip(SWEEP_CSV_COLUMNS, _LINE_160.split(","))},
    **{f"{name}-{flag!r}": ([_cell(160, name, flag)], "\r\n") for name in SWEEP_CSV_COLUMNS[9:] for flag in (" 1", "01", "1x", "0\x00")},
    "n-plus-sign": ([_cell(152, "n", "+3")], "\r\n"),
    "n-padded": ([_cell(152, "n", " 3 ")], "\r\n"),
    "n-float": ([_cell(152, "n", "3.0")], "\r\n"),
    "n-underscore": ([_cell(173, "n", "1_0")], "\r\n"),
    "n-arabic-indic-digit": ([_cell(137, "n", "\u0661")], "\r\n"),
    "n-after-x1c": ([_cell(152, "n", "\x1c3")], "\r\n"),
    "float-in-unicode-spaces": ([_cell(160, "e_fp", "\xa00.00206706\u2003")], "\r\n"),
    "float-overflow": ([_cell(160, "e_tests", "1e309")], "\r\n"),
    "kind-of-16-characters": ([_cell(160, "kind", "modifiedmodified")], "\r\n"),
    "kind-of-11-characters": ([_cell(137, "kind", "individualX")], "\r\n"),
    "kind-ending-in-nul": ([_cell(160, "kind", "modified\x00")], "\r\n"),
    "blank-line": ([_insert(100, "")], "\r\n"),
    "whitespace-line": ([_insert(100, " \t ")], "\r\n"),
    "empty-cells-line": ([_insert(100, ",,,,,,,,,,")], "\r\n"),
    "repeated-row": ([_insert(161, _LINE_160)], "\r\n"),
    "lf-endings": ([], "\n"),
    "trailing-comma": ([_cell(160, "dominated_joint", "0,")], "\n"),
}


class TestPlainReader:
    """read_sweep_csv parses a file as write_sweep_csv writes it with numpy in
    one call, and reads any other with the walked reader, whose table or
    message it then gives."""

    @pytest.mark.parametrize("spec", [
        SweepSpec(),
        SweepSpec(p_values=(0.001, 0.3), n_range=(2, 40), r_range=(1, 1)),
    ], ids=["default-grid", "r-1-grid"])
    def test_a_written_sweep_is_read_by_numpy(self, spec, tmp_path, monkeypatch):
        table, path = sweep(spec), tmp_path / "sweep.csv"
        write_sweep_csv(table, path)
        walked = _walked_outcome(path)
        monkeypatch.setattr(pareto_module, "read_columns", _walked_instead)
        loaded = read_sweep_csv(path)
        assert loaded == walked and len(loaded) == len(table)
        again = tmp_path / "again.csv"
        write_sweep_csv(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_two_runs_with_lf_endings_are_read_by_numpy(self, eight_prevalences_csv, tmp_path, monkeypatch):
        path = _edited(tmp_path, eight_prevalences_csv)
        walked = _walked_outcome(path)
        monkeypatch.setattr(pareto_module, "read_columns", _walked_instead)
        assert read_sweep_csv(path) == walked

    @pytest.mark.parametrize("case", list(_EDITED_FILES))
    def test_an_edited_file_reads_as_the_walked_reader_reads_it(self, four_prevalences_csv, tmp_path, case):
        edits, newline = _EDITED_FILES[case]
        lines = list(four_prevalences_csv)
        for edit in edits:
            edit(lines)
        path = tmp_path / "sweep.csv"
        path.write_text("".join(line + newline for line in lines), newline="")
        assert _outcome(path) == _walked_outcome(path)

    def test_a_header_alone_reads_as_an_empty_table_without_a_warning(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text(",".join(SWEEP_CSV_COLUMNS) + "\r\n", newline="")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert len(read_sweep_csv(path)) == 0
        assert caught == []
