"""Spans around pooltest's public functions, recorded from outside the package.

A Tracer replaces functions in the module namespaces where their callers look
them up: cli imports evaluate, pareto and simulate functions by name, pareto
imports the evaluators, evaluate imports the kernels, and verify calls the
simulate and evaluate names of its own module. Each wrapped call appends one
span (name, start, end, parent, leaf seconds, attribute) to a list in memory.

DilutionModel.sensitivity runs millions of times a pass on wide sweeps, so
it is a leaf counter instead: its calls and time are summed, and the time is
also charged to the span that was open, so self times stay right.

All wrapped functions are called from the thread that runs the command;
simulate's worker threads only run its private chunk functions.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import statistics
from time import perf_counter

NAME, START, END, PARENT, LEAF_S, ATTR = range(6)

EVALUATORS = ("eval_individual", "eval_dorfman", "eval_modified")
POSTERIORS = ("posterior_given_negative_pool", "posterior_given_positive_pool")
POINT_SPANS = {"evaluate.evaluate"} | {f"evaluate.{name}" for name in EVALUATORS}
SIM_SHAPES = ("individual", "dorfman-n10", "modified-n10-r3", "modified-n50-r5")

# Every per-layer metric a traced run reports, with its unit.
UNITS = {
    "kernels.binomial_pmf_row.calls": "count",
    "kernels.binomial_pmf_row.ms": "ms",
    "kernels.pmf_rows_per_point": "rows/point",
    "kernels.pool_test_outcome_probs.calls": "count",
    "kernels.pool_test_outcome_probs.self_ms": "ms",
    "dilution.sensitivity.calls": "count",
    "dilution.sensitivity.ms": "ms",
    "dilution.sensitivity_calls_per_point": "calls/point",
    "evaluate.calls": "count",
    "evaluate.self_ms": "ms",
    "evaluate.us_per_point": "us",
    "evaluate.posterior.calls": "count",
    "evaluate.posterior.ms": "ms",
    "pareto.points": "count",
    "pareto.sweep.self_ms": "ms",
    "pareto.write_sweep_csv.ms": "ms",
    "pareto.csv_bytes": "B",
    "pareto.read_sweep_csv.ms": "ms",
    "pareto.tables.ms": "ms",
    "cli.self_ms": "ms",
    "simulate.calls": "count",
    "simulate.ms": "ms",
    **{f"simulate.ns_per_subject.{shape}": "ns/subject" for shape in SIM_SHAPES},
    "simulate.verify.self_ms": "ms",
    "trace.overhead_pct": "%",
}


@contextlib.contextmanager
def patched(replacements):
    """Set (owner, attribute, value) triples, restoring the originals on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def shape_label(procedure) -> str:
    kind = procedure.kind.value
    if kind == "individual":
        return kind
    if kind == "dorfman":
        return f"dorfman-n{procedure.n}"
    return f"modified-n{procedure.n}-r{procedure.r}"


class Tracer:
    """Spans and leaf counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.open: list[int] = []
        self.leaf_calls = 0
        self.leaf_s = 0.0

    def span(self, name, fn, attribute=None):
        spans, open_ = self.spans, self.open

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, open_[-1] if open_ else -1, 0.0, None]
            open_.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                open_.pop()
            if attribute is not None:
                record[ATTR] = attribute(args, result)
            return result

        return wrapper

    def leaf(self, fn):
        spans, open_ = self.spans, self.open

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.leaf_calls += 1
                self.leaf_s += elapsed
                if open_:
                    spans[open_[-1]][LEAF_S] += elapsed

        return wrapper

    def replacements(self):
        """(owner, attribute, wrapper) for every traced function."""
        mod = {name: importlib.import_module(f"pooltest.{name}") for name in ("cli", "pareto", "evaluate", "kernels", "simulate", "dilution")}
        sim_attr = lambda args, result: (shape_label(args[0].procedure), args[0].subjects)
        points_attr = lambda args, result: len(result)
        bytes_attr = lambda args, result: os.path.getsize(args[1])
        out = []

        def add(owner, attr, name, attribute=None):
            out.append((owner, attr, self.span(name, getattr(owner, attr), attribute)))

        add(mod["cli"], "sweep", "pareto.sweep", points_attr)
        add(mod["cli"], "write_sweep_csv", "pareto.write_sweep_csv", bytes_attr)
        add(mod["cli"], "read_sweep_csv", "pareto.read_sweep_csv")
        add(mod["cli"], "min_tests_under_fn_cap", "pareto.min_tests_under_fn_cap")
        add(mod["cli"], "fp_summary", "pareto.fp_summary")
        add(mod["cli"], "evaluate", "evaluate.evaluate")
        for name in POSTERIORS:
            add(mod["cli"], name, f"evaluate.{name}")
        add(mod["cli"], "simulate", "simulate.simulate", sim_attr)
        add(mod["cli"], "verify_against_analytic", "simulate.verify_against_analytic")
        for name in EVALUATORS:
            add(mod["pareto"], name, f"evaluate.{name}")
            add(mod["evaluate"], name, f"evaluate.{name}")
        add(mod["evaluate"], "pool_test_outcome_probs", "kernels.pool_test_outcome_probs")
        add(mod["evaluate"], "binomial_pmf_row", "kernels.binomial_pmf_row")
        add(mod["kernels"], "binomial_pmf_row", "kernels.binomial_pmf_row")
        add(mod["simulate"], "simulate", "simulate.simulate", sim_attr)
        add(mod["simulate"], "evaluate", "evaluate.evaluate")
        model = mod["dilution"].DilutionModel
        out.append((model, "sensitivity", self.leaf(model.sensitivity)))
        return out

    def installed(self):
        return patched(self.replacements())

    def metrics(self) -> dict[str, float]:
        """Per-layer counts, times and ratios of this pass."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_s[s[PARENT]] += s[END] - s[START]

        calls: dict[str, int] = {}
        total_s: dict[str, float] = {}
        self_s: dict[str, float] = {}
        points = 0
        point_s = 0.0
        sim_s = dict.fromkeys(SIM_SHAPES, 0.0)
        sim_subjects = dict.fromkeys(SIM_SHAPES, 0)
        sweep_points = csv_bytes = 0
        for i, s in enumerate(spans):
            name = s[NAME]
            duration = s[END] - s[START]
            calls[name] = calls.get(name, 0) + 1
            total_s[name] = total_s.get(name, 0.0) + duration
            self_s[name] = self_s.get(name, 0.0) + duration - child_s[i] - s[LEAF_S]
            if name in POINT_SPANS and not (s[PARENT] >= 0 and spans[s[PARENT]][NAME].startswith("evaluate.")):
                points += 1
                point_s += duration
            elif name == "simulate.simulate" and s[ATTR][0] in sim_s:
                sim_s[s[ATTR][0]] += duration
                sim_subjects[s[ATTR][0]] += s[ATTR][1]
            elif name == "pareto.sweep":
                sweep_points += s[ATTR]
            elif name == "pareto.write_sweep_csv":
                csv_bytes += s[ATTR]

        def layer_sum(table, prefix):
            return sum(v for k, v in table.items() if k.startswith(prefix))

        def ratio(a, b):
            return a / b if b else 0.0

        ms = 1e3
        pmf_calls = calls.get("kernels.binomial_pmf_row", 0)
        out = {
            "kernels.binomial_pmf_row.calls": pmf_calls,
            "kernels.binomial_pmf_row.ms": total_s.get("kernels.binomial_pmf_row", 0.0) * ms,
            "kernels.pmf_rows_per_point": ratio(pmf_calls, points),
            "kernels.pool_test_outcome_probs.calls": calls.get("kernels.pool_test_outcome_probs", 0),
            "kernels.pool_test_outcome_probs.self_ms": self_s.get("kernels.pool_test_outcome_probs", 0.0) * ms,
            "dilution.sensitivity.calls": self.leaf_calls,
            "dilution.sensitivity.ms": self.leaf_s * ms,
            "dilution.sensitivity_calls_per_point": ratio(self.leaf_calls, points),
            "evaluate.calls": points,
            "evaluate.self_ms": layer_sum(self_s, "evaluate.") * ms,
            "evaluate.us_per_point": ratio(point_s * 1e6, points),
            "evaluate.posterior.calls": sum(calls.get(f"evaluate.{n}", 0) for n in POSTERIORS),
            "evaluate.posterior.ms": sum(total_s.get(f"evaluate.{n}", 0.0) for n in POSTERIORS) * ms,
            "pareto.points": sweep_points,
            "pareto.sweep.self_ms": self_s.get("pareto.sweep", 0.0) * ms,
            "pareto.write_sweep_csv.ms": total_s.get("pareto.write_sweep_csv", 0.0) * ms,
            "pareto.csv_bytes": csv_bytes,
            "pareto.read_sweep_csv.ms": total_s.get("pareto.read_sweep_csv", 0.0) * ms,
            "pareto.tables.ms": (
                total_s.get("pareto.min_tests_under_fn_cap", 0.0) + total_s.get("pareto.fp_summary", 0.0)
            ) * ms,
            "cli.self_ms": self_s.get("cli.main", 0.0) * ms,
            "simulate.calls": calls.get("simulate.simulate", 0),
            "simulate.ms": total_s.get("simulate.simulate", 0.0) * ms,
        }
        for shape in SIM_SHAPES:
            out[f"simulate.ns_per_subject.{shape}"] = ratio(sim_s[shape] * 1e9, sim_subjects[shape])
        out["simulate.verify.self_ms"] = self_s.get("simulate.verify_against_analytic", 0.0) * ms
        return out


def summarize(tracers, traced_s, untraced_s) -> dict[str, float]:
    """Median of each per-pass metric, and the traced pass's extra time."""
    per_pass = [t.metrics() for t in tracers]
    out = {}
    for name, first in per_pass[0].items():
        median = statistics.median_low if isinstance(first, int) else statistics.median
        out[name] = median(m[name] for m in per_pass)
    base = statistics.median(untraced_s)
    out["trace.overhead_pct"] = 100.0 * (statistics.median(traced_s) - base) / base
    return out


def write_spans(tracers, path) -> None:
    """All spans of the run as JSON lines, one object per span or leaf total."""
    with open(path, "w") as handle:
        for pass_index, tracer in enumerate(tracers):
            for i, s in enumerate(tracer.spans):
                handle.write(json.dumps({
                    "pass": pass_index, "id": i, "name": s[NAME], "start": s[START],
                    "end": s[END], "parent": s[PARENT], "leaf_s": s[LEAF_S], "attr": s[ATTR],
                }) + "\n")
            handle.write(json.dumps({
                "pass": pass_index, "leaf": "dilution.sensitivity",
                "calls": tracer.leaf_calls, "seconds": tracer.leaf_s,
            }) + "\n")
