"""Show that every correctness check rejects a perturbed output.

    python3 bench/selftest.py

Runs each workload's checked pass once (the wide sweep and the simulations
at a smaller size), confirms its checks pass, then perturbs one output at a
time and confirms the check aimed at it reports a problem. Also confirms
that BENCHMARK.json names the metrics run.py and tracing.py report. Exits 0
when every perturbation was rejected.
"""

from __future__ import annotations

import copy
import json
import math
import sys
import tempfile
from pathlib import Path

import checks
import oracle
import run
import tracing
import workloads


def edit_csv(text: str, match, column: str, change) -> str:
    """Apply change to column in the first row for which match(row) holds."""
    rows = checks.parse_csv(text)
    header = text.splitlines()[0].split(",")
    row = next(r for r in rows if match(r))
    row[column] = change(row[column])
    return "\n".join([",".join(header)] + [",".join(r[h] for h in header) for r in rows]) + "\n"


def edit_pairs(text: str, changes: dict) -> str:
    pairs = checks.parse_pairs(text)
    return "".join(
        f"{key} = {changes[key](pairs[key]) if key in changes else value}\n"
        for key, value in pairs.items()
    )


def scale(factor):
    return lambda value: f"{float(value) * factor:.6g}"


def shift(delta):
    return lambda value: str(int(value) + delta)


def sweep_file(change):
    def apply(outputs, files, captured):
        files["sweep/sweep.csv"] = change(files["sweep/sweep.csv"])
    return apply


def flip_point(index, flag):
    def apply(outputs, files, captured):
        point = list(captured["sweep"][0][index])
        point[flag] = not point[flag]
        captured["sweep"][0][index] = tuple(point)
    return apply


def evaluate_output(change):
    def apply(outputs, files, captured):
        argv, text = outputs[2]
        outputs[2] = (argv, edit_pairs(text, change))
    return apply


def sim_output(index, changes, shape):
    """Change one simulate run's printed counts and its result file alike."""
    def apply(outputs, files, captured):
        argv, text = outputs[index]
        text = edit_pairs(text, changes)
        outputs[index] = (argv, text)
        kind, n, r = shape
        files[f"sim-{kind}-{n}-{r}/simulate-result.txt"] = text
    return apply


def fn_shift(p, kind, n, r, subjects, observed, sigmas=8.0):
    """A false-negative move of `sigmas` standard errors, away from the mean."""
    mean, var = oracle.count_distribution(p, kind, n, r, subjects)["fn"]
    step = math.ceil(sigmas * math.sqrt(var))
    return step if observed >= mean else -step


def desk_fn_move(index):
    kind, n, r = workloads.DESK_SHAPES[index]

    def apply(outputs, files, captured):
        observed = int(checks.parse_pairs(outputs[index][1])["false_negatives"])
        step = fn_shift(workloads.DESK_P, kind, n, r, SUBJECTS, observed)
        sim_output(index, {"false_negatives": shift(step), "true_positives": shift(-step)}, (kind, n, r))(
            outputs, files, captured
        )
    return apply


def verify_fn_move(outputs, files, captured):
    kind, n, r, p, subjects, counts = captured["simulate"][4]
    step = fn_shift(p, kind, n, r, subjects, counts["false_negatives"])
    counts = dict(counts, false_negatives=counts["false_negatives"] + step, true_positives=counts["true_positives"] - step)
    captured["simulate"][4] = (kind, n, r, p, subjects, counts)


def verify_row(outputs, files, captured):
    argv, text = outputs[0]
    lines = text.splitlines()
    parts = lines[0].split()
    parts[3] = f"{float(parts[3]) * 1.5:.6g}"
    lines[0] = " ".join(parts)
    outputs[0] = (argv, "\n".join(lines) + "\n")


SUBJECTS = 1_000_000
P001_CAP001 = lambda row: row["p"] == "0.001" and row["cap"] == "0.01"
MODIFIED_R1 = lambda row: row["kind"] == "modified" and row["r"] == "1"


def cases(paper, wide):
    first_sampled = paper.sample_keys()[0]
    sampled = lambda row: checks.row_key(row) == first_sampled
    wide_sampled = lambda row: checks.row_key(row) == wide.sample_keys()[0]
    modified_r2 = lambda row: row["p"] == "0.01" and row["kind"] == "modified" and row["n"] == "10" and row["r"] == "2"
    return [
        ("paper-study", "e_fn scaled by 1.01 at a sampled point", "e_fn at",
         sweep_file(lambda t: edit_csv(t, sampled, "e_fn", scale(1.01)))),
        ("paper-study", "one family dominance flag flipped", "family dominance flag", flip_point(1000, 6)),
        ("paper-study", "one joint dominance flag flipped", "joint dominance flag", flip_point(7, 7)),
        ("paper-study", "one CSV dominance flag flipped", "CSV dominance flags",
         sweep_file(lambda t: edit_csv(t, sampled, "dominated", lambda v: str(1 - int(v))))),
        ("paper-study", "one sweep point dropped", "sweep has",
         sweep_file(lambda t: "".join(t.splitlines(keepends=True)[:-1]))),
        ("paper-study", "e_tests no longer rising in r", "not monotone",
         sweep_file(lambda t: edit_csv(t, modified_r2, "e_tests", scale(1.5)))),
        ("paper-study", "p=0.001 cost-by-cap cell moved to 22.3%", "paper has",
         lambda o, f, c: f.__setitem__("tables/tests_by_fn_cap.csv", edit_csv(
             f["tables/tests_by_fn_cap.csv"], P001_CAP001, "relative_tests", lambda v: "0.223"))),
        ("paper-study", "evaluate's e_fn scaled by 1.01", "evaluate p=", evaluate_output({"e_fn": scale(1.01)})),
        ("paper-study", "evaluate's posterior scaled by 1.01", "posterior_given_positive_pool",
         evaluate_output({"posterior_given_positive_pool": scale(1.01)})),
        ("sweep-wide", "modified r=1 e_tests off in the last digit", "differs from dorfman",
         sweep_file(lambda t: edit_csv(t, MODIFIED_R1, "e_tests", scale(1.000002)))),
        ("sweep-wide", "e_fn scaled by 1.01 at a sampled point", "e_fn at",
         sweep_file(lambda t: edit_csv(t, wide_sampled, "e_fn", scale(1.01)))),
        ("simulate-desk", "false negatives moved by 8 standard errors", "standard errors", desk_fn_move(2)),
        ("simulate-desk", "one subject lost", "classified", sim_output(1, {"true_negatives": shift(-1)}, workloads.DESK_SHAPES[1])),
        ("simulate-desk", "a pool read not counted in tests", "pool plus individual",
         sim_output(3, {"pool_tests": shift(1)}, workloads.DESK_SHAPES[3])),
        ("verify-2t", "one run's false negatives moved by 8 standard errors", "standard errors", verify_fn_move),
        ("verify-2t", "a printed relative MSE scaled by 1.5", "recomputed", verify_row),
    ]


def check_benchmark_json(root: Path) -> list[str]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if per_layer != tracing.UNITS:
        problems.append("BENCHMARK.json per_layer differs from tracing.UNITS")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if end_to_end != {"setup_s": "s", "pass_rel": "probes", "peak_rss_mb": "MB"}:
        problems.append("BENCHMARK.json end_to_end differs from what run.py reports")
    if not {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS):
        problems.append("BENCHMARK.json names a workload that workloads.WORKLOADS lacks")
    return problems


def main() -> int:
    if not (run.SRC / "pooltest").is_dir():
        print(f"selftest: no pooltest sources at {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    import pooltest.cli

    paper = workloads.PaperStudy(0)
    wide = workloads.SweepWide(0)
    wide.n_range = (2, 60)
    wide.r_range = (1, 6)
    loads = {
        "paper-study": paper,
        "sweep-wide": wide,
        "simulate-desk": workloads.SimulateDesk(0, subjects=SUBJECTS),
        "verify-2t": workloads.Verify2T(0, subjects=SUBJECTS),
    }
    failures = check_benchmark_json(run.ROOT)
    run.OUT.mkdir(exist_ok=True)
    results = {}
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for name, load in loads.items():
            runner = run.Runner(pooltest.cli.main)
            captured = {}
            with run.capture_hooks(load, captured):
                _, outputs, files = run.run_pass(load, runner, Path(tmp) / name)
            problems = runner.errors or run.check_outputs(load, outputs, files, captured)
            print(f"{name}: unperturbed outputs {'FAIL ' + problems[0] if problems else 'pass'}")
            failures += problems
            results[name] = (outputs, files, captured)

    for name, label, expect, perturb in cases(paper, wide):
        outputs, files, captured = copy.deepcopy(results[name])
        perturb(outputs, files, captured)
        problems = run.check_outputs(loads[name], outputs, files, captured)
        hit = [p for p in problems if expect in p]
        print(f"{name}: {label}: {'rejected: ' + hit[0] if hit else 'NOT REJECTED'}")
        if not hit:
            failures.append(f"{name}: {label} was not rejected ({problems[:1]})")
    print("selftest:", "FAIL" if failures else "all perturbations rejected")
    for failure in failures:
        print("  " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
