"""The benchmark's workloads: what one pass runs, and how its outputs are checked.

A pass is a fixed list of pooltest commands, given as argv lists to a call
function that runs them in-process and returns their stdout. Files go under
the work directory the pass is given. The seed picks what the program is fed
where the workload has a free choice (simulation seeds, the order of the
evaluate calls) and which sweep points the oracle recomputes; the same seed
gives the same commands.

A run's first pass has capture hooks on a few functions, so checks can see
full-precision sweep points and the per-config counts that verify does not
print. Each workload's checks are listed in its check method.
"""

from __future__ import annotations

import random

import checks

PAPER_PREVALENCES = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3)
DESK_SUBJECTS = 10_000_000


def _stream(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _sweep_points(args, result):
    return [
        (pt.p, pt.kind.value, pt.config.n, pt.config.r, pt.metrics.e_tests, pt.metrics.e_fn, pt.dominated, pt.dominated_joint)
        for pt in result
    ]


def _sim_run(args, result):
    config = args[0]
    proc = config.procedure
    counts = {name: getattr(result, name) for name in checks.SIM_COUNTS}
    return proc.kind.value, proc.n, proc.r, config.p, config.subjects, counts


class SweepWorkload:
    """A sweep to CSV; subclasses add what runs on top of it."""

    p_values: tuple[float, ...]
    n_range: tuple[int, int]
    r_range: tuple[int, int]
    sampled = 0
    captures = (("cli", "sweep", _sweep_points),)

    def __init__(self, seed: int):
        self.seed = seed

    def sweep_argv(self, work):
        argv = ["sweep", "--out", str(work / "sweep")]
        if self.p_values != PAPER_PREVALENCES:
            argv += [a for p in self.p_values for a in ("--p", repr(p))]
        if self.n_range != (2, 50):
            argv += ["--n-min", str(self.n_range[0]), "--n-max", str(self.n_range[1])]
        if self.r_range != (2, 5):
            argv += ["--r-min", str(self.r_range[0]), "--r-max", str(self.r_range[1])]
        return argv

    def run_pass(self, call, work):
        return [call(self.sweep_argv(work))]

    def sample_keys(self):
        keys = sorted(checks.grid_keys(self.p_values, self.n_range, self.r_range))
        return _stream(f"{self.name}-sample", self.seed).sample(keys, min(self.sampled, len(keys)))

    def check_sweep(self, rows, captured):
        return (
            checks.check_grid(rows, self.p_values, self.n_range, self.r_range)
            + checks.check_dominance(rows, captured["sweep"][0])
            + checks.check_sampled_points(rows, self.sample_keys())
            + checks.check_monotone_in_r(rows)
        )


class PaperStudy(SweepWorkload):
    """The paper's study: default sweep, its tables, then evaluate each named cell."""

    name = "paper-study"
    p_values = PAPER_PREVALENCES
    n_range = (2, 50)
    r_range = (2, 5)
    sampled = 200

    def run_pass(self, call, work):
        csv_path = work / "sweep" / "sweep.csv"
        outputs = [call(self.sweep_argv(work))]
        outputs.append(call(["tables", "--sweep-csv", str(csv_path), "--out", str(work / "tables")]))
        cells = [
            (row["p"], row["n"], row["r"])
            for row in checks.parse_csv((work / "tables" / "tests_by_fn_cap.csv").read_text())
            if row["n"]
        ]
        _stream(self.name, self.seed).shuffle(cells)
        for p, n, r in cells:
            outputs.append(call(["evaluate", "--kind", "modified", "--n", n, "--r", r, "--p", p]))
        return outputs

    def check(self, outputs, files, captured):
        rows = checks.parse_csv(files["sweep/sweep.csv"])
        cost = checks.parse_csv(files["tables/tests_by_fn_cap.csv"])
        fp = checks.parse_csv(files["tables/false_positive_summary.csv"])
        problems = self.check_sweep(rows, captured)
        problems += checks.check_tables(cost, fp, rows)
        problems += checks.check_abstract(cost, rows)
        named = sorted((c["p"], c["n"], c["r"]) for c in cost if c["n"])
        evaluated = []
        for argv, text in outputs[2:]:
            n, r, p = argv[4], argv[6], argv[8]
            evaluated.append((p, n, r))
            problems += checks.check_evaluate(float(p), int(n), int(r), checks.parse_pairs(text))
        if sorted(evaluated) != named:
            problems.append("evaluate did not run once per cost-by-cap cell")
        return problems


class SweepWide(SweepWorkload):
    """One prevalence, pools up to 500 and up to 10 reads, r = 1 included."""

    name = "sweep-wide"
    p_values = (0.001,)
    n_range = (2, 500)
    r_range = (1, 10)
    sampled = 80

    def check(self, outputs, files, captured):
        rows = checks.parse_csv(files["sweep/sweep.csv"])
        return self.check_sweep(rows, captured) + checks.check_r1_is_dorfman(rows)


# (kind, n, r) of the desk-scale runs, all at p = 0.01.
DESK_SHAPES = (("individual", 1, 1), ("dorfman", 10, 1), ("modified", 10, 3), ("modified", 50, 5))
DESK_P = 0.01


class SimulateDesk:
    """simulate on one thread, 10M subjects per procedure."""

    name = "simulate-desk"
    captures = ()

    def __init__(self, seed: int, subjects: int = DESK_SUBJECTS):
        self.subjects = subjects
        stream = _stream(self.name, seed)
        self.seeds = [stream.getrandbits(63) for _ in DESK_SHAPES]

    def run_pass(self, call, work):
        outputs = []
        for (kind, n, r), seed in zip(DESK_SHAPES, self.seeds):
            argv = ["simulate", "--kind", kind, "--p", repr(DESK_P), "--subjects", str(self.subjects)]
            if kind != "individual":
                argv += ["--n", str(n), "--r", str(r)]
            argv += ["--seed", str(seed), "--threads", "1", "--out", str(work / f"sim-{kind}-{n}-{r}")]
            outputs.append(call(argv))
        return outputs

    def check(self, outputs, files, captured):
        problems = []
        for (kind, n, r), (argv, text) in zip(DESK_SHAPES, outputs):
            if files[f"sim-{kind}-{n}-{r}/simulate-result.txt"] != text:
                problems.append(f"simulate {kind} n={n} r={r}: result file differs from stdout")
            pairs = checks.parse_pairs(text)
            counts = {name: int(pairs[name]) for name in checks.SIM_COUNTS}
            problems += checks.check_simulation(counts, DESK_P, kind, n, r, self.subjects)
        return problems


class Verify2T:
    """verify on two threads over its nine default configs."""

    name = "verify-2t"
    captures = (("simulate", "simulate", _sim_run),)

    def __init__(self, seed: int, subjects: int = DESK_SUBJECTS):
        self.subjects = subjects
        self.seed = _stream(self.name, seed).getrandbits(62)

    def run_pass(self, call, work):
        argv = ["verify", "--threads", "2", "--subjects", str(self.subjects), "--seed", str(self.seed), "--out", str(work / "verify")]
        return [call(argv)]

    def check(self, outputs, files, captured):
        runs = captured["simulate"]
        problems = checks.check_verify_rows(outputs[0][1], runs)
        shapes = sorted((kind, n, r, p) for kind, n, r, p, _, _ in runs)
        expected = sorted(
            (kind, n, r, p)
            for kind, n, r in (("individual", 1, 1), ("dorfman", 10, 1), ("modified", 10, 3))
            for p in (0.001, 0.01, 0.1)
        )
        if shapes != expected:
            problems.append(f"verify ran {shapes}, expected its nine default configs")
        return problems


WORKLOADS = {w.name: w for w in (PaperStudy, SweepWide, SimulateDesk, Verify2T)}
