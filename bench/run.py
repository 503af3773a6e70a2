"""Run one benchmark workload against the pooltest sources of this checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop with one caller: pooltest commands run one
after another in this process through pooltest.cli.main(argv), with stdout
captured and files written under bench/out. Passes run until S seconds have
passed. The first one runs with capture hooks and its outputs are checked
after timing ends (checks.py); every later pass must reproduce its stdout and
files byte for byte.

--trace 0 reports the end-to-end metrics: setup_s, the median over five fresh
interpreters of importing pooltest and building the model; pass_rel, the
median pass time in units of the median SpeedProbe sample, a fixed routine
timed ten times a second while the passes run; peak_rss_mb, this process's
peak resident set. The box's speed drifts by tens of percent over seconds
to minutes as other tenants load the host, and the probe slows with it, so
pass_rel keeps the program's own cost where the raw pass time (printed too)
does not. --trace 1 instead alternates untraced and traced passes and
reports per-layer metrics from the traced ones (tracing.py), writing their
spans to bench/out/. Each pass starts from an empty work directory after a
garbage collection, neither timed.

The last line of stdout is one JSON object with correct, attempted, failed
and metrics. attempted and failed count commands over all passes. The exit
code is 0 when every check passed, 1 when one failed, 2 when pooltest's
sources are not in this checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, thread_time

import numpy as np

import tracing
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_RUNS = 5
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import pooltest.cli, pooltest; "
    "pooltest.bateman_fit_model()"
)


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing pooltest and building the model."""
    times = []
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True, cwd=ROOT)
        times.append(perf_counter() - start)
    return statistics.median(times)


class SpeedProbe:
    """Times a fixed routine every PERIOD_S of a run, from a timer signal.

    The routine does the kinds of work pooltest does: Python arithmetic, a
    numpy pass over a 1.6 MB array, a small sort and a random gather from an
    8 MB table. It runs in the main thread between the program's bytecodes,
    so it samples the box's speed over the same seconds the passes ran, and
    it is timed in thread CPU time, so verify's worker threads holding both
    cores do not count as a slow box. Its arrays, about 11 MB, are allocated
    once: temporaries made while verify's threads ran raised its peak
    resident set by about 20 MB.
    """

    PERIOD_S = 0.1

    def __init__(self):
        rng = np.random.default_rng(0)
        self.stream = rng.random(200_000)
        self.hits = np.empty(len(self.stream), dtype=bool)
        self.sorted = np.empty(20_000)
        self.table = rng.random(1_000_000)
        self.index = rng.integers(0, len(self.table), 40_000)
        self.gathered = np.empty(len(self.index))
        self.samples: list[float] = []

    def _sample(self, signum, frame):
        start = thread_time()
        total = 0
        for i in range(20_000):
            total += i * i % 7
        np.less(self.stream, 0.01, out=self.hits)
        self.sorted[:] = self.stream[: len(self.sorted)]
        self.sorted.sort()
        np.take(self.table, self.index, out=self.gathered)
        self.samples.append(thread_time() - start)

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


class Runner:
    """Runs pooltest commands in-process and counts what was attempted and failed."""

    def __init__(self, main):
        self.main = main
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, argv):
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.main(argv)
        except Exception as exc:  # a traceback from the program is a failed operation
            code = f"{type(exc).__name__}: {exc}"
        if code != 0:
            self.failed += 1
            self.errors.append(f"{' '.join(argv)}: exit {code} {err.getvalue().strip()}")
        return argv, out.getvalue()


def snapshot(work: Path) -> dict[str, str]:
    return {str(p.relative_to(work)): p.read_text() for p in sorted(work.rglob("*")) if p.is_file()}


def capture_hooks(workload, captured):
    replacements = []
    for module, attr, convert in workload.captures:
        owner = importlib.import_module(f"pooltest.{module}")
        fn = getattr(owner, attr)
        store = captured.setdefault(attr, [])

        def hook(*args, _fn=fn, _store=store, _convert=convert, **kwargs):
            result = _fn(*args, **kwargs)
            _store.append(_convert(args, result))
            return result

        replacements.append((owner, attr, hook))
    return tracing.patched(replacements)


def check_outputs(workload, outputs, files, captured) -> list[str]:
    """The workload's checks; a check that raises on malformed output reports it."""
    try:
        return workload.check(outputs, files, captured)
    except Exception:  # malformed output must be reported, not end the run
        return [f"check raised on malformed output:\n{traceback.format_exc()}"]


def run_pass(workload, runner, work: Path, tracer=None):
    """One pass over the workload's commands; returns (seconds, outputs, files)."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    gc.collect()
    if tracer is None:
        start = perf_counter()
        outputs = workload.run_pass(runner.call, work)
        seconds = perf_counter() - start
    else:
        main = runner.main
        runner.main = tracer.span("cli.main", main)
        try:
            with tracer.installed():
                start = perf_counter()
                outputs = workload.run_pass(runner.call, work)
                seconds = perf_counter() - start
        finally:
            runner.main = main
    return seconds, outputs, snapshot(work)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pooltest" / "__init__.py").is_file():
        print(f"bench: no pooltest sources at {SRC}", file=sys.stderr)
        return 2
    setup_s = None if args.trace else measure_setup()
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("pooltest.cli")
    if Path(cli.__file__).resolve().parent != SRC / "pooltest":
        print(f"bench: imported pooltest from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    runner = Runner(cli.main)
    OUT.mkdir(exist_ok=True)
    untraced_s: list[float] = []
    traced_s: list[float] = []
    tracers: list[tracing.Tracer] = []
    probe = SpeedProbe()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp, \
            (contextlib.nullcontext() if args.trace else probe.sampling()):
        work = Path(tmp) / "work"
        captured: dict[str, list] = {}
        reproduced = True
        deadline = perf_counter() + args.seconds
        with capture_hooks(workload, captured):
            seconds, reference, files = run_pass(workload, runner, work)
        untraced_s.append(seconds)
        while perf_counter() < deadline or (args.trace and not traced_s):
            tracer = tracing.Tracer() if args.trace and len(traced_s) < len(untraced_s) else None
            seconds, outputs, pass_files = run_pass(workload, runner, work, tracer)
            (untraced_s if tracer is None else traced_s).append(seconds)
            if tracer is not None:
                tracers.append(tracer)
            reproduced = reproduced and (outputs, pass_files) == (reference, files)
    problems = list(runner.errors) or check_outputs(workload, reference, files, captured)
    if not reproduced:
        problems.append("a later pass did not reproduce the first pass's outputs")

    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    print(f"{args.workload} pass times (s): untraced {[round(t, 4) for t in untraced_s]}"
          + (f", traced {[round(t, 4) for t in traced_s]}" if args.trace else
             f"; probe median {statistics.median(probe.samples) * 1e3:.4f} ms over {len(probe.samples)} samples"))
    if args.trace:
        metrics = tracing.summarize(tracers, traced_s, untraced_s)
        tracing.write_spans(tracers, OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        report = {name: {"value": value, "unit": tracing.UNITS[name]} for name, value in metrics.items()}
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_rel": {"value": statistics.median(untraced_s) / statistics.median(probe.samples), "unit": "probes"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    if not args.trace:
        print(f"  raw pass time = {statistics.median(untraced_s):.6g} s (median of {len(untraced_s)})")
    for name, metric in report.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": runner.failed, "metrics": report}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
