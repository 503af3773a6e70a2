"""Command-line interface.

Subcommands map one-to-one onto the library: evaluate (closed forms for one
configuration), simulate (Monte Carlo for one configuration), sweep (grid
evaluation to CSV), fit (dilution curve calibration), verify (simulation
against closed forms), and tables (cost-by-FN-cap and false-positive
summaries from a sweep).

Exit codes: 0 on success, 1 for usage and input errors, 2 when a numeric
routine fails to converge. Every command that writes files also writes a
<command>-run.txt reproducibility record next to them, with no timestamps,
and removes partial outputs if it fails midway. A command whose pool sizes
include one where the dilution curve clamps Se(n, k) to 0 for every k
prints one warning on stderr; no file holds it.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .csvio import fmt, write_table
from .dilution import (
    BATEMAN_FIT_ALPHA,
    BATEMAN_FIT_BETA,
    BATEMAN_POOL_SENSITIVITIES,
    LINEAR_POOL_SIZE,
    LINEAR_TERMS,
    DilutionModel,
    FitConvergenceError,
    TestKit,
    fit_dilution_model,
    load_observations,
)
from .evaluate import (
    Procedure,
    ProcedureConfig,
    evaluate,
    posterior_given_negative_pool,
    posterior_given_positive_pool,
)
from .kernels import PoolOutcomes, pool_outcomes, sensitivity_row
from .pareto import (
    DEFAULT_SWEEP_PREVALENCES,
    FN_INCREASE_CAPS,
    SweepSpec,
    SweepTable,
    fp_summary,
    min_tests_under_fn_cap,
    read_sweep_csv,
    sweep,
    write_sweep_csv,
)
from .simulate import (
    DESK_SCALE_SUBJECTS,
    SimConfig,
    SimResult,
    default_verification_configs,
    simulate,
    verify_against_analytic,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this package reserves 2 for
    numeric failures, so usage problems exit 1 instead. A value such as
    -1.2e-05, as fmt writes it, is a negative number, not a flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern takes only forms like -1 and -1.5 for numbers.
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _Artifacts:
    """Tracks files written by one command; leaving its block by an
    exception removes them."""

    def __init__(self, out_dir: str | Path):
        self.out_dir = Path(out_dir)
        self.written: list[Path] = []

    def path(self, name: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        target = self.out_dir / name
        self.written.append(target)
        return target

    def __enter__(self) -> _Artifacts:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            for target in self.written:
                target.unlink(missing_ok=True)


def _add_model_arguments(parser: argparse.ArgumentParser, *, coefficients: bool = True) -> None:
    """The kit and curve-shape flags; coefficients=False leaves out alpha and beta."""
    group = parser.add_argument_group("dilution model")
    group.add_argument("--se-i", type=float, default=0.99, help="kit sensitivity on one specimen (default 0.99)")
    group.add_argument("--sp", type=float, default=0.99, help="kit specificity (default 0.99)")
    if coefficients:
        group.add_argument("--alpha", type=float, default=BATEMAN_FIT_ALPHA, help="dilution exponent (default: Bateman fit)")
        group.add_argument("--beta", type=float, default=BATEMAN_FIT_BETA, help="linear pool-size coefficient (default: Bateman fit)")
    group.add_argument(
        "--linear-term",
        choices=sorted(LINEAR_TERMS),
        default=LINEAR_POOL_SIZE,
        help="what the linear coefficient multiplies (default pool-size)",
    )


def _model_from_args(args: argparse.Namespace) -> DilutionModel:
    return DilutionModel(
        kit=TestKit(se_i=args.se_i, sp=args.sp),
        alpha=args.alpha,
        beta=args.beta,
        linear_term=args.linear_term,
    )


def _sweep_from_args(args: argparse.Namespace) -> tuple[SweepSpec, SweepTable]:
    """The grid to sweep and its table, after a warning if some of its pool
    sizes never detect, read from the one kernel result the sweep uses."""
    spec = SweepSpec(
        p_values=tuple(args.p) if args.p else DEFAULT_SWEEP_PREVALENCES,
        n_range=(args.n_min, args.n_max),
        r_range=(args.r_min, args.r_max),
        model=_model_from_args(args),
    )
    outcomes = spec.outcomes()
    _warn_blind(_blind_sizes(outcomes))
    return spec, sweep(spec, outcomes)


def _blind_sizes(outcomes: PoolOutcomes) -> list[int]:
    """The pool sizes that outcomes flags blind; the flag is the same at every p."""
    sizes = np.ravel(outcomes.n)
    return sizes[np.reshape(outcomes.blind, (-1, sizes.size))[0]].tolist()


def _warn_if_blind(model: DilutionModel, sizes) -> None:
    """_warn_blind for pool sizes that no kernel result covers."""
    _warn_blind([n for n in sorted(set(sizes)) if sensitivity_row(model, n)[1]])


def _warn_blind(blind: list[int]) -> None:
    """One stderr warning, kept out of every file, for the pool sizes, in
    increasing order, at which the curve clamps Se(n, k) to 0 for every k:
    such pools never test positive."""
    if blind:
        where = f"n = {blind[0]}" if len(blind) == 1 else f"{len(blind)} pool sizes from n = {blind[0]} to {blind[-1]}"
        print(f"pooltest: warning: the dilution curve clamps Se(n, k) to 0 for every k at {where}; "
              "such pools never test positive", file=sys.stderr)


def _add_shape_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", required=True, choices=[k.value for k in Procedure], help="testing procedure")
    parser.add_argument("--n", type=int, default=1, help="pool size (default 1)")
    parser.add_argument("--r", type=int, default=1, help="total pool tests incl. the first (default 1)")
    parser.add_argument("--p", type=float, required=True, help="prevalence")


# Parsed flags that are no input to the result, and the model flags, which
# close every record in this order.
_UNRECORDED = frozenset({"command", "handler", "out", "sweep_csv"})
_MODEL_KEYS = ("alpha", "beta", "linear_term", "se_i", "sp")


def _record_value(value) -> str:
    if isinstance(value, (list, tuple)):
        return ",".join(map(_record_value, value))
    return fmt(value) if isinstance(value, float) else str(value)


def _pair_lines(pairs) -> list[str]:
    """One `key = value` line per pair, floats through fmt."""
    return [f"{key} = {_record_value(value)}" for key, value in pairs]


def _record_pairs(args: argparse.Namespace, **resolved) -> list[tuple[str, object]]:
    """Every parsed flag but the unrecorded ones: the command's own sorted by
    name, then the model flags. resolved adds what the flags do not hold
    directly; its p_values replaces --p."""
    values = {key: value for key, value in vars(args).items() if key not in _UNRECORDED}
    if "p_values" in resolved:
        del values["p"]
    values.update(resolved)
    keys = sorted(key for key in values if key not in _MODEL_KEYS)
    keys += [key for key in _MODEL_KEYS if key in values]
    return [(key, values[key]) for key in keys]


def _write_record(artifacts: _Artifacts, args: argparse.Namespace, pairs: list[tuple[str, object]]) -> None:
    lines = _pair_lines([("tool", f"pooltest {__version__}"), ("command", args.command), *pairs])
    artifacts.path(f"{args.command}-run.txt").write_text("\n".join(lines) + "\n")


def _emit(args: argparse.Namespace, pairs: list[tuple[str, object]], **resolved) -> int:
    """Print the result pairs; with --out, also write them and the run record."""
    text = "\n".join(_pair_lines(pairs))
    print(text)
    if args.out:
        with _Artifacts(args.out) as artifacts:
            artifacts.path(f"{args.command}-result.txt").write_text(text + "\n")
            _write_record(artifacts, args, _record_pairs(args, **resolved))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    model = _model_from_args(args)
    config = ProcedureConfig(kind=Procedure(args.kind), n=args.n, r=args.r)
    pooled = config.kind is not Procedure.INDIVIDUAL
    # One kernel call serves the warning, the metrics and both posteriors.
    outcomes = pool_outcomes(model, config.n, args.p, model.kit.sp, config.r) if pooled else None
    if pooled:
        _warn_blind(_blind_sizes(outcomes))
    metrics = evaluate(model, args.p, config, outcomes)
    pairs = list(asdict(metrics).items())
    if pooled:
        shape = (model, args.p, config.n, config.r, outcomes)
        pairs.append(("posterior_given_negative_pool", posterior_given_negative_pool(*shape)))
        pairs.append(("posterior_given_positive_pool", posterior_given_positive_pool(*shape)))
    return _emit(args, pairs)


def _cmd_simulate(args: argparse.Namespace) -> int:
    model = _model_from_args(args)
    config = SimConfig(
        subjects=args.subjects,
        seed=args.seed,
        procedure=ProcedureConfig(kind=Procedure(args.kind), n=args.n, r=args.r),
        model=model,
        p=args.p,
    )
    if config.procedure.kind is not Procedure.INDIVIDUAL:
        # The pools of n, and the short final pool; a population under n is one short pool.
        n = config.procedure.n
        _warn_if_blind(model, {min(config.subjects, n), config.subjects % n} - {0})
    result = simulate(config, threads=args.threads)
    names = [field.name for field in fields(SimResult)] + ["tests_per_subject", "fn_per_subject", "fp_per_subject"]
    return _emit(args, [(name, getattr(result, name)) for name in names])


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec, table = _sweep_from_args(args)
    with _Artifacts(args.out) as artifacts:
        write_sweep_csv(table, artifacts.path("sweep.csv"))
        _write_record(artifacts, args, _record_pairs(args, p_values=spec.p_values))
    print(f"wrote {len(table)} points to {artifacts.out_dir / 'sweep.csv'}")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    if args.fit_data:
        observations = load_observations(args.fit_data)
        source = str(args.fit_data)
    else:
        observations = BATEMAN_POOL_SENSITIVITIES
        source = "builtin-bateman"
    kit = TestKit(se_i=args.se_i, sp=args.sp)
    result = fit_dilution_model(observations, kit, linear_term=args.linear_term)
    pairs = [
        ("alpha", result.model.alpha),
        ("beta", result.model.beta),
        ("mse", result.mse),
        ("iterations", result.iterations),
        ("observations", len(observations)),
    ]
    return _emit(args, pairs, fit_data=source)


def _cmd_verify(args: argparse.Namespace) -> int:
    model = _model_from_args(args)
    configs = default_verification_configs(model, subjects=args.subjects, seed=args.seed)
    _warn_if_blind(model, [c.procedure.n for c in configs if c.procedure.kind is not Procedure.INDIVIDUAL])
    rows = verify_against_analytic(configs, threads=args.threads)
    cells = [[row.kind.value, row.metric, row.mode, row.value, row.configs] for row in rows]
    print("\n".join(
        f"{kind} {metric} {mode} {fmt(value)} configs={configs}"
        for kind, metric, mode, value, configs in cells
    ))
    if args.out:
        with _Artifacts(args.out) as artifacts:
            write_table(artifacts.path("verification.csv"), ["kind", "metric", "mode", "value", "configs"], cells)
            _write_record(artifacts, args, _record_pairs(args))
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    table = read_sweep_csv(args.sweep_csv) if args.sweep_csv else _sweep_from_args(args)[1]

    p_values = sorted(set(table.p.tolist()))
    cap_rows, fp_rows = [], []
    for p in p_values:
        at_p = table[table.p == p]
        retested = at_p[at_p.kind == Procedure.MODIFIED.value]
        for cap in FN_INCREASE_CAPS:
            at = min_tests_under_fn_cap(retested, cap)
            cells = ["", "", ""] if at is None else [retested.relative_tests[at], retested.n[at], retested.r[at]]
            cap_rows.append([p, cap, *cells])
        summary = fp_summary(at_p)
        # Procedure lists individual, dorfman, modified: the header's order.
        fp_rows.append([p, *(summary.get(kind, "") for kind in Procedure)])
    with _Artifacts(args.out) as artifacts:
        write_table(artifacts.path("tests_by_fn_cap.csv"), ["p", "cap", "relative_tests", "n", "r"], cap_rows)
        write_table(artifacts.path("false_positive_summary.csv"), ["p", "individual", "dorfman", "modified"], fp_rows)
        # A persisted sweep carries its own inputs in its run record.
        pairs = [] if args.sweep_csv else _record_pairs(args, p_values=p_values)
        _write_record(artifacts, args, [("source", args.sweep_csv or "sweep")] + pairs)
    print(f"wrote tables for {len(p_values)} prevalences to {artifacts.out_dir}")
    return 0


def _add_sweep_range_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", type=float, action="append", help="prevalence; repeat for several (default: stock list)")
    parser.add_argument("--n-min", type=int, default=2, help="smallest pool size (default 2)")
    parser.add_argument("--n-max", type=int, default=50, help="largest pool size (default 50)")
    parser.add_argument("--r-min", type=int, default=2, help="smallest retest budget (default 2)")
    parser.add_argument("--r-max", type=int, default=5, help="largest retest budget (default 5)")


def _add_run_arguments(parser: argparse.ArgumentParser, subjects: str, seed: int, seed_help: str) -> None:
    """The simulation flags: population, seed and thread count."""
    parser.add_argument("--subjects", type=int, default=DESK_SCALE_SUBJECTS, help=f"{subjects} (default {DESK_SCALE_SUBJECTS})")
    parser.add_argument("--seed", type=int, default=seed, help=f"{seed_help} (default {seed})")
    parser.add_argument("--threads", type=int, default=1, help="kept for run records and scripts; changes neither counts nor speed (default 1)")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pooltest", description="Command-line interface.")
    parser.add_argument("--version", action="version", version=f"pooltest {__version__}")
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    cmd = commands.add_parser("evaluate", help="closed-form metrics for one configuration")
    _add_shape_arguments(cmd)
    _add_model_arguments(cmd)
    cmd.add_argument("--out", help="directory for result file and run record")
    cmd.set_defaults(handler=_cmd_evaluate)

    cmd = commands.add_parser("simulate", help="Monte Carlo run for one configuration")
    _add_shape_arguments(cmd)
    _add_model_arguments(cmd)
    _add_run_arguments(cmd, "population size", 0, "stream seed")
    cmd.add_argument("--out", help="directory for result file and run record")
    cmd.set_defaults(handler=_cmd_simulate)

    cmd = commands.add_parser("sweep", help="evaluate the configuration grid to CSV")
    _add_sweep_range_arguments(cmd)
    _add_model_arguments(cmd)
    cmd.add_argument("--out", required=True, help="output directory")
    cmd.set_defaults(handler=_cmd_sweep)

    cmd = commands.add_parser("fit", help="calibrate the dilution curve")
    cmd.add_argument("--fit-data", help="CSV of observations with header n,k,se (default: built-in points)")
    _add_model_arguments(cmd, coefficients=False)
    cmd.add_argument("--out", help="directory for result file and run record")
    cmd.set_defaults(handler=_cmd_fit)

    cmd = commands.add_parser("verify", help="compare simulation to the closed forms")
    _add_model_arguments(cmd)
    _add_run_arguments(cmd, "population per config", 20240801, "base seed")
    cmd.add_argument("--out", help="directory for verification.csv and run record")
    cmd.set_defaults(handler=_cmd_verify)

    cmd = commands.add_parser("tables", help="cost-by-FN-cap and false-positive summaries")
    cmd.add_argument("--sweep-csv", help="reuse a persisted sweep instead of recomputing")
    _add_sweep_range_arguments(cmd)
    _add_model_arguments(cmd)
    cmd.add_argument("--out", required=True, help="output directory")
    cmd.set_defaults(handler=_cmd_tables)

    return parser


# Built once per process; parse_args leaves it unchanged.
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    try:
        return args.handler(args)
    except FitConvergenceError as exc:
        print(f"pooltest: numeric failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"pooltest: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
