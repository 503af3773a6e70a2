"""Command-line interface.

Subcommands map one-to-one onto the library: evaluate (closed forms for one
configuration), simulate (Monte Carlo for one configuration), sweep (grid
evaluation to CSV), fit (dilution curve calibration), verify (simulation
against closed forms), and tables (cost-by-FN-cap and false-positive
summaries from a sweep).

Exit codes: 0 on success, 1 for usage and input errors, 2 when a numeric
routine fails to converge. Every command that writes files also writes a
<command>-run.txt reproducibility record next to them, with no timestamps,
and removes partial outputs if it fails midway.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from . import __version__
from .dilution import (
    BATEMAN_FIT_ALPHA,
    BATEMAN_FIT_BETA,
    BATEMAN_POOL_SENSITIVITIES,
    LINEAR_POOL_SIZE,
    LINEAR_TERMS,
    RATIO_K_OVER_N,
    RATIO_ORIENTATIONS,
    DilutionModel,
    FitConvergenceError,
    TestKit,
    fit_dilution_model,
    load_observations,
)
from .evaluate import (
    Metrics,
    Procedure,
    ProcedureConfig,
    evaluate,
    posterior_given_negative_pool,
    posterior_given_positive_pool,
)
from .pareto import (
    DEFAULT_SWEEP_PREVALENCES,
    FN_INCREASE_CAPS,
    SweepSpec,
    fp_summary,
    min_tests_under_fn_cap,
    read_sweep_csv,
    sweep,
    write_sweep_csv,
)
from .simulate import (
    DESK_SCALE_SUBJECTS,
    SimConfig,
    default_verification_configs,
    simulate,
    verify_against_analytic,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this package reserves 2 for
    numeric failures, so usage problems exit 1 instead."""

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


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _add_model_arguments(parser: argparse.ArgumentParser, *, coefficients: bool = True) -> None:
    """The kit and curve-shape flags; coefficients=False leaves out alpha and beta."""
    group = parser.add_argument_group("dilution model")
    group.add_argument("--se-i", type=float, default=0.99, help="kit sensitivity on one specimen (default 0.99)")
    group.add_argument("--sp", type=float, default=0.99, help="kit specificity (default 0.99)")
    if coefficients:
        group.add_argument("--alpha", type=float, default=BATEMAN_FIT_ALPHA, help="dilution exponent (default: Bateman fit)")
        group.add_argument("--beta", type=float, default=BATEMAN_FIT_BETA, help="linear pool-size coefficient (default: Bateman fit)")
    group.add_argument(
        "--ratio-orientation",
        choices=sorted(RATIO_ORIENTATIONS),
        default=RATIO_K_OVER_N,
        help="dilution ratio inside the power law (default k-over-n)",
    )
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
        ratio_orientation=args.ratio_orientation,
        linear_term=args.linear_term,
    )


def _spec_from_args(args: argparse.Namespace) -> SweepSpec:
    return SweepSpec(
        p_values=tuple(args.p) if args.p else DEFAULT_SWEEP_PREVALENCES,
        n_range=(args.n_min, args.n_max),
        r_range=(args.r_min, args.r_max),
        model=_model_from_args(args),
    )


def _add_shape_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", required=True, choices=[k.value for k in Procedure], help="testing procedure")
    parser.add_argument("--n", type=int, default=1, help="pool size (default 1)")
    parser.add_argument("--r", type=int, default=1, help="total pool tests incl. the first (default 1)")
    parser.add_argument("--p", type=float, required=True, help="prevalence")


def _model_record_pairs(args: argparse.Namespace) -> list[tuple[str, str]]:
    return [
        ("alpha", _fmt(args.alpha)),
        ("beta", _fmt(args.beta)),
        ("linear_term", args.linear_term),
        ("ratio_orientation", args.ratio_orientation),
        ("se_i", _fmt(args.se_i)),
        ("sp", _fmt(args.sp)),
    ]


def _sweep_record_pairs(args: argparse.Namespace, p_values) -> list[tuple[str, str]]:
    return [
        ("n_max", str(args.n_max)),
        ("n_min", str(args.n_min)),
        ("p_values", ",".join(_fmt(p) for p in p_values)),
        ("r_max", str(args.r_max)),
        ("r_min", str(args.r_min)),
    ] + _model_record_pairs(args)


def _write_record(artifacts: _Artifacts, command: str, pairs: list[tuple[str, str]]) -> None:
    lines = [f"tool = pooltest {__version__}", f"command = {command}"]
    lines += [f"{key} = {value}" for key, value in pairs]
    artifacts.path(f"{command}-run.txt").write_text("\n".join(lines) + "\n")


def _metrics_lines(metrics: Metrics) -> list[str]:
    """One line per metric; the optional stage diagnostics only when present."""
    values = [(name, getattr(metrics, name)) for name in (
        "e_tests", "e_fn", "e_fp",
        "e_tests_individual_stage", "e_fn_pool_stage", "e_fn_individual_stage",
    )]
    return [f"{name} = {_fmt(value)}" for name, value in values if value is not None]


def _cmd_evaluate(args: argparse.Namespace) -> int:
    model = _model_from_args(args)
    config = ProcedureConfig(kind=Procedure(args.kind), n=args.n, r=args.r)
    metrics = evaluate(model, args.p, config)
    lines = _metrics_lines(metrics)
    if config.kind is not Procedure.INDIVIDUAL:
        lines.append(
            "posterior_given_negative_pool = "
            + _fmt(posterior_given_negative_pool(model, args.p, config.n, config.r))
        )
        lines.append(
            "posterior_given_positive_pool = "
            + _fmt(posterior_given_positive_pool(model, args.p, config.n, config.r))
        )
    print("\n".join(lines))
    if args.out:
        with _Artifacts(args.out) as artifacts:
            artifacts.path("evaluate-result.txt").write_text("\n".join(lines) + "\n")
            _write_record(
                artifacts,
                "evaluate",
                [
                    ("kind", config.kind.value),
                    ("n", str(config.n)),
                    ("p", _fmt(args.p)),
                    ("r", str(config.r)),
                ]
                + _model_record_pairs(args),
            )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    model = _model_from_args(args)
    config = SimConfig(
        subjects=args.subjects,
        seed=args.seed,
        procedure=ProcedureConfig(kind=Procedure(args.kind), n=args.n, r=args.r),
        model=model,
        p=args.p,
    )
    result = simulate(config, threads=args.threads)
    lines = [
        f"subjects = {result.subjects}",
        f"tests = {result.tests}",
        f"pool_tests = {result.pool_tests}",
        f"individual_tests = {result.individual_tests}",
        f"true_positives = {result.true_positives}",
        f"false_positives = {result.false_positives}",
        f"true_negatives = {result.true_negatives}",
        f"false_negatives = {result.false_negatives}",
        f"tests_per_subject = {_fmt(result.tests_per_subject)}",
        f"fn_per_subject = {_fmt(result.fn_per_subject)}",
        f"fp_per_subject = {_fmt(result.fp_per_subject)}",
    ]
    print("\n".join(lines))
    if args.out:
        with _Artifacts(args.out) as artifacts:
            artifacts.path("simulate-result.txt").write_text("\n".join(lines) + "\n")
            _write_record(
                artifacts,
                "simulate",
                [
                    ("kind", args.kind),
                    ("n", str(args.n)),
                    ("p", _fmt(args.p)),
                    ("r", str(args.r)),
                    ("seed", str(args.seed)),
                    ("subjects", str(args.subjects)),
                    ("threads", str(args.threads)),
                ]
                + _model_record_pairs(args),
            )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    points = sweep(spec)
    with _Artifacts(args.out) as artifacts:
        write_sweep_csv(points, artifacts.path("sweep.csv"))
        _write_record(artifacts, "sweep", _sweep_record_pairs(args, spec.p_values))
    print(f"wrote {len(points)} points to {artifacts.out_dir / 'sweep.csv'}")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    if args.fit_data:
        observations = load_observations(args.fit_data)
        source = str(args.fit_data)
    else:
        observations = BATEMAN_POOL_SENSITIVITIES
        source = "builtin-bateman"
    kit = TestKit(se_i=args.se_i, sp=args.sp)
    result = fit_dilution_model(
        observations,
        kit,
        ratio_orientation=args.ratio_orientation,
        linear_term=args.linear_term,
    )
    lines = [
        f"alpha = {result.model.alpha:.6g}",
        f"beta = {result.model.beta:.6g}",
        f"mse = {result.mse:.6g}",
        f"iterations = {result.iterations}",
        f"observations = {len(observations)}",
    ]
    print("\n".join(lines))
    if args.out:
        with _Artifacts(args.out) as artifacts:
            artifacts.path("fit-result.txt").write_text("\n".join(lines) + "\n")
            _write_record(
                artifacts,
                "fit",
                [
                    ("fit_data", source),
                    ("linear_term", args.linear_term),
                    ("ratio_orientation", args.ratio_orientation),
                    ("se_i", _fmt(args.se_i)),
                    ("sp", _fmt(args.sp)),
                ],
            )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    model = _model_from_args(args)
    configs = default_verification_configs(model, subjects=args.subjects, seed=args.seed)
    rows = verify_against_analytic(configs, threads=args.threads)
    lines = [
        f"{row.kind.value} {row.metric} {row.mode} {_fmt(row.value)} configs={row.configs}"
        for row in rows
    ]
    print("\n".join(lines))
    if args.out:
        with _Artifacts(args.out) as artifacts:
            with artifacts.path("verification.csv").open("w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(["kind", "metric", "mode", "value", "configs"])
                for row in rows:
                    writer.writerow(
                        [row.kind.value, row.metric, row.mode, _fmt(row.value), row.configs]
                    )
            _write_record(
                artifacts,
                "verify",
                [
                    ("seed", str(args.seed)),
                    ("subjects", str(args.subjects)),
                    ("threads", str(args.threads)),
                ]
                + _model_record_pairs(args),
            )
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    points = read_sweep_csv(args.sweep_csv) if args.sweep_csv else sweep(_spec_from_args(args))

    p_values = sorted({pt.p for pt in points})
    with _Artifacts(args.out) as artifacts:
        with artifacts.path("tests_by_fn_cap.csv").open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["p", "cap", "relative_tests", "n", "r"])
            for p in p_values:
                retested = [
                    pt for pt in points if pt.p == p and pt.kind is Procedure.MODIFIED
                ]
                for cap in FN_INCREASE_CAPS:
                    best = min_tests_under_fn_cap(retested, cap)
                    cells = ["", "", ""] if best is None else [
                        _fmt(best.relative_tests), best.config.n, best.config.r
                    ]
                    writer.writerow([_fmt(p), _fmt(cap)] + cells)
        with artifacts.path("false_positive_summary.csv").open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["p", "individual", "dorfman", "modified"])
            for p in p_values:
                summary = fp_summary([pt for pt in points if pt.p == p])
                # Procedure lists individual, dorfman, modified: the header's order.
                writer.writerow(
                    [_fmt(p)] + [_fmt(summary[kind]) if kind in summary else "" for kind in Procedure]
                )
        record_pairs = [("source", str(args.sweep_csv) if args.sweep_csv else "sweep")]
        if not args.sweep_csv:
            record_pairs += _sweep_record_pairs(args, p_values)
        _write_record(artifacts, "tables", record_pairs)
    print(f"wrote tables for {len(p_values)} prevalences to {artifacts.out_dir}")
    return 0


def _add_sweep_range_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", type=float, action="append", help="prevalence; repeat for several (default: stock list)")
    parser.add_argument("--n-min", type=int, default=2, help="smallest pool size (default 2)")
    parser.add_argument("--n-max", type=int, default=50, help="largest pool size (default 50)")
    parser.add_argument("--r-min", type=int, default=2, help="smallest retest budget (default 2)")
    parser.add_argument("--r-max", type=int, default=5, help="largest retest budget (default 5)")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pooltest", description=__doc__.split("\n\n")[0])
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
    cmd.add_argument("--subjects", type=int, default=DESK_SCALE_SUBJECTS, help=f"population size (default {DESK_SCALE_SUBJECTS})")
    cmd.add_argument("--seed", type=int, default=0, help="stream seed (default 0)")
    cmd.add_argument("--threads", type=int, default=1, help="worker threads (default 1)")
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
    cmd.add_argument("--subjects", type=int, default=DESK_SCALE_SUBJECTS, help=f"population per config (default {DESK_SCALE_SUBJECTS})")
    cmd.add_argument("--seed", type=int, default=20240801, help="base seed (default 20240801)")
    cmd.add_argument("--threads", type=int, default=1, help="worker threads (default 1)")
    cmd.add_argument("--out", help="directory for verification.csv and run record")
    cmd.set_defaults(handler=_cmd_verify)

    cmd = commands.add_parser("tables", help="cost-by-FN-cap and false-positive summaries")
    cmd.add_argument("--sweep-csv", help="reuse a persisted sweep instead of recomputing")
    _add_sweep_range_arguments(cmd)
    _add_model_arguments(cmd)
    cmd.add_argument("--out", required=True, help="output directory")
    cmd.set_defaults(handler=_cmd_tables)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
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
