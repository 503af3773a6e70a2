"""Grid sweep over procedure shapes, dominance filtering, and summaries.

A sweep evaluates individual testing, classic two-stage pooling over a range
of pool sizes, and the retested procedure over pool sizes crossed with
retest budgets, for each requested prevalence. Points are compared on
(expected tests, expected false negatives), both per subject and both
minimized. Dominance is computed twice: within each procedure family (the
`dominated` flag, the primary one) and jointly across the three families
(`dominated_joint`), because the joint front collapses to the families'
lower envelope and hides how each family trades off on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .csvio import read_table, write_table
from .dilution import DilutionModel, bateman_fit_model
from .evaluate import Metrics, Procedure, ProcedureConfig, eval_individual, pooled_metrics
# Not called here, but bound under this module too: the benchmark's tracer
# wraps these names where the sweep used to look them up.
from .evaluate import eval_dorfman, eval_modified  # noqa: F401
from .kernels import check_pool_size, check_prevalence, check_retest_count, pool_outcomes

__all__ = [
    "DEFAULT_SWEEP_PREVALENCES",
    "FN_INCREASE_CAPS",
    "SweepSpec",
    "ParetoPoint",
    "sweep",
    "min_tests_under_fn_cap",
    "fp_summary",
    "SWEEP_CSV_COLUMNS",
    "write_sweep_csv",
    "read_sweep_csv",
]

DEFAULT_SWEEP_PREVALENCES = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3)

# Allowed growth of E(FN) relative to individual testing: 100%, 10%, 1%.
FN_INCREASE_CAPS = (1.0, 0.1, 0.01)


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: prevalences, pool sizes, retest budgets, and the model."""

    p_values: tuple[float, ...] = DEFAULT_SWEEP_PREVALENCES
    n_range: tuple[int, int] = (2, 50)
    r_range: tuple[int, int] = (2, 5)
    model: DilutionModel = field(default_factory=bateman_fit_model)

    def __post_init__(self) -> None:
        values = tuple(check_prevalence(p) for p in self.p_values)
        repeated = [p for at, p in enumerate(values) if p in values[:at]]
        if repeated:
            raise ValueError(f"p_values repeats prevalence {repeated[0]!r}")
        object.__setattr__(self, "p_values", values)
        for name, check, minimum in (("n_range", check_pool_size, 2), ("r_range", check_retest_count, 1)):
            try:
                lo, hi = (check(v, minimum=minimum) for v in getattr(self, name))
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
            if lo > hi:
                raise ValueError(f"{name} must satisfy lo <= hi, got {getattr(self, name)!r}")
            object.__setattr__(self, name, (lo, hi))


@dataclass(frozen=True)
class ParetoPoint:
    """One evaluated configuration with its standing relative to the others.

    relative_tests is E(T) over the individual-testing E(T) at the same
    prevalence; relative_fn_increase is E(FN) over the individual E(FN),
    minus one, so 0 means no extra misses and 1 means twice as many.
    """

    p: float
    config: ProcedureConfig
    metrics: Metrics
    relative_tests: float
    relative_fn_increase: float
    dominated: bool
    dominated_joint: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", check_prevalence(self.p))
        rel_tests = float(self.relative_tests)
        if not math.isfinite(rel_tests) or rel_tests < 0.0:
            raise ValueError(f"relative_tests must be finite and nonnegative, got {rel_tests!r}")
        object.__setattr__(self, "relative_tests", rel_tests)
        rel_fn = float(self.relative_fn_increase)
        if math.isnan(rel_fn) or rel_fn < -1.0:
            raise ValueError(f"relative_fn_increase must be >= -1, got {rel_fn!r}")
        object.__setattr__(self, "relative_fn_increase", rel_fn)
        object.__setattr__(self, "dominated", bool(self.dominated))
        object.__setattr__(self, "dominated_joint", bool(self.dominated_joint))

    @property
    def kind(self) -> Procedure:
        return self.config.kind


def _non_dominated_indices(objectives: Sequence[tuple[float, float]]) -> set[int]:
    """Indices not dominated on two minimized objectives.

    A point is dominated by another that is no worse in both coordinates and
    strictly better in at least one; exact ties in both survive together.
    One scan sorted by (first, second), grouped by the first: a group's
    first entry holds its least second, and the entries at that value
    survive when it is below the second of every point with a smaller first.
    """
    order = sorted(range(len(objectives)), key=objectives.__getitem__)
    survivors = set()
    best_fn_before = math.inf
    for _, group in groupby(order, key=lambda i: objectives[i][0]):
        group = list(group)
        least_fn = objectives[group[0]][1]
        if least_fn < best_fn_before:
            survivors.update(i for i in group if objectives[i][1] == least_fn)
            best_fn_before = least_fn
    return survivors


def sweep(spec: SweepSpec) -> tuple[ParetoPoint, ...]:
    """Evaluate the full grid, flag dominance, and return points in stable order.

    Order is by prevalence, then individual / dorfman / modified, then n,
    then r, so repeated runs and persisted CSVs line up row for row.
    """
    n_lo, n_hi = spec.n_range
    r_lo, r_hi = spec.r_range
    model = spec.model
    sizes = range(n_lo, n_hi + 1)
    configs = [ProcedureConfig(Procedure.INDIVIDUAL)]
    configs += [ProcedureConfig(Procedure.DORFMAN, n=n) for n in sizes]
    configs += [ProcedureConfig(Procedure.MODIFIED, n=n, r=r) for n in sizes for r in range(r_lo, r_hi + 1)]
    # One kernel pass serves every prevalence, pool size and read budget, and
    # the metric arrays come in one pass over it; entry r = 1 is dorfman.
    outcomes = pool_outcomes(model, tuple(sizes), spec.p_values, model.kit.sp, r_hi)
    columns = pooled_metrics(model.kit, outcomes)
    points: list[ParetoPoint] = []
    for at, p in enumerate(spec.p_values):
        baseline = eval_individual(model.kit, p)
        # Per metric: dorfman over n, then modified over n and, within n, r.
        pooled = (
            np.concatenate((values[at, :, 1], values[at, :, r_lo:].ravel())).tolist() for values in columns
        )
        records = list(zip(configs, [baseline, *(Metrics(*row) for row in zip(*pooled))]))

        objectives = [(m.e_tests, m.e_fn) for _, m in records]
        joint_front = _non_dominated_indices(objectives)
        family_front: set[int] = set()
        for kind in Procedure:
            idx = [i for i, (cfg, _) in enumerate(records) if cfg.kind is kind]
            kept = _non_dominated_indices([objectives[i] for i in idx])
            family_front.update(idx[i] for i in kept)

        for i, (config, metrics) in enumerate(records):
            if baseline.e_fn > 0.0:
                rel_fn = metrics.e_fn / baseline.e_fn - 1.0
            else:
                rel_fn = 0.0 if metrics.e_fn == 0.0 else math.inf
            points.append(
                ParetoPoint(
                    p=p,
                    config=config,
                    metrics=metrics,
                    relative_tests=metrics.e_tests / baseline.e_tests,
                    relative_fn_increase=rel_fn,
                    dominated=i not in family_front,
                    dominated_joint=i not in joint_front,
                )
            )
    # Each prevalence's points are built in kind, n, r order; the sort is stable.
    points.sort(key=lambda pt: pt.p)
    return tuple(points)


def min_tests_under_fn_cap(
    points: Iterable[ParetoPoint], cap: float
) -> ParetoPoint | None:
    """Cheapest point whose FN increase stays within cap, or None.

    Feasible means relative_fn_increase <= cap and strictly fewer expected
    tests than individual testing. Ties on cost break toward smaller r, then
    smaller n (fewer reads of the same pool beats a wider pool).
    """
    cap = float(cap)
    if not math.isfinite(cap) or cap < 0.0:
        raise ValueError(f"cap must be finite and nonnegative, got {cap!r}")
    feasible = (pt for pt in points if pt.relative_fn_increase <= cap and pt.relative_tests < 1.0)
    return min(feasible, key=lambda pt: (pt.relative_tests, pt.config.r, pt.config.n), default=None)


def fp_summary(points: Iterable[ParetoPoint]) -> dict[Procedure, float]:
    """Per-family false-positive rate at the cheapest non-dominated point.

    For each procedure family present, takes the family's non-dominated
    points and reports e_fp at the one with minimal e_tests (the
    cost-optimal end of that family's front). A single-point family reports
    that point's e_fp; for individual testing this is its closed-form rate.
    Families with no non-dominated points are simply absent from the dict.
    """
    points = list(points)
    if len({pt.p for pt in points}) > 1:
        raise ValueError("cannot summarize points with mixed prevalences")
    summary: dict[Procedure, float] = {}
    for kind in Procedure:
        family = [pt for pt in points if pt.kind is kind and not pt.dominated]
        if not family:
            continue
        cheapest = min(
            family,
            key=lambda pt: (
                pt.metrics.e_tests,
                pt.metrics.e_fp,
                pt.config.r,
                pt.config.n,
            ),
        )
        summary[kind] = cheapest.metrics.e_fp
    return summary


SWEEP_CSV_COLUMNS = [
    "p",
    "kind",
    "n",
    "r",
    "e_tests",
    "e_fn",
    "e_fp",
    "relative_tests",
    "relative_fn_increase",
    "dominated",
    "dominated_joint",
]


def write_sweep_csv(points: Iterable[ParetoPoint], path: str | Path) -> None:
    """Persist sweep points; p keeps every digit, the other floats carry 6
    significant digits.

    p is written by repr, which matches fmt wherever p has at most 6
    significant digits; with every digit kept, two prevalences that agree to
    6 digits keep apart, and p near 1 does not round to 1.
    """
    rows = (
        [
            repr(pt.p), pt.kind.value, pt.config.n, pt.config.r,
            pt.metrics.e_tests, pt.metrics.e_fn, pt.metrics.e_fp,
            pt.relative_tests, pt.relative_fn_increase,
            int(pt.dominated), int(pt.dominated_joint),
        ]
        for pt in points
    )
    write_table(path, SWEEP_CSV_COLUMNS, rows)


def _flag(name: str, cell: str) -> bool:
    """A dominance flag as write_sweep_csv writes it: 0 or 1, nothing else."""
    if cell not in ("0", "1"):
        raise ValueError(f"{name} must be 0 or 1, got {cell!r}")
    return cell == "1"


def _point_from_row(row: list[str]) -> ParetoPoint:
    config = ProcedureConfig(kind=Procedure(row[1]), n=int(row[2]), r=int(row[3]))
    metrics = Metrics(e_tests=float(row[4]), e_fn=float(row[5]), e_fp=float(row[6]))
    return ParetoPoint(
        p=float(row[0]),
        config=config,
        metrics=metrics,
        relative_tests=float(row[7]),
        relative_fn_increase=float(row[8]),
        dominated=_flag("dominated", row[9]),
        dominated_joint=_flag("dominated_joint", row[10]),
    )


def read_sweep_csv(path: str | Path) -> tuple[ParetoPoint, ...]:
    """Load points written by write_sweep_csv.

    Stage diagnostics are not persisted, so reloaded Metrics carry only the
    headline values; dominance flags come back as written, not recomputed.
    A repeated (p, kind, n, r) row, or a prevalence with no individual row
    to be relative to, raises ValueError naming the file.
    """
    points = tuple(read_table(path, SWEEP_CSV_COLUMNS, _point_from_row))
    keys: set[tuple] = set()
    for key in ((pt.p, pt.config.kind, pt.config.n, pt.config.r) for pt in points):
        if key in keys:
            p, kind, n, r = key
            raise ValueError(f"{path}: repeated row for p={p!r}, kind={kind.value}, n={n}, r={r}")
        keys.add(key)
    missing = {key[0] for key in keys} - {key[0] for key in keys if key[1] is Procedure.INDIVIDUAL}
    if missing:
        raise ValueError(f"{path}: no individual row for prevalence {min(missing)!r}")
    return points
