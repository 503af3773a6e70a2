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

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .dilution import DilutionModel, bateman_fit_model
from .evaluate import (
    Metrics,
    Procedure,
    ProcedureConfig,
    eval_dorfman,
    eval_individual,
    eval_modified,
)
from .kernels import MAX_POOL_SIZE, MAX_RETESTS, check_prevalence, pool_outcomes

__all__ = [
    "DEFAULT_SWEEP_PREVALENCES",
    "FN_INCREASE_CAPS",
    "SweepSpec",
    "ParetoPoint",
    "sweep",
    "pareto_filter",
    "min_tests_under_fn_cap",
    "fp_summary",
    "SWEEP_CSV_COLUMNS",
    "write_sweep_csv",
    "read_sweep_csv",
]

DEFAULT_SWEEP_PREVALENCES = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3)

# Allowed growth of E(FN) relative to individual testing: 100%, 10%, 1%.
FN_INCREASE_CAPS = (1.0, 0.1, 0.01)

_KIND_ORDER = {Procedure.INDIVIDUAL: 0, Procedure.DORFMAN: 1, Procedure.MODIFIED: 2}


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: prevalences, pool sizes, retest budgets, and the model."""

    p_values: tuple[float, ...] = DEFAULT_SWEEP_PREVALENCES
    n_range: tuple[int, int] = (2, 50)
    r_range: tuple[int, int] = (2, 5)
    model: DilutionModel = field(default_factory=bateman_fit_model)

    def __post_init__(self) -> None:
        values = tuple(check_prevalence(p) for p in self.p_values)
        object.__setattr__(self, "p_values", values)
        lo, hi = (int(v) for v in self.n_range)
        if not 2 <= lo <= hi <= MAX_POOL_SIZE:
            raise ValueError(f"n_range must satisfy 2 <= lo <= hi <= {MAX_POOL_SIZE}, got {self.n_range!r}")
        object.__setattr__(self, "n_range", (lo, hi))
        lo, hi = (int(v) for v in self.r_range)
        if not 1 <= lo <= hi <= MAX_RETESTS:
            raise ValueError(f"r_range must satisfy 1 <= lo <= hi <= {MAX_RETESTS}, got {self.r_range!r}")
        object.__setattr__(self, "r_range", (lo, hi))


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


def _non_dominated_indices(
    objectives: Sequence[tuple[float, float]], epsilon: float = 0.0
) -> set[int]:
    """Indices not dominated on two minimized objectives.

    A point is dominated by another that is no worse in both coordinates and
    strictly better in at least one; exact ties in both survive together.
    The exact case runs as a single sorted scan. epsilon > 0 loosens "no
    worse" and tightens "strictly better" by epsilon, blurring near-ties;
    that variant has no prefix structure, so it falls back to pairwise.
    """
    if epsilon < 0.0 or not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite and nonnegative, got {epsilon!r}")
    m = len(objectives)
    if epsilon > 0.0:
        survivors = set()
        for i, (ti, fi) in enumerate(objectives):
            dominated = any(
                tq <= ti + epsilon
                and fq <= fi + epsilon
                and (tq < ti - epsilon or fq < fi - epsilon)
                for j, (tq, fq) in enumerate(objectives)
                if j != i
            )
            if not dominated:
                survivors.add(i)
        return survivors

    order = sorted(range(m), key=lambda i: objectives[i])
    survivors = set()
    best_fn_before = math.inf
    i = 0
    while i < m:
        j = i
        tests_here = objectives[order[i]][0]
        while j < m and objectives[order[j]][0] == tests_here:
            j += 1
        group = order[i:j]
        group_min_fn = min(objectives[g][1] for g in group)
        for g in group:
            fn = objectives[g][1]
            if fn == group_min_fn and fn < best_fn_before:
                survivors.add(g)
        best_fn_before = min(best_fn_before, group_min_fn)
        i = j
    return survivors


def sweep(spec: SweepSpec) -> tuple[ParetoPoint, ...]:
    """Evaluate the full grid, flag dominance, and return points in stable order.

    Order is by prevalence, then individual / dorfman / modified, then n,
    then r, so repeated runs and persisted CSVs line up row for row.
    """
    n_lo, n_hi = spec.n_range
    r_lo, r_hi = spec.r_range
    points: list[ParetoPoint] = []
    for p in spec.p_values:
        baseline = eval_individual(spec.model.kit, p)
        records: list[tuple[ProcedureConfig, Metrics]] = [
            (ProcedureConfig(Procedure.INDIVIDUAL), baseline)
        ]
        retested: list[tuple[ProcedureConfig, Metrics]] = []
        # One kernel call per pool size serves dorfman (r = 1) and every r.
        for n in range(n_lo, n_hi + 1):
            outcomes = pool_outcomes(spec.model, n, p, spec.model.kit.sp, r_hi)
            records.append(
                (
                    ProcedureConfig(Procedure.DORFMAN, n=n),
                    eval_dorfman(spec.model, p, n, outcomes),
                )
            )
            retested.extend(
                (
                    ProcedureConfig(Procedure.MODIFIED, n=n, r=r),
                    eval_modified(spec.model, p, n, r, outcomes),
                )
                for r in range(r_lo, r_hi + 1)
            )
        records += retested

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
    points.sort(key=lambda pt: (pt.p, _KIND_ORDER[pt.kind], pt.config.n, pt.config.r))
    return tuple(points)


def pareto_filter(
    points: Iterable[ParetoPoint], epsilon: float = 0.0
) -> list[ParetoPoint]:
    """The non-dominated subset of the given points on (e_tests, e_fn).

    All points must share one prevalence; fronts across different p values
    are meaningless. Returns points ordered by ascending e_tests.
    """
    points = list(points)
    if not points:
        return []
    if len({pt.p for pt in points}) > 1:
        raise ValueError("cannot filter points with mixed prevalences")
    objectives = [(pt.metrics.e_tests, pt.metrics.e_fn) for pt in points]
    kept = _non_dominated_indices(objectives, epsilon=epsilon)
    front = [points[i] for i in kept]
    front.sort(
        key=lambda pt: (
            pt.metrics.e_tests,
            pt.metrics.e_fn,
            _KIND_ORDER[pt.kind],
            pt.config.n,
            pt.config.r,
        )
    )
    return front


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
    feasible = [
        pt
        for pt in points
        if pt.relative_fn_increase <= cap and pt.relative_tests < 1.0
    ]
    if not feasible:
        return None
    return min(
        feasible,
        key=lambda pt: (pt.relative_tests, pt.config.r, pt.config.n),
    )


def fp_summary(points: Iterable[ParetoPoint]) -> dict[Procedure, float]:
    """Per-family false-positive rate at the cheapest non-dominated point.

    For each procedure family present, takes the family's non-dominated
    points and reports e_fp at the one with minimal e_tests (the
    cost-optimal end of that family's front). A single-point family reports
    that point's e_fp; for individual testing this is its closed-form rate.
    Families with no non-dominated points are simply absent from the dict.
    """
    points = list(points)
    if not points:
        return {}
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


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def write_sweep_csv(points: Iterable[ParetoPoint], path: str | Path) -> None:
    """Persist sweep points; floats carry 6 significant digits."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SWEEP_CSV_COLUMNS)
        for pt in points:
            writer.writerow(
                [
                    _fmt(pt.p),
                    pt.kind.value,
                    pt.config.n,
                    pt.config.r,
                    _fmt(pt.metrics.e_tests),
                    _fmt(pt.metrics.e_fn),
                    _fmt(pt.metrics.e_fp),
                    _fmt(pt.relative_tests),
                    _fmt(pt.relative_fn_increase),
                    int(pt.dominated),
                    int(pt.dominated_joint),
                ]
            )


def read_sweep_csv(path: str | Path) -> tuple[ParetoPoint, ...]:
    """Load points written by write_sweep_csv.

    Stage diagnostics are not persisted, so reloaded Metrics carry only the
    headline values; dominance flags come back as written, not recomputed.
    """
    path = Path(path)
    points = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected sweep header") from None
        if header != SWEEP_CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(SWEEP_CSV_COLUMNS):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(SWEEP_CSV_COLUMNS)} columns, got {len(row)}"
                )
            try:
                config = ProcedureConfig(
                    kind=Procedure(row[1]), n=int(row[2]), r=int(row[3])
                )
                metrics = Metrics(
                    e_tests=float(row[4]), e_fn=float(row[5]), e_fp=float(row[6])
                )
                point = ParetoPoint(
                    p=float(row[0]),
                    config=config,
                    metrics=metrics,
                    relative_tests=float(row[7]),
                    relative_fn_increase=float(row[8]),
                    dominated=bool(int(row[9])),
                    dominated_joint=bool(int(row[10])),
                )
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            points.append(point)
    return tuple(points)
