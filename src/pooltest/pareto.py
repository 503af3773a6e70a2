"""Grid sweep over procedure shapes, dominance filtering, and summaries.

A sweep evaluates individual testing, classic two-stage pooling over a range
of pool sizes, and the retested procedure over pool sizes crossed with
retest budgets, for each requested prevalence. Its result is one SweepTable
of sweep.csv's eleven columns, swept or read back alike: the kernel's metric
arrays become its columns, evaluate's row rules run once per column,
sweep.csv is formatted in numpy a run of rows at a time, with the bytes of
Python's % formatting, and parsed by numpy's text reader, with no row checks
of its own, and the summaries are masked argmins over it that give row
indices. ParetoPoint views one row.

Points are compared on (expected tests, expected false negatives), both per
subject and both minimized. Dominance is computed twice: within each
procedure family (the `dominated` flag, the primary one) and jointly across
the three families (`dominated_joint`), because the joint front collapses to
the families' lower envelope and hides how each family trades off on its own.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .csvio import WRITE_ROWS, byte_cells, fmt_cells, join_cells, read_columns, text_cells
from .dilution import DilutionModel, bateman_fit_model
from .evaluate import (
    Metrics,
    Procedure,
    ProcedureConfig,
    RowError,
    check_rows,
    eval_individual,
    finite_nonnegative,
    metric_rules,
    pooled_metrics,
    shape_rules,
)
# Not called here, but bound under this module too: the benchmark's tracer
# wraps these names where the sweep used to look them up.
from .evaluate import eval_dorfman, eval_modified  # noqa: F401
from .kernels import PoolOutcomes, check_pool_size, check_prevalence, check_retest_count, pool_outcomes

__all__ = [
    "DEFAULT_SWEEP_PREVALENCES",
    "FN_INCREASE_CAPS",
    "SweepSpec",
    "SweepTable",
    "sweep",
    "min_tests_under_fn_cap",
    "fp_summary",
    "write_sweep_csv",
    "read_sweep_csv",
]

DEFAULT_SWEEP_PREVALENCES = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3)

# Allowed growth of E(FN) relative to individual testing: 100%, 10%, 1%.
FN_INCREASE_CAPS = (1.0, 0.1, 0.01)

_METRICS = ("e_tests", "e_fn", "e_fp")
_INDIVIDUAL, _DORFMAN, _MODIFIED = (kind.value for kind in Procedure)


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

    def outcomes(self) -> PoolOutcomes:
        """The one kernel result a sweep of this spec reads: every prevalence,
        every pool size, and read budgets up to the largest."""
        sizes = tuple(range(self.n_range[0], self.n_range[1] + 1))
        return pool_outcomes(self.model, sizes, self.p_values, self.model.kit.sp, self.r_range[1])


class ParetoPoint(NamedTuple):
    """One row of a SweepTable, as its integer index and iteration give it.

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

    @property
    def kind(self) -> Procedure:
        return self.config.kind


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Sweep points as numpy columns, one row per point: sweep.csv's eleven
    columns in its order, whether swept or read back.

    kind holds Procedure values as strings, which compare equal to members.
    The rules on a ProcedureConfig and a Metrics, and the table's own on p
    and the relative columns, run once per column; the first failing row
    raises ValueError with the message of the first rule it fails, after
    "row N: ". len, integer indexing and iteration give ParetoPoint rows; a
    mask or slice gives a table.
    """

    p: np.ndarray
    kind: np.ndarray
    n: np.ndarray
    r: np.ndarray
    e_tests: np.ndarray
    e_fn: np.ndarray
    e_fp: np.ndarray
    relative_tests: np.ndarray
    relative_fn_increase: np.ndarray
    dominated: np.ndarray
    dominated_joint: np.ndarray

    def __post_init__(self) -> None:
        vars(self).update((name, _column(name, values)) for name, values in self._columns().items())
        if len({column.shape for column in self._columns().values()}) != 1 or self.p.ndim != 1:
            raise ValueError("table columns must be one-dimensional and of one length")
        p, rel_fn = self.p, self.relative_fn_increase
        check_rows([
            *shape_rules(self.kind, self.n, self.r),
            *metric_rules({name: getattr(self, name) for name in _METRICS}),
            ((p != p) | (p <= 0.0) | (p >= 1.0), "prevalence must lie strictly between 0 and 1, got {p!r}".format),
            finite_nonnegative("relative_tests", self.relative_tests),
            ((rel_fn != rel_fn) | (rel_fn < -1.0), "relative_fn_increase must be >= -1, got {relative_fn_increase!r}".format),
        ], self._columns())
        # Within their ranges, n and r fit int64; a value outside one has been named above.
        for name, column in (("n", self.n), ("r", self.r)):
            whole = column.astype(np.int64)
            if not np.array_equal(whole, column):
                raise ValueError(f"{name} must hold integers, got {column!r}")
            vars(self)[name] = whole

    def _columns(self) -> dict[str, np.ndarray]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __len__(self) -> int:
        return len(self.p)

    def __getitem__(self, at):
        if not isinstance(at, (int, np.integer)):
            # Rows of a checked table pass the checks: the subset skips them.
            subset = object.__new__(SweepTable)
            vars(subset).update((name, column[at]) for name, column in self._columns().items())
            return subset
        row = [column[at].item() for column in self._columns().values()]
        return ParetoPoint(row[0], ProcedureConfig(*row[1:4]), Metrics(*row[4:7]), *row[7:])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SweepTable):
            return NotImplemented
        return all(np.array_equal(mine, theirs) for mine, theirs in zip(self._columns().values(), other._columns().values()))


_DTYPES = {"kind": str, "dominated": bool, "dominated_joint": bool}


def _column(name: str, values) -> np.ndarray:
    """values as the table's column name, before its rules run. n and r stay
    as numpy reads them, so a 31-digit int is no overflow, or as objects when
    numpy reads no numbers, so that a str or None among ints stays one."""
    if name not in ("n", "r"):
        return np.asarray(values, dtype=_DTYPES.get(name, float))
    column = np.asarray(values)
    return column if column.dtype.kind in "biufO" else np.asarray(values, dtype=object)


SWEEP_CSV_COLUMNS = [f.name for f in fields(SweepTable)]


def _dominated(group: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Whether each point is dominated within its group on two minimized objectives.

    A point is dominated by another of its group that is no worse in both
    coordinates and strictly better in at least one; exact ties in both
    survive together. One lexsort by (group, first, second) puts each group's
    points in runs of equal first; a run's first entry holds its least
    second, and the entries at that value survive when it is below the second
    of every point of the group with a smaller first. That least second so far
    is one minimum.accumulate over the seconds' dense ranks (equal values, 0.0
    and -0.0 among them, share a rank), each group shifted below the groups
    before it so that the running minimum starts afresh at every group.
    """
    size = len(group)
    order = np.lexsort((second, first, group))
    rank = np.unique(second, return_inverse=True)[1].reshape(-1)[order]
    ordered_group, ordered_first = group[order], first[order]
    new_group = np.ones(size, dtype=bool)
    new_group[1:] = ordered_group[1:] != ordered_group[:-1]
    new_run = new_group.copy()
    new_run[1:] |= ordered_first[1:] != ordered_first[:-1]
    shift = np.cumsum(new_group) * (size + 1)
    least = np.minimum.accumulate(rank - shift) + shift
    run = np.maximum.accumulate(np.where(new_run, np.arange(size), 0))
    # A group's first run has no point before it.
    before = np.where(new_group[run], size, least[run - 1])
    dominated = np.empty(size, dtype=bool)
    dominated[order] = (rank != rank[run]) | (rank[run] >= before)
    return dominated


def sweep(spec: SweepSpec, outcomes: PoolOutcomes | None = None) -> SweepTable:
    """Evaluate the full grid, flag dominance, and return the points as one table.

    Rows are ordered by prevalence, then individual / dorfman / modified, then
    n, then r, so repeated runs and persisted CSVs line up row for row.
    outcomes, when given, is spec.outcomes(), so that a caller can read its
    blind flags without a second kernel pass; when None, the sweep builds it.
    """
    n_lo, n_hi = spec.n_range
    r_lo, r_hi = spec.r_range
    model = spec.model
    sizes = np.arange(n_lo, n_hi + 1)
    budgets = np.arange(r_lo, r_hi + 1)
    # One kernel pass serves every prevalence, pool size and read budget, and
    # the metric arrays come in one pass over it; entry r = 1 is dorfman.
    if outcomes is None:
        outcomes = spec.outcomes()
    elif (outcomes.model, outcomes.n, outcomes.p, outcomes.sp, outcomes.extra_reads.shape[-1]) != (
        model, tuple(sizes.tolist()), spec.p_values, model.kit.sp, r_hi + 1
    ):
        raise ValueError("pool outcomes do not cover the sweep's grid")
    order = np.argsort(spec.p_values)
    p = np.array(spec.p_values)[order]
    baselines = [eval_individual(model.kit, value) for value in p.tolist()]

    # Per prevalence, a block of rows: the individual point, dorfman over n,
    # then modified over n and, within n, r.
    family_sizes = np.array([1, len(sizes), len(sizes) * len(budgets)])
    block = int(family_sizes.sum())
    columns = {}
    for name, values in zip(_METRICS, pooled_metrics(model.kit, outcomes)):
        values = values[order]
        base = [[getattr(m, name)] for m in baselines]
        columns[name] = np.concatenate((base, values[:, :, 1], values[:, :, r_lo:].reshape(len(p), -1)), axis=1).ravel()
    e_tests, e_fn = columns["e_tests"], columns["e_fn"]
    base_tests = np.repeat([m.e_tests for m in baselines], block)
    base_fn = np.repeat([m.e_fn for m in baselines], block)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel_fn = np.where(base_fn > 0.0, e_fn / base_fn - 1.0, np.where(e_fn == 0.0, 0.0, math.inf))
    families = np.repeat(np.arange(3 * len(p)), np.tile(family_sizes, len(p)))
    return SweepTable(
        p=np.repeat(p, block),
        kind=np.tile(np.repeat((_INDIVIDUAL, _DORFMAN, _MODIFIED), family_sizes), len(p)),
        n=np.tile(np.concatenate(([1], sizes, np.repeat(sizes, len(budgets)))), len(p)),
        r=np.tile(np.concatenate(([1], np.ones_like(sizes), np.tile(budgets, len(sizes)))), len(p)),
        relative_tests=e_tests / base_tests,
        relative_fn_increase=rel_fn,
        dominated=_dominated(families, e_tests, e_fn),
        dominated_joint=_dominated(families // 3, e_tests, e_fn),
        **columns,
    )


def min_tests_under_fn_cap(table: SweepTable, cap: float) -> int | None:
    """The row index of the cheapest point whose FN increase stays within cap, or None.

    Feasible means relative_fn_increase <= cap and strictly fewer expected
    tests than individual testing. Ties on cost break toward smaller r, then
    smaller n (fewer reads of the same pool beats a wider pool), then the
    earlier row.
    """
    cap = float(cap)
    if not math.isfinite(cap) or cap < 0.0:
        raise ValueError(f"cap must be finite and nonnegative, got {cap!r}")
    feasible = np.flatnonzero((table.relative_fn_increase <= cap) & (table.relative_tests < 1.0))
    if not feasible.size:
        return None
    best = np.lexsort((table.n[feasible], table.r[feasible], table.relative_tests[feasible]))[0]
    return int(feasible[best])


def fp_summary(table: SweepTable) -> dict[Procedure, float]:
    """Per-family false-positive rate at the cheapest non-dominated point.

    For each procedure family present, takes the family's non-dominated
    points and reports e_fp at the one with minimal e_tests (the
    cost-optimal end of that family's front), ties broken by e_fp, r, n and
    row. A single-point family reports that point's e_fp; for individual
    testing this is its closed-form rate. Families with no non-dominated
    points are simply absent from the dict.
    """
    if len(table) and (table.p != table.p[0]).any():
        raise ValueError("cannot summarize points with mixed prevalences")
    summary: dict[Procedure, float] = {}
    for kind in Procedure:
        family = np.flatnonzero((table.kind == kind.value) & ~table.dominated)
        if family.size:
            keys = (table.n, table.r, table.e_fp, table.e_tests)
            cheapest = family[np.lexsort([key[family] for key in keys])[0]]
            summary[kind] = table.e_fp[cheapest].item()
    return summary


def write_sweep_csv(table: SweepTable, path: str | Path) -> None:
    """Persist a sweep table, formatted in numpy WRITE_ROWS rows at a time; p
    keeps every digit, the other floats carry 6 significant digits as fmt
    writes them, and the flags are 0 or 1.

    p is written by repr, which matches fmt wherever p has at most 6
    significant digits; with every digit kept, two prevalences that agree to
    6 digits keep apart, and p near 1 does not round to 1.
    """
    with Path(path).open("wb") as handle:
        handle.write(",".join(SWEEP_CSV_COLUMNS).encode() + b"\r\n")
        for at in range(0, len(table), WRITE_ROWS):
            part = table[at : at + WRITE_ROWS]
            metrics = np.stack([getattr(part, name) for name in SWEEP_CSV_COLUMNS[4:9]], axis=1)
            handle.write(join_cells([
                text_cells(part.p, repr),
                # kind holds one of three ASCII names, whose UCS-4 code units are their bytes.
                byte_cells(np.ascontiguousarray(part.kind).view(np.uint32).reshape(len(part), -1)),
                text_cells(part.n, str),
                text_cells(part.r, str),
                fmt_cells(metrics.reshape(-1)).reshape(len(part), -1),
                *(byte_cells(ord("0") + getattr(part, name).view(np.uint8)[:, None]) for name in SWEEP_CSV_COLUMNS[9:]),
            ]))


def _flag(name: str, cell: str) -> bool:
    """A dominance flag as write_sweep_csv writes it: 0 or 1, nothing else."""
    if cell not in ("0", "1"):
        raise ValueError(f"{name} must be 0 or 1, got {cell!r}")
    return cell == "1"


# How each CSV column's cells parse; the table's rules check what they give.
_PARSERS = [{"kind": str, "n": int, "r": int}.get(name, float) for name in SWEEP_CSV_COLUMNS[:9]]
_PARSERS += [partial(_flag, name) for name in SWEEP_CSV_COLUMNS[9:]]

# The same columns for numpy's reader. A text column is one character wider
# than its longest valid value, so that no cut-off cell reads as valid.
_CSV_DTYPE = np.dtype([(name, {"kind": "U11", "n": "i8", "r": "i8"}.get(name, "f8")) for name in SWEEP_CSV_COLUMNS[:9]]
                      + [(name, "U2") for name in SWEEP_CSV_COLUMNS[9:]])
# Bytes that numpy's reader takes where int, float and str cells do not: NUL,
# which it drops from the end of a text cell, and \x1c-\x1f, which it strips
# around a number as whitespace.
_UNLIKE_PYTHON = b"\x00\x1c\x1d\x1e\x1f"


def _read_plain(path: str | Path) -> SweepTable | None:
    """The table of a sweep.csv as write_sweep_csv writes it, parsed by numpy
    in one call from the open file; None for any other file."""
    with Path(path).open("rb") as raw:
        if any(byte in block for block in iter(partial(raw.read, 1 << 16), b"") for byte in _UNLIKE_PYTHON):
            return None
    with Path(path).open(newline="") as handle, warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            if [cell.strip() for cell in handle.readline().split(",")] != SWEEP_CSV_COLUMNS:
                return None
            rows = np.loadtxt(handle, dtype=_CSV_DTYPE, delimiter=",", comments=None, quotechar=None, ndmin=1)
        except (ValueError, Warning):
            return None
    flags = [rows[name] for name in SWEEP_CSV_COLUMNS[9:]]
    if not np.isin(flags, ("0", "1")).all():
        return None
    try:
        return SweepTable(*(np.ascontiguousarray(rows[name]) for name in SWEEP_CSV_COLUMNS[:9]), *(flag == "1" for flag in flags))
    except ValueError:
        return None


def read_sweep_csv(path: str | Path) -> SweepTable:
    """Load a table written by write_sweep_csv.

    A file as write_sweep_csv writes it is parsed by numpy in one call. Any
    other, or one whose table fails a rule, is read again by
    csvio.read_columns, which gives the same table or names the fault.
    Dominance flags come back as written, not recomputed. A cell that does not
    parse raises ValueError naming the path and its line as the file is read;
    then the first row that fails one of the table's rules does, with the
    rule's message. So does a repeated (p, kind, n, r) row, or a prevalence
    with no individual row to be relative to, naming the file.
    """
    table = _read_plain(path)
    if table is None:
        lines, columns = read_columns(path, SWEEP_CSV_COLUMNS, _PARSERS)
        try:
            table = SweepTable(*columns)
        except RowError as exc:
            raise ValueError(f"{path}:{lines[exc.at]}: {exc.message}") from None

    key = (table.p, table.kind, table.n, table.r)
    # Sorted stably, each row after the first of its key is a repeat; the first in the file is named.
    order = np.lexsort(key[::-1])
    repeats = order[1:][np.logical_and.reduce([column[order][1:] == column[order][:-1] for column in key])]
    if repeats.size:
        raise ValueError("{}: repeated row for p={!r}, kind={}, n={}, r={}".format(path, *(column[repeats.min()].item() for column in key)))
    missing = table.p[~np.isin(table.p, table.p[table.kind == _INDIVIDUAL])]
    if missing.size:
        raise ValueError(f"{path}: no individual row for prevalence {missing.min().item()!r}")
    return table
