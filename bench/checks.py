"""Correctness checks on pooltest's outputs.

Each check takes outputs already parsed into plain Python values and returns
a list of problems, empty when the output passes. Expected values come from
oracle.py or from properties the method must have; no check compares against
a stored copy of an earlier output. Printed values carry six significant
digits, so numeric comparisons allow a relative error of 1e-5.
"""

from __future__ import annotations

import csv
import io
import math
from collections import defaultdict

import oracle

REL_TOL = 1e-5

# A simulated total may sit at most this many standard errors from its
# expectation. Totals are sums over independent pools, so they are close to
# normal; a correct program exceeds 5 with probability below 1e-6 per total.
Z_MAX = 5.0

# The abstract's figures for p = 0.001: the modified procedure's tests as a
# share of individual testing under each FN cap, printed to 0.1%, and the FN
# increase Dorfman pooling pays at a similar test share.
ABSTRACT_TEST_SHARES = {0.01: "22.1", 0.1: "16.8"}
ABSTRACT_DORFMAN_FN_INCREASE = {0.01: 6.75, 0.1: 8.21}
# Band around the paper's Dorfman figures: the dilution curve is a fit to
# four points, and the acceptance suite allows the same 15% for this contrast.
DORFMAN_BAND = 0.15

SWEEP_VALUES = ("e_tests", "e_fn", "e_fp", "relative_tests", "relative_fn_increase")


def close(observed: float, expected: float, rel: float = REL_TOL, abs_: float = 1e-12) -> bool:
    return abs(observed - expected) <= rel * abs(expected) + abs_


def parse_pairs(text: str) -> dict[str, str]:
    """The 'key = value' lines that evaluate and simulate print."""
    pairs = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            pairs[key.strip()] = value.strip()
    return pairs


def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def row_key(row: dict[str, str]) -> tuple[float, str, int, int]:
    return float(row["p"]), row["kind"], int(row["n"]), int(row["r"])


def grid_keys(p_values, n_range, r_range) -> set[tuple[float, str, int, int]]:
    """Every (p, kind, n, r) a sweep over this grid must report, once."""
    keys = set()
    for p in p_values:
        keys.add((p, "individual", 1, 1))
        for n in range(n_range[0], n_range[1] + 1):
            keys.add((p, "dorfman", n, 1))
            for r in range(r_range[0], r_range[1] + 1):
                keys.add((p, "modified", n, r))
    return keys


def check_grid(rows, p_values, n_range, r_range) -> list[str]:
    expected = grid_keys(p_values, n_range, r_range)
    keys = [row_key(row) for row in rows]
    problems = []
    if len(keys) != len(expected):
        problems.append(f"sweep has {len(keys)} points, the grid has {len(expected)}")
    if set(keys) != expected:
        problems.append("sweep points do not match the requested grid")
    return problems


def check_dominance(rows, points) -> list[str]:
    """Flags in the CSV and in the program's points against a brute-force front.

    points are the sweep's own (p, kind, n, r, e_tests, e_fn, dominated,
    dominated_joint) at full precision; the CSV's six-digit values can tie
    where the full values do not, so the fronts are computed from points.
    """
    problems = []
    by_key = {pt[:4]: pt for pt in points}
    if len(by_key) != len(rows):
        problems.append(f"sweep returned {len(by_key)} points, the CSV has {len(rows)} rows")
    for row in rows:
        pt = by_key.get(row_key(row))
        if pt is None or (int(row["dominated"]), int(row["dominated_joint"])) != (int(pt[6]), int(pt[7])):
            problems.append(f"CSV dominance flags differ from the sweep's at {row_key(row)}")
    groups = defaultdict(list)
    for pt in points:
        groups[pt[0], None].append(pt)
        groups[pt[0], pt[1]].append(pt)
    for (p, kind), members in groups.items():
        brute = oracle.dominated_flags([m[4] for m in members], [m[5] for m in members])
        flag = 7 if kind is None else 6
        for member, dominated in zip(members, brute):
            if bool(member[flag]) != dominated:
                front = "joint" if kind is None else "family"
                problems.append(
                    f"{front} dominance flag at {member[:4]} is {bool(member[flag])}, "
                    f"brute force says {dominated}"
                )
    return problems


def check_sampled_points(rows, keys) -> list[str]:
    """The CSV's values at the given points against the oracle's sums."""
    by_key = {row_key(row): row for row in rows}
    problems = []
    for key in keys:
        p, kind, n, r = key
        expected = oracle.metrics(p, kind, n, r)
        expected.update(oracle.relative_to_individual(p, expected))
        row = by_key.get(key)
        if row is None:
            problems.append(f"sampled point {key} is missing")
            continue
        for name in SWEEP_VALUES:
            if not close(float(row[name]), expected[name]):
                problems.append(f"{name} at {key} is {row[name]}, expected {expected[name]:.9g}")
    return problems


def check_r1_is_dorfman(rows) -> list[str]:
    """Modified pooling with one read per pool is Dorfman pooling."""
    dorfman = {(row["p"], row["n"]): row for row in rows if row["kind"] == "dorfman"}
    problems = []
    for row in rows:
        if row["kind"] == "modified" and row["r"] == "1":
            ref = dorfman.get((row["p"], row["n"]))
            if ref is None or any(row[name] != ref[name] for name in SWEEP_VALUES):
                problems.append(f"modified r=1 differs from dorfman at p={row['p']} n={row['n']}")
    return problems


def check_monotone_in_r(rows) -> list[str]:
    """More reads per pool never save tests and never add false negatives."""
    series = defaultdict(list)
    for row in rows:
        if row["kind"] == "modified":
            series[row["p"], int(row["n"])].append(
                (int(row["r"]), float(row["e_tests"]), float(row["e_fn"]))
            )
    problems = []
    for (p, n), values in series.items():
        values.sort()
        for (r0, t0, f0), (r1, t1, f1) in zip(values, values[1:]):
            if t1 < t0 or f1 > f0:
                problems.append(f"not monotone in r at p={p} n={n} between r={r0} and r={r1}")
    return problems


def _cost_by_cap(rows, p: str, cap: float):
    """The cheapest modified row within the FN cap, as tables defines it."""
    feasible = [
        row
        for row in rows
        if row["p"] == p
        and row["kind"] == "modified"
        and float(row["relative_fn_increase"]) <= cap
        and float(row["relative_tests"]) < 1.0
    ]
    if not feasible:
        return None
    return min(feasible, key=lambda row: (float(row["relative_tests"]), int(row["r"]), int(row["n"])))


def check_tables(cost_rows, fp_rows, sweep_rows) -> list[str]:
    """Both summary tables, recomputed by direct search of the sweep CSV."""
    problems = []
    for cell in cost_rows:
        best = _cost_by_cap(sweep_rows, cell["p"], float(cell["cap"]))
        expected = ("", "", "") if best is None else (best["relative_tests"], best["n"], best["r"])
        if (cell["relative_tests"], cell["n"], cell["r"]) != expected:
            problems.append(f"cost-by-cap cell p={cell['p']} cap={cell['cap']} is not the cheapest")
    for cell in fp_rows:
        for kind in ("individual", "dorfman", "modified"):
            family = [
                row
                for row in sweep_rows
                if row["p"] == cell["p"] and row["kind"] == kind and row["dominated"] == "0"
            ]
            if not family:
                problems.append(f"false-positive summary p={cell['p']}: no non-dominated {kind} point")
                continue
            best = min(
                family,
                key=lambda row: (float(row["e_tests"]), float(row["e_fp"]), int(row["r"]), int(row["n"])),
            )
            if cell[kind] != best["e_fp"]:
                problems.append(f"false-positive summary p={cell['p']} {kind} is {cell[kind]}, expected {best['e_fp']}")
    return problems


def check_abstract(cost_rows, sweep_rows) -> list[str]:
    """The paper's p = 0.001 figures and its contrast with Dorfman pooling."""
    problems = []
    for cap, share in ABSTRACT_TEST_SHARES.items():
        cell = next(
            (c for c in cost_rows if float(c["p"]) == 0.001 and float(c["cap"]) == cap), None
        )
        if cell is None or not cell["relative_tests"]:
            problems.append(f"no configuration within the {cap:g} cap at p=0.001")
            continue
        printed = f"{100.0 * float(cell['relative_tests']):.1f}"
        if printed != share:
            problems.append(f"p=0.001 cap {cap:g}: {printed}% of individual tests, the paper has {share}%")
        # The Dorfman pool whose cost comes closest from below.
        dorfman = [
            row
            for row in sweep_rows
            if float(row["p"]) == 0.001
            and row["kind"] == "dorfman"
            and float(row["relative_tests"]) <= float(cell["relative_tests"])
        ]
        if not dorfman:
            problems.append(f"no Dorfman pool as cheap as the cap {cap:g} configuration")
            continue
        near = max(dorfman, key=lambda row: float(row["relative_tests"]))
        increase = float(near["relative_fn_increase"])
        paper = ABSTRACT_DORFMAN_FN_INCREASE[cap]
        if not abs(increase - paper) <= DORFMAN_BAND * paper:
            problems.append(
                f"Dorfman at {near['relative_tests']} of the tests adds {100 * increase:.0f}% FN, "
                f"the paper has {100 * paper:.0f}%"
            )
    return problems


def check_evaluate(p: float, n: int, r: int, pairs: dict[str, str]) -> list[str]:
    """Everything evaluate prints for one configuration, against the oracle."""
    expected = oracle.metrics(p, "modified", n, r)
    problems = []
    for name, value in expected.items():
        if name not in pairs or not close(float(pairs[name]), value):
            problems.append(f"evaluate p={p} n={n} r={r}: {name} = {pairs.get(name)}, expected {value:.9g}")
    return problems


SIM_COUNTS = (
    "subjects",
    "tests",
    "pool_tests",
    "individual_tests",
    "true_positives",
    "false_positives",
    "true_negatives",
    "false_negatives",
)


def check_simulation(counts: dict[str, int], p: float, kind: str, n: int, r: int, subjects: int) -> list[str]:
    """Conservation of a run's counts, and each total's distance from the oracle."""
    label = f"simulate {kind} n={n} r={r} p={p}"
    c = counts
    problems = []
    if c["subjects"] != subjects:
        problems.append(f"{label}: {c['subjects']} subjects, asked for {subjects}")
    classified = c["true_positives"] + c["false_positives"] + c["true_negatives"] + c["false_negatives"]
    if classified != subjects:
        problems.append(f"{label}: {classified} subjects classified out of {subjects}")
    if c["tests"] != c["pool_tests"] + c["individual_tests"]:
        problems.append(f"{label}: tests are not pool plus individual tests")
    if kind == "individual":
        if (c["pool_tests"], c["individual_tests"]) != (0, subjects):
            problems.append(f"{label}: individual testing must read every subject once")
        declared = None
    else:
        pools = -(-subjects // n)
        if not pools <= c["pool_tests"] <= r * pools:
            problems.append(f"{label}: {c['pool_tests']} pool reads for {pools} pools of up to {r} reads")
        short = subjects % n
        declared, rest = divmod(c["individual_tests"], n)
        if rest:
            # Only a short final pool can add a non-multiple of n.
            if rest != short:
                problems.append(f"{label}: individual tests are not whole pools")
            declared += 1
    totals = {
        "tests": c["tests"],
        "fn": c["false_negatives"],
        "fp": c["false_positives"],
        "declared": declared,
    }
    for name, (mean, var) in oracle.count_distribution(p, kind, n, r, subjects).items():
        if totals[name] is None:
            continue
        if var == 0.0:
            if totals[name] != round(mean):
                problems.append(f"{label}: {name} total {totals[name]}, expected exactly {mean:.0f}")
            continue
        z = (totals[name] - mean) / math.sqrt(var)
        if abs(z) > Z_MAX:
            problems.append(f"{label}: {name} total {totals[name]} is {z:+.1f} standard errors from {mean:.1f}")
    return problems


def check_verify_rows(text: str, runs) -> list[str]:
    """verify's printed summary against the runs it made and the oracle.

    runs holds (kind, n, r, p, subjects, counts) for every simulation verify
    started; each is checked on its own, then the per-family relative MSE
    verify prints is recomputed from those counts.
    """
    problems = []
    errors = defaultdict(list)
    for kind, n, r, p, subjects, counts in runs:
        problems += check_simulation(counts, p, kind, n, r, subjects)
        expected = oracle.metrics(p, kind, n, r)
        observed = {
            "e_tests": counts["tests"] / subjects,
            "e_fn": counts["false_negatives"] / subjects,
            "e_fp": counts["false_positives"] / subjects,
        }
        for metric, value in observed.items():
            errors[kind, metric].append(((value - expected[metric]) / expected[metric]) ** 2)
    printed = {}
    for line in text.splitlines():
        kind, metric, mode, value, configs = line.split()
        printed[kind, metric] = (mode, float(value), configs)
    if set(printed) != set(errors):
        problems.append(f"verify printed rows for {sorted(printed)}, ran {sorted(errors)}")
    for key, values in errors.items():
        mode, value, configs = printed.get(key, ("", math.nan, ""))
        mse = sum(values) / len(values)
        if mode != "relative-mse" or configs != f"configs={len(values)}" or not close(value, mse, 1e-4, 1e-15):
            problems.append(f"verify {key[0]} {key[1]}: printed {value:.6g}, recomputed {mse:.6g}")
    return problems
