"""End-to-end command-line behavior: output text, exit codes, artifacts."""

import contextlib
import importlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pooltest
import pooltest.cli as cli
from pooltest import DilutionModel, FitConvergenceError, __version__, kernels, read_sweep_csv
from pooltest.cli import main
from pooltest.kernels import binomial_pmf_row as pmf_row

GOLDEN = Path(__file__).parent / "golden"


def _parse_pairs(text):
    pairs = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(" = ")
        pairs[key] = value
    return pairs


class TestEvaluateCommand:
    def test_pooled_metrics_and_posteriors(self, capsys):
        code = main([
            "evaluate", "--kind", "modified", "--n", "10", "--r", "3", "--p", "0.01",
        ])
        assert code == 0
        pairs = _parse_pairs(capsys.readouterr().out)
        np.testing.assert_allclose(float(pairs["e_tests"]), 0.401539, rtol=1e-5)
        np.testing.assert_allclose(float(pairs["e_fn"]), 1.076353e-4, rtol=1e-5)
        np.testing.assert_allclose(float(pairs["e_fp"]), 1.124112e-3, rtol=1e-5)
        assert "posterior_given_negative_pool" in pairs
        assert "posterior_given_positive_pool" in pairs

    def test_individual_has_no_posteriors(self, capsys):
        code = main(["evaluate", "--kind", "individual", "--p", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "posterior" not in out
        pairs = _parse_pairs(out)
        np.testing.assert_allclose(float(pairs["e_tests"]), 1.0)

    def test_out_writes_result_and_record(self, capsys, tmp_path):
        code = main([
            "evaluate", "--kind", "dorfman", "--n", "8", "--p", "0.02",
            "--out", str(tmp_path),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert (tmp_path / "evaluate-result.txt").read_text() == stdout
        record = (tmp_path / "evaluate-run.txt").read_text()
        assert record.startswith("tool = pooltest ")
        assert "command = evaluate" in record
        assert "kind = dorfman" in record
        assert "n = 8" in record

    def test_invalid_shape_exits_one(self, capsys):
        code = main(["evaluate", "--kind", "dorfman", "--n", "1", "--p", "0.02"])
        assert code == 1
        assert "pooltest: error:" in capsys.readouterr().err

    def test_missing_required_flag_exits_one(self, capsys):
        assert main(["evaluate", "--kind", "dorfman", "--n", "8"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("n, p", [("5000", "0.5"), ("10000", "0.9")])
    def test_pool_never_declared_positive_exits_one(self, capsys, n, p):
        """The dilution curve reads 0 and the clean-pool chance underflows, so
        the positive-pool posterior is undefined: a clean error, not a crash."""
        assert main(["evaluate", "--kind", "dorfman", "--n", n, "--p", p]) == 1
        err = capsys.readouterr().err
        assert "pooltest: error: P(pool declared positive) is 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kit", [[], ["--se-i", "0.5", "--sp", "0.5"]])
    def test_overflowing_alpha_exits_cleanly(self, capsys, kit):
        """(k/n)**-1000 overflows a float; the curve clamps instead of raising."""
        code = main(["evaluate", "--kind", "dorfman", "--n", "10", "--p", "0.01", "--alpha", "-1000", *kit])
        assert code in (0, 1)
        assert "Traceback" not in capsys.readouterr().err

    def test_false_positives_near_certain_prevalence_exit_zero(self, capsys):
        """With p one part in 1e9 below 1, e_fp is about 1e-18; formed as P(declared
        +) less the positive subjects' share it cancelled to -7.8e-17 and failed
        Metrics' nonnegativity check."""
        code = main([
            "evaluate", "--kind", "modified", "--n", "2", "--r", "2", "--p", "0.999999999",
            "--se-i", "0.5", "--sp", "0.3", "--alpha", "-1000",
        ])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "e_fp = " in captured.out

    @pytest.mark.parametrize("flag", ["--alpha", "--beta"])
    def test_non_finite_coefficient_exits_one(self, capsys, flag):
        """A NaN coefficient would clamp Se to 0 and report e_fn = p."""
        code = main([
            "evaluate", "--kind", "modified", "--n", "2", "--r", "100", "--p", "0.5",
            flag, "nan",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"pooltest: error: {flag[2:]} must be finite, got nan" in captured.err

    def test_unknown_flag_exits_one(self, capsys):
        assert main(["evaluate", "--kind", "dorfman", "--n", "8", "--p", "0.02", "--bogus"]) == 1
        capsys.readouterr()

    def test_one_kernel_call_serves_metrics_and_posteriors(self, capsys, monkeypatch):
        rows = []
        monkeypatch.setattr(kernels, "binomial_pmf_row", lambda n, p: rows.append(n) or pmf_row(n, p))
        assert main(["evaluate", "--kind", "modified", "--n", "10", "--r", "3", "--p", "0.01"]) == 0
        capsys.readouterr()
        assert len(rows) == 1


class TestSimulateCommand:
    ARGS = [
        "simulate", "--kind", "modified", "--n", "5", "--r", "2", "--p", "0.05",
        "--subjects", "20000", "--seed", "11",
    ]

    def test_deterministic_stdout(self, capsys):
        assert main(self.ARGS) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS) == 0
        second = capsys.readouterr().out
        assert first == second
        pairs = _parse_pairs(first)
        assert int(pairs["subjects"]) == 20000
        assert int(pairs["tests"]) == int(pairs["pool_tests"]) + int(pairs["individual_tests"])

    def test_a_population_of_2_to_the_63_exits_1_without_a_traceback(self, capsys):
        args = [arg if arg != "20000" else str(2**63) for arg in self.ARGS]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "subjects must be a positive integer below 2**63" in err
        assert "Traceback" not in err

    def test_result_file_omits_thread_count(self, capsys, tmp_path):
        code = main(self.ARGS + ["--threads", "2", "--out", str(tmp_path)])
        assert code == 0
        capsys.readouterr()
        result = (tmp_path / "simulate-result.txt").read_text()
        assert "threads" not in result
        record = (tmp_path / "simulate-run.txt").read_text()
        assert "threads = 2" in record
        assert "seed = 11" in record


class TestSweepCommand:
    GRID = ["--p", "0.01", "--n-min", "2", "--n-max", "8", "--r-min", "2", "--r-max", "3"]

    def test_writes_identical_csv_on_rerun(self, capsys, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert main(["sweep", *self.GRID, "--out", str(first)]) == 0
        assert main(["sweep", *self.GRID, "--out", str(second)]) == 0
        capsys.readouterr()
        assert (first / "sweep.csv").read_bytes() == (second / "sweep.csv").read_bytes()
        points = read_sweep_csv(first / "sweep.csv")
        # 1 individual + 7 dorfman + 7*2 modified
        assert len(points) == 22
        record = (first / "sweep-run.txt").read_text()
        assert "command = sweep" in record
        assert "p_values = 0.01" in record

    def test_requires_out(self, capsys):
        assert main(["sweep", *self.GRID]) == 1
        capsys.readouterr()

    def test_repeated_prevalence_exits_one(self, capsys, tmp_path):
        """Each point of a repeated prevalence used to be written twice."""
        grid = ["--p", "0.01", "--p", "0.02", "--p", "0.010", "--n-min", "2", "--n-max", "3"]
        assert main(["sweep", *grid, "--out", str(tmp_path)]) == 1
        assert "pooltest: error: p_values repeats prevalence 0.01" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_calls_in_one_process_record_only_their_own_prevalences(self, capsys, tmp_path):
        """The parser is shared by every main() call; appended --p lists are not."""
        grid = ["--n-min", "2", "--n-max", "3", "--r-min", "2", "--r-max", "2"]
        assert main(["sweep", "--p", "0.01", "--p", "0.02", *grid, "--out", str(tmp_path / "a")]) == 0
        assert main(["sweep", "--p", "0.05", *grid, "--out", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        assert "p_values = 0.01,0.02\n" in (tmp_path / "a" / "sweep-run.txt").read_text()
        assert "p_values = 0.05\n" in (tmp_path / "b" / "sweep-run.txt").read_text()
        assert set(read_sweep_csv(tmp_path / "b" / "sweep.csv").p.tolist()) == {0.05}


class TestFitCommand:
    def test_builtin_points(self, capsys):
        assert main(["fit"]) == 0
        pairs = _parse_pairs(capsys.readouterr().out)
        np.testing.assert_allclose(float(pairs["alpha"]), 0.032482, atol=1e-4)
        np.testing.assert_allclose(float(pairs["beta"]), -0.001255, atol=1e-4)
        assert float(pairs["mse"]) < 1e-4
        assert int(pairs["observations"]) == 4

    def test_fit_data_round_trip(self, capsys, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_text("n,k,se\n1,1,0.99\n5,1,0.93\n10,1,0.91\n50,1,0.81\n")
        assert main(["fit", "--fit-data", str(data), "--out", str(tmp_path / "out")]) == 0
        pairs = _parse_pairs(capsys.readouterr().out)
        np.testing.assert_allclose(float(pairs["alpha"]), 0.032482, atol=1e-4)
        record = (tmp_path / "out" / "fit-run.txt").read_text()
        assert f"fit_data = {data}" in record
        result = (tmp_path / "out" / "fit-result.txt").read_text()
        assert result.startswith("alpha = ")

    def test_malformed_data_exits_one(self, capsys, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_text("n,k,se\n1,1,not-a-number\n")
        assert main(["fit", "--fit-data", str(data)]) == 1
        assert "pooltest: error:" in capsys.readouterr().err

    def test_data_that_is_not_utf8_exits_one_naming_the_file(self, capsys, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_bytes(b"n,k,se\n1,1,0.99\n5,1,0.\xff93\n10,1,0.91\n")
        assert main(["fit", "--fit-data", str(data)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"pooltest: error: {data}:3: ") and "codec can't decode byte 0xff in position 22:" in err, err

    def test_missing_data_file_exits_one(self, capsys, tmp_path):
        assert main(["fit", "--fit-data", str(tmp_path / "nope.csv")]) == 1
        capsys.readouterr()

    def test_one_ratio_exits_one(self, capsys, tmp_path):
        """Pools that all share one k/n ratio leave alpha unidentified."""
        data = tmp_path / "obs.csv"
        data.write_text("n,k,se\n5,1,0.5\n5,1,0.9\n")
        assert main(["fit", "--fit-data", str(data)]) == 1
        assert "at least 2 distinct k/n ratios" in capsys.readouterr().err

    def test_kit_without_dilution_exits_two(self, capsys):
        """With se_i + sp = 1 the curve ignores alpha, so no alpha is the fit."""
        assert main(["fit", "--se-i", "0.5", "--sp", "0.5"]) == 2
        assert "grid's edge" in capsys.readouterr().err

    def test_nonconvergence_exits_two(self, capsys, monkeypatch):
        def stuck(*args, **kwargs):
            raise FitConvergenceError("simplex collapsed", alpha=0.1, beta=-0.001, mse=0.5)

        monkeypatch.setattr(cli, "fit_dilution_model", stuck)
        assert main(["fit"]) == 2
        assert "numeric failure" in capsys.readouterr().err


class TestVerifyCommand:
    def test_prints_rows_and_writes_csv(self, capsys, tmp_path):
        code = main([
            "verify", "--subjects", "4000", "--seed", "7", "--out", str(tmp_path),
        ])
        assert code == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        assert len(out_lines) == 9
        assert all("configs=3" in line for line in out_lines)
        csv_lines = (tmp_path / "verification.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "kind,metric,mode,value,configs"
        assert len(csv_lines) == 10
        record = (tmp_path / "verify-run.txt").read_text()
        assert "subjects = 4000" in record

    def test_seed_without_room_for_derived_seeds_names_the_given_seed(self, capsys):
        """The nine configs run on seed .. seed + 22, so the largest base seed
        is 2**64 - 23; the error quotes the seed that was passed."""
        given = str(2**64 - 1)
        assert main(["verify", "--subjects", "100", "--seed", given]) == 1
        err = capsys.readouterr().err
        assert f"got {given}" in err
        assert str(2**64) not in err


class TestTablesCommand:
    GRID = ["--p", "0.01", "--n-min", "2", "--n-max", "8", "--r-min", "2", "--r-max", "3"]

    def test_csv_and_in_memory_routes_agree(self, capsys, tmp_path):
        sweep_dir = tmp_path / "sweep"
        direct = tmp_path / "direct"
        via_csv = tmp_path / "via_csv"
        assert main(["sweep", *self.GRID, "--out", str(sweep_dir)]) == 0
        assert main(["tables", *self.GRID, "--out", str(direct)]) == 0
        assert main([
            "tables", "--sweep-csv", str(sweep_dir / "sweep.csv"), "--out", str(via_csv),
        ]) == 0
        capsys.readouterr()
        for name in ("tests_by_fn_cap.csv", "false_positive_summary.csv"):
            assert (direct / name).read_bytes() == (via_csv / name).read_bytes()
        header = (direct / "tests_by_fn_cap.csv").read_text().splitlines()[0]
        assert header == "p,cap,relative_tests,n,r"
        fp_header = (direct / "false_positive_summary.csv").read_text().splitlines()[0]
        assert fp_header == "p,individual,dorfman,modified"

    SMALL = ["--n-min", "2", "--n-max", "3", "--r-min", "1", "--r-max", "2"]

    def _tables_via_csv(self, capsys, out, prevalences):
        flags = [arg for p in prevalences for arg in ("--p", p)]
        assert main(["sweep", *flags, *self.SMALL, "--out", str(out / "sweep")]) == 0
        assert main(["tables", "--sweep-csv", str(out / "sweep" / "sweep.csv"), "--out", str(out / "csv")]) == 0
        via_csv = capsys.readouterr().out
        assert main(["tables", *flags, *self.SMALL, "--out", str(out / "memory")]) == 0
        return via_csv, capsys.readouterr().out

    def test_csv_keeps_a_prevalence_near_one(self, capsys, tmp_path):
        """Rounded to 6 digits, p = 0.9999999 read 1, which read_sweep_csv rejects."""
        via_csv, _ = self._tables_via_csv(capsys, tmp_path, ["0.9999999"])
        assert "wrote tables for 1 prevalences" in via_csv
        assert read_sweep_csv(tmp_path / "sweep" / "sweep.csv").p[0] == 0.9999999

    def test_csv_keeps_prevalences_that_agree_to_six_digits_apart(self, capsys, tmp_path):
        via_csv, in_memory = self._tables_via_csv(capsys, tmp_path, ["0.0010000001", "0.001"])
        assert "wrote tables for 2 prevalences" in via_csv
        assert "wrote tables for 2 prevalences" in in_memory

    def test_csv_with_a_flag_other_than_0_or_1_exits_one(self, capsys, tmp_path):
        """A dominated cell of 7 used to load as True."""
        assert main(["sweep", *self.GRID, "--out", str(tmp_path)]) == 0
        path = tmp_path / "sweep.csv"
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[-2] = "7"
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        assert main(["tables", "--sweep-csv", str(path), "--out", str(tmp_path / "tables")]) == 1
        assert f"pooltest: error: {path}:4: dominated must be 0 or 1, got '7'" in capsys.readouterr().err
        assert not (tmp_path / "tables").exists()

    def test_csv_with_a_repeated_row_exits_one(self, capsys, tmp_path):
        """A repeated row used to load, and tables exited 0."""
        assert main(["sweep", *self.GRID, "--out", str(tmp_path)]) == 0
        path = tmp_path / "sweep.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join([*lines, lines[3]]) + "\n")
        assert main(["tables", "--sweep-csv", str(path), "--out", str(tmp_path / "tables")]) == 1
        assert f"pooltest: error: {path}: repeated row for p=0.01, kind=" in capsys.readouterr().err
        assert not (tmp_path / "tables").exists()

    @pytest.mark.parametrize(
        "grid, line, cell",
        [(GRID, 3, 1), (GRID, 0, 1), (["--p", "0.01"], 200, 1)],
        ids=["kind-cell", "header", "kind-cell-past-the-first-read"],
    )
    def test_csv_that_is_not_utf8_exits_one_naming_the_file(self, capsys, tmp_path, grid, line, cell):
        """The error names the corrupted line and the byte's offset in the file,
        also past the text layer's first read of 8 KiB."""
        assert main(["sweep", *grid, "--out", str(tmp_path)]) == 0
        path = tmp_path / "sweep.csv"
        lines = path.read_bytes().split(b"\r\n")
        cells = lines[line].split(b",")
        cells[cell] = cells[cell][:2] + b"\xff" + cells[cell][2:]
        lines[line] = b",".join(cells)
        path.write_bytes(b"\r\n".join(lines))
        offset = path.read_bytes().index(b"\xff")
        capsys.readouterr()
        assert main(["tables", "--sweep-csv", str(path), "--out", str(tmp_path / "tables")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"pooltest: error: {path}:{line + 1}: "), err
        assert f"codec can't decode byte 0xff in position {offset}:" in err, err
        assert not (tmp_path / "tables").exists()

    def test_failure_removes_partial_outputs(self, capsys, tmp_path, monkeypatch):
        def boom(table):
            raise ValueError("synthetic failure")

        monkeypatch.setattr(cli, "fp_summary", boom)
        out = tmp_path / "tables"
        assert main(["tables", *self.GRID, "--out", str(out)]) == 1
        assert "pooltest: error:" in capsys.readouterr().err
        assert not (out / "tests_by_fn_cap.csv").exists()
        assert not (out / "false_positive_summary.csv").exists()
        assert not (out / "tables-run.txt").exists()


class TestTopLevel:
    def test_model_flags(self):
        """Five model flags, and fit takes no coefficients; a curve printed
        with (n/k)^a is given as --alpha -a."""
        commands = cli._PARSER._subparsers._group_actions[0].choices
        for name, parser in commands.items():
            group = next(group for group in parser._action_groups if group.title == "dilution model")
            flags = [action.option_strings[0] for action in group._group_actions]
            coefficients = [] if name == "fit" else ["--alpha", "--beta"]
            assert flags == ["--se-i", "--sp", *coefficients, "--linear-term"], name

    @staticmethod
    def _public_names():
        """__version__, then the __all__ lists of the four republished modules."""
        names = ["__version__"]
        for module in ("dilution", "evaluate", "pareto", "simulate"):
            names += importlib.import_module(f"pooltest.{module}").__all__
        return names

    def test_all_is_the_module_lists(self):
        names = self._public_names()
        assert pooltest.__all__ == names
        assert len(set(names)) == len(names)

    def test_star_import_binds_the_public_names(self):
        namespace = {}
        exec("from pooltest import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(self._public_names())

    def test_functions_shadow_their_modules(self):
        """pooltest.evaluate and pooltest.simulate are the functions; importlib reaches
        the modules, where the evaluator variants live."""
        for name in ("evaluate", "simulate"):
            module = importlib.import_module(f"pooltest.{name}")
            assert getattr(pooltest, name) is getattr(module, name)
        evaluators = importlib.import_module("pooltest.evaluate")
        for name in ("eval_individual", "eval_dorfman", "eval_modified", "pooled_metrics"):
            assert callable(getattr(evaluators, name))
            assert not hasattr(pooltest, name)

    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.startswith("pooltest ")

    def test_no_command_exits_one(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_unknown_command_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_runs_with_docstrings_stripped(self):
        """python -OO drops every docstring; the parser must not need one."""
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-OO", "-m", "pooltest.cli", "--version"],
            capture_output=True, text=True, env=env, check=False,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, f"pooltest {__version__}\n", "")

    def test_runs_without_scipy(self, tmp_path):
        """Every command, fit included, runs where scipy cannot be imported."""
        (tmp_path / "obs.csv").write_text("n,k,se\n1,1,0.99\n5,1,0.93\n10,1,0.91\n50,1,0.81\n")
        grid = "'--p', '0.01', '--n-min', '2', '--n-max', '4', '--r-min', '2', '--r-max', '3'"
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from pooltest.cli import main\n"
            "assert main(['evaluate', '--kind', 'modified', '--n', '10', '--r', '3', '--p', '0.01']) == 0\n"
            "assert main(['simulate', '--kind', 'modified', '--n', '10', '--r', '3', '--p', '0.01',"
            " '--subjects', '1000']) == 0\n"
            f"assert main(['sweep', {grid}, '--out', 'sweep']) == 0\n"
            f"assert main(['tables', {grid}, '--out', 'tables']) == 0\n"
            "assert main(['tables', '--sweep-csv', 'sweep/sweep.csv', '--out', 'tables']) == 0\n"
            "assert main(['verify', '--subjects', '2000']) == 0\n"
            "assert main(['fit']) == 0\n"
            "assert main(['fit', '--fit-data', 'obs.csv']) == 0\n"
            "print('all ran')\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=False, cwd=tmp_path
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.splitlines()[-1] == "all ran"


class TestGoldenOutputs:
    """Every file a command writes, run record included, pinned byte for byte.

    Each case runs in a fresh directory holding obs.csv (the built-in fit
    points) and sweep/ (a sweep of SMALL_GRID); "<tmp>" in an argument or a
    golden file stands for that directory, and "<version>" for the package
    version. tests/golden/<case>/ holds exactly the files the case writes.
    """

    SMALL_GRID = ["--p", "0.02", "--p", "0.005", "--n-min", "2", "--n-max", "4", "--r-min", "2", "--r-max", "3"]
    CASES = {
        "evaluate-modified": ["evaluate", "--kind", "modified", "--n", "10", "--r", "3", "--p", "0.01"],
        "evaluate-individual": ["evaluate", "--kind", "individual", "--p", "0.05"],
        "evaluate-variant": [
            "evaluate", "--kind", "modified", "--n", "10", "--r", "3", "--p", "0.01",
            "--linear-term", "positives", "--alpha", "-0.032482", "--sp", "1",
        ],
        "simulate-short-final-pool": [
            "simulate", "--kind", "modified", "--n", "10", "--r", "3", "--p", "0.05",
            "--subjects", "1003", "--seed", "5", "--threads", "2",
        ],
        # Past 2**20 subjects, the per-subject engine's chunk: these pin the count
        # engine's one chunk of full pools, and its short pool's chunk after it.
        "simulate-individual-chunks": [
            "simulate", "--kind", "individual", "--p", "0.02", "--subjects", "2500000", "--seed", "3",
        ],
        "simulate-pooled-chunks": [
            "simulate", "--kind", "dorfman", "--n", "7", "--p", "0.02",
            "--subjects", "2500003", "--seed", "3", "--threads", "2",
        ],
        "sweep": ["sweep", *SMALL_GRID],
        "fit-builtin": ["fit"],
        "fit-data": ["fit", "--fit-data", "<tmp>/obs.csv"],
        "verify": ["verify", "--subjects", "2000", "--seed", "7"],
        "tables-in-memory": ["tables", *SMALL_GRID],
        "tables-from-csv": ["tables", "--sweep-csv", "<tmp>/sweep/sweep.csv"],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_files_match_golden(self, capsys, tmp_path, case):
        (tmp_path / "obs.csv").write_text("n,k,se\n1,1,0.99\n5,1,0.93\n10,1,0.91\n50,1,0.81\n")
        assert main(["sweep", *self.SMALL_GRID, "--out", str(tmp_path / "sweep")]) == 0
        argv = [arg.replace("<tmp>", str(tmp_path)) for arg in self.CASES[case]]
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 0
        capsys.readouterr()
        expected = GOLDEN / case
        assert sorted(f.name for f in out.iterdir()) == sorted(f.name for f in expected.iterdir())
        for golden in expected.iterdir():
            text = (out / golden.name).read_text()
            text = text.replace(str(tmp_path), "<tmp>").replace(f"pooltest {__version__}\n", "pooltest <version>\n")
            assert text == golden.read_text(), golden.name


class TestNegativeFlagValues:
    """fmt writes |x| < 1e-4 in scientific notation; such a negative value is a
    flag's value, not a flag, so a record or a fit result replays as flags."""

    BASE = ["evaluate", "--kind", "dorfman", "--n", "10", "--p", "0.01"]

    @pytest.mark.parametrize("flag, value", [("--beta", "-1.2e-05"), ("--alpha", "-1e-3")])
    def test_separate_value_matches_equals_form(self, capsys, flag, value):
        assert main([*self.BASE, f"{flag}={value}"]) == 0
        joined = capsys.readouterr().out
        assert main([*self.BASE, flag, value]) == 0
        assert capsys.readouterr().out == joined

    def test_record_replays(self, capsys, tmp_path):
        assert main([*self.BASE, "--beta=-1.2e-05", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        pairs = _parse_pairs((tmp_path / "evaluate-run.txt").read_text())
        del pairs["tool"]
        assert pairs["beta"] == "-1.2e-05"
        argv = [pairs.pop("command")]
        for key, value in pairs.items():
            argv += [f"--{key.replace('_', '-')}", value]
        assert main(argv) == 0
        assert capsys.readouterr().out == (tmp_path / "evaluate-result.txt").read_text()


_TINY = st.floats(math.log(1e-12), math.log(0.5)).map(math.exp)
_PREVALENCES = st.one_of(st.sampled_from([1e-12, 1.0 - 1e-12]), _TINY, _TINY.map(lambda q: 1.0 - q))
_POOL_SIZES = st.one_of(st.integers(2, 60), st.integers(2, 10_000))


_RATES = st.floats(0.0, 1.0, exclude_min=True)
_LINEAR_TERMS = st.sampled_from(["pool-size", "positives"])
# fit observations: (n, k, se) with n <= 10,000, 1 <= k <= n and se in [0, 1].
_OBSERVATION_ROWS = st.lists(
    st.integers(1, 10_000).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n), st.floats(0.0, 1.0))),
    min_size=2, max_size=8,
)


@st.composite
def _model_flags(draw):
    """The dilution-model flags over the accepted domain, floats written with repr."""
    coefficient = st.one_of(st.floats(-1.0, 1.0), st.floats(-1e308, 1e308))
    return [
        "--se-i", repr(draw(_RATES)), "--sp", repr(draw(_RATES)),
        "--alpha", repr(draw(coefficient)), "--beta", repr(draw(coefficient)),
        "--linear-term", draw(_LINEAR_TERMS),
    ]


@st.composite
def _shape_flags(draw):
    kind = draw(st.sampled_from(["individual", "dorfman", "modified"]))
    flags = ["--kind", kind, "--p", repr(draw(_PREVALENCES))]
    if kind != "individual":
        flags += ["--n", str(draw(_POOL_SIZES))]
    if kind == "modified":
        flags += ["--r", str(draw(st.integers(1, 100)))]
    return flags


@st.composite
def _grid_flags(draw):
    n_min = draw(_POOL_SIZES)
    r_min = draw(st.integers(1, 100))
    flags = []
    for p in draw(st.lists(_PREVALENCES, min_size=1, max_size=2)):
        flags += ["--p", repr(p)]
    return flags + [
        "--n-min", str(n_min), "--n-max", str(min(n_min + draw(st.integers(0, 3)), 10_000)),
        "--r-min", str(r_min), "--r-max", str(min(r_min + draw(st.integers(0, 2)), 100)),
    ]


def _run(argv):
    """main(argv) with its exit code, stdout and stderr; it must not raise."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "usage:" not in err.getvalue(), (argv, err.getvalue())
    return code, out.getvalue(), err.getvalue()


class TestClampWarning:
    """A pool size at which the curve clamps Se(n, k) to 0 for every k, n >= 789
    under the Bateman preset, draws one warning on stderr and none in any file."""

    WARNING = "pooltest: warning: the dilution curve clamps Se(n, k) to 0 for every k at {}; such pools never test positive\n"
    GRID = ["--p", "0.01", "--n-min", "787", "--n-max", "790", "--r-min", "1", "--r-max", "1"]
    CASES = {
        "evaluate": (["evaluate", "--kind", "dorfman", "--n", "800", "--p", "0.01"], "n = 800"),
        # The raw curve is exactly 0 for every k at n = 10, which clamps too.
        "evaluate-raw-zero": (
            ["evaluate", "--kind", "dorfman", "--n", "10", "--p", "0.01", "--se-i", "0.5", "--alpha", "0", "--beta", "-0.05"],
            "n = 10",
        ),
        # Two full pools of 800 and a short one of 1, which detects.
        "simulate": (
            ["simulate", "--kind", "modified", "--n", "800", "--r", "2", "--p", "0.01", "--subjects", "1601"],
            "n = 800",
        ),
        "sweep": (["sweep", *GRID], "2 pool sizes from n = 789 to 790"),
        "tables": (["tables", *GRID], "2 pool sizes from n = 789 to 790"),
        # A steep linear drift clamps verify's pools of 10, not its individual tests.
        "verify": (["verify", "--subjects", "2000", "--beta", "-1"], "n = 10"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_warning_on_stderr_and_none_in_files(self, tmp_path, case):
        argv, where = self.CASES[case]
        code, out, err = _run([*argv, "--out", str(tmp_path / "out")])
        assert (code, err) == (0, self.WARNING.format(where))
        assert "clamps" not in out
        assert all("clamps" not in path.read_text() for path in (tmp_path / "out").iterdir())

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--kind", "dorfman", "--n", "788", "--p", "0.01"],
        # Only a short pool of 700 runs.
        ["simulate", "--kind", "dorfman", "--n", "800", "--p", "0.01", "--subjects", "700"],
        ["evaluate", "--kind", "individual", "--p", "0.01", "--beta", "-1"],
    ])
    def test_no_warning_where_every_pool_size_can_detect(self, argv):
        assert _run(argv)[::2] == (0, "")

    def test_persisted_sweep_is_not_checked_again(self, tmp_path):
        assert _run(["sweep", *self.GRID, "--out", str(tmp_path)])[0] == 0
        assert _run(["tables", "--sweep-csv", str(tmp_path / "sweep.csv"), "--out", str(tmp_path)])[::2] == (0, "")

    @pytest.mark.parametrize("argv, sizes", [
        (["sweep"], list(range(2, 51))),
        (["tables"], list(range(2, 51))),
        (["sweep", *GRID], [787, 788, 789, 790]),
        (["evaluate", "--kind", "modified", "--n", "10", "--r", "3", "--p", "0.01"], [10]),
        (CASES["evaluate"][0], [800]),
    ])
    def test_the_kernels_se_rows_serve_the_warning(self, tmp_path, monkeypatch, argv, sizes):
        """One Se row per pool size, the kernel's, and no second one for the
        warning: the default sweep asks the curve 49 times, not 98. The
        sweep's mates' rows are Pascal steps from one binomial_pmf_row call,
        made through the module's name."""
        se_rows, pmf_rows = [], []
        sensitivity = DilutionModel.sensitivity
        monkeypatch.setattr(DilutionModel, "sensitivity", lambda self, n, k: se_rows.append(n) or sensitivity(self, n, k))
        monkeypatch.setattr(kernels, "binomial_pmf_row", lambda n, p: pmf_rows.append(n) or pmf_row(n, p))
        assert _run([*argv, "--out", str(tmp_path / "out")])[0] == 0
        assert se_rows == sizes
        assert pmf_rows == [sizes[0] - 1]


_DOMAIN = settings(
    deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestMainOverTheDomain:
    """main() over the accepted domain: it never raises, exits 0, 1 or 2, and
    takes every in-domain value as given, without a usage error."""

    @settings(_DOMAIN, max_examples=50)
    @given(_shape_flags(), _model_flags())
    def test_evaluate(self, shape, model):
        code, out, _ = _run(["evaluate", *shape, *model])
        if code == 0:
            for key, value in _parse_pairs(out).items():
                assert math.isfinite(float(value)), (key, value)
                if key.startswith("posterior"):
                    assert 0.0 <= float(value) <= 1.0, (key, value)

    @settings(_DOMAIN, max_examples=20)
    @given(_shape_flags(), _model_flags(), st.integers(1, 30_000), st.integers(0, 2**63), st.integers(1, 3))
    def test_simulate(self, shape, model, subjects, seed, threads):
        _run([
            "simulate", *shape, *model,
            "--subjects", str(subjects), "--seed", str(seed), "--threads", str(threads),
        ])

    @settings(_DOMAIN, max_examples=10)
    @given(_grid_flags(), _model_flags())
    def test_sweep_and_tables(self, tmp_path, grid, model):
        code, _, _ = _run(["sweep", *grid, *model, "--out", str(tmp_path / "sweep")])
        if code == 0:
            # Every sweep.csv the sweep writes reads back.
            csv_path = str(tmp_path / "sweep" / "sweep.csv")
            code, _, _ = _run(["tables", "--sweep-csv", csv_path, "--out", str(tmp_path / "csv")])
            assert code == 0
        _run(["tables", *grid, *model, "--out", str(tmp_path / "memory")])

    @settings(_DOMAIN, max_examples=30)
    @given(_OBSERVATION_ROWS, _RATES, _RATES, _LINEAR_TERMS)
    def test_fit(self, tmp_path, rows, se_i, sp, linear_term):
        data = tmp_path / "obs.csv"
        data.write_text("n,k,se\n" + "".join(f"{n},{k},{se!r}\n" for n, k, se in rows))
        code, out, _ = _run([
            "fit", "--fit-data", str(data), "--se-i", repr(se_i), "--sp", repr(sp), "--linear-term", linear_term,
        ])
        if code == 0:
            for key in ("alpha", "beta", "mse"):
                value = _parse_pairs(out)[key]
                assert math.isfinite(float(value)), (key, value)
