import ast
import dataclasses
import importlib.machinery
import inspect
import json
import math
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import emden.cli
import emden.solver
from emden import errors, estimator, laguerre, operators, reference, solver, validation
from emden.cli import (
    EXIT_MISMATCH,
    EXIT_NO_ZERO,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    main,
    run_first_zero,
    run_scan_L,
    run_solve,
)
from emden.errors import NoZeroFound, ParameterError
from emden.estimator import LaneEmdenSolver
from emden.laguerre import BasisParams
from emden.solver import LaneEmdenProblem, SolverConfig, _lockstep_newton_solve, scan_L_reports
from conftest import STALLED_ARGV


def run_json(capsys, argv):
    status = main(argv)
    out = capsys.readouterr().out
    return status, json.loads(out)


def run_text(capsys, argv):
    status = main(argv)
    return status, capsys.readouterr().out


class TestSolveCommand:
    def test_json_document_shape(self, capsys):
        status, doc = run_json(capsys, ["solve", "--m", "3", "--n", "7", "--eval", "1.0"])
        assert status == EXIT_OK
        assert set(doc) == {"config", "solution", "evaluations"}
        assert doc["config"]["command"] == "solve"
        assert doc["config"]["m"] == 3.0
        assert len(doc["solution"]["b"]) == 8
        assert doc["solution"]["converged"] is True
        assert doc["solution"]["b"][0] == 1.0
        assert doc["evaluations"] == [[1.0, pytest.approx(0.854906, abs=1e-6)]]

    def test_boundary_evaluation_is_exact(self, capsys):
        status, doc = run_json(capsys, ["solve", "--m", "3", "--n", "7", "--eval", "0"])
        assert status == EXIT_OK
        assert doc["evaluations"] == [[0.0, 1.0]]

    def test_boundary_evaluation_csv(self, capsys):
        status, out = run_text(capsys, ["solve", "--m", "3", "--n", "7",
                                        "--eval", "0", "--format", "csv"])
        assert status == EXIT_OK
        assert out == "x,y\n0.000000,1.000000\n"

    def test_value_near_published_table(self, capsys):
        status, out = run_text(capsys, ["solve", "--m", "3", "--n", "7", "--L", "1",
                                        "--eval", "1.0", "--format", "csv"])
        assert status == EXIT_OK
        value = float(out.splitlines()[1].split(",")[1])
        assert value == pytest.approx(0.855058, abs=2e-4)

    def test_sine_ratio_zero(self, capsys):
        status, doc = run_json(capsys, ["solve", "--m", "1", "--n", "12",
                                        "--eval", str(np.pi)])
        assert status == EXIT_OK
        assert doc["solution"]["converged"] is True
        assert abs(doc["evaluations"][0][1]) <= 1e-2

    def test_default_plot_grid(self, capsys):
        status, doc = run_json(capsys, ["solve", "--m", "3", "--n", "7"])
        assert status == EXIT_OK
        evals = doc["evaluations"]
        assert len(evals) == 201
        assert evals[0] == [0.0, 1.0]
        # grid extends 20% past the first crossing
        assert evals[-1][0] == pytest.approx(1.2 * 6.79648150, abs=1e-4)

    def test_non_convergence_still_emits(self, capsys):
        status, doc = run_json(capsys, ["solve"] + STALLED_ARGV)
        assert status == EXIT_NOT_CONVERGED
        assert doc["solution"]["converged"] is False
        assert len(doc["evaluations"]) == 201

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command", ["solve", "first-zero"])
    def test_a_non_finite_number_is_json_null(self, command, capsys):
        # at L = 1e-300 the residual norm is NaN, which RFC 8259 JSON cannot hold
        def no_constant(name):
            raise AssertionError(f"{name} in the JSON output")

        status, out = run_text(capsys, [command, "--m", "3", "--n", "7", "--L", "1e-300"])
        assert status == EXIT_NOT_CONVERGED
        assert json.loads(out, parse_constant=no_constant)["solution"]["residual_norm"] is None

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        argv = ["solve", "--m", "3", "--n", "7", "--eval", "0,1,2"]
        _, stdout_doc = run_json(capsys, argv)
        out_path = tmp_path / "run.json"
        status = main(argv + ["--out", str(out_path)])
        assert status == EXIT_OK
        assert json.loads(out_path.read_text()) == stdout_doc


class TestFirstZeroCommand:
    def test_reference_comparison(self, capsys):
        status, doc = run_json(capsys, ["first-zero", "--m", "3", "--n", "7", "--L", "1"])
        assert status == EXIT_OK
        record = doc["first_zero"]
        assert record["x_star"] == pytest.approx(6.79648150, abs=1e-6)
        assert record["reference"] == 6.89684862
        assert record["abs_delta"] == pytest.approx(
            abs(record["x_star"] - record["reference"]), rel=1e-3)
        lo, hi = record["bracket"]
        assert lo <= record["x_star"] <= hi

    def test_no_reference_for_fractional_index(self, capsys):
        status, doc = run_json(capsys, ["first-zero", "--m", "2.5", "--n", "8", "--L", "0.5"])
        assert status == EXIT_OK
        assert "reference" not in doc["first_zero"]

    def test_csv_row(self, capsys):
        status, out = run_text(capsys, ["first-zero", "--m", "3", "--n", "7",
                                        "--format", "csv"])
        assert status == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "m,n,L,x_star,reference,abs_delta"
        fields = lines[1].split(",")
        assert fields[0] == "3.000000"
        assert fields[3] == "6.79648150"
        assert fields[4] == "6.89684862"

    def test_no_zero_exit(self, capsys):
        status, doc = run_json(capsys, ["first-zero", "--m", "5", "--n", "10"])
        assert status == EXIT_NO_ZERO
        assert doc["first_zero"] is None
        assert "no sign change" in doc["reason"]

    def test_non_convergence_exit(self, capsys):
        status, doc = run_json(capsys, ["first-zero"] + STALLED_ARGV)
        assert status == EXIT_NOT_CONVERGED
        assert doc["first_zero"] is None


class TestScanLCommand:
    def test_report_structure(self, capsys):
        status, doc = run_json(capsys, ["scan-L", "--m", "3", "--n", "7",
                                        "--L-grid", "0.5:2.0:4"])
        assert status == EXIT_OK
        records = doc["records"]
        assert len(records) == 4
        assert [r["L"] for r in records] == [0.5, 1.0, 1.5, 2.0]
        flagged = [r for r in records if r["recommended"]]
        assert len(flagged) == 1
        assert doc["recommended_L"] == flagged[0]["L"]
        assert flagged[0]["converged"]
        for r in records:
            assert len(r["coeff_abs"]) == 8
            assert r["tail_magnitude"] == pytest.approx(max(r["coeff_abs"][-3:]), rel=1e-3)

    def test_recommendation_minimizes_tail(self, capsys):
        _, doc = run_json(capsys, ["scan-L", "--m", "3", "--n", "7",
                                   "--L-grid", "0.5:2.0:4"])
        converged = [r for r in doc["records"] if r["converged"]]
        best = min(converged, key=lambda r: r["tail_magnitude"])
        assert best["recommended"]

    def test_single_point_grid(self, capsys):
        status, doc = run_json(capsys, ["scan-L", "--m", "3", "--n", "7",
                                        "--L-grid", "1.0:1.0:1"])
        assert status == EXIT_OK
        assert len(doc["records"]) == 1
        assert doc["recommended_L"] == 1.0

    def test_grid_containing_canonical_scale_converges(self, capsys):
        _, doc = run_json(capsys, ["scan-L", "--m", "3", "--n", "7",
                                   "--L-grid", "0.5:1.5:3"])
        by_L = {r["L"]: r for r in doc["records"]}
        assert by_L[1.0]["converged"]

    def test_all_failed_exit(self, capsys):
        status, doc = run_json(capsys, ["scan-L", "--m", "3", "--n", "6",
                                        "--L-grid", "4:4:1"])
        assert status == EXIT_NOT_CONVERGED
        assert doc["recommended_L"] is None
        assert all(not r["converged"] for r in doc["records"])

    def test_csv_header(self, capsys):
        status, out = run_text(capsys, ["scan-L", "--m", "3", "--n", "4",
                                        "--L-grid", "0.8:1.2:2", "--format", "csv"])
        assert status == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == ("L,converged,recommended,tail_magnitude,"
                            "b_abs_0,b_abs_1,b_abs_2,b_abs_3,b_abs_4")
        assert len(lines) == 3


class TestReproduceTablesCommand:
    def test_csv_sections(self, capsys):
        status, out = run_text(capsys, ["reproduce-tables", "--format", "csv"])
        assert status == EXIT_MISMATCH
        lines = out.splitlines()
        assert lines[0] == "x,present,reference,abs_delta"
        assert lines[1].startswith("0.000000,1.000000,1.000000,")
        blank = lines.index("")
        assert lines[blank + 1] == "m,n,L,present,reference,abs_delta"
        zero_rows = lines[blank + 2:]
        assert [row.split(",")[0] for row in zero_rows] == ["2", "3", "4"]

    def test_json_document(self, capsys):
        status, doc = run_json(capsys, ["reproduce-tables"])
        assert status == EXIT_MISMATCH
        assert doc["all_within_tolerance"] is False
        profile = doc["profile_table"]
        assert profile["n"] == 7 and profile["L"] == 1.0
        assert [row["x"] for row in profile["rows"]] == [
            0.0, 0.1, 0.5, 1.0, 5.0, 6.0, 6.8, 6.896]
        zero_rows = doc["zero_table"]["rows"]
        assert [row["m"] for row in zero_rows] == [2.0, 3.0, 4.0]
        assert zero_rows[1]["present"] == pytest.approx(6.79648150, abs=1e-6)
        assert zero_rows[1]["reference"] == 6.89684862

    @pytest.mark.parametrize("tol", [1e-12, 1e-9])
    def test_each_setup_solved_once_at_the_given_tol(self, tol, monkeypatch, capsys):
        calls = []

        def counted(problem, configs):
            # every solve runs through the one Newton loop, a single solve as
            # a one-member stack and a scan with all its members together
            calls.extend((problem.m, c.n, c.L, c.newton_tol) for c in configs)
            return _lockstep_newton_solve(problem, configs)

        monkeypatch.setattr(emden.solver, "_lockstep_newton_solve", counted)
        assert main(["reproduce-tables", "--tol", repr(tol)]) in (EXIT_OK, EXIT_MISMATCH)
        capsys.readouterr()
        # the m=3 profile solve, then a 15-point scan each for m=2 and m=4
        assert len(calls) == 31
        assert len(set(calls)) == len(calls)
        assert {call[3] for call in calls} == {tol}

    def test_a_second_run_solves_only_the_two_scans(self, monkeypatch, capsys):
        runs, searches = [], []
        search = reference.first_zero_of

        def counted(problem, configs):
            runs.append((problem.m, len(configs)))
            return _lockstep_newton_solve(problem, configs)

        def counted_search(f, **kw):
            searches.append(kw)
            return search(f, **kw)

        monkeypatch.setattr(emden.solver, "_lockstep_newton_solve", counted)
        monkeypatch.setattr(reference, "first_zero_of", counted_search)
        outputs = []
        for _ in range(2):
            assert main(["reproduce-tables"]) == EXIT_MISMATCH
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        # the m=3 profile solve and its zero are kept; each scan's members
        # are new solutions, so their zeros are searched again
        assert runs == [(3.0, 1), (2.0, 15), (4.0, 15), (2.0, 15), (4.0, 15)]
        assert len(searches) == 5

    @pytest.mark.parametrize("tol", [[1e-9], "abc"])
    def test_a_bad_tol_raises_parameter_error(self, tol):
        with pytest.raises(ParameterError, match="newton_tol must be a real number"):
            emden.cli.run_reproduce_tables(RunConfig(command="reproduce-tables", tol=tol))

    def test_unconverged_profile_solve(self, capsys):
        # no solve meets a tolerance of 1e-300, so the m=3 profile solve ends the run
        status, doc = run_json(capsys, ["reproduce-tables", "--tol", "1e-300"])
        assert status == EXIT_NOT_CONVERGED
        assert doc == {"config": {"command": "reproduce-tables"}, "profile_table": None,
                       "zero_table": None, "all_within_tolerance": False}
        status, out = run_text(capsys, ["reproduce-tables", "--tol", "1e-300", "--format", "csv"])
        assert status == EXIT_NOT_CONVERGED
        assert out == "x,present,reference,abs_delta\n"

    def test_a_scan_solve_without_a_zero_is_partial(self, monkeypatch, capsys):
        # the solve the m=2 scan recommends has no zero to the zero search
        scanned = {}

        def recorded(m, tol):
            scanned[m] = scanned_solution(m, tol)
            return scanned[m]

        def no_zero_at_m2(solution):
            if solution is scanned.get(2.0):
                raise NoZeroFound("no sign change")
            return first_zero(solution)

        scanned_solution, first_zero = emden.cli._scanned_solution, emden.cli.first_zero
        monkeypatch.setattr(emden.cli, "_scanned_solution", recorded)
        monkeypatch.setattr(emden.cli, "first_zero", no_zero_at_m2)
        status, doc = run_json(capsys, ["reproduce-tables"])
        assert status == EXIT_NOT_CONVERGED
        assert doc["all_within_tolerance"] is False
        assert [row["m"] for row in doc["zero_table"]["rows"]] == [3.0, 4.0]

    def test_scan_without_a_recommendation_is_partial(self, monkeypatch, capsys):
        monkeypatch.setattr(emden.cli, "_scanned_solution", lambda m, tol: None)
        status, doc = run_json(capsys, ["reproduce-tables"])
        assert status == EXIT_NOT_CONVERGED
        assert doc["all_within_tolerance"] is False
        assert [row["m"] for row in doc["zero_table"]["rows"]] == [3.0]


class TestExitCodes:
    def test_usage_errors(self, capsys):
        assert main(["solve", "--m", "3"]) == EXIT_USAGE          # missing --n
        capsys.readouterr()
        assert main(["bogus-command"]) == EXIT_USAGE
        capsys.readouterr()
        assert main(["scan-L", "--m", "3", "--n", "7",
                     "--L-grid", "0:1:5"]) == EXIT_USAGE          # lo must be > 0
        capsys.readouterr()
        assert main(["scan-L", "--m", "3", "--n", "7",
                     "--L-grid", "nonsense"]) == EXIT_USAGE
        capsys.readouterr()
        for spec, message in (("1:inf:3", "L_grid hi must be finite"),
                              ("nan:2:3", "L_grid lo must be finite")):
            assert main(["scan-L", "--m", "3", "--n", "7", "--L-grid", spec]) == EXIT_USAGE
            assert message in capsys.readouterr().err
        assert main(["solve", "--m", "3", "--n", "7",
                     "--eval", "abc"]) == EXIT_USAGE
        capsys.readouterr()
        assert main(["solve", "--m", "3", "--n", "40"]) == EXIT_USAGE  # degree envelope
        capsys.readouterr()
        assert main(["solve", "--m", "3", "--n", "7",
                     "--eval", "-1.0"]) == EXIT_USAGE
        capsys.readouterr()
        assert main(["solve", "--m", "3", "--n", "7", "--eval", ","]) == EXIT_USAGE
        assert "eval_points must be one-dimensional with at least one point" in capsys.readouterr().err
        for spec, message in (("1:2:x", "grid must look like lo:hi:count"),
                              ("2:1:3", "L_grid hi must be >= 2.0"),
                              ("1:2:0", "L_grid count must be >= 1")):
            assert main(["scan-L", "--m", "3", "--n", "7", "--L-grid", spec]) == EXIT_USAGE
            assert message in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command,option", [("scan-L", ["--L-grid", "0.5:4:15"]),
                                                ("solve", ["--L", "2"])])
    def test_numerical_error_exit(self, command, option, tmp_path, capsys):
        # the solve at L = 2 meets a singular Jacobian; in the scan that holds
        # it, the member at L = 3.5 meets one first
        where = {"scan-L": "L=3.5, iteration 22", "solve": "L=2.0, iteration 33"}[command]
        out = tmp_path / "run.json"
        status = main([command, "--m", "0.1428706620038983", "--n", "9",
                       "--alpha", "2.9521810169907963", *option, "--out", str(out)])
        captured = capsys.readouterr()
        assert status == EXIT_NOT_CONVERGED
        assert captured.err == f"emden: error: singular Jacobian: pivot below 1e-14 of the largest ({where})\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_power_overflow_exits_quietly(self, capsys):
        # at m = 1e6 the power overflows on the way to a stall: exit 2 and
        # nothing on stderr
        assert main(["solve", "--m", "1e6", "--n", "7"]) == EXIT_NOT_CONVERGED
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
    def test_unwritable_out_is_a_usage_error(self, where, tmp_path, capsys):
        out = tmp_path / "missing" / "run.json" if where == "missing-directory" else tmp_path
        status = main(["solve", "--m", "3", "--n", "7", "--out", str(out)])
        captured = capsys.readouterr()
        assert status == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("emden: error: cannot write the output: ")
        assert captured.err.count("\n") == 1 and str(out) in captured.err
        assert not (tmp_path / "missing").exists()

    def test_scan_reaching_envelope_edge(self, capsys):
        assert main(["first-zero", "--m", "5", "--n", "12", "--L", "0.052"]) == EXIT_NO_ZERO
        capsys.readouterr()
        assert main(["solve", "--m", "5", "--n", "12", "--L", "0.041"]) == EXIT_OK
        capsys.readouterr()

    def test_help_exits_clean(self, capsys):
        assert main(["--help"]) == EXIT_OK
        capsys.readouterr()
        assert main(["solve", "--help"]) == EXIT_OK
        capsys.readouterr()


class TestDeterminismAndEquivalence:
    @pytest.mark.parametrize("argv", [
        ["solve", "--m", "3", "--n", "7", "--eval", "0,1,3,6"],
        ["first-zero", "--m", "3", "--n", "7"],
        ["scan-L", "--m", "3", "--n", "7", "--L-grid", "0.5:1.5:3"],
        ["reproduce-tables"],
    ])
    def test_byte_determinism(self, argv, tmp_path):
        paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
        for fmt in ("json", "csv"):
            for path in paths:
                main(argv + ["--format", fmt, "--out", str(path)])
            assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_json_csv_numeric_equivalence(self, capsys):
        argv = ["solve", "--m", "3", "--n", "7", "--eval", "0,1.0,2.5,6.0"]
        _, doc = run_json(capsys, argv)
        _, csv_out = run_text(capsys, argv + ["--format", "csv"])
        rows = [line.split(",") for line in csv_out.splitlines()[1:]]
        for (jx, jy), (cx, cy) in zip(doc["evaluations"], rows):
            assert float(cx) == jx
            assert float(cy) == jy

    def test_first_zero_json_csv_equivalence(self, capsys):
        argv = ["first-zero", "--m", "3", "--n", "7"]
        _, doc = run_json(capsys, argv)
        _, csv_out = run_text(capsys, argv + ["--format", "csv"])
        fields = csv_out.splitlines()[1].split(",")
        assert float(fields[3]) == doc["first_zero"]["x_star"]
        assert float(fields[5]) == doc["first_zero"]["abs_delta"]


# Bad L_grid values that --L-grid text can spell, each with the whole message
# of the ParameterError run_scan_L raises for it
BAD_GRID_VALUES = [
    ((0.5, 4.0, 0), "L_grid count must be >= 1, got 0"),
    ((0.0, 4.0, 3), "L_grid lo must be > 0.0, got 0.0"),
    ((0.5, -1.0, 3), "L_grid hi must be >= 0.5, got -1.0"),
    ((2.0, 1.0, 3), "L_grid hi must be >= 2.0, got 1.0"),
    ((0.5, float("inf"), 3), "L_grid hi must be finite, got inf"),
    ((float("nan"), 4.0, 3), "L_grid lo must be finite, got nan"),
]


class TestRunnersDirect:
    def test_run_solve_accepts_config_object(self):
        config = RunConfig(command="solve", m=3.0, n=7, eval_points=(1.0,))
        status, doc, csv_text = run_solve(config)
        assert status == EXIT_OK
        assert csv_text.startswith("x,y\n")
        assert doc["config"]["L"] == 1.0

    @pytest.mark.parametrize("points, message", [
        (("abc",), "must be real numbers"), (("1.5",), "must be real numbers"),
        ((True,), "must be real numbers"), ((1.0, True), "must be real numbers"),
        ((float("nan"),), "must be finite"), ((-1.0,), "must be nonnegative"),
    ])
    def test_eval_points_read_as_points(self, points, message):
        config = RunConfig(command="solve", m=3.0, n=7, eval_points=points)
        with pytest.raises(ParameterError, match="eval_points " + message):
            run_solve(config)

    @pytest.mark.parametrize("points", [("abc",), (float("nan"),), (-1.0,)])
    def test_eval_points_read_before_the_solve(self, points, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return newton_solve(*args)

        newton_solve = emden.cli.newton_solve
        monkeypatch.setattr(emden.cli, "newton_solve", counted)
        with pytest.raises(ParameterError, match="^eval_points must be"):
            run_solve(RunConfig(command="solve", m=3.0, n=7, eval_points=points))
        assert calls == []

    @pytest.mark.parametrize("points, shape", [((), "(0,)"), (((1.0, 2.0),), "(1, 2)")])
    def test_empty_or_nested_eval_points_raise_before_the_solve(self, points, shape, monkeypatch):
        calls = []
        monkeypatch.setattr(emden.solver, "_lockstep_newton_solve",
                            lambda problem, configs: calls.append(configs))
        with pytest.raises(ParameterError, match=re.escape(
                f"eval_points must be one-dimensional with at least one point, got shape {shape}")):
            run_solve(RunConfig(command="solve", m=3.0, n=7, eval_points=points))
        assert calls == []

    def test_solve_formats_each_cell_once(self, monkeypatch):
        # the CSV field and the JSON value of a cell come from one format call
        cells = []

        def counted(column, fmt):
            cells.extend(column)
            return format_column(column, fmt)

        format_column = emden.cli._format_column
        monkeypatch.setattr(emden.cli, "_format_column", counted)
        status, doc, csv_text = run_solve(RunConfig(command="solve", m=3.0, n=7))
        monkeypatch.undo()
        solution_cells = 7 + 2  # b and the residual norm
        assert len(cells) == 2 * len(doc["evaluations"]) + solution_cells == 402 + solution_cells
        assert csv_text == run_solve(RunConfig(command="solve", m=3.0, n=7))[2]

    def test_every_default_is_solver_configs(self):
        # alpha, L, tol and max_iter have one source: SolverConfig's fields
        defaults = SolverConfig(n=7)
        expected = (defaults.alpha, defaults.L, defaults.newton_tol, defaults.max_iter)
        scan = inspect.signature(scan_L_reports).parameters
        assert (scan["tol"].default, scan["max_iter"].default) == expected[2:]
        est = LaneEmdenSolver()
        assert (est.alpha, est.L, est.tol, est.max_iter) == expected
        parser = emden.cli.build_parser()
        for config in (RunConfig(command="solve"),
                       RunConfig(**vars(parser.parse_args(["solve", "--m", "3", "--n", "7"]))),
                       RunConfig(**vars(parser.parse_args(["reproduce-tables"])))):
            assert (config.alpha, config.L, config.tol, config.max_iter) == expected

    def test_run_first_zero_direct(self):
        config = RunConfig(command="first-zero", m=5.0, n=10)
        status, doc, _ = run_first_zero(config)
        assert status == EXIT_NO_ZERO

    @pytest.mark.parametrize("L_grid, message", BAD_GRID_VALUES + [
        ((0.5, 4.0, 2.5), "L_grid count must be an integer"),
        ((0.5, 4.0, "3"), "L_grid count must be an integer"),
        (None, "L_grid must be \\(lo, hi, count\\), got None"),
        ((0.5, 4.0), "L_grid must be \\(lo, hi, count\\)"),
        ((0.5, 4.0, 3, 1), "L_grid must be \\(lo, hi, count\\)"),
        (("a", 4.0, 3), "L_grid lo must be a real number"),
        ((0.5, None, 3), "L_grid hi must be a real number"),
        ((True, 4.0, 3), "L_grid lo must be a real number"),
    ])
    def test_bad_scan_grid_raises_before_any_solve(self, monkeypatch, L_grid, message):
        calls = []
        monkeypatch.setattr(emden.solver, "_lockstep_newton_solve",
                            lambda problem, configs: calls.append(configs))
        config = RunConfig(command="scan-L", m=3.0, n=7, L_grid=L_grid)
        with pytest.raises(ParameterError, match=message):
            run_scan_L(config)
        assert calls == []

    @pytest.mark.parametrize("L_grid, message", BAD_GRID_VALUES)
    def test_bad_grid_text_exits_with_the_runners_message(self, monkeypatch, capsys, L_grid, message):
        # the parser only reads the text; run_scan_L's one check gives the line
        calls = []
        monkeypatch.setattr(emden.solver, "_lockstep_newton_solve",
                            lambda problem, configs: calls.append(configs))
        spec = ":".join(map(str, L_grid))
        assert main(["scan-L", "--m", "3", "--n", "7", "--L-grid", spec]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"emden: error: {message}\n")
        assert calls == []

    @pytest.mark.parametrize("argv", [
        ["solve", "--m", "-0.0", "--n", "7", "--alpha", "-0.0", "--eval", "1"],
        ["first-zero", "--m", "-0.0", "--n", "7", "--alpha", "-0.0"],
        ["scan-L", "--m", "-0.0", "--n", "7", "--alpha", "-0.0", "--L-grid", "1:2:2"],
    ], ids=lambda argv: argv[0])
    def test_a_zero_m_and_alpha_are_echoed_as_solved(self, capsys, argv):
        # the solve reads -0.0 as 0.0; the config echo and the first-zero
        # row report the values it used
        status, doc = run_json(capsys, argv)
        assert status == EXIT_OK
        assert [math.copysign(1.0, doc["config"][name]) for name in ("m", "alpha")] == [1.0, 1.0]
        status, text = run_text(capsys, argv + ["--format", "csv"])
        assert status == EXIT_OK
        if argv[0] == "first-zero":
            assert text.splitlines()[1].startswith("0.000000,7,1.000000,")
            assert doc["first_zero"]["x_star"] > 0.0

    def test_run_scan_direct(self):
        config = RunConfig(command="scan-L", m=3.0, n=7, L_grid=(0.9, 1.1, 2))
        status, doc, _ = run_scan_L(config)
        assert status == EXIT_OK
        assert len(doc["records"]) == 2


class TestPlainFloats:
    """The runners tabulate Python floats where they used to pass np.float64;
    every column format gives both the same CSV text and JSON value."""

    @given(st.floats())
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(-2.2250738585072014e-309)
    @example(1e300)
    @example(-1e300)
    @example(-4e-7)  # -0.000000 at .6f
    @example(-4e-9)  # -0.00000000 at .8f
    def test_numpy_and_python_floats_format_alike(self, v):
        columns = tuple((fmt, fmt) for fmt in (".6f", ".8f", ".3e", "g"))
        tables = [emden.cli._Table(columns, [(x,) * len(columns)]) for x in (np.float64(v), float(v))]
        assert tables[0].csv() == tables[1].csv()
        assert json.dumps(tables[0].json_rows()) == json.dumps(tables[1].json_rows())
        assert (json.dumps(emden.cli._values([np.float64(v)], ".12g"))
                == json.dumps(emden.cli._values([float(v)], ".12g")))


def child_env():
    """Environment for a child interpreter that imports the emden under test.

    pytest's own pythonpath setting reaches only this process, so the
    directory holding the imported package goes first on PYTHONPATH.
    """
    env = dict(os.environ)
    root = str(Path(emden.cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


class TestModuleEntryPoint:
    def test_subprocess_end_to_end(self):
        proc = subprocess.run(
            [sys.executable, "-m", "emden", "solve", "--m", "3", "--n", "7", "--eval", "0"],
            capture_output=True, text=True, timeout=120, env=child_env())
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["evaluations"] == [[0.0, 1.0]]

    def test_library_import_leaves_cli_unloaded(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, emden; print('emden.cli' in sys.modules)"],
            capture_output=True, text=True, timeout=120, env=child_env())
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False"

    def test_subcommands_load_no_public_scipy_subpackage(self, tmp_path):
        # Every subcommand, run in one fresh interpreter, must leave no public
        # scipy subpackage loaded: the LAPACK routines come from scipy's
        # extension file without scipy.linalg. The reference profile's spline
        # loads scipy.interpolate on first use, which loads scipy.optimize
        # itself.
        script = """
import json, sys
import emden.cli
from emden.reference import shooting_oracle
out = sys.argv[1]
runs = [
    ["solve", "--m", "3", "--n", "12"],
    ["solve", "--m", "3", "--n", "12", "--format", "csv"],
    ["first-zero", "--m", "3", "--n", "7"],
    ["first-zero", "--m", "5", "--n", "12", "--L", "0.9"],
    ["scan-L", "--m", "2", "--n", "6", "--L-grid", "0.5:4.0:15"],
    ["reproduce-tables"],
]
status = [emden.cli.main(argv + ["--out", f"{out}/{k}.txt"]) for k, argv in enumerate(runs)]
def subpackages():
    return sorted(name for name, module in sys.modules.items()
                  if name.startswith("scipy.") and name.count(".") == 1
                  and not name[6:].startswith("_") and hasattr(module, "__path__"))
before = subpackages()
x_star = shooting_oracle(3.0, 8.0).first_zero()
print(json.dumps({"status": status, "before": before, "x_star": x_star,
                  "after": subpackages()}))
"""
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              capture_output=True, text=True, timeout=300, env=child_env())
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["status"] == [EXIT_OK, EXIT_OK, EXIT_OK, EXIT_NO_ZERO, EXIT_OK, EXIT_MISMATCH]
        assert all((tmp_path / f"{k}.txt").stat().st_size > 0 for k in range(6))
        assert doc["before"] == []
        assert round(doc["x_star"], 8) == 6.89684842
        assert {"scipy.interpolate", "scipy.optimize"} <= set(doc["after"])

    def test_scipy_imports_in_the_package(self):
        # scipy.interpolate imports scipy.optimize itself, so only the source
        # shows which scipy modules the package imports, and where
        def imports(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from imports(child, scope + (child.name,))
                    continue
                if isinstance(child, ast.Import):
                    yield from ((".".join(scope), alias.name) for alias in child.names)
                elif isinstance(child, ast.ImportFrom) and not child.level:
                    yield ".".join(scope), child.module
                yield from imports(child, scope)

        package = Path(emden.cli.__file__).resolve().parent
        found = {(path.name, scope, module)
                 for path in package.glob("*.py")
                 for scope, module in imports(ast.parse(path.read_text()), ())
                 if module.split(".")[0] == "scipy"}
        assert found == {("_lapack.py", "", "scipy.linalg.lapack"),
                         ("reference.py", "ReferenceProfile.interpolant", "scipy.interpolate")}

    def test_solve_loads_none_of_the_modules_scipy_linalg_brings(self, tmp_path):
        # scipy.linalg's array-API shim loads numpy.f2py, numpy.testing and
        # numpy.ma, most of its import time; a solve needs none of them
        script = """
import json, sys
import emden.cli
status = emden.cli.main(["solve", "--m", "3", "--n", "12", "--out", sys.argv[1]])
print(json.dumps({"status": status, "loaded": sorted(
    name for name in ("scipy.linalg", "numpy.f2py", "numpy.testing", "numpy.ma")
    if name in sys.modules)}))
"""
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "solve.json")],
                              capture_output=True, text=True, timeout=120, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"status": EXIT_OK, "loaded": []}

    def test_this_install_loads_lapack_from_the_scipy_file(self):
        # a scipy that renames or moves linalg/_flapack fails here, where
        # otherwise only start-up would get slower
        script = """
import sys
from emden import _lapack
print(_lapack._flapack.__name__, "scipy.linalg" in sys.modules)
"""
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=120, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["emden._flapack", "False"]

    def test_every_lapack_path_gives_the_same_bits(self, tmp_path):
        # direct: the file loaded under the package's name; reuse: the module
        # scipy.linalg loaded first; missing and unloadable: the lookup sees a
        # scipy without the file or with a broken one, and falls back to
        # scipy.linalg.lapack
        script = """
import hashlib, importlib.machinery, importlib.util, json, sys
mode, root = sys.argv[1:]
if mode == "reuse":
    import scipy.linalg
elif mode != "direct":
    fake = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    fake.submodule_search_locations.append(root)
    find_spec = importlib.util.find_spec
    importlib.util.find_spec = lambda name, package=None: (
        fake if name == "scipy" else find_spec(name, package))
from emden import BasisParams, LaneEmdenProblem, SolverConfig, _lapack, newton_solve, radau_nodes
digest = hashlib.sha256()
for n in range(1, 31):
    for alpha in (-0.95, -0.5, 0.0, 1.0, 2.5, 5.0):
        nodes = radau_nodes(BasisParams(n=n, alpha=alpha))
        digest.update(nodes.eta.tobytes() + nodes.dLn_at_eta.tobytes())
for m in (1.5, 3.0, 4.5):
    for n in (6, 12, 20):
        for L in (0.5, 1.5):
            solution = newton_solve(LaneEmdenProblem(m), SolverConfig(n=n, L=L))
            digest.update(solution.b.tobytes())
lapack = sys.modules.get("scipy.linalg.lapack")
print(json.dumps({"module": getattr(_lapack._flapack, "__name__", None),
                  "from_lapack": lapack is not None and _lapack.dgetrf is lapack.dgetrf,
                  "digest": digest.hexdigest()}))
"""
        unloadable = tmp_path / "unloadable"
        (unloadable / "linalg").mkdir(parents=True)
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        (unloadable / "linalg" / f"_flapack{suffix}").write_bytes(b"not a shared object")
        (tmp_path / "missing").mkdir()
        docs = {}
        for mode in ("direct", "reuse", "missing", "unloadable"):
            proc = subprocess.run([sys.executable, "-c", script, mode, str(tmp_path / mode)],
                                  capture_output=True, text=True, timeout=120, env=child_env())
            assert proc.returncode == 0, proc.stderr
            docs[mode] = json.loads(proc.stdout)
        assert {mode: (doc["module"], doc["from_lapack"]) for mode, doc in docs.items()} == {
            "direct": ("emden._flapack", False),
            "reuse": ("scipy.linalg._flapack", True),
            "missing": (None, True),
            "unloadable": (None, True)}
        assert len({doc["digest"] for doc in docs.values()}) == 1

    def test_numbers_made_float_arrays_only_in_validation(self):
        # every read of numbers into a float array goes through validation's
        # functions: no np.asarray or np.array call with dtype float elsewhere
        def float_arrays(tree):
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("asarray", "array")
                        and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"):
                    dtypes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "dtype"]
                    if any(ast.unparse(d) in ("float", "np.float64") for d in dtypes):
                        yield node.lineno

        package = Path(emden.cli.__file__).resolve().parent
        found = [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
                 if path.name != "validation.py"
                 for line in float_arrays(ast.parse(path.read_text()))]
        assert found == []

    @pytest.mark.parametrize("module", [errors, estimator, laguerre, operators, reference, solver,
                                        validation, emden.cli], ids=lambda module: module.__name__)
    def test_every_public_definition_is_declared(self, module):
        # a function or class defined here without a leading underscore is
        # part of the module's declared surface
        defined = {name for name, value in vars(module).items()
                   if callable(value) and getattr(value, "__module__", None) == module.__name__
                   and not name.startswith("_")}
        assert sorted(defined - set(module.__all__)) == []

    def test_package_republishes_each_module_list_once(self):
        modules = (errors, estimator, laguerre, operators, reference, solver)
        declared = [name for module in modules for name in module.__all__]
        assert len(set(declared)) == len(declared)
        assert sorted(emden.__all__) == sorted(declared + ["__version__"])
        for module in modules:
            for name in module.__all__:
                assert getattr(emden, name) is getattr(module, name), name

    def test_subprocess_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "emden", "solve"],
            capture_output=True, text=True, timeout=120, env=child_env())
        assert proc.returncode == 1
        assert "error" in proc.stderr


# Every (function, argument) of the republished modules that takes one of
# the package's records, with the record class it must be
RECORD_ARGUMENTS = [
    ("radau_nodes", "params", "BasisParams"),
    ("build_operators", "params", "BasisParams"),
    ("eval_hat_interpolant", "ops", "DiffOperators"),
    ("assemble_residual", "problem", "LaneEmdenProblem"),
    ("assemble_residual", "ops", "DiffOperators"),
    ("assemble_jacobian", "problem", "LaneEmdenProblem"),
    ("assemble_jacobian", "ops", "DiffOperators"),
    ("newton_solve", "problem", "LaneEmdenProblem"),
    ("newton_solve", "config", "SolverConfig"),
    ("first_zero", "solution", "SpectralSolution"),
]
REPUBLISHED = (errors, estimator, laguerre, operators, reference, solver)


@pytest.fixture(scope="module")
def valid_calls():
    """Keyword arguments of valid calls, one or more per function name."""
    params = BasisParams(n=4)
    ops = operators.build_operators(params)
    problem = LaneEmdenProblem(0.0)
    b = np.linspace(1.0, 0.0, 5)
    return {
        "radau_nodes": [dict(params=params)],
        "build_operators": [dict(params=params)],
        "eval_hat_interpolant": [dict(ops=ops, b=b, x=1.0)],
        "assemble_residual": [dict(problem=problem, ops=ops, b=b)],
        "assemble_jacobian": [dict(problem=problem, ops=ops, b=b)],
        "newton_solve": [dict(problem=problem, config=SolverConfig(n=4))],
        "first_zero": [dict(solution=solver.newton_solve(LaneEmdenProblem(0.0), SolverConfig(n=4)))],
    }


def public_function(name):
    return next(getattr(module, name) for module in REPUBLISHED if name in module.__all__)


class TestRecordArguments:
    def test_every_record_argument_is_listed(self):
        # read from the annotations of the public functions
        records = {cls for module in REPUBLISHED for cls in vars(module).values()
                   if dataclasses.is_dataclass(cls) and isinstance(cls, type)}
        found = set()
        for module in REPUBLISHED:
            for name in module.__all__:
                value = getattr(module, name)
                if inspect.isfunction(value):
                    found |= {(name, arg, hint.__name__)
                              for arg, hint in typing.get_type_hints(value).items()
                              if arg != "return" and hint in records}
        assert found == set(RECORD_ARGUMENTS)

    @pytest.mark.parametrize("name, arg, kind", RECORD_ARGUMENTS,
                             ids=[f"{name}-{arg}" for name, arg, _ in RECORD_ARGUMENTS])
    def test_valid_calls_run(self, valid_calls, name, arg, kind):
        for kwargs in valid_calls[name]:
            public_function(name)(**kwargs)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [3, None, (3, 1.0)], ids=["int", "None", "tuple"])
    @pytest.mark.parametrize("name, arg, kind", RECORD_ARGUMENTS,
                             ids=[f"{name}-{arg}" for name, arg, _ in RECORD_ARGUMENTS])
    def test_other_objects_raise_naming_the_argument(self, valid_calls, name, arg, kind, bad):
        for kwargs in valid_calls[name]:
            with pytest.raises(ParameterError, match=f"^{arg} must be a {kind}, got "):
                public_function(name)(**{**kwargs, arg: bad})


class TestBenchmarkTracer:
    """The benchmark's tracer (bench/tracing.py) wraps the package by name:
    each module's __all__, cli.scan_L_reports and LaneEmdenSolver.fit and
    predict. A rename or removal of one of them fails here."""

    def test_wraps_a_solve_and_a_cli_run_and_unwraps(self, monkeypatch, tmp_path):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        import emden
        import tracing

        tracer = tracing.Tracer(emden)
        patches = tracer.patches
        assert all(getattr(owner, attr) is original for owner, attr, original, _ in patches)
        tracer.install()
        try:
            assert all(getattr(owner, attr) is wrapper for owner, attr, _, wrapper in patches)
            sol = emden.newton_solve(emden.LaneEmdenProblem(3.0), SolverConfig(n=7))
            out = tmp_path / "solve.json"
            status = emden.cli.main(["solve", "--m", "3", "--n", "7", "--out", str(out)])
        finally:
            tracer.uninstall()
        assert sol.converged and status == EXIT_OK and json.loads(out.read_text())
        names = {span[2] for span in tracer.spans}
        assert {"solver.newton_solve", "cli.main", "operators.eval_hat_interpolant"} <= names
        assert all(getattr(owner, attr) is original for owner, attr, original, _ in patches)
