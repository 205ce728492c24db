"""Command line front end.

Subcommands: solve, first-zero, scan-L, reproduce-tables. Output is JSON
(default) or CSV, written to stdout or --out, formatted deterministically:
profile values at 6 decimals, zero locations at 8, deltas and coefficient
magnitudes in scientific notation with 3 digits.

Exit codes: 0 success, 1 usage or parameter error, 2 solver non-convergence,
3 no zero found, 4 reproduce-tables deltas exceeded tolerance.

The solves, zero searches and the L scan come from the library; this module
only parses arguments, formats the results and writes them.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EmdenError, NoZeroFound, ParameterError
from .laguerre import MAX_ARGUMENT
from .operators import eval_hat_interpolant
from .reference import first_zero, first_zero_reference, horedt_reference
from .solver import LaneEmdenProblem, SolverConfig, newton_solve, scan_L_reports

__all__ = [
    "RunConfig",
    "run_solve",
    "run_first_zero",
    "run_scan_L",
    "run_reproduce_tables",
    "build_parser",
    "main",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2
EXIT_NO_ZERO = 3
EXIT_MISMATCH = 4

# Tolerances for the reproduce-tables gate and the fixed setups it runs.
_TABLE_PROFILE_TOL = 1e-4
_TABLE_ZERO_TOL = {2.0: 1e-3, 3.0: 1e-4, 4.0: 1e-3}
_TABLE_ZERO_DEGREE = {2.0: 6, 3.0: 7, 4.0: 6}
_TABLE_SCAN_GRID = (0.5, 4.0, 15)


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation: which subcommand, problem setup, output routing."""

    command: str
    m: Optional[float] = None
    n: Optional[int] = None
    alpha: float = 1.0
    L: float = 1.0
    tol: float = 1e-12
    max_iter: int = 100
    eval_points: Optional[tuple] = None
    L_grid: Optional[tuple] = None
    fmt: str = "json"
    out: Optional[str] = None


def _round6(v):
    return round(float(v), 6)


def _round8(v):
    return round(float(v), 8)


def _sci3(v):
    return float(f"{float(v):.3e}")


def _sig12(v):
    return float(f"{float(v):.12g}")


def _solver_config(config: RunConfig) -> SolverConfig:
    return SolverConfig(
        n=config.n,
        alpha=config.alpha,
        L=config.L,
        newton_tol=config.tol,
        max_iter=config.max_iter,
    )


def _config_doc(config: RunConfig) -> dict:
    doc = {
        "command": config.command,
        "m": float(config.m),
        "n": int(config.n),
        "alpha": float(config.alpha),
        "tol": float(config.tol),
        "max_iter": int(config.max_iter),
    }
    if config.command == "scan-L":
        lo, hi, count = config.L_grid
        doc["L_grid"] = [float(lo), float(hi), int(count)]
    else:
        doc["L"] = float(config.L)
    return doc


def _solution_doc(solution) -> dict:
    return {
        "b": [_sig12(v) for v in solution.b],
        "residual_norm": _sci3(solution.residual_norm),
        "iterations": int(solution.iterations),
        "converged": bool(solution.converged),
    }


def _default_eval_grid(solution) -> np.ndarray:
    """Plot grid: up to 20% past the first zero, or [0, 10] when the profile
    never crosses, clamped to the evaluation envelope."""
    envelope = MAX_ARGUMENT * solution.config_echo.L
    hi = min(10.0, envelope)
    if solution.converged:
        try:
            zero = first_zero(solution, solution.operators)
            hi = min(1.2 * zero.x_star, envelope)
        except NoZeroFound:
            pass
    return np.linspace(0.0, hi, 201)


def run_solve(config: RunConfig):
    """Solve one problem and tabulate the profile. Returns (status, json_doc,
    csv_text)."""
    solution = newton_solve(LaneEmdenProblem(config.m), _solver_config(config))
    if config.eval_points is not None:
        grid = np.asarray(config.eval_points, dtype=float)
    else:
        grid = _default_eval_grid(solution)
    values = eval_hat_interpolant(solution.operators, solution.b, grid)
    doc = {
        "config": _config_doc(config),
        "solution": _solution_doc(solution),
        "evaluations": [[_round6(x), _round6(y)] for x, y in zip(grid, values)],
    }
    lines = ["x,y"]
    lines += [f"{x:.6f},{y:.6f}" for x, y in zip(grid, values)]
    status = EXIT_OK if solution.converged else EXIT_NOT_CONVERGED
    return status, doc, "\n".join(lines) + "\n"


def run_first_zero(config: RunConfig):
    """Solve, then locate the interpolant's first zero. Returns (status,
    json_doc, csv_text)."""
    solution = newton_solve(LaneEmdenProblem(config.m), _solver_config(config))
    doc = {"config": _config_doc(config), "solution": _solution_doc(solution)}
    header = "m,n,L,x_star,reference,abs_delta"
    stem = f"{config.m:.6f},{config.n},{config.L:.6f}"
    if not solution.converged:
        doc["first_zero"] = None
        doc["reason"] = "solver did not converge"
        return EXIT_NOT_CONVERGED, doc, f"{header}\n{stem},,,\n"
    try:
        result = first_zero(solution, solution.operators)
    except NoZeroFound as exc:
        doc["first_zero"] = None
        doc["reason"] = str(exc)
        return EXIT_NO_ZERO, doc, f"{header}\n{stem},,,\n"
    record = {
        "x_star": _round8(result.x_star),
        "bracket": [_round8(result.bracket[0]), _round8(result.bracket[1])],
        "refinement_iterations": int(result.refinement_iterations),
    }
    ref_text = delta_text = ""
    try:
        reference = first_zero_reference(config.m)
    except ParameterError:
        reference = None
    if reference is not None:
        record["reference"] = _round8(reference)
        record["abs_delta"] = _sci3(abs(result.x_star - reference))
        ref_text = f"{reference:.8f}"
        delta_text = f"{abs(result.x_star - reference):.3e}"
    doc["first_zero"] = record
    csv_text = f"{header}\n{stem},{result.x_star:.8f},{ref_text},{delta_text}\n"
    return EXIT_OK, doc, csv_text


def run_scan_L(config: RunConfig):
    """Tabulate coefficient decay across a grid of map scales. Returns
    (status, json_doc, csv_text)."""
    lo, hi, count = config.L_grid
    grid = np.linspace(lo, hi, count)
    reports = scan_L_reports(config.m, config.n, config.alpha, grid,
                             tol=config.tol, max_iter=config.max_iter)
    recommended = next((r.L for r in reports if r.recommended), None)
    doc = {
        "config": _config_doc(config),
        "records": [
            {
                "L": _round6(r.L),
                "converged": r.converged,
                "recommended": r.recommended,
                "tail_magnitude": _sci3(r.tail_magnitude),
                "coeff_abs": [_sci3(a) for a in r.coeff_abs],
            }
            for r in reports
        ],
        "recommended_L": None if recommended is None else _round6(recommended),
    }
    n_coeff = len(reports[0].coeff_abs)
    header = "L,converged,recommended,tail_magnitude," + ",".join(
        f"b_abs_{k}" for k in range(n_coeff))
    lines = [header]
    for r in reports:
        lines.append(
            f"{r.L:.6f},{str(r.converged).lower()},{int(r.recommended)},"
            f"{r.tail_magnitude:.3e}," + ",".join(f"{a:.3e}" for a in r.coeff_abs))
    status = EXIT_OK if recommended is not None else EXIT_NOT_CONVERGED
    return status, doc, "\n".join(lines) + "\n"


def _table_zero_row(m, tol=1e-12):
    """Computed first zero for one table row: fixed degree, map scale either
    the published one (m=3) or picked by an internal decay scan."""
    n = _TABLE_ZERO_DEGREE[m]
    if m == 3.0:
        L = 1.0
    else:
        lo, hi, count = _TABLE_SCAN_GRID
        reports = scan_L_reports(m, n, 1.0, np.linspace(lo, hi, count), tol=tol)
        L = next((r.L for r in reports if r.recommended), None)
        if L is None:
            return None
    solution = newton_solve(LaneEmdenProblem(m), SolverConfig(n=n, L=L, newton_tol=tol))
    if not solution.converged:
        return None
    try:
        result = first_zero(solution, solution.operators)
    except NoZeroFound:
        return None
    return n, L, result.x_star


def run_reproduce_tables(config: RunConfig):
    """Recompute the embedded reference tables and report deltas. Returns
    (status, json_doc, csv_text)."""
    solution = newton_solve(LaneEmdenProblem(3.0), SolverConfig(n=7, L=1.0))
    doc = {"config": {"command": "reproduce-tables"}}
    if not solution.converged:
        doc["profile_table"] = None
        doc["zero_table"] = None
        doc["all_within_tolerance"] = False
        return EXIT_NOT_CONVERGED, doc, "x,present,reference,abs_delta\n"
    horedt = horedt_reference(3.0)
    present = eval_hat_interpolant(solution.operators, solution.b, horedt.xs)
    profile_rows = []
    for x, ref, val in zip(horedt.xs, horedt.ys, present):
        profile_rows.append({
            "x": _round6(x),
            "present": _round6(val),
            "reference": _round6(ref),
            "abs_delta": _sci3(abs(val - ref)),
        })
    within = all(abs(v - r) <= _TABLE_PROFILE_TOL for v, r in zip(present, horedt.ys))

    zero_rows = []
    partial = False
    for m in (2.0, 3.0, 4.0):
        row = _table_zero_row(m, tol=config.tol)
        if row is None:
            partial = True
            continue
        n, L, x_star = row
        reference = first_zero_reference(m)
        delta = abs(x_star - reference)
        zero_rows.append({
            "m": float(m),
            "n": int(n),
            "L": _round6(L),
            "present": _round8(x_star),
            "reference": _round8(reference),
            "abs_delta": _sci3(delta),
        })
        if delta > _TABLE_ZERO_TOL[m]:
            within = False

    doc["profile_table"] = {"m": 3.0, "n": 7, "L": 1.0, "rows": profile_rows}
    doc["zero_table"] = {"rows": zero_rows}
    doc["all_within_tolerance"] = bool(within and not partial)

    lines = ["x,present,reference,abs_delta"]
    for row in profile_rows:
        lines.append(f"{row['x']:.6f},{row['present']:.6f},"
                     f"{row['reference']:.6f},{row['abs_delta']:.3e}")
    lines.append("")
    lines.append("m,n,L,present,reference,abs_delta")
    for row in zero_rows:
        lines.append(f"{row['m']:g},{row['n']},{row['L']:.6f},"
                     f"{row['present']:.8f},{row['reference']:.8f},{row['abs_delta']:.3e}")
    csv_text = "\n".join(lines) + "\n"
    if partial:
        return EXIT_NOT_CONVERGED, doc, csv_text
    return (EXIT_OK if within else EXIT_MISMATCH), doc, csv_text


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract reserves 2 for solver
    non-convergence, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _eval_list(text):
    tokens = [tok for tok in text.split(",") if tok.strip() != ""]
    if not tokens:
        raise argparse.ArgumentTypeError("empty evaluation list")
    try:
        return tuple(float(tok) for tok in tokens)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad evaluation list {text!r}")


def _grid_spec(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must look like lo:hi:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must look like lo:hi:count, got {text!r}")
    if lo <= 0.0:
        raise argparse.ArgumentTypeError("grid lower bound must be positive")
    if hi < lo:
        raise argparse.ArgumentTypeError("grid upper bound must be >= lower bound")
    if count < 1:
        raise argparse.ArgumentTypeError("grid count must be >= 1")
    return lo, hi, count


def _add_problem_args(parser, with_L=True):
    parser.add_argument("--m", type=float, required=True, help="polytropic index")
    parser.add_argument("--n", type=int, required=True, help="collocation degree")
    parser.add_argument("--alpha", type=float, default=1.0, help="Laguerre parameter")
    if with_L:
        parser.add_argument("--L", type=float, default=1.0, help="map scale")
    parser.add_argument("--tol", type=float, default=1e-12, help="Newton tolerance")
    parser.add_argument("--max-iter", type=int, default=100, help="Newton iteration cap")


def _add_output_args(parser):
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        dest="fmt", help="output format")
    parser.add_argument("--out", default=None, help="write output to this file")


def build_parser() -> _Parser:
    parser = _Parser(prog="emden",
                     description="Spectral collocation solver for polytrope "
                                 "equations on the half line.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one problem and tabulate the profile")
    _add_problem_args(p_solve)
    p_solve.add_argument("--eval", type=_eval_list, default=None, dest="eval_points",
                         help="comma separated evaluation points (default: plot grid)")
    _add_output_args(p_solve)

    p_zero = sub.add_parser("first-zero", help="solve and locate the first zero")
    _add_problem_args(p_zero)
    _add_output_args(p_zero)

    p_scan = sub.add_parser("scan-L", help="compare coefficient decay across map scales")
    _add_problem_args(p_scan, with_L=False)
    p_scan.add_argument("--L-grid", type=_grid_spec, required=True, dest="L_grid",
                        help="map scale grid as lo:hi:count")
    _add_output_args(p_scan)

    p_tables = sub.add_parser("reproduce-tables",
                              help="recompute the embedded reference tables")
    p_tables.add_argument("--tol", type=float, default=1e-12, help="Newton tolerance")
    _add_output_args(p_tables)

    return parser


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        command=args.command,
        m=getattr(args, "m", None),
        n=getattr(args, "n", None),
        alpha=getattr(args, "alpha", 1.0),
        L=getattr(args, "L", 1.0),
        tol=getattr(args, "tol", 1e-12),
        max_iter=getattr(args, "max_iter", 100),
        eval_points=getattr(args, "eval_points", None),
        L_grid=getattr(args, "L_grid", None),
        fmt=args.fmt,
        out=args.out,
    )


_RUNNERS = {
    "solve": run_solve,
    "first-zero": run_first_zero,
    "scan-L": run_scan_L,
    "reproduce-tables": run_reproduce_tables,
}


def _write(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as handle:
            handle.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    config = _config_from_args(args)
    try:
        status, doc, csv_text = _RUNNERS[config.command](config)
    except ParameterError as exc:
        print(f"emden: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EmdenError as exc:
        print(f"emden: error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    if config.fmt == "json":
        _write(json.dumps(doc, indent=2, sort_keys=True) + "\n", config.out)
    else:
        _write(csv_text, config.out)
    return status
