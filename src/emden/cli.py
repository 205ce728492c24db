"""Command line front end.

Subcommands: solve, first-zero, scan-L, reproduce-tables. Output is JSON
(default) or CSV, written to stdout or --out, formatted deterministically.

Each runner builds its tabular payload once, as a _Table whose column spec
gives every table column its format: profile values at 6 decimals, zero
locations at 8, deltas and coefficient magnitudes in scientific notation
with 3 digits. Both outputs are rendered from that table: a CSV field is the
cell in its column's format and the JSON value is that text read back, so
the two formats agree by construction. Two JSON-only values are formatted
outside it: the solution block (coefficients at .12g, the residual norm at
.3e) and the first-zero bracket (.8f).

Exit codes: 0 success, 1 usage or parameter error, 2 solver non-convergence,
3 no zero found, 4 reproduce-tables deltas exceeded tolerance.

The solves, zero searches and the L scan come from the library; this module
only parses arguments, formats the results and writes them.
"""
from __future__ import annotations

import argparse
import functools
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
from .validation import as_float_grid, check_integer, check_real

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

# Tolerances for the reproduce-tables gate and the fixed setups it runs. The
# m=3 zero row reuses the profile solve (n=7, L=1); m=2 and m=4 (n=6) take the
# scale their decay scan recommends.
_TABLE_PROFILE_TOL = 1e-4
_TABLE_ZERO_TOL = {2.0: 1e-3, 3.0: 1e-4, 4.0: 1e-3}
_TABLE_SCAN_DEGREE = 6
_TABLE_SCAN_GRID = (0.5, 4.0, 15)

_FIRST_ZERO_COLUMNS = (("m", ".6f"), ("n", "d"), ("L", ".6f"), ("x_star", ".8f"),
                       ("reference", ".8f"), ("abs_delta", ".3e"))
_PROFILE_COLUMNS = (("x", ".6f"), ("present", ".6f"), ("reference", ".6f"),
                    ("abs_delta", ".3e"))
_ZERO_TABLE_COLUMNS = (("m", "g"), ("n", "d"), ("L", ".6f"), ("present", ".8f"),
                       ("reference", ".8f"), ("abs_delta", ".3e"))

# CSV text of (False, True) in the two bool column formats
_BOOL_TEXT = {"true/false": ("false", "true"), "0/1": ("0", "1")}


def _format_column(cells, fmt) -> list:
    """CSV text of each cell in one column format; a None cell is empty."""
    if fmt in _BOOL_TEXT:
        false, true = _BOOL_TEXT[fmt]
        return ["" if v is None else true if v else false for v in cells]
    return ["" if v is None else format(v, fmt) for v in cells]


def _read_column(texts, fmt) -> list:
    """JSON value of each cell from its CSV text; an empty field is None."""
    if fmt in _BOOL_TEXT:
        true = _BOOL_TEXT[fmt][1]
        return [None if text == "" else text == true for text in texts]
    read = int if fmt == "d" else float
    return [None if text == "" else read(text) for text in texts]


def _values(cells, fmt) -> list:
    """JSON values of cells: their CSV texts read back (None stays None)."""
    return _read_column(_format_column(cells, fmt), fmt)


@dataclass(frozen=True)
class _Table:
    """Rows of cells under one column spec, the source of both outputs.

    columns holds (name, format) pairs; a format is a format spec (".6f",
    ".8f", ".3e", "d", "g") or a bool format ("true/false", "0/1"). A None
    cell is an empty CSV field and a JSON null.
    """

    columns: tuple
    rows: list

    @functools.cached_property
    def _texts(self) -> list:
        """Each column's cells formatted once, in its format."""
        return [_format_column(cells, fmt) for cells, (_, fmt) in zip(zip(*self.rows), self.columns)]

    def json_rows(self) -> list:
        values = [_read_column(texts, fmt) for texts, (_, fmt) in zip(self._texts, self.columns)]
        return [list(row) for row in zip(*values)]

    def records(self) -> list:
        names = [name for name, _ in self.columns]
        return [dict(zip(names, row)) for row in self.json_rows()]

    def csv(self) -> str:
        lines = [",".join(name for name, _ in self.columns)]
        lines += [",".join(row) for row in zip(*self._texts)]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation: which subcommand, problem setup, output routing."""

    command: str
    m: Optional[float] = None
    n: Optional[int] = None
    alpha: float = SolverConfig.alpha
    L: float = SolverConfig.L
    tol: float = SolverConfig.newton_tol
    max_iter: int = SolverConfig.max_iter
    eval_points: Optional[tuple] = None
    L_grid: Optional[tuple] = None
    fmt: str = "json"
    out: Optional[str] = None


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
        "b": _values(solution.b.tolist(), ".12g"),
        "residual_norm": _values([solution.residual_norm], ".3e")[0],
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
            zero = first_zero(solution)
            hi = min(1.2 * zero.x_star, envelope)
        except NoZeroFound:
            pass
    return np.linspace(0.0, hi, 201)


def run_solve(config: RunConfig):
    """Solve one problem and tabulate the profile. Returns (status, json_doc,
    csv_text)."""
    problem, solver_config = LaneEmdenProblem(config.m), _solver_config(config)
    grid = None if config.eval_points is None else as_float_grid(config.eval_points, "eval_points")
    solution = newton_solve(problem, solver_config)
    if grid is None:
        grid = _default_eval_grid(solution)
    values = eval_hat_interpolant(solution.operators, solution.b, grid)
    # Python floats format as np.float64 does, about 3x faster
    table = _Table((("x", ".6f"), ("y", ".6f")), list(zip(grid.tolist(), values.tolist())))
    doc = {
        "config": _config_doc(config),
        "solution": _solution_doc(solution),
        "evaluations": table.json_rows(),
    }
    status = EXIT_OK if solution.converged else EXIT_NOT_CONVERGED
    return status, doc, table.csv()


def run_first_zero(config: RunConfig):
    """Solve, then locate the interpolant's first zero. Returns (status,
    json_doc, csv_text)."""
    solution = newton_solve(LaneEmdenProblem(config.m), _solver_config(config))
    doc = {"config": _config_doc(config), "solution": _solution_doc(solution),
           "first_zero": None}
    stem = (config.m, solution.config_echo.n, config.L)
    no_zero = _Table(_FIRST_ZERO_COLUMNS, [stem + (None, None, None)])
    if not solution.converged:
        doc["reason"] = "solver did not converge"
        return EXIT_NOT_CONVERGED, doc, no_zero.csv()
    try:
        result = first_zero(solution)
    except NoZeroFound as exc:
        doc["reason"] = str(exc)
        return EXIT_NO_ZERO, doc, no_zero.csv()
    try:
        reference = first_zero_reference(config.m)
    except ParameterError:
        reference = None
    delta = None if reference is None else abs(result.x_star - reference)
    table = _Table(_FIRST_ZERO_COLUMNS, [stem + (result.x_star, reference, delta)])
    cells = table.records()[0]
    record = {k: cells[k] for k in ("x_star", "reference", "abs_delta") if cells[k] is not None}
    record["bracket"] = _values(result.bracket, ".8f")
    record["refinement_iterations"] = int(result.refinement_iterations)
    doc["first_zero"] = record
    return EXIT_OK, doc, table.csv()


def run_scan_L(config: RunConfig):
    """Tabulate coefficient decay across a grid of map scales. Returns
    (status, json_doc, csv_text)."""
    try:
        lo, hi, count = config.L_grid
    except (TypeError, ValueError):
        raise ParameterError(f"L_grid must be (lo, hi, count), got {config.L_grid!r:.40}") from None
    grid = np.linspace(check_real("L_grid lo", lo, minimum=0.0, exclusive=True),
                       check_real("L_grid hi", hi, minimum=0.0, exclusive=True),
                       check_integer("L_grid count", count, minimum=1))
    reports = scan_L_reports(config.m, config.n, config.alpha, grid,
                             tol=config.tol, max_iter=config.max_iter)
    coeff_names = [f"b_abs_{k}" for k in range(len(reports[0].coeff_abs))]
    table = _Table(
        (("L", ".6f"), ("converged", "true/false"), ("recommended", "0/1"),
         ("tail_magnitude", ".3e")) + tuple((name, ".3e") for name in coeff_names),
        [(r.L, r.converged, r.recommended, r.tail_magnitude) + r.coeff_abs for r in reports])
    records = table.records()
    for record in records:
        record["coeff_abs"] = [record.pop(name) for name in coeff_names]
    recommended = next((r["L"] for r in records if r["recommended"]), None)
    doc = {"config": _config_doc(config), "records": records, "recommended_L": recommended}
    status = EXIT_OK if recommended is not None else EXIT_NOT_CONVERGED
    return status, doc, table.csv()


def _scanned_solution(m, tol):
    """The solve at the map scale the decay scan recommends, or None."""
    lo, hi, count = _TABLE_SCAN_GRID
    reports = scan_L_reports(m, _TABLE_SCAN_DEGREE, 1.0, np.linspace(lo, hi, count), tol=tol)
    return next((r.solution for r in reports if r.recommended), None)


def _table_zero_row(m, solution):
    """Zero-table row for one converged solve, or None without a solve or a
    zero."""
    if solution is None:
        return None
    try:
        x_star = first_zero(solution).x_star
    except NoZeroFound:
        return None
    reference = first_zero_reference(m)
    setup = solution.config_echo
    return m, setup.n, setup.L, x_star, reference, abs(x_star - reference)


def run_reproduce_tables(config: RunConfig):
    """Recompute the embedded reference tables and report deltas. Returns
    (status, json_doc, csv_text)."""
    solution = newton_solve(LaneEmdenProblem(3.0),
                            SolverConfig(n=7, L=1.0, newton_tol=config.tol))
    doc = {"config": {"command": "reproduce-tables"}}
    if not solution.converged:
        doc["profile_table"] = None
        doc["zero_table"] = None
        doc["all_within_tolerance"] = False
        return EXIT_NOT_CONVERGED, doc, _Table(_PROFILE_COLUMNS, []).csv()
    horedt = horedt_reference(3.0)
    xs, refs = horedt.xs.tolist(), horedt.ys.tolist()
    present = eval_hat_interpolant(solution.operators, solution.b, horedt.xs).tolist()
    profile = _Table(_PROFILE_COLUMNS, [(x, val, ref, abs(val - ref))
                                        for x, ref, val in zip(xs, refs, present)])
    rows = [_table_zero_row(m, solution if m == 3.0 else _scanned_solution(m, config.tol))
            for m in (2.0, 3.0, 4.0)]
    zeros = _Table(_ZERO_TABLE_COLUMNS, [row for row in rows if row is not None])
    partial = None in rows
    within = (all(abs(v - r) <= _TABLE_PROFILE_TOL for v, r in zip(present, refs))
              and all(delta <= _TABLE_ZERO_TOL[m] for m, *_, delta in zeros.rows))

    doc["profile_table"] = {"m": 3.0, "n": 7, "L": 1.0, "rows": profile.records()}
    doc["zero_table"] = {"rows": zeros.records()}
    doc["all_within_tolerance"] = bool(within and not partial)
    csv_text = profile.csv() + "\n" + zeros.csv()
    if partial:
        return EXIT_NOT_CONVERGED, doc, csv_text
    return (EXIT_OK if within else EXIT_MISMATCH), doc, csv_text


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract reserves 2 for solver
    non-convergence, so usage errors are remapped to 1. An option not given
    stays out of the namespace: RunConfig's fields hold every default."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("argument_default", argparse.SUPPRESS)
        super().__init__(*args, **kwargs)

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
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise argparse.ArgumentTypeError("grid bounds must be finite")
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
    parser.add_argument("--alpha", type=float, help="Laguerre parameter")
    if with_L:
        parser.add_argument("--L", type=float, help="map scale")
    parser.add_argument("--tol", type=float, help="Newton tolerance")
    parser.add_argument("--max-iter", type=int, help="Newton iteration cap")


def _add_output_args(parser):
    parser.add_argument("--format", choices=("json", "csv"), dest="fmt", help="output format")
    parser.add_argument("--out", help="write output to this file")


def build_parser() -> _Parser:
    parser = _Parser(prog="emden",
                     description="Spectral collocation solver for polytrope "
                                 "equations on the half line.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one problem and tabulate the profile")
    _add_problem_args(p_solve)
    p_solve.add_argument("--eval", type=_eval_list, dest="eval_points",
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
    p_tables.add_argument("--tol", type=float, help="Newton tolerance")
    _add_output_args(p_tables)

    return parser


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


@functools.lru_cache(maxsize=1)
def _shared_parser() -> _Parser:
    """The parser main uses, built on first use and kept for the process: a
    build costs far more than a parse, and parsing leaves the parser as it was."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    config = RunConfig(**vars(args))
    try:
        status, doc, csv_text = _RUNNERS[config.command](config)
    except ParameterError as exc:
        print(f"emden: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EmdenError as exc:
        print(f"emden: error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n" if config.fmt == "json" else csv_text
    try:
        _write(text, config.out)
    except OSError as exc:
        print(f"emden: error: cannot write the output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return status
