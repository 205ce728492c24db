"""The two workloads: seeded operations, how each runs, and its checks.

Every workload is a closed loop from one client: the next operation starts
when the last one has returned. Operations come in rounds of a fixed make-up,
so a run of any length holds whole rounds and the share of each kind of
operation, expected failures included, is the same in every run.

``run`` is the timed operation: calls into the package, and in a
tabulation the reading of the zero that first-zero printed, as a user would.
``check`` runs after it, untimed and untraced, and raises CheckFailed.
The package is reached through module attributes at call time, so the
tracer's wrappers are seen when they are installed.
"""
from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

import numpy as np

import checks
import points
from checks import expect

SWEEP_ROUND = 20    # 19 seeded points, then one literal-power point
SWEEP_NEWTON = 4    # every 4th seeded point is a bare newton_solve, the rest fit
PROFILE_CROSSING = 4  # tabulations per round of seeded setups with a zero
PROFILE_NO_ZERO = 2   # and of seeded setups without one, after one anchor
# seeded scan-L configurations per round, one per band of n; with reproduce-
# tables and the six tabulations this puts the round's median operation
# inside the tabulations' cluster of times, not in the gap below it
SCAN_CONFIGS = 3
FORMATS = ("json", "csv")
PLOT_POINTS = 201   # the CLI's default plot grid
DENSE_POINTS = 200


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple
    fmt: str = "json"
    expected_failure: bool = False


class Workload:
    """Common plumbing: seeded candidate order and a scratch directory."""

    name = ""

    def __init__(self, emden, seed, tmp):
        self.emden = emden
        self.rng = np.random.default_rng(seed)
        self.tmp = tmp
        warnings.simplefilter("ignore", emden.ConvergenceWarning)

    def _cli(self, argv, fmt, path):
        status = self.emden.cli.main(list(argv) + ["--format", fmt, "--out", path])
        return status, path

    def _read(self, path):
        with open(path) as handle:
            text = handle.read()
        os.remove(path)
        return text

    def output_bytes(self, op, result):
        return 0

    def _bands(self, rows, key, k):
        """Split rows by the parameter that drives their cost into k equal
        bands, each in a seeded order. A round takes one row from every band,
        so every seed sees the same spread of that parameter."""
        rows = sorted(rows, key=key)
        size = len(rows) // k
        bands = [rows[i * size:(i + 1) * size] for i in range(k)]
        return [[band[i] for i in self.rng.permutation(len(band))] for band in bands]


class Sweep(Workload):
    """newton_solve or fit plus a few-point predict, each on a new (m, n, alpha, L)."""

    name = "sweep"
    lists = ("sweep", "fault")

    def __init__(self, emden, seed, tmp, kept):
        super().__init__(emden, seed, tmp)
        pool = kept["sweep"]
        self.pool = [pool[i] for i in self.rng.permutation(len(pool))]
        self.faults = kept["fault"]

    def rounds(self):
        k = 0
        r = 0
        while True:
            ops = []
            for j in range(SWEEP_ROUND - 1):
                point = self.pool[k % len(self.pool)]
                k += 1
                # a bare solve needs an operator build of its own to be
                # checked, so it is the smaller share
                if j % SWEEP_NEWTON == 0:
                    ops.append(Op("newton", point))
                else:
                    fractions = tuple(float(u) for u in self.rng.uniform(0.0, 1.0, 3))
                    ops.append(Op("fit", point + (fractions,)))
            # fixed order, the same for every seed: these fail every time
            ops.append(Op("newton", self.faults[r % len(self.faults)], expected_failure=True))
            r += 1
            yield ops

    def run(self, op):
        e = self.emden
        if op.kind == "newton":
            m, n, alpha, L = op.args
            return e.newton_solve(e.LaneEmdenProblem(m), e.SolverConfig(n=n, alpha=alpha, L=L))
        m, n, alpha, L, fractions = op.args
        est = e.LaneEmdenSolver(m=m, n=n, alpha=alpha, L=L).fit()
        nodes = est.nodes_
        xs = np.concatenate((nodes[[1, n // 2]], np.asarray(fractions) * nodes[-1]))
        return est, est.predict(xs)

    def failed(self, op, result):
        return not (result.converged if op.kind == "newton" else result[0].converged_)

    def check(self, op, result):
        m, n = op.args[0], op.args[1]
        if op.kind == "newton":
            ops = self.emden.build_operators(result.config_echo.basis_params())
            checks.check_collocation(m, ops, result.b, result.config_echo.newton_tol)
            return
        est, values = result
        checks.check_collocation(m, est.operators_, est.coefficients_, est.tol)
        checks.check_nodes(values[:2], est.coefficients_, [1, n // 2])
        expect(np.all(np.isfinite(values)), "predict returned non-finite values")


class Scan(Workload):
    """In-process CLI: scan-L over seeded (m, n, grid) and reproduce-tables.
    Each operation writes one format; formats alternate across inputs, and
    the check makes the other format of the same inputs, untimed, to
    compare the two."""

    def __init__(self, emden, seed, tmp, kept):
        super().__init__(emden, seed, tmp)
        # a scan's cost grows with n
        self.bands = self._bands(kept["scan"], lambda row: row[1], SCAN_CONFIGS)

    def rounds(self):
        r = 0
        while True:
            # formats alternate along the round and between rounds, so each
            # band, and reproduce-tables, writes JSON and CSV in turn
            ops = [Op("scan-L", band[r % len(band)], FORMATS[(i + r) % 2])
                   for i, band in enumerate(self.bands)]
            ops.append(Op("reproduce-tables", (), FORMATS[(len(ops) + r) % 2]))
            r += 1
            yield ops

    @staticmethod
    def _argv(op):
        if op.kind == "scan-L":
            m, n, lo, hi = op.args
            return ["scan-L", "--m", str(m), "--n", str(n),
                    "--L-grid", f"{lo}:{hi}:{points.SCAN_COUNT}"]
        return ["reproduce-tables"]

    def run(self, op):
        return self._cli(self._argv(op), op.fmt, os.path.join(self.tmp, f"scan.{op.fmt}"))

    def failed(self, op, result):
        status = result[0]
        return status != 0 if op.kind == "scan-L" else status not in (0, 4)

    def output_bytes(self, op, result):
        return os.path.getsize(result[1]) if os.path.exists(result[1]) else 0

    def check(self, op, result):
        status, path = result
        out = checks.parse(self._read(path), op.fmt)
        other = FORMATS[op.fmt == "json"]
        twin_status, twin_path = self._cli(self._argv(op), other,
                                           os.path.join(self.tmp, f"twin.{other}"))
        twin = checks.parse(self._read(twin_path), other)
        expect(twin_status == status, f"{op.kind} exit differs between formats")
        doc, rows = (out, twin) if op.fmt == "json" else (twin, out)
        if op.kind == "reproduce-tables":
            checks.check_tables_doc(doc, status)
            checks.check_tables_csv(rows, doc)
            return
        m, n, lo, hi = op.args
        checks.check_scan_doc(doc, m, n, lo, hi, points.SCAN_COUNT, status)
        checks.check_scan_csv(rows, doc)


class Profile(Workload):
    """One tabulation per operation: CLI solve on its default plot grid, CLI
    first-zero, estimator fit and predict on the plot grid plus a dense grid,
    and shooting_oracle over the same range."""

    def __init__(self, emden, seed, tmp, kept):
        super().__init__(emden, seed, tmp)
        pool = kept["profile"]
        # the zero scan, and so the cost, grows with the zero's distance and
        # so with m; setups without a zero scan to x = 50 and cost twice the
        # others, so each round holds a fixed number of them. Two put the
        # round's 90th-percentile operation inside their cluster of times.
        crossing = [row for row in pool if row[0] < 5.0]
        self.bands = self._bands(crossing, lambda row: row[0], PROFILE_CROSSING)
        self.bands += self._bands([row for row in pool if row[0] >= 5.0], lambda row: row[1],
                                  PROFILE_NO_ZERO)

    def rounds(self):
        anchors = points.PROFILE_ANCHORS
        r = 0
        while True:
            setups = [anchors[r % len(anchors)]] + [band[r % len(band)] for band in self.bands]
            r += 1
            yield [Op("profile", s + (self._extent(s[0]),), "json" if i % 2 == 0 else "csv")
                   for i, s in enumerate(setups)]

    @staticmethod
    def _extent(m):
        # the dense range: a quarter past the true zero, or [0, 10]
        zero = checks.reference_zero(m)
        return 10.0 if zero is None else 1.25 * zero

    def run(self, op):
        e = self.emden
        m, n, L, extent = op.args
        common = ["--m", str(m), "--n", str(n), "--L", str(L)]
        solved = self._cli(["solve"] + common, op.fmt, os.path.join(self.tmp, f"solve.{op.fmt}"))
        zero = self._cli(["first-zero"] + common, op.fmt, os.path.join(self.tmp, f"zero.{op.fmt}"))
        with open(zero[1]) as handle:
            x_star = checks.first_zero_record(checks.parse(handle.read(), op.fmt), op.fmt)[0]
        # the plot grid the CLI used, then a dense grid to a quarter past the zero
        hi = min(1.2 * x_star, 200.0 * L) if x_star is not None else min(10.0, 200.0 * L)
        grid = np.concatenate((np.linspace(0.0, hi, PLOT_POINTS),
                               np.linspace(0.0, extent, DENSE_POINTS)))
        est = e.LaneEmdenSolver(m=m, n=n, L=L).fit()
        values = est.predict(grid)
        shot = e.shooting_oracle(m, extent)
        return solved, zero, est, grid, values, shot

    def failed(self, op, result):
        (solve_status, _), (zero_status, _), est = result[0], result[1], result[2]
        return solve_status != 0 or zero_status not in (0, 3) or not est.converged_

    def output_bytes(self, op, result):
        return sum(os.path.getsize(p) for _, p in result[:2] if os.path.exists(p))

    def check(self, op, result):
        m, n, L, extent = op.args
        (_, solve_path), (zero_status, zero_path), est, grid, values, shot = result
        b = est.coefficients_
        plot, dense = grid[:PLOT_POINTS], grid[PLOT_POINTS:]

        def value_at(x):
            return float(est.predict(x)[0])

        checks.check_collocation(m, est.operators_, b, est.tol)
        checks.check_nodes(est.predict(est.nodes_[1:3]), b, [1, 2])
        expect((zero_status == 3) == (m >= 5.0),
               f"first-zero exit {zero_status} for m={m}: 3 must mean m >= 5")

        zero_out = checks.parse(self._read(zero_path), op.fmt)
        x_star, bracket, reference = checks.first_zero_record(zero_out, op.fmt)
        if x_star is not None:
            # CSV carries no bracket; the zero is printed to 8 decimals
            bracket = bracket or (x_star - 1e-6, x_star + 1e-6)
            checks.check_first_zero(x_star, bracket, value_at, grid, values)
            if m in checks.FIRST_ZEROS:
                expect(reference == checks.FIRST_ZEROS[m], "first-zero reference is not the published one")

        # the CLI prints x and y to 6 decimals
        xs, ys = checks.solve_values(checks.parse(self._read(solve_path), op.fmt), op.fmt)
        expect(len(xs) == PLOT_POINTS and float(np.max(np.abs(xs - plot))) <= 1e-6,
               "solve did not tabulate its default plot grid")
        gap = float(np.max(np.abs(ys - values[:PLOT_POINTS])))
        expect(gap <= 1e-6, f"solve output differs from predict by {gap:.3e}")

        checks.check_shooting(m, shot)
        if (m, n, L) in points.ACCURATE_ANCHORS:
            inside = dense < checks.reference_zero(m)
            checks.check_accuracy(m, dense[inside], values[PLOT_POINTS:][inside])


class Cli(Workload):
    """User tasks in rounds of fixed make-up: a scan round (three scan-L
    configurations and reproduce-tables, two of them as JSON and two as CSV)
    and then a profile round (six tabulations)."""

    name = "cli"
    lists = ("scan", "profile")

    def __init__(self, emden, seed, tmp, kept):
        super().__init__(emden, seed, tmp)
        self.scan = Scan(emden, [seed, 1], tmp, kept)
        self.profile = Profile(emden, [seed, 2], tmp, kept)

    def _part(self, op):
        return self.profile if op.kind == "profile" else self.scan

    def rounds(self):
        for scan, profile in zip(self.scan.rounds(), self.profile.rounds()):
            yield scan + profile

    def run(self, op):
        return self._part(op).run(op)

    def failed(self, op, result):
        return self._part(op).failed(op, result)

    def output_bytes(self, op, result):
        return self._part(op).output_bytes(op, result)

    def check(self, op, result):
        self._part(op).check(op, result)


WORKLOADS = {w.name: w for w in (Sweep, Cli)}


def make(name, emden, seed, tmp):
    workload = WORKLOADS[name]
    return workload(emden, seed, tmp, points.load(workload.lists))
