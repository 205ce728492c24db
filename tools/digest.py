"""One SHA-256 over a fixed, seeded set of the package's outputs.

    python3 tools/digest.py

Run from the root of a checkout: the package is imported from that
checkout's src/. Two trees that print the same digest give the same bits for
the node sets (n = 1..30 over several alphas) and their four unscaled
matrices, the recurrence sweeps, about 400 solves (b, residual_history and
the stop data), a 300-point interpolant and the first zero of each converged
solve, the fitted coefficients, nodes and predictions of about 20
LaneEmdenSolver fits, shooting profiles, the closed forms on points up to
1e200, and the power law g and its derivative g' of several indices on a
fixed set of points, NaN, inf and signed zeros included, with the category
and text of each warning they give, and the exit code and standard output of
each subcommand in both formats, each run twice in one process so that the
second run comes from the kept solves. An error is hashed as its type and
message, so the failure paths the set meets count too. A change meant to
keep every output bit runs it on the parent tree and on the change.

It prints one SHA-256 per section (operators, solves, fits, shooting,
closed_forms, power_law, cli), so a change that moves bits on purpose can
name the sections that moved, and then the digest over all of them, last.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import sys
import warnings

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import emden  # noqa: E402
import emden.cli  # noqa: E402
from emden.errors import EmdenError  # noqa: E402

SEED = 24
SOLVES = 400
INTERPOLANT_POINTS = 300
FITS = 20
ALPHAS = (-0.9, -0.5, 0.0, 0.5, 1.0, 2.5, 5.0)
SHOOTING_M = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 4.5, 5.0)
POWER_M = (0.0, 0.5, 1.0, 2.5, 3.0, 1e6)
CLI_RUNS = (
    ["solve", "--m", "3", "--n", "7"],
    ["solve", "--m", "1.5", "--n", "9", "--L", "0.7", "--eval", "0,0.25,3,40"],
    ["first-zero", "--m", "3", "--n", "7"],
    ["first-zero", "--m", "5", "--n", "10"],  # no zero: exit 3
    ["scan-L", "--m", "3", "--n", "7", "--L-grid", "0.5:2:4"],
    ["reproduce-tables"],
    ["reproduce-tables", "--tol", "1e-10"],
)
POWER_Y = (0.0, -0.0, 1e-300, -1e-300, 0.3, -0.3, 2.5, -2.5, 1e200, -1e200, math.nan, math.inf, -math.inf)


class Digest:
    """One hash over every section, and one over the section being fed."""

    def __init__(self):
        self.hash = hashlib.sha256()
        self.part = hashlib.sha256()

    def update(self, data):
        self.hash.update(data)
        self.part.update(data)

    def feed(self, *items):
        for item in items:
            if isinstance(item, np.ndarray):
                self.update(f"{item.dtype.str}{item.shape}".encode())
                self.update(np.ascontiguousarray(item).tobytes())
            else:
                # repr keeps every bit of a float and the sign of a zero
                self.update(repr(item).encode())

    @contextlib.contextmanager
    def section(self, name):
        """Feed one section, then print its own digest."""
        self.part = hashlib.sha256()
        yield
        print(f"{name:<13}{self.part.hexdigest()}")

    def outcome(self, call, *args):
        """call(*args), or None once its error's type and message are fed."""
        try:
            result = call(*args)
        except EmdenError as exc:
            self.feed(type(exc).__name__, str(exc))
            return None
        return result


def _operators(digest, rng):
    e = emden
    alphas = ALPHAS + tuple(rng.uniform(-0.95, 6.0, 3).tolist())
    for n in range(1, e.MAX_DEGREE + 1):
        for alpha in alphas:
            ops = digest.outcome(e.build_operators, e.BasisParams(n=n, alpha=alpha))
            if ops is None:
                continue
            nodes = ops.nodes
            digest.feed(nodes.eta, nodes.dLn_at_eta, nodes.Ln_at_zero, nodes.alpha,
                        ops.D1_poly, ops.D2_poly, ops.D1_mgl, ops.D2_mgl)
            grid = np.linspace(0.0, min(e.MAX_ARGUMENT, 2.0 * nodes.eta[-1]), 50)
            digest.feed(e.eval_laguerre_all(n, alpha, grid))
    for alpha in (190.0, 1e300):  # zeros past the evaluation envelope
        digest.outcome(e.radau_nodes, e.BasisParams(n=3, alpha=alpha))


def _interpolant_points(ops, L):
    xm = ops.mapped_nodes
    between = 0.5 * (xm[1:] + xm[:-1])
    past = np.linspace(xm[-1], emden.MAX_ARGUMENT * L, INTERPOLANT_POINTS - len(xm) - len(between))
    return np.concatenate((xm, between, past))


def _solves(digest, rng):
    e = emden
    for _ in range(SOLVES):
        m = float(rng.choice([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, rng.uniform(0.0, 5.0)]))
        n = int(rng.integers(1, e.MAX_DEGREE + 1))
        alpha = float(rng.uniform(-0.9, 4.0))
        L = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
        config = e.SolverConfig(n=n, alpha=alpha, L=L)
        digest.feed(m, n, alpha, L)
        solution = digest.outcome(e.newton_solve, e.LaneEmdenProblem(m), config)
        if solution is None:
            continue
        digest.feed(solution.b, solution.residual_history, solution.residual_norm,
                    solution.iterations, solution.converged)
        if not solution.converged:
            continue
        digest.feed(e.eval_hat_interpolant(solution.operators, solution.b,
                                           _interpolant_points(solution.operators, L)))
        zero = digest.outcome(e.first_zero, solution)
        if zero is not None:
            digest.feed(zero.x_star, zero.bracket, zero.refinement_iterations)


def _fits(digest, rng):
    """The estimator's route to a solve: its coefficients_, its nodes_ and
    predict on a fixed grid up to the envelope edge 200*L."""
    for _ in range(FITS):
        m = float(rng.choice([0.0, 1.0, 3.0, 5.0, rng.uniform(0.0, 5.0)]))
        n = int(rng.integers(1, emden.MAX_DEGREE + 1))
        alpha = float(rng.uniform(-0.9, 4.0))
        L = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
        digest.feed(m, n, alpha, L)
        model = digest.outcome(emden.LaneEmdenSolver(m, n, alpha, L).fit)
        if model is not None:
            grid = np.linspace(0.0, emden.MAX_ARGUMENT * L, 60)
            digest.feed(model.coefficients_, model.nodes_, model.predict(grid))


def _closed_forms(digest):
    grid = np.concatenate((np.linspace(0.0, 20.0, 81), np.logspace(1.5, 200.0, 40)))
    for m in (0.0, 1.0, 5.0):
        digest.feed(emden.closed_form(m, grid))


def _shooting(digest):
    for m in SHOOTING_M:
        profile = digest.outcome(emden.shooting_oracle, m, 12.0)
        if profile is not None:
            digest.feed(profile.xs, profile.ys, profile.yps)


def _power_law(digest):
    """g and g' of each index at each point, one point at a time and all in
    one array, and the category and text of every warning they give."""
    for m in POWER_M:
        problem = emden.LaneEmdenProblem(m)
        for rule in (problem.g, problem.g_prime):
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                for y in POWER_Y:
                    digest.feed(rule(y))
                digest.feed(rule(np.array(POWER_Y)))
            digest.feed([(w.category.__name__, str(w.message)) for w in record])


def _cli(digest):
    """Exit code and standard output of each subcommand, in JSON and CSV."""
    for argv in CLI_RUNS:
        for fmt in ("json", "csv"):
            for _ in range(2):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    status = emden.cli.main(argv + ["--format", fmt])
                digest.feed(argv, fmt, status, out.getvalue())


def main():
    digest = Digest()
    rng = np.random.default_rng(SEED)
    with warnings.catch_warnings():
        # warnings are not outputs here: the pinned ones have their own tests
        warnings.simplefilter("ignore")
        with digest.section("operators"):
            _operators(digest, rng)
        with digest.section("solves"):
            _solves(digest, rng)
        with digest.section("fits"):
            _fits(digest, rng)
        with digest.section("shooting"):
            _shooting(digest)
        with digest.section("closed_forms"):
            _closed_forms(digest)
        with digest.section("power_law"):
            _power_law(digest)
        with digest.section("cli"):
            _cli(digest)
    print(digest.hash.hexdigest())


if __name__ == "__main__":
    main()
