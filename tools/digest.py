"""One SHA-256 over a fixed, seeded set of the package's outputs.

    python3 tools/digest.py

Run from the root of a checkout: the package is imported from that
checkout's src/. Two trees that print the same digest give the same bits for
the node sets (n = 1..30 over several alphas) and their four unscaled
matrices, the recurrence sweeps, about 400 solves (b, residual_history and
the stop data), a 300-point interpolant and the first zero of each converged
solve, and shooting profiles. An error is hashed as its type and message, so
the failure paths the set meets count too. A change meant to keep every
output bit runs it on the parent tree and on the change.
"""
from __future__ import annotations

import hashlib
import os
import sys
import warnings

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import emden  # noqa: E402
from emden.errors import EmdenError  # noqa: E402

SEED = 24
SOLVES = 400
INTERPOLANT_POINTS = 300
ALPHAS = (-0.9, -0.5, 0.0, 0.5, 1.0, 2.5, 5.0)
SHOOTING_M = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 4.5, 5.0)


class Digest:
    def __init__(self):
        self.hash = hashlib.sha256()

    def feed(self, *items):
        for item in items:
            if isinstance(item, np.ndarray):
                self.hash.update(f"{item.dtype.str}{item.shape}".encode())
                self.hash.update(np.ascontiguousarray(item).tobytes())
            else:
                # repr keeps every bit of a float and the sign of a zero
                self.hash.update(repr(item).encode())

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


def _shooting(digest):
    for m in SHOOTING_M:
        profile = digest.outcome(emden.shooting_oracle, m, 12.0)
        if profile is not None:
            digest.feed(profile.xs, profile.ys, profile.yps)


def main():
    digest = Digest()
    rng = np.random.default_rng(SEED)
    with warnings.catch_warnings():
        # warnings are not outputs here: the pinned ones have their own tests
        warnings.simplefilter("ignore")
        _operators(digest, rng)
        _solves(digest, rng)
        _shooting(digest)
    print(digest.hash.hexdigest())


if __name__ == "__main__":
    main()
