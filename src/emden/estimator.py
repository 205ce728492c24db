"""Estimator-style facade over the spectral solver.

LaneEmdenSolver follows the fit/predict convention: constructor stores
hyperparameters untouched, fit() runs the Newton iteration and exposes the
result through trailing-underscore attributes, predict() evaluates the fitted
interpolant. get_params/set_params make it compatible with parameter search
and cloning utilities without importing anything from sklearn.
"""
from __future__ import annotations

import warnings

import numpy as np

from .errors import ConvergenceWarning, NotFittedError, ParameterError
from .operators import eval_hat_interpolant
from .solver import LaneEmdenProblem, SolverConfig, newton_solve
from .validation import as_points

__all__ = ["LaneEmdenSolver"]

_PARAM_NAMES = ("m", "n", "alpha", "L", "tol", "max_iter")


class LaneEmdenSolver:
    """Solve a polytrope boundary value problem on the half line.

    Parameters
    ----------
    m : float, polytropic index (nonnegative).
    n : int, collocation degree; n+1 nodes including the origin.
    alpha : float, Laguerre family parameter, > -1.
    L : float, map scale taking basis coordinates to physical x.
    tol : float, Newton convergence threshold on the max-norm residual.
    max_iter : int, Newton iteration cap.

    Attributes after fit
    --------------------
    coefficients_ : nodal values of the solution, shape (n+1,).
    nodes_ : physical collocation points L*eta.
    residual_norm_, n_iter_, converged_ : Newton outcome.
    solution_, operators_ : the underlying solution record and operator bundle.
    """

    def __init__(self, m=3.0, n=12, alpha=SolverConfig.alpha, L=SolverConfig.L,
                 tol=SolverConfig.newton_tol, max_iter=SolverConfig.max_iter):
        self.m = m
        self.n = n
        self.alpha = alpha
        self.L = L
        self.tol = tol
        self.max_iter = max_iter

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in _PARAM_NAMES}

    def set_params(self, **params):
        for name, value in params.items():
            if name not in _PARAM_NAMES:
                raise ParameterError(
                    f"unknown parameter {name!r} for LaneEmdenSolver; "
                    f"valid parameters are {', '.join(_PARAM_NAMES)}"
                )
            setattr(self, name, value)
        return self

    def fit(self, X=None, y=None):
        """Run the collocation solve. X and y are accepted for interface
        compatibility and ignored. A fit that raises leaves the estimator
        unfitted; one that stops without converging warns and keeps its
        result."""
        for name in [name for name in vars(self) if name.endswith("_")]:
            delattr(self, name)
        problem = LaneEmdenProblem(self.m)
        config = SolverConfig(
            n=self.n,
            alpha=self.alpha,
            L=self.L,
            newton_tol=self.tol,
            max_iter=self.max_iter,
        )
        solution = newton_solve(problem, config)
        self.operators_ = solution.operators
        self.solution_ = solution
        self.coefficients_ = solution.b
        self.nodes_ = solution.operators.mapped_nodes
        self.residual_norm_ = solution.residual_norm
        self.n_iter_ = solution.iterations
        self.converged_ = solution.converged
        if not solution.converged:
            warnings.warn(
                f"Newton iteration stopped at residual {solution.residual_norm:.3e} "
                f"after {solution.iterations} iterations without reaching "
                f"{config.newton_tol:.1e}",
                ConvergenceWarning,
                stacklevel=2,
            )
        return self

    def predict(self, X):
        """Evaluate the fitted profile at points X (scalar, 1-d, or a single
        column); returns a 1-d array."""
        if not hasattr(self, "coefficients_"):
            raise NotFittedError("this LaneEmdenSolver is not fitted yet; call fit() first")
        arr = as_points(X, "X")
        if arr.ndim == 2 and arr.shape[1] == 1:
            arr = arr[:, 0]
        if arr.ndim > 1:
            raise ParameterError("X must be scalar, 1-d, or a single column")
        flat = np.atleast_1d(arr)
        return eval_hat_interpolant(self.operators_, self.coefficients_, flat)
