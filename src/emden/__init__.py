"""Spectral collocation for singular polytrope equations on the half line.

The equation y'' + (2/x) y' + y^m = 0 with y(0) = 1, y'(0) = 0 is discretized
on Gauss-Radau points of a generalized Laguerre family. The basis functions
carry an exponential decay factor, so boundary behavior at infinity is built
in; derivative matrices for the weighted basis come from closed-form entries
and the nonlinear system is solved by a damped Newton iteration.

Quick start::

    from emden import LaneEmdenSolver
    model = LaneEmdenSolver(m=3.0, n=12, L=0.5).fit()
    model.predict([0.0, 1.0, 2.0])

or, closer to the metal::

    from emden import LaneEmdenProblem, SolverConfig, newton_solve
    solution = newton_solve(LaneEmdenProblem(3.0), SolverConfig(n=12, L=0.5))
"""
# Each layer module declares its public names once, in its __all__; the
# package republishes exactly those.
from . import errors, estimator, laguerre, operators, reference, solver
from .errors import *
from .estimator import *
from .laguerre import *
from .operators import *
from .reference import *
from .solver import *

__version__ = "0.1.0"

__all__ = [name for module in (errors, estimator, laguerre, operators, reference, solver)
           for name in module.__all__] + ["__version__"]
