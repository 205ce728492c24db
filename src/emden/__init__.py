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
from .errors import (
    ConvergenceWarning,
    EmdenError,
    NoZeroFound,
    NotFittedError,
    NumericalError,
    ParameterError,
    RangeError,
)
from .estimator import LaneEmdenSolver
from .laguerre import (
    MAX_ARGUMENT,
    MAX_DEGREE,
    BasisParams,
    RadauNodeSet,
    eval_laguerre,
    eval_laguerre_all,
    eval_laguerre_deriv,
    eval_mgl,
    laguerre_zeros,
    radau_nodes,
)
from .operators import (
    DiffOperators,
    build_mgl_d1,
    build_mgl_d2,
    build_operators,
    build_poly_d1,
    build_poly_d2,
    eval_hat_interpolant,
    scale_operators,
)
from .reference import (
    ErrorReport,
    FirstZeroResult,
    ReferenceProfile,
    closed_form,
    closed_form_profile,
    compare_profiles,
    first_zero,
    first_zero_of,
    first_zero_reference,
    horedt_reference,
    method_reference_first_zero,
    method_reference_profile,
    shooting_oracle,
)
from .solver import (
    CoefficientDecayReport,
    LaneEmdenProblem,
    SolverConfig,
    SpectralSolution,
    assemble_jacobian,
    assemble_residual,
    newton_solve,
    pow_signed,
    pow_signed_deriv,
    scan_L_reports,
)

__version__ = "0.1.0"

__all__ = [
    "BasisParams",
    "ConvergenceWarning",
    "CoefficientDecayReport",
    "DiffOperators",
    "EmdenError",
    "ErrorReport",
    "FirstZeroResult",
    "LaneEmdenProblem",
    "LaneEmdenSolver",
    "MAX_ARGUMENT",
    "MAX_DEGREE",
    "NoZeroFound",
    "NotFittedError",
    "NumericalError",
    "ParameterError",
    "RadauNodeSet",
    "RangeError",
    "ReferenceProfile",
    "SolverConfig",
    "SpectralSolution",
    "assemble_jacobian",
    "assemble_residual",
    "build_mgl_d1",
    "build_mgl_d2",
    "build_operators",
    "build_poly_d1",
    "build_poly_d2",
    "closed_form",
    "closed_form_profile",
    "compare_profiles",
    "eval_hat_interpolant",
    "eval_laguerre",
    "eval_laguerre_all",
    "eval_laguerre_deriv",
    "eval_mgl",
    "first_zero",
    "first_zero_of",
    "first_zero_reference",
    "horedt_reference",
    "laguerre_zeros",
    "method_reference_first_zero",
    "method_reference_profile",
    "newton_solve",
    "pow_signed",
    "pow_signed_deriv",
    "radau_nodes",
    "scale_operators",
    "scan_L_reports",
    "shooting_oracle",
    "__version__",
]
