"""Collocation system assembly and the damped Newton driver.

The discretized problem couples the boundary rows (value 1 at the origin,
vanishing first derivative) with the interior rows

    xm_i * (D2_scaled b)_i + 2 * (D1_scaled b)_i + xm_i * g(b_i) = 0

collocated at nodes i = 1..n-1; the last interior node carries no equation,
which makes the system square. The nonlinearity g defaults to the signed
power law y^m; an internal callback slot exists so scale-covariance can be
tested exactly, but only the power law is public.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .errors import NumericalError, ParameterError
from .laguerre import BasisParams
from .operators import DiffOperators, build_operators
from .validation import check_integer, check_real

__all__ = [
    "LaneEmdenProblem",
    "SolverConfig",
    "SpectralSolution",
    "pow_signed",
    "pow_signed_deriv",
    "assemble_residual",
    "assemble_jacobian",
    "newton_solve",
    "CoefficientDecayReport",
    "scan_L_reports",
]


def pow_signed(y, m):
    """sign(y)*|y|**m for non-integer m; the plain integer power otherwise.

    The odd extension keeps transiently negative Newton iterates real-valued.
    0**0 evaluates to 1.
    """
    m = check_real("m", m, minimum=0.0)
    arr = np.asarray(y, dtype=float)
    if m == int(m):
        out = arr ** int(m)
    else:
        out = np.sign(arr) * np.abs(arr) ** m
    return float(out) if out.ndim == 0 else out


def pow_signed_scalar(m):
    """pow_signed for one index m as a function of one float, bit for bit.

    m is validated here once, not on every call. Integer m keeps numpy's
    integer power, whose last bits differ from libm pow; non-integer m takes
    sign(y)*|y|**m on Python floats, with the sign as np.sign gives it (0 at
    -0.0, so the result is +0.0 there as well). Where |y|**m would overflow,
    Python raises OverflowError and numpy returns inf; states of the
    shooting oracle, its one caller, stay many orders of magnitude below that.
    """
    m = check_real("m", m, minimum=0.0)
    if m == int(m):
        k = int(m)
        return lambda y: float(np.asarray(y, dtype=float) ** k)
    return lambda y: ((y > 0.0) - (y < 0.0)) * abs(y) ** m


def pow_signed_deriv(y, m):
    """Derivative factor of pow_signed with the leading m kept out.

    Returns y**(m-1) for integer m >= 1, |y|**(m-1) for non-integer m, and 0
    for m = 0 (so the caller's m * pow_signed_deriv never forms 0 * inf).
    For non-integer m < 1 the factor is singular at y = 0; those entries are
    zeroed and a RuntimeWarning is emitted, trusting the damped line search
    to step off the singularity.
    """
    m = check_real("m", m, minimum=0.0)
    arr = np.asarray(y, dtype=float)
    if m == 0:
        out = np.zeros(arr.shape)
    elif m == int(m):
        out = arr ** (int(m) - 1)
    else:
        with np.errstate(divide="ignore"):
            out = np.abs(arr) ** (m - 1.0)
        if m < 1.0:
            singular = arr == 0.0
            if np.any(singular):
                warnings.warn(
                    "power-law derivative is singular at y=0 for m < 1; entry zeroed",
                    RuntimeWarning,
                    stacklevel=2,
                )
                out = np.where(singular, 0.0, out)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class LaneEmdenProblem:
    """Power-law nonlinearity g(y) = y^m with index m >= 0.

    The physically interesting range is 0 <= m <= 5 but larger m is accepted.
    The private callback pair replaces g and its derivative wholesale when
    set; it exists for internal property tests only.
    """

    m: float
    _g: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, repr=False)
    _g_prime: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "m", check_real("m", self.m, minimum=0.0))

    def g(self, y):
        if self._g is not None:
            return self._g(np.asarray(y, dtype=float))
        return pow_signed(y, self.m)

    def g_prime(self, y):
        if self._g_prime is not None:
            return self._g_prime(np.asarray(y, dtype=float))
        return self.m * pow_signed_deriv(y, self.m)


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and Newton knobs for one solve."""

    n: int
    alpha: float = 1.0
    L: float = 1.0
    newton_tol: float = 1e-12
    max_iter: int = 100
    damping_min: float = 1.0 / 64.0

    def __post_init__(self):
        basis = BasisParams(n=self.n, alpha=self.alpha, L=self.L)
        object.__setattr__(self, "n", basis.n)
        object.__setattr__(self, "alpha", basis.alpha)
        object.__setattr__(self, "L", basis.L)
        object.__setattr__(self, "newton_tol", check_real("newton_tol", self.newton_tol, minimum=0.0, exclusive=True))
        object.__setattr__(self, "max_iter", check_integer("max_iter", self.max_iter, minimum=1))
        dm = check_real("damping_min", self.damping_min, minimum=0.0, exclusive=True)
        if dm > 1.0:
            raise ParameterError(f"damping_min must be <= 1, got {dm}")
        object.__setattr__(self, "damping_min", dm)

    def basis_params(self) -> BasisParams:
        return BasisParams(n=self.n, alpha=self.alpha, L=self.L)


@dataclass(frozen=True)
class SpectralSolution:
    """Solve result: nodal values b plus diagnostics.

    b[0] is exactly 1 whenever converged is True (the boundary row is clamped,
    not left to linear-algebra roundoff). residual_history records the
    accepted residual norms, including the initial one; it is non-increasing.
    operators is the DiffOperators bundle the solve was assembled on; pass it
    to eval_hat_interpolant or first_zero instead of building it again.
    mapped_nodes is operators.mapped_nodes.
    """

    b: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    config_echo: SolverConfig
    operators: DiffOperators
    residual_history: tuple = ()

    def __post_init__(self):
        self.b.setflags(write=False)

    @property
    def mapped_nodes(self) -> np.ndarray:
        return self.operators.mapped_nodes


def assemble_residual(problem: LaneEmdenProblem, ops: DiffOperators, b) -> np.ndarray:
    """Residual of the collocation system at coefficients b."""
    b = np.asarray(b, dtype=float)
    n = ops.n
    if b.shape != (n + 1,):
        raise ParameterError(f"b must have length {n + 1}")
    xm = ops.mapped_nodes
    interior = slice(1, n)
    out = np.empty(n + 1)
    out[0] = b[0] - 1.0
    out[1] = ops.D1_scaled[0] @ b
    out[2:] = (
        xm[interior] * (ops.D2_scaled[interior] @ b)
        + 2.0 * (ops.D1_scaled[interior] @ b)
        + xm[interior] * problem.g(b[interior])
    )
    return out


def _linear_jacobian(ops: DiffOperators) -> np.ndarray:
    """The part of the Jacobian that does not depend on b: both boundary rows
    and xm * D2_scaled + 2 * D1_scaled on the interior rows."""
    n = ops.n
    xm = ops.mapped_nodes
    jac = np.zeros((n + 1, n + 1))
    jac[0, 0] = 1.0
    jac[1] = ops.D1_scaled[0]
    interior = np.arange(1, n)
    jac[2:] = xm[interior, None] * ops.D2_scaled[interior] + 2.0 * ops.D1_scaled[interior]
    return jac


def _jacobian(linear: np.ndarray, problem: LaneEmdenProblem, ops: DiffOperators, b) -> np.ndarray:
    """A copy of the linear part with xm_i * g'(b_i) added on the interior diagonal."""
    jac = linear.copy()
    interior = np.arange(1, ops.n)
    jac[interior + 1, interior] += ops.mapped_nodes[interior] * problem.g_prime(b[interior])
    return jac


def assemble_jacobian(problem: LaneEmdenProblem, ops: DiffOperators, b) -> np.ndarray:
    """Analytic Jacobian of assemble_residual with respect to b."""
    b = np.asarray(b, dtype=float)
    n = ops.n
    if b.shape != (n + 1,):
        raise ParameterError(f"b must have length {n + 1}")
    return _jacobian(_linear_jacobian(ops), problem, ops, b)


def _lu_solve_checked(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    if not np.isfinite(jac).all():
        raise NumericalError("Jacobian factorization failed: array must not contain infs or NaNs")
    # LAPACK's getrf as scipy's lu_factor calls it, without lu_factor's
    # LinAlgWarning on an exactly singular matrix: the pivot check raises then
    lu, piv, _ = dgetrf(jac)
    pivots = np.abs(np.diag(lu))
    scale = pivots.max() if pivots.size else 0.0
    if not np.isfinite(scale) or scale == 0.0 or pivots.min() < 1e-14 * scale:
        raise NumericalError("singular Jacobian: pivot below 1e-14 of the largest")
    if not np.isfinite(rhs).all():
        raise NumericalError("linear solve failed: right-hand side must not contain infs or NaNs")
    # getrs as scipy's lu_solve calls it, the same bits without its wrapper
    x, info = dgetrs(lu, piv, rhs)
    if info != 0:
        raise NumericalError(f"linear solve failed: illegal value in argument {-info} of getrs")
    return x


def newton_solve(problem: LaneEmdenProblem, config: SolverConfig) -> SpectralSolution:
    """Damped Newton iteration on the collocation system.

    Starts from b_j = (1 + xm_j**2/3)**(-1/2), which satisfies both boundary
    conditions and decays like the true solutions. Each step solves
    J delta = -F by dense LU with partial pivoting, then halves the step
    factor from 1 down to damping_min until the residual infinity-norm
    decreases. The part of J that does not depend on b is assembled once per
    solve. A stalled line search or an exhausted iteration budget returns a
    non-converged result rather than raising.
    """
    ops = build_operators(config.basis_params())
    linear = _linear_jacobian(ops)
    xm = ops.mapped_nodes
    b = (1.0 + xm**2 / 3.0) ** -0.5
    b[0] = 1.0
    res = assemble_residual(problem, ops, b)
    norm = float(np.max(np.abs(res)))
    history = [norm]
    iterations = 0
    while norm > config.newton_tol and iterations < config.max_iter:
        delta = _lu_solve_checked(_jacobian(linear, problem, ops, b), -res)
        # the boundary row is e_0 with zero residual, so delta[0] = 0 exactly;
        # clamping removes LU roundoff and keeps b[0] = 1 bit-exact
        delta[0] = 0.0
        iterations += 1
        step = 1.0
        accepted = False
        while step >= config.damping_min * (1.0 - 1e-12):
            cand = b + step * delta
            cand[0] = 1.0
            cand_res = assemble_residual(problem, ops, cand)
            cand_norm = float(np.max(np.abs(cand_res)))
            if np.isfinite(cand_norm) and cand_norm < norm:
                b, res, norm = cand, cand_res, cand_norm
                history.append(norm)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break  # stalled: no step factor down to damping_min reduces the residual
    return SpectralSolution(
        b=b,
        residual_norm=norm,
        iterations=iterations,
        converged=bool(norm <= config.newton_tol),
        config_echo=config,
        operators=ops,
        residual_history=tuple(history),
    )


@dataclass(frozen=True)
class CoefficientDecayReport:
    """One scan-L record: convergence flag and how small the trailing
    coefficients got. solution is the solve the record was read from."""

    L: float
    converged: bool
    recommended: bool
    tail_magnitude: float
    coeff_abs: tuple
    solution: SpectralSolution = field(repr=False, compare=False)


def _tail_magnitude(b) -> float:
    return float(np.max(np.abs(b[-3:])))


def scan_L_reports(m, n, alpha, grid, tol=1e-12, max_iter=100):
    """Solve once per map scale; flag the converged scale with the smallest
    trailing-coefficient magnitude (the first one on ties) as recommended."""
    problem = LaneEmdenProblem(m)
    solutions = [newton_solve(problem, SolverConfig(n=n, alpha=alpha, L=float(L),
                                                    newton_tol=tol, max_iter=max_iter))
                 for L in grid]
    tails = [_tail_magnitude(s.b) for s in solutions]
    converged = [i for i, s in enumerate(solutions) if s.converged]
    best = min(converged, key=tails.__getitem__, default=None)
    return [
        CoefficientDecayReport(
            L=float(L),
            converged=bool(s.converged),
            recommended=(i == best),
            tail_magnitude=tails[i],
            coeff_abs=tuple(float(a) for a in np.abs(s.b)),
            solution=s,
        )
        for i, (L, s) in enumerate(zip(grid, solutions))
    ]
