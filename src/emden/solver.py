"""Collocation system assembly and the damped Newton driver.

The discretized problem couples the boundary rows (value 1 at the origin,
vanishing first derivative) with the interior rows

    xm_i * (D2_scaled b)_i + 2 * (D1_scaled b)_i + xm_i * g(b_i) = 0

collocated at nodes i = 1..n-1; the last interior node carries no equation,
which makes the system square. The nonlinearity g defaults to the odd
power law sign(y)|y|^m, one rule for every m > 0, and to g = 1 at m = 0;
LaneEmdenProblem(m).g and g_prime are the one public route to it and its
derivative. A private callback slot replaces the power law for property tests
and for the benchmark's vetting of its literal-power points; only the power
law is public.

newton_solve and scan_L_reports share one damped Newton loop: a scan
iterates the systems of its map scales side by side on stacks of their
arrays, and a single solve is the one-member case. newton_solve keeps its
most recent results and returns the kept one for a setup it has solved;
scans keep nothing. assemble_residual and assemble_jacobian are the
one-system forms of what the loop assembles.
Input is checked before any work starts, in one checked layer: the public
entries read their input through validation once, and each holds its own
overflow guard. The private loop functions are the trusted core: they work
on float arrays the package made, without checks, under the one overflow
guard of the Newton loop. A check that fails during the loop raises
NumericalError where it is found.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._lapack import dgetrf, dgetrs
from .errors import NumericalError, ParameterError
from .laguerre import BasisParams
from .operators import _UNSCALED_CACHE_SIZE, DiffOperators, _coefficients, _scaled_operators
from .validation import as_floats, check_integer, check_real, check_type

__all__ = [
    "LaneEmdenProblem",
    "SolverConfig",
    "SpectralSolution",
    "assemble_residual",
    "assemble_jacobian",
    "newton_solve",
    "CoefficientDecayReport",
    "scan_L_reports",
]


def _pow_signed_scalar(m):
    """LaneEmdenProblem(m).g as a function of one float, bit for bit.

    m is an index LaneEmdenProblem has validated. The power is taken on
    Python floats, with the sign as np.sign gives it (0 at -0.0, so the
    result is +0.0 there as well). Where |y|**m overflows, Python raises
    OverflowError; the result is then sign(y)*inf, what numpy returns.
    """
    if m == 0:
        return lambda y: 1.0

    def power(y):
        sign = (y > 0.0) - (y < 0.0)
        try:
            return sign * abs(y) ** m
        except OverflowError:  # only for |y| > 1, so sign is +-1
            return sign * math.inf

    return power


@dataclass(frozen=True)
class LaneEmdenProblem:
    """Power-law nonlinearity g(y) = sign(y)|y|^m with index m >= 0, g = 1
    at m = 0, and g'(y) = m|y|^(m-1), 0 at m = 0: the one owner of both and
    of the index check.

    One rule for every m > 0, the odd extension, keeps g from changing form
    between neighbouring indices and keeps negative Newton iterates
    real-valued. m = 0 keeps g = 1: its solution 1 - x**2/6 holds on the whole
    half line, where sign(y) would cut it off at its zero and stall the
    linear problem's Newton solve. 0**0 evaluates to 1. For m < 1, g' is
    singular at y = 0; those entries are zeroed with a RuntimeWarning, and the
    damped line search steps off the singularity.

    g and g_prime read y with as_floats, so NaN and inf pass for the line
    search to reject; an overflowing power is inf, unwarned. The Newton loop
    calls _power and _power_prime, the same rules on its own float arrays,
    unchecked and under the loop's overflow guard.

    The physically interesting range is 0 <= m <= 5 but larger m is accepted.
    The private callback pair replaces g and its derivative wholesale when
    set. Property tests use it, and so does the benchmark's vetting of its
    literal-power (fault) points in bench/points.py; the slot stays until
    that vetting is rewritten on LaneEmdenProblem(m).
    """

    m: float
    _g: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, repr=False)
    _g_prime: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "m", check_real("m", self.m, minimum=0.0))

    def g(self, y):
        y = as_floats(y, "y")
        with np.errstate(over="ignore"):
            return self._power(y)

    def g_prime(self, y):
        y = as_floats(y, "y")
        with np.errstate(over="ignore"):
            return self._power_prime(y)

    def _power(self, y):
        if self._g is not None:
            return self._g(y)
        out = np.ones(y.shape) if self.m == 0 else np.sign(y) * np.abs(y) ** self.m
        return float(out) if out.ndim == 0 else out

    def _power_prime(self, y):
        if self._g_prime is not None:
            return self._g_prime(y)
        m = self.m
        if m == 0:
            out = np.zeros(y.shape)
        elif m >= 1.0:
            out = np.abs(y) ** (m - 1.0)
        else:
            # 1 stands in for y = 0, where the power would divide by zero;
            # the warning points at the caller of g_prime
            singular = y == 0.0
            out = np.abs(np.where(singular, 1.0, y)) ** (m - 1.0)
            if np.any(singular):
                warnings.warn(
                    "power-law derivative is singular at y=0 for m < 1; entry zeroed",
                    RuntimeWarning,
                    stacklevel=3,
                )
                out = np.where(singular, 0.0, out)
        out = m * out
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and Newton knobs for one solve. Every entry point takes
    its defaults from these fields (alpha and L are BasisParams'). The line
    search tries the step factors 1, 1/2, ..., 1/64, the same in every solve."""

    n: int
    alpha: float = BasisParams.alpha
    L: float = BasisParams.L
    newton_tol: float = 1e-12
    max_iter: int = 100

    def __post_init__(self):
        basis = BasisParams(n=self.n, alpha=self.alpha, L=self.L)
        # kept outside the fields, so out of equality, hashing and repr
        object.__setattr__(self, "_basis", basis)
        object.__setattr__(self, "n", basis.n)
        object.__setattr__(self, "alpha", basis.alpha)
        object.__setattr__(self, "L", basis.L)
        object.__setattr__(self, "newton_tol", check_real("newton_tol", self.newton_tol, minimum=0.0, exclusive=True))
        object.__setattr__(self, "max_iter", check_integer("max_iter", self.max_iter, minimum=1))

    def basis_params(self) -> BasisParams:
        """The validated BasisParams of n, alpha and L, built once per config."""
        return self._basis


@dataclass(frozen=True)
class SpectralSolution:
    """Solve result: nodal values b plus diagnostics.

    b[0] is exactly 1 whenever converged is True (the boundary row is clamped,
    not left to linear-algebra roundoff). residual_history records the
    accepted residual norms, including the initial one; it is non-increasing.
    operators is the DiffOperators bundle the solve was assembled on, which
    first_zero reads; pass it to eval_hat_interpolant instead of a rebuild.
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


def _stacked_residual(problem: LaneEmdenProblem, d1, d2, xm, b) -> np.ndarray:
    """Residual of the collocation system at b, or at each vector of a stack
    of them along the leading axes of b, against D1_scaled, D2_scaled and
    mapped_nodes stacks d1, d2 and xm that broadcast to it.

    A vector gets the same bits in any stack: matmul makes one dot (row 0 of
    D1_scaled) and one gemv per vector and product, and the rest is
    elementwise. A gemm against several vectors at once would change them.
    """
    n = b.shape[-1] - 1
    col = b[..., None]
    out = np.empty(b.shape)
    out[..., 0] = b[..., 0] - 1.0
    out[..., 1] = (d1[..., :1, :] @ col)[..., 0, 0]
    out[..., 2:] = (
        xm[..., 1:n] * (d2[..., 1:n, :] @ col)[..., 0]
        + 2.0 * (d1[..., 1:n, :] @ col)[..., 0]
        + xm[..., 1:n] * problem._power(b[..., 1:n])
    )
    return out


def assemble_residual(problem: LaneEmdenProblem, ops: DiffOperators, b) -> np.ndarray:
    """Residual of the collocation system at coefficients b."""
    check_type("problem", problem, LaneEmdenProblem)
    b = _coefficients(ops, b)
    with np.errstate(over="ignore"):
        return _stacked_residual(problem, ops.D1_scaled, ops.D2_scaled, ops.mapped_nodes, b)


def _linear_jacobian(d1, d2, xm) -> np.ndarray:
    """The part of the Jacobian that does not depend on b: both boundary rows
    and xm * D2_scaled + 2 * D1_scaled on the interior rows.

    d1, d2 and xm are one bundle's D1_scaled, D2_scaled and mapped_nodes, or
    stacks of them along leading axes; the result stacks the same way.
    """
    n = d1.shape[-1] - 1
    jac = np.zeros(d1.shape)
    jac[..., 0, 0] = 1.0
    jac[..., 1, :] = d1[..., 0, :]
    jac[..., 2:, :] = xm[..., 1:n, None] * d2[..., 1:n, :] + 2.0 * d1[..., 1:n, :]
    return jac


def _add_g_prime(linear: np.ndarray, problem: LaneEmdenProblem, xm, b) -> np.ndarray:
    """A copy of the linear part with xm_i * g'(b_i) added on the interior
    diagonal; linear, xm and b may stack along leading axes."""
    n = b.shape[-1] - 1
    jac = linear.copy()
    # entries (i + 1, i) for i = 1..n-1: every (n + 2)-th of a flattened
    # matrix, from (2, 1) on; a strided view, so += writes into jac
    diagonal = jac.reshape(*jac.shape[:-2], -1)[..., 2 * n + 3::n + 2]
    diagonal += xm[..., 1:n] * problem._power_prime(b[..., 1:n])
    return jac


def assemble_jacobian(problem: LaneEmdenProblem, ops: DiffOperators, b) -> np.ndarray:
    """Analytic Jacobian of assemble_residual with respect to b."""
    check_type("problem", problem, LaneEmdenProblem)
    b = _coefficients(ops, b)
    linear = _linear_jacobian(ops.D1_scaled, ops.D2_scaled, ops.mapped_nodes)
    with np.errstate(over="ignore"):
        return _add_g_prime(linear, problem, ops.mapped_nodes, b)


class _SystemFailure(NumericalError):
    """The NumericalError of system ``index`` of a stacked LU solve."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


def _stacked_lu_solve(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Checked dense LU solves of a stack of systems.

    Returns x, row i bit for bit what scipy's lu_factor and lu_solve give for
    system i, or raises _SystemFailure, a NumericalError that carries the stack
    index, for the first system in stack order that fails a check. The checks
    run in this order: finite Jacobian, no LU pivot below 1e-14 of the largest
    (without lu_factor's LinAlgWarning on an exactly singular one), finite
    right-hand side, getrs success.
    """
    finite_jac = np.isfinite(jac).all(axis=(1, 2)).tolist()
    finite_rhs = np.isfinite(rhs).all(axis=1).tolist()
    x = np.empty(rhs.shape)
    for i, a in enumerate(jac):
        if not finite_jac[i]:
            raise _SystemFailure("Jacobian factorization failed: array must not contain infs or NaNs", i)
        lu, piv, _ = dgetrf(a)
        pivots = np.abs(lu.diagonal())
        scale = pivots.max()
        # false for a NaN or infinite scale as well
        if not (0.0 < scale < math.inf and pivots.min() >= 1e-14 * scale):
            raise _SystemFailure("singular Jacobian: pivot below 1e-14 of the largest", i)
        if not finite_rhs[i]:
            raise _SystemFailure("linear solve failed: right-hand side must not contain infs or NaNs", i)
        x[i], info = dgetrs(lu, piv, rhs[i])
        if info != 0:
            raise _SystemFailure(f"linear solve failed: illegal value in argument {-info} of getrs", i)
    return x


# The step factors of the line search, one column: 1, 1/2, ..., 1/64.
_DAMPING_LADDER = (0.5 ** np.arange(7.0))[:, None]


def _lockstep_newton_solve(problem: LaneEmdenProblem, configs) -> list:
    """The damped Newton loop, run on configs that differ only in L, side by
    side on stacks of the members still iterating; stacking changes no
    member's bits. Each iteration evaluates every rung of the damping ladder
    of every member in one residual call; a member takes the first rung that
    reduces its residual, or stalls. A member that fails a check of its LU
    solve raises NumericalError at once, its message ending in the member's
    map scale and iteration, e.g. "(L=2.0, iteration 1)"; among members
    failing at the same iteration, the first in configs decides.
    """
    if not configs:
        return []
    ops, d1, d2, xm = _scaled_operators([config.basis_params() for config in configs])
    first = configs[0]
    tol = first.newton_tol
    linear = _linear_jacobian(d1, d2, xm)
    b = (1.0 + xm**2 / 3.0) ** -0.5
    b[:, 0] = 1.0
    # one guard for the loop: an overflow to inf is a rejected rung; the
    # operators and the starting guess above still warn at extreme L
    with np.errstate(over="ignore"):
        res = _stacked_residual(problem, d1, d2, xm, b)
        norm = np.abs(res).max(axis=1).tolist()
        histories = [[v] for v in norm]
        iterations = [0] * len(configs)
        live = [i for i, v in enumerate(norm) if v > tol]
        iteration = 0
        while live and iteration < first.max_iter:
            iteration += 1
            # a slice while every member iterates, which copies no stack
            rows = slice(None) if len(live) == len(configs) else live
            try:
                delta = _stacked_lu_solve(_add_g_prime(linear[rows], problem, xm[rows], b[rows]), -res[rows])
            except _SystemFailure as exc:
                L = configs[live[exc.index]].L
                raise NumericalError(f"{exc} (L={L}, iteration {iteration})") from None
            # the boundary row is e_0 with zero residual, so delta[0] = 0 exactly;
            # clamping removes LU roundoff and keeps b[0] = 1 bit-exact on every rung
            delta[:, 0] = 0.0
            # cand[j, r] is member live[j] stepped by rung r
            cand = b[rows, None] + _DAMPING_LADDER * delta[:, None]
            cand_res = _stacked_residual(problem, d1[rows, None], d2[rows, None], xm[rows, None], cand)
            still = []
            for j, (i, cand_norms) in enumerate(zip(live, np.abs(cand_res).max(axis=2).tolist())):
                iterations[i] = iteration
                # the first rung that reduces the residual; a NaN or inf never does
                for r, v in enumerate(cand_norms):
                    if v < norm[i]:
                        break
                else:
                    continue  # stalled: no rung down to 1/64 reduces the residual
                b[i], res[i], norm[i] = cand[j, r], cand_res[j, r], v
                histories[i].append(norm[i])
                if norm[i] > tol:
                    still.append(i)
            live = still
    return [
        SpectralSolution(
            b=b[i].copy(),
            residual_norm=norm[i],
            iterations=iterations[i],
            converged=norm[i] <= config.newton_tol,
            config_echo=config,
            operators=ops[i],
            residual_history=tuple(histories[i]),
        )
        for i, config in enumerate(configs)
    ]


# Solves kept, as many as unscaled operator builds; the least recently used
# goes first. A kept solution pins its scaled and unscaled operators, about
# 46 KB at n = 30, so the bound keeps them under 1.5 MB.
@functools.lru_cache(maxsize=_UNSCALED_CACHE_SIZE)
def _kept_solve(problem: LaneEmdenProblem, config: SolverConfig) -> SpectralSolution:
    """The one-member Newton loop for a setup, run once while it stays kept;
    a solve that raises keeps nothing."""
    return _lockstep_newton_solve(problem, [config])[0]


def newton_solve(problem: LaneEmdenProblem, config: SolverConfig) -> SpectralSolution:
    """Damped Newton iteration on the collocation system.

    Starts from b_j = (1 + xm_j**2/3)**(-1/2), which satisfies both boundary
    conditions and decays like the true solutions. Each step solves
    J delta = -F by dense LU with partial pivoting, then takes the largest
    step factor of 1, 1/2, 1/4, ... down to the constant floor 1/64 that
    decreases the residual infinity-norm. The b-independent part of J is
    assembled once per solve. A stalled line search or an exhausted iteration
    budget returns a non-converged result rather than raising; a non-finite
    or singular Jacobian raises NumericalError that names L and the
    iteration. This is the one-member case of the loop scan_L_reports runs.
    A problem or config of another type raises ParameterError. The loop takes
    g and g' from the problem's private _power and _power_prime, unchecked,
    under one overflow guard that starts after the operators and the starting
    guess are built, so their warnings at an extreme L reach the caller.

    The 32 most recent results are kept: a setup equal to a kept one, in
    the problem (m and the callback slot) and in every config field, returns
    the very object the first call returned, without its warnings. A config
    reads alpha = -0.0 as 0.0, so both share one entry.
    """
    check_type("problem", problem, LaneEmdenProblem)
    check_type("config", config, SolverConfig)
    return _kept_solve(problem, config)


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


def scan_L_reports(m, n, alpha, grid, tol=SolverConfig.newton_tol,
                   max_iter=SolverConfig.max_iter):
    """Solve once per map scale; flag the converged scale with the smallest
    trailing-coefficient magnitude (the first one on ties) as recommended.

    All the map scales are solved together, in one Newton loop over stacked
    systems; each result is bitwise what newton_solve gives for that L alone.
    A grid that is not iterable, or an entry of it that is not a valid map
    scale, raises ParameterError before any solve. A member whose LU solve
    fails a check raises NumericalError, naming its L and iteration, at the
    iteration it fails; of members failing at the same iteration, the one
    earlier in the grid decides.
    """
    problem = LaneEmdenProblem(m)
    try:
        grid = iter(grid)
    except TypeError:
        raise ParameterError(f"grid must be an iterable of map scales, got {grid!r:.40}") from None
    configs = [SolverConfig(n=n, alpha=alpha, L=L, newton_tol=tol, max_iter=max_iter) for L in grid]
    solutions = _lockstep_newton_solve(problem, configs)
    tails = [_tail_magnitude(s.b) for s in solutions]
    converged = [i for i, s in enumerate(solutions) if s.converged]
    best = min(converged, key=tails.__getitem__, default=None)
    return [
        CoefficientDecayReport(
            L=s.config_echo.L,
            converged=bool(s.converged),
            recommended=(i == best),
            tail_magnitude=tails[i],
            coeff_abs=tuple(float(a) for a in np.abs(s.b)),
            solution=s,
        )
        for i, s in enumerate(solutions)
    ]
