"""Generalized Laguerre polynomials and their Gauss-Radau collocation nodes.

Everything in this module lives on the unscaled half line. The map parameter L
enters only through _unscaled, which takes the interpolant's and the zero
search's checked points x to x/L.

Evaluation is restricted to the envelope n <= 30, x <= 200 (x <= 200*L for the
interpolant) where the forward recurrence stays inside double-precision range;
outside it a RangeError is raised rather than silently losing accuracy.

The public entries check their input once and call a private kernel: _sweep,
the recurrence, whose one checked route is eval_laguerre_all, and
_radau_nodes, the node build. The kernels take a degree, an alpha and float
arrays the package has already checked, and check nothing again; the node
build checks only the mean zero n + alpha and what it computes, the Jacobi
eigenvalues, against the envelope, before its polish.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lapack import dstevd
from .errors import NumericalError, ParameterError, RangeError
from .validation import as_reals, check_integer, check_real, check_type

__all__ = [
    "MAX_DEGREE",
    "MAX_ARGUMENT",
    "BasisParams",
    "RadauNodeSet",
    "eval_laguerre_all",
    "radau_nodes",
]

MAX_DEGREE = 30
MAX_ARGUMENT = 200.0

# Newton polish on the raw polynomial targets |L(z)| <= POLISH_TOL * max(1,|z|) * |L'(z)|,
# the tightest criterion reachable in doubles once e^{z/2} growth sets the noise floor.
POLISH_TOL = 1e-13
_POLISH_MAX_ITER = 50


def _check_degree(n):
    n = check_integer("n", n, minimum=0)
    if n > MAX_DEGREE:
        raise RangeError(f"n={n} outside the evaluation envelope (n <= {MAX_DEGREE})")
    return n


def _check_alpha(alpha):
    alpha = check_real("alpha", alpha)
    if alpha <= -1.0:
        raise ParameterError(f"alpha must be > -1, got {alpha}")
    return alpha + 0.0  # -0.0 reads as 0.0: a zero alpha has one sign


def _check_argument(x):
    """x as a float array of finite reals, or RangeError where an entry lies
    outside [-1, MAX_ARGUMENT]."""
    arr = as_reals(x, "argument")
    if not np.all((arr >= -1.0) & (arr <= MAX_ARGUMENT)):
        raise RangeError(
            f"argument outside the evaluation envelope [-1, {MAX_ARGUMENT:g}]"
        )
    return arr


def _unscaled(x, L):
    """x/L for checked points 0 <= x <= MAX_ARGUMENT*L, inside the envelope
    even where x/L rounds one ulp past MAX_ARGUMENT."""
    return np.minimum(x / L, MAX_ARGUMENT)


@dataclass(frozen=True)
class BasisParams:
    """One half-line discretization: degree n, weight parameter alpha, map scale L."""

    n: int
    alpha: float = 1.0
    L: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "n", _check_degree(check_integer("n", self.n, minimum=1)))
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))
        object.__setattr__(self, "L", check_real("L", self.L, minimum=0.0, exclusive=True))


@dataclass(frozen=True, eq=False)
class RadauNodeSet:
    """The n+1 collocation points {0} U {zeros of L_n^alpha} with cached derivative data.

    eta[0] is exactly 0. dLn_at_eta[j] holds (d/dx)L_n^alpha(eta[j]); entry 0 is
    unused by the matrix formulas (the boundary column uses Ln_at_zero instead)
    but stored for diagnostics. Both come from the last recurrence sweep of the
    zero polish, which evaluates the zeros and the point 0 together:
    dLn_at_eta is minus the sum of that sweep's rows 0..n-1 (the identity
    (d/dx)L_n^alpha = -sum_{k<n} L_k^alpha), and Ln_at_zero its row n at the
    point 0. alpha is the one record of the alpha the set was built for;
    the matrix builders and the interpolant read it here. Immutable, safe to
    share between threads, equal only to itself.
    """

    eta: np.ndarray
    dLn_at_eta: np.ndarray
    Ln_at_zero: float
    alpha: float

    def __post_init__(self):
        self.eta.setflags(write=False)
        self.dLn_at_eta.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.eta) - 1


def eval_laguerre_all(n, alpha, x):
    """All values [L_0^a(x), ..., L_n^a(x)] from one recurrence sweep.

    x may be a scalar or an ndarray; the result has shape (n+1,) + shape(x).
    """
    return _sweep(_check_degree(n), _check_alpha(alpha), _check_argument(x))


def _sweep(n, alpha, x):
    """eval_laguerre_all for a checked degree n, a checked alpha and a float
    array x inside the envelope, without a check."""
    out = np.empty((n + 1,) + x.shape, dtype=float)
    out[0] = 1.0
    if n >= 1:
        out[1] = 1.0 + alpha - x
    for k in range(2, n + 1):
        out[k] = ((2.0 * k - 1.0 + alpha - x) * out[k - 1] - (k + alpha - 1.0) * out[k - 2]) / k
    return out


def radau_nodes(params: BasisParams) -> RadauNodeSet:
    """Assemble the node set {0} U zeros(L_n^alpha) with L_n' at every node and L_n(0).

    Eigenvalues of the symmetric tridiagonal Jacobi matrix (diagonal 2k+alpha+1,
    off-diagonal sqrt(k(k+alpha))), from LAPACK dstevd, give the zeros to near
    machine accuracy (a nonzero dstevd info raises NumericalError naming n and
    alpha); Newton polish with the analytic derivative, the summed lower-degree
    values of the same recurrence sweep, then pins each one down to the documented
    residual target; the point 0 is never stepped. The last sweep also gives
    L_n' at every node and L_n(0); no sweep follows it. A zero that fails to
    polish within the iteration cap raises NumericalError naming its index
    among the zeros, and zeros outside the evaluation envelope (a large alpha
    puts them there) raise RangeError naming n and alpha. params other than a
    BasisParams raise ParameterError.
    """
    check_type("params", params, BasisParams)
    return _radau_nodes(params.n, params.alpha)


def _radau_nodes(n, alpha):
    """radau_nodes for a degree and an alpha that BasisParams has checked."""
    # the Jacobi diagonal sums to n(n + alpha), so the mean zero is n + alpha
    # and past it the largest zero lies outside the envelope; checked before
    # the matrix, whose off-diagonal overflows for alpha near the float limit
    if n + alpha > MAX_ARGUMENT:
        raise _zeros_outside(n, alpha)
    k = np.arange(n, dtype=float)
    diag = 2.0 * k + alpha + 1.0
    off = np.sqrt(k[1:] * (k[1:] + alpha))
    if n > 1:
        z, _, info = dstevd(diag, off, compute_v=0)
        if info != 0:
            raise NumericalError(f"Jacobi eigenvalues failed: LAPACK dstevd info={info} (n={n}, alpha={alpha})")
    else:
        z = diag.copy()
    points = np.concatenate(([0.0], z))
    if not np.all(points <= MAX_ARGUMENT):  # NaN included
        raise _zeros_outside(n, alpha)
    for _ in range(_POLISH_MAX_ITER):
        values = _sweep(n, alpha, points)
        val, der = values[-1], -np.sum(values[:-1], axis=0)  # L_n' = -(L_0 + ... + L_{n-1})
        target = POLISH_TOL * np.maximum(1.0, np.abs(points)) * np.abs(der)
        done = np.abs(val) <= target
        done[0] = True
        if np.all(done):
            order = np.concatenate(([0], 1 + np.argsort(points[1:])))  # 0 stays first
            return RadauNodeSet(eta=points[order], dLn_at_eta=der[order],
                                Ln_at_zero=float(val[0]), alpha=alpha)
        points = np.where(done, points, points - val / der)
    bad = int(np.argmax(np.abs(val[1:]) > target[1:]))
    raise NumericalError(f"zero polish failed to converge at index {bad} (n={n}, alpha={alpha})")


def _zeros_outside(n, alpha):
    return RangeError(f"zeros of L_n^alpha outside the evaluation envelope "
                      f"[-1, {MAX_ARGUMENT:g}] (n={n}, alpha={alpha})")
