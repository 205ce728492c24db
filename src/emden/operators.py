"""Differentiation matrices and interpolant evaluation for the half-line basis.

Two families of dense (n+1) x (n+1) operators are built from the node set:

- polynomial-basis matrices D1_poly/D2_poly, mapping nodal values of a degree-n
  polynomial interpolant to nodal values of its derivatives;
- weighted matrices D1_mgl/D2_mgl for interpolants of the form
  exp(-x/2) * p(x), obtained from the polynomial matrices by the product rule:
  conjugation with the diagonal exp(-eta/2) weight plus the -1/2 (first
  derivative) and +1/4 - D1 (second derivative) shifts.

Scaling by the map parameter L gives D1_scaled = D1_mgl/L, D2_scaled =
D2_mgl/L**2 acting on values at the mapped nodes L*eta.

All entries come from closed forms, at the alpha the node set records;
nothing here differentiates numerically. The node set and the four unscaled
matrices depend only on (n, alpha) and are built once per pair (the alpha
check reads -0.0 as 0.0, so a zero alpha is one pair). _scaled_operators
builds the bundle of one BasisParams: it applies the scale L, the one scaling
of every bundle, to the unscaled matrices of the params' own (n, alpha), so
no matrix of another alpha can enter; the Newton loop has it write each
member's scaled arrays into the member's rows of the loop's stacks.
build_operators, its checked form, is the one public route to the matrices.
The interpolant is evaluated through one (points x nodes) cardinal matrix.

The public entries check their input once and call a private kernel:
_scaled_operators, on _unscaled_operators, _poly_d1 and _poly_d2, for the
matrices, _hat_values for the interpolant. The kernels take node sets,
matrices and points the package has made or checked, and check nothing
again. The unscaled build forms both weighted matrices with one exp ratio,
and the zero search reaches the interpolant through _hat_values.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RangeError
from .laguerre import MAX_ARGUMENT, BasisParams, RadauNodeSet, _radau_nodes, _sweep, _unscaled
from .validation import as_points, as_reals, check_type

__all__ = [
    "DiffOperators",
    "build_operators",
    "eval_hat_interpolant",
]

# Relative half-width of the removable-singularity branch around each node.
NEAR_NODE_TOL = 1e-9

# Unscaled builds kept; the least recently used one goes first. The CLI
# solves at alpha = 1 with n from 6 to 24, at most 19 keys, so they all stay.
# A caller that draws a continuous alpha never hits the cache; the bound keeps
# what it fills to 32 entries of at most 31 KB each (n = 30), under 1 MB.
_UNSCALED_CACHE_SIZE = 32


@dataclass(frozen=True, eq=False)
class DiffOperators:
    """Operator bundle for one discretization; immutable, safe to share.

    Bundles with the same (n, alpha) share one node set and the same
    read-only D1_poly, D2_poly, D1_mgl and D2_mgl arrays; only mapped_nodes,
    D1_scaled and D2_scaled belong to the bundle's L. Equal only to itself.
    """

    params: BasisParams
    nodes: RadauNodeSet
    mapped_nodes: np.ndarray
    D1_poly: np.ndarray
    D2_poly: np.ndarray
    D1_mgl: np.ndarray
    D2_mgl: np.ndarray
    D1_scaled: np.ndarray
    D2_scaled: np.ndarray

    def __post_init__(self):
        for name in ("mapped_nodes", "D1_poly", "D2_poly", "D1_mgl", "D2_mgl",
                     "D1_scaled", "D2_scaled"):
            getattr(self, name).setflags(write=False)

    @property
    def n(self) -> int:
        return self.nodes.n


def _poly_d1(nodes):
    """First-derivative matrix of the polynomial nodal basis, at the node set's alpha.

    Five closed-form cases: interior off-diagonal, interior diagonal, boundary
    column j=0, boundary row i=0, and the corner i=j=0.
    """
    n = nodes.n
    eta, lp, l0, alpha = nodes.eta, nodes.dLn_at_eta, nodes.Ln_at_zero, nodes.alpha
    d = np.empty((n + 1, n + 1))
    ei, ej = eta[1:, None], eta[None, 1:]
    lpi, lpj = lp[1:, None], lp[None, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        d[1:, 1:] = (ei * lpi) / (ej * lpj * (ei - ej))
    idx = np.arange(1, n + 1)
    d[idx, idx] = (1.0 - alpha + eta[1:]) / (2.0 * eta[1:])
    d[1:, 0] = lp[1:] / l0
    d[0, 1:] = -l0 / (eta[1:] ** 2 * lp[1:])
    d[0, 0] = -n / (alpha + 1.0)
    return d


def _poly_d2(nodes):
    """Second-derivative matrix of the polynomial nodal basis, at the node set's alpha.

    Same five-case structure as _poly_d1. Equals _poly_d1 squared up to
    roundoff; built directly from closed forms so the identity stays a
    testable property rather than a construction.
    """
    n = nodes.n
    eta, lp, l0, alpha = nodes.eta, nodes.dLn_at_eta, nodes.Ln_at_zero, nodes.alpha
    d = np.empty((n + 1, n + 1))
    ei, ej = eta[1:, None], eta[None, 1:]
    lpi, lpj = lp[1:, None], lp[None, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        d[1:, 1:] = lpi * ((1.0 - alpha + ei) * (ei - ej) - 2.0 * ei) / (
            ej * (ei - ej) ** 2 * lpj
        )
    idx = np.arange(1, n + 1)
    d[idx, idx] = ((eta[1:] - alpha) ** 2 - 1.0) / (3.0 * eta[1:] ** 2) - (n - 1.0) / (
        3.0 * eta[1:]
    )
    d[1:, 0] = -(alpha + 1.0 - eta[1:]) * lp[1:] / (eta[1:] * l0)
    d[0, 1:] = 2.0 * l0 * (n * eta[1:] - alpha - 1.0) / ((alpha + 1.0) * eta[1:] ** 3 * lp[1:])
    d[0, 0] = n * (n - 1.0) / ((alpha + 1.0) * (alpha + 2.0))
    return d


def _exp_ratio(eta: np.ndarray) -> np.ndarray:
    # R[i, j] = exp((eta_j - eta_i)/2); n <= 30 keeps the arguments within range
    return np.exp((eta[None, :] - eta[:, None]) / 2.0)


@functools.lru_cache(maxsize=_UNSCALED_CACHE_SIZE)
def _unscaled_operators(n: int, alpha: float):
    """(nodes, D1_poly, D2_poly, D1_mgl, D2_mgl) for one (n, alpha), read-only,
    built by the kernels alone, the weighted ones by the product rule of the
    module docstring."""
    nodes = _radau_nodes(n, alpha)
    d1p = _poly_d1(nodes)
    d2p = _poly_d2(nodes)
    ratio = _exp_ratio(nodes.eta)
    d1m = (d1p - 0.5 * np.eye(len(ratio))) * ratio
    d2m = (d2p - d1p + 0.25 * np.eye(len(ratio))) * ratio
    for matrix in (d1p, d2p, d1m, d2m):
        matrix.setflags(write=False)
    return nodes, d1p, d2p, d1m, d2m


def _scaled_operators(params: BasisParams, rows=(None, None, None)) -> DiffOperators:
    """The bundle of one BasisParams, unchecked: the shared unscaled part of
    its (n, alpha) and D1_mgl/L, D2_mgl/(L*L) and L*eta, new arrays or written
    into rows, the caller's (D1_scaled, D2_scaled, mapped_nodes) arrays."""
    nodes, d1p, d2p, d1m, d2m = _unscaled_operators(params.n, params.alpha)
    d1, d2, xm = rows
    # a 0-d array, so an overflow or a division by zero at an extreme L warns
    L = np.array(params.L)
    return DiffOperators(params=params, nodes=nodes, mapped_nodes=np.multiply(L, nodes.eta, out=xm),
                         D1_poly=d1p, D2_poly=d2p, D1_mgl=d1m, D2_mgl=d2m,
                         D1_scaled=np.divide(d1m, L, out=d1), D2_scaled=np.divide(d2m, L * L, out=d2))


def build_operators(params: BasisParams) -> DiffOperators:
    """Assemble the full operator bundle for one discretization.

    The node set and the unscaled matrices are built once per (n, alpha) and
    shared, read-only, by every bundle with that pair; only the scaling by L
    is done per call, by _scaled_operators, which builds the bundle of every
    solve.
    """
    return _scaled_operators(check_type("params", params, BasisParams))


def _coefficients(ops: DiffOperators, b) -> np.ndarray:
    """b as a float array of one finite entry per node of ops, a DiffOperators."""
    check_type("ops", ops, DiffOperators)
    b = as_reals(b, "b")
    if b.shape != (ops.n + 1,):
        raise ParameterError(f"b must have length {ops.n + 1}")
    return b


def _hat_cardinals(nodes: RadauNodeSet, t: np.ndarray) -> np.ndarray:
    """Weighted cardinal functions at the unscaled points t: one row per point."""
    eta = nodes.eta
    tc = t[:, None]
    ln = _sweep(nodes.n, nodes.alpha, t)[-1][:, None]
    w = np.exp((eta - tc) / 2.0)
    card = np.empty(w.shape)
    card[:, :1] = np.exp(-tc / 2.0) * ln / nodes.Ln_at_zero
    with np.errstate(divide="ignore", invalid="ignore"):
        card[:, 1:] = w[:, 1:] * tc * ln / (eta[1:] * nodes.dLn_at_eta[1:] * (tc - eta[1:]))
    # removable singularity at t = eta_j: the cardinal limit is the bare weight
    near = np.abs(tc - eta) < NEAR_NODE_TOL * np.maximum(1.0, eta)
    card[near] = w[near]
    return card


def eval_hat_interpolant(ops: DiffOperators, b, x):
    """Evaluate the weighted interpolant sum_j b_j * card_j(x/L) at x >= 0.

    Accepts a scalar or an array of evaluation points; returns a matching
    scalar or array. All points go through one cardinal matrix, so many
    points belong in one call, and a scalar call gives the same bits as the
    same point inside an array. Exactly reproduces b_j at the mapped nodes
    (the removable-singularity branch) and b_0 = y(0) at the origin. Any
    x <= MAX_ARGUMENT*L evaluates, even where x/L rounds past MAX_ARGUMENT;
    a point past it raises RangeError naming the largest point and the bound.
    """
    b = _coefficients(ops, b)
    arr = as_points(x)
    L = ops.params.L
    edge = MAX_ARGUMENT * L
    if not np.all(arr <= edge):
        raise RangeError(f"x={float(np.max(arr))!r} outside the evaluation envelope "
                         f"x <= {MAX_ARGUMENT:g}*L = {edge!r}")
    values = _hat_values(ops.nodes, b, _unscaled(arr.reshape(-1), L)).reshape(arr.shape)
    return float(values) if arr.ndim == 0 else values


def _hat_values(nodes: RadauNodeSet, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The interpolant of coefficients b at a 1-d float array t of unscaled
    points in the envelope, without a check."""
    # a row sum, not card @ b: it keeps a point's value independent of the batch
    return np.sum(_hat_cardinals(nodes, t) * b, axis=1)
