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
matrices depend only on (n, alpha) and are built once per pair;
_scaled_operators applies the scale L, for every bundle. The interpolant is
evaluated through one (points x nodes) cardinal matrix.

The public entries check their input once and call a private kernel:
_poly_d1, _poly_d2, _mgl_d1 and _mgl_d2 for the matrices, _hat_values for
the interpolant. The kernels take node sets, matrices and points the package
has made or checked, and check nothing again. The unscaled build runs on the
kernels alone, with one exp ratio for both weighted matrices, and the zero
search reaches the interpolant through _hat_values.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .laguerre import BasisParams, RadauNodeSet, _check_argument, _radau_nodes, _sweep, _unscaled
from .validation import as_points, as_reals, check_type

__all__ = [
    "DiffOperators",
    "build_poly_d1",
    "build_poly_d2",
    "build_mgl_d1",
    "build_mgl_d2",
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


@dataclass(frozen=True)
class DiffOperators:
    """Operator bundle for one discretization; immutable, safe to share.

    Bundles with the same (n, alpha) share one node set and the same
    read-only D1_poly, D2_poly, D1_mgl and D2_mgl arrays; only mapped_nodes,
    D1_scaled and D2_scaled belong to the bundle's L.
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


def build_poly_d1(nodes: RadauNodeSet) -> np.ndarray:
    """First-derivative matrix of the polynomial nodal basis, at the node set's alpha.

    Five closed-form cases: interior off-diagonal, interior diagonal, boundary
    column j=0, boundary row i=0, and the corner i=j=0.
    """
    return _poly_d1(check_type("nodes", nodes, RadauNodeSet))


def _poly_d1(nodes):
    """build_poly_d1 for a node set the package built, without a check."""
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


def build_poly_d2(nodes: RadauNodeSet) -> np.ndarray:
    """Second-derivative matrix of the polynomial nodal basis, at the node set's alpha.

    Same five-case structure as build_poly_d1. Equals build_poly_d1 squared up
    to roundoff; built directly from closed forms so the identity stays a
    testable property rather than a construction.
    """
    return _poly_d2(check_type("nodes", nodes, RadauNodeSet))


def _poly_d2(nodes):
    """build_poly_d2 for a node set the package built, without a check."""
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


def _node_matrix(name, matrix, nodes: RadauNodeSet) -> np.ndarray:
    """matrix as a finite float array of shape (n+1, n+1) for the node set."""
    matrix = as_reals(matrix, name)
    if matrix.shape != (nodes.n + 1, nodes.n + 1):
        raise ParameterError(f"{name} must have shape ({nodes.n + 1}, {nodes.n + 1}), got {matrix.shape}")
    return matrix


def build_mgl_d1(d1_poly: np.ndarray, nodes: RadauNodeSet) -> np.ndarray:
    """Weighted first-derivative matrix: (D1 - I/2) conjugated by the decay weight.

    d1_poly must be build_poly_d1 of the same node set. One that is not a
    finite (n+1) x (n+1) matrix raises ParameterError; one of that shape
    built from another node set is not detected.
    """
    eta = check_type("nodes", nodes, RadauNodeSet).eta
    return _mgl_d1(_node_matrix("d1_poly", d1_poly, nodes), _exp_ratio(eta))


def _mgl_d1(d1_poly, ratio):
    """build_mgl_d1 from the package's own D1_poly and _exp_ratio of its nodes."""
    return (d1_poly - 0.5 * np.eye(len(ratio))) * ratio


def build_mgl_d2(d1_poly: np.ndarray, d2_poly: np.ndarray, nodes: RadauNodeSet) -> np.ndarray:
    """Weighted second-derivative matrix: (D2 - D1 + I/4) conjugated by the decay weight.

    d1_poly and d2_poly must be build_poly_d1 and build_poly_d2 of the same
    node set, and are checked as build_mgl_d1 checks d1_poly.
    """
    eta = check_type("nodes", nodes, RadauNodeSet).eta
    d1_poly = _node_matrix("d1_poly", d1_poly, nodes)
    return _mgl_d2(d1_poly, _node_matrix("d2_poly", d2_poly, nodes), _exp_ratio(eta))


def _mgl_d2(d1_poly, d2_poly, ratio):
    """build_mgl_d2 from the package's own D1_poly, D2_poly and _exp_ratio of its nodes."""
    return (d2_poly - d1_poly + 0.25 * np.eye(len(ratio))) * ratio


@functools.lru_cache(maxsize=_UNSCALED_CACHE_SIZE)
def _unscaled_operators(n: int, alpha: float, alpha_sign: float):
    """(nodes, D1_poly, D2_poly, D1_mgl, D2_mgl) for one (n, alpha), read-only,
    built by the kernels alone. alpha_sign tells alpha = -0.0 from 0.0, which
    compare and hash equal, so the node set records the caller's alpha."""
    nodes = _radau_nodes(n, alpha)
    d1p = _poly_d1(nodes)
    d2p = _poly_d2(nodes)
    ratio = _exp_ratio(nodes.eta)
    d1m = _mgl_d1(d1p, ratio)
    d2m = _mgl_d2(d1p, d2p, ratio)
    for matrix in (d1p, d2p, d1m, d2m):
        matrix.setflags(write=False)
    return nodes, d1p, d2p, d1m, d2m


def _scaled_operators(params):
    """Bundles for BasisParams that differ only in L, scaled in one pass, and
    the read-only stacks of their D1_scaled, D2_scaled and mapped_nodes, of
    which each bundle holds slices: D1_mgl/L, D2_mgl/(L*L) and L*eta, the
    one scaling by L of every bundle."""
    first = params[0]
    nodes, d1p, d2p, d1m, d2m = _unscaled_operators(first.n, first.alpha, math.copysign(1.0, first.alpha))
    scales = np.array([p.L for p in params])[:, None, None]
    d1 = d1m / scales
    d2 = d2m / (scales * scales)
    xm = scales[:, :, 0] * nodes.eta
    for stack in (d1, d2, xm):
        stack.setflags(write=False)
    ops = [
        DiffOperators(params=p, nodes=nodes, mapped_nodes=xm[i], D1_poly=d1p, D2_poly=d2p,
                      D1_mgl=d1m, D2_mgl=d2m, D1_scaled=d1[i], D2_scaled=d2[i])
        for i, p in enumerate(params)
    ]
    return ops, d1, d2, xm


def build_operators(params: BasisParams) -> DiffOperators:
    """Assemble the full operator bundle for one discretization.

    The node set and the unscaled matrices are built once per (n, alpha) and
    shared, read-only, by every bundle with that pair; only the scaling by L
    is done per call, by the code that scales the operators of every solve.
    """
    return _scaled_operators([check_type("params", params, BasisParams)])[0][0]


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
    x <= MAX_ARGUMENT*L evaluates, even where x/L rounds past MAX_ARGUMENT.
    """
    b = _coefficients(ops, b)
    arr = as_points(x)
    t = _check_argument(_unscaled(arr.reshape(-1), ops.params.L))
    values = _hat_values(ops.nodes, b, t).reshape(arr.shape)
    return float(values) if arr.ndim == 0 else values


def _hat_values(nodes: RadauNodeSet, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The interpolant of coefficients b at a 1-d float array t of unscaled
    points in the envelope, without a check."""
    # a row sum, not card @ b: it keeps a point's value independent of the batch
    return np.sum(_hat_cardinals(nodes, t) * b, axis=1)
