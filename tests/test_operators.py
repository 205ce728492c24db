import math

import numpy as np
import pytest

from emden.errors import ParameterError, RangeError
from emden.laguerre import MAX_ARGUMENT, BasisParams, eval_laguerre, eval_mgl, radau_nodes
from emden.operators import (
    NEAR_NODE_TOL,
    build_mgl_d1,
    build_mgl_d2,
    build_operators,
    build_poly_d1,
    build_poly_d2,
    eval_hat_interpolant,
    scale_operators,
)


def ops_for(n, alpha=1.0, L=1.0):
    return build_operators(BasisParams(n=n, alpha=alpha, L=L))


class TestHandDerivedCase:
    """n=1, alpha=1: two nodes at 0 and 2, every entry known in closed form."""

    def test_poly_d1(self):
        ops = ops_for(1)
        expected = np.array([[-0.5, 0.5], [-0.5, 0.5]])
        np.testing.assert_allclose(ops.D1_poly, expected, atol=1e-12)

    def test_poly_d2(self):
        ops = ops_for(1)
        np.testing.assert_allclose(ops.D2_poly, np.zeros((2, 2)), atol=1e-12)

    def test_mgl_d1(self):
        ops = ops_for(1)
        e = math.e
        expected = np.array([[-1.0, 0.5 * e], [-0.5 / e, 0.0]])
        np.testing.assert_allclose(ops.D1_mgl, expected, atol=1e-12)

    def test_mgl_d2(self):
        ops = ops_for(1)
        e = math.e
        expected = np.array([[0.75, -0.5 * e], [0.5 / e, -0.25]])
        np.testing.assert_allclose(ops.D2_mgl, expected, atol=1e-12)


class TestPolyOperators:
    @pytest.mark.parametrize("n", [3, 7, 12])
    def test_d1_differentiates_monomials(self, n):
        ops = ops_for(n)
        eta = ops.nodes.eta
        for k in range(n + 1):
            vals = eta**k
            exact = k * eta ** (k - 1) if k > 0 else np.zeros_like(eta)
            scale = max(1.0, np.max(np.abs(exact)))
            np.testing.assert_allclose(ops.D1_poly @ vals, exact, atol=1e-8 * scale)

    @pytest.mark.parametrize("n", [3, 7, 12])
    def test_d2_differentiates_monomials(self, n):
        ops = ops_for(n)
        eta = ops.nodes.eta
        for k in range(n + 1):
            vals = eta**k
            exact = k * (k - 1) * eta ** (k - 2) if k > 1 else np.zeros_like(eta)
            scale = max(1.0, np.max(np.abs(exact)))
            np.testing.assert_allclose(ops.D2_poly @ vals, exact, atol=1e-8 * scale)

    def test_rows_annihilate_constants(self):
        ops = ops_for(9)
        np.testing.assert_allclose(ops.D1_poly.sum(axis=1), 0.0, atol=1e-9)
        np.testing.assert_allclose(ops.D2_poly.sum(axis=1), 0.0, atol=1e-9)

    @pytest.mark.parametrize("n", [4, 8, 10])
    def test_d2_is_d1_squared(self, n):
        ops = ops_for(n)
        norm = np.max(np.abs(ops.D2_poly))
        assert np.max(np.abs(ops.D1_poly @ ops.D1_poly - ops.D2_poly)) <= 1e-7 * norm


class TestMglOperators:
    @pytest.mark.parametrize("n", [2, 6, 10])
    def test_d1_eigenfunction_of_pure_decay(self, n):
        # the weighted constant e^(-eta/2) differentiates to -1/2 itself
        ops = ops_for(n)
        f = np.exp(-ops.nodes.eta / 2.0)
        np.testing.assert_allclose(ops.D1_mgl @ f, -0.5 * f, atol=1e-9)

    @pytest.mark.parametrize("n", [2, 6, 10])
    def test_d2_eigenfunction_of_pure_decay(self, n):
        ops = ops_for(n)
        f = np.exp(-ops.nodes.eta / 2.0)
        np.testing.assert_allclose(ops.D2_mgl @ f, 0.25 * f, atol=1e-9)

    @pytest.mark.parametrize("n", [4, 8])
    def test_weighted_polynomial_exactness(self, n):
        # f = e^(-eta/2) p(eta) with deg p <= n: the operator must return
        # e^(-eta/2) (p' - p/2) at the nodes
        rng = np.random.default_rng(42)
        ops = ops_for(n)
        eta = ops.nodes.eta
        coeffs = rng.standard_normal(n + 1)
        p = np.polynomial.polynomial.Polynomial(coeffs)
        f = np.exp(-eta / 2.0) * p(eta)
        expected = np.exp(-eta / 2.0) * (p.deriv()(eta) - 0.5 * p(eta))
        scale = max(1.0, np.max(np.abs(expected)))
        np.testing.assert_allclose(ops.D1_mgl @ f, expected, atol=1e-8 * scale)

    def test_exponential_ratio_structure(self):
        # off-diagonal entries carry the weight ratio e^((eta_j - eta_i)/2)
        ops = ops_for(5)
        eta = ops.nodes.eta
        ratio = np.exp((eta[None, :] - eta[:, None]) / 2.0)
        np.testing.assert_allclose(ops.D1_mgl / ratio,
                                   ops.D1_poly - 0.5 * np.eye(6), atol=1e-10)


class TestScaleOperators:
    def test_hand_scaled_case(self):
        params = BasisParams(n=1, alpha=1.0, L=3.0)
        nodes = radau_nodes(params)
        d1 = build_mgl_d1(build_poly_d1(nodes, 1.0), nodes)
        d2 = build_mgl_d2(build_poly_d1(nodes, 1.0), build_poly_d2(nodes, 1.0), nodes)
        d1s, d2s, mapped = scale_operators(d1, d2, nodes, 3.0)
        np.testing.assert_allclose(mapped, [0.0, 6.0], atol=1e-13)
        np.testing.assert_allclose(d1s, d1 / 3.0, atol=1e-14)
        np.testing.assert_allclose(d2s, d2 / 9.0, atol=1e-14)

    def test_bad_scale_rejected(self):
        params = BasisParams(n=2)
        nodes = radau_nodes(params)
        d1 = build_mgl_d1(build_poly_d1(nodes, 1.0), nodes)
        d2 = build_mgl_d2(build_poly_d1(nodes, 1.0), build_poly_d2(nodes, 1.0), nodes)
        with pytest.raises(ParameterError):
            scale_operators(d1, d2, nodes, 0.0)

    def test_bundle_consistency(self):
        ops = ops_for(6, L=2.0)
        np.testing.assert_allclose(ops.D1_scaled, ops.D1_mgl / 2.0, atol=1e-14)
        np.testing.assert_allclose(ops.D2_scaled, ops.D2_mgl / 4.0, atol=1e-14)
        np.testing.assert_allclose(ops.mapped_nodes, 2.0 * ops.nodes.eta, atol=1e-13)

    def test_arrays_read_only(self):
        ops = ops_for(4)
        with pytest.raises(ValueError):
            ops.D1_scaled[0, 0] = 99.0


def pointwise_interpolant(ops, b, x):
    """Reference for eval_hat_interpolant: one cardinal vector per point, summed by a dot."""
    eta, L = ops.nodes.eta, ops.params.L
    t = min(x / L, MAX_ARGUMENT) if x <= MAX_ARGUMENT * L else x / L
    w = np.exp((eta - t) / 2.0)
    card = np.empty(len(eta))
    card[0] = np.exp(-t / 2.0) * eval_laguerre(ops.n, ops.params.alpha, t) / ops.nodes.Ln_at_zero
    with np.errstate(divide="ignore", invalid="ignore"):
        card[1:] = (w[1:] * t * eval_laguerre(ops.n, ops.params.alpha, t)
                    / (eta[1:] * ops.nodes.dLn_at_eta[1:] * (t - eta[1:])))
    near = np.abs(t - eta) < NEAR_NODE_TOL * np.maximum(1.0, eta)
    card[near] = w[near]
    return card @ b


class TestHatInterpolant:
    def test_matches_pointwise_reference(self):
        # the cardinal formulas are the reference's; only the order of the
        # final sum differs, so values agree to a few ulps of sum |b_j|
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(1, 31))
            L = float(np.exp(rng.uniform(np.log(0.04), np.log(4.0))))
            ops = ops_for(n, alpha=float(rng.uniform(-0.9, 3.0)), L=L)
            b = rng.standard_normal(n + 1)
            xs = np.concatenate([rng.uniform(0.0, MAX_ARGUMENT * L, 30), ops.mapped_nodes,
                                 ops.mapped_nodes[1:] * (1.0 + 3e-9), [0.0, MAX_ARGUMENT * L]])
            expected = np.array([pointwise_interpolant(ops, b, x) for x in xs])
            np.testing.assert_array_less(
                np.abs(eval_hat_interpolant(ops, b, xs) - expected), 1e-14 * np.sum(np.abs(b)))

    def test_cardinality_at_nodes(self):
        ops = ops_for(6)
        x = ops.mapped_nodes
        for j in range(7):
            b = np.zeros(7)
            b[j] = 1.0
            vals = eval_hat_interpolant(ops, b, x)
            assert vals[j] == 1.0  # exact by the near-node branch
            others = np.delete(vals, j)
            np.testing.assert_allclose(others, 0.0, atol=1e-9)

    def test_nodal_reproduction(self):
        ops = ops_for(8, L=0.7)
        rng = np.random.default_rng(7)
        b = rng.standard_normal(9)
        np.testing.assert_allclose(eval_hat_interpolant(ops, b, ops.mapped_nodes), b, atol=1e-9)

    @pytest.mark.parametrize("L", [1.0, 2.0])
    def test_reproduces_basis_function(self, L):
        params = BasisParams(n=5, alpha=1.0, L=L)
        ops = build_operators(params)
        b = np.array([eval_mgl(params, 5, x) for x in ops.mapped_nodes])
        for x in [0.3, 1.7, 4.2, 9.0]:
            val = eval_hat_interpolant(ops, b, x)
            assert val == pytest.approx(eval_mgl(params, 5, x), abs=1e-9)

    def test_reproduces_pure_decay(self):
        ops = ops_for(6, L=1.5)
        b = np.exp(-ops.mapped_nodes / 3.0)
        for x in [0.1, 2.0, 5.5, 12.0]:
            assert eval_hat_interpolant(ops, b, x) == pytest.approx(
                math.exp(-x / 3.0), abs=1e-10)

    def test_derivative_matches_operator(self):
        # five-point difference of the interpolant audits D1_scaled numerically.
        # h must stay well above the cancellation floor: each cardinal is a
        # ratio whose numerator vanishes at the node, so its rounding noise
        # near x_i is absolute, and dividing by a tiny h amplifies it.  The
        # wide stencil keeps truncation small at this safe h.
        ops = ops_for(7, L=1.0)
        rng = np.random.default_rng(3)
        b = rng.standard_normal(8)
        db = ops.D1_scaled @ b
        h = 2e-3

        def f(t):
            return eval_hat_interpolant(ops, b, t)

        for i in [1, 3, 5]:
            x = ops.mapped_nodes[i]
            fd = (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)
            assert db[i] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_scaling_covariance(self):
        # the cardinal functions depend only on x/L, so rescaling L moves the
        # evaluation point and nothing else
        b = np.random.default_rng(11).standard_normal(7)
        ops_a = ops_for(6, L=2.0)
        ops_b = ops_for(6, L=1.0)
        for x in [0.4, 1.3, 6.0]:
            va = eval_hat_interpolant(ops_a, b, x)
            vb = eval_hat_interpolant(ops_b, b, x / 2.0)
            assert va == pytest.approx(vb, abs=1e-12)

    def test_near_node_band_is_smooth(self):
        ops = ops_for(6)
        b = np.random.default_rng(5).standard_normal(7)
        x0 = ops.mapped_nodes[3]
        ref = eval_hat_interpolant(ops, b, x0)
        for offset in [1e-10, 1e-8, 5e-7, 1e-5]:
            val = eval_hat_interpolant(ops, b, x0 + offset)
            assert val == pytest.approx(ref, abs=1e-3)

    def test_near_node_follows_taylor_form(self):
        # just outside the removable-singularity branch each cardinal must
        # still follow its first-order Taylor form 1 + D1_mgl[j, j] (t - eta_j)
        # on both sides of the node
        rel = np.array([1.5e-9, 1e-8, 1e-7, 9e-7])
        for n, L in [(6, 1.0), (12, 0.5), (30, 2.0)]:
            ops = ops_for(n, L=L)
            eta = ops.nodes.eta
            for j in sorted({1, 2, n // 2, n}):
                scale = max(1.0, eta[j])
                x = L * (eta[j] + np.concatenate([rel, -rel]) * scale)
                t = x / L
                assert np.all(np.abs(t - eta[j]) >= NEAR_NODE_TOL * scale)
                b = np.zeros(n + 1)
                b[j] = 1.0
                taylor = 1.0 + ops.D1_mgl[j, j] * (t - eta[j])
                assert np.max(np.abs(eval_hat_interpolant(ops, b, x) - taylor)) <= 1e-5

    def test_array_and_scalar_forms_agree(self):
        b = np.linspace(1.0, -0.5, 6)
        for L in [1.0, 0.052]:
            ops = ops_for(5, L=L)
            xs = np.concatenate([[0.0, 0.9 * L, 3.3 * L], ops.mapped_nodes, [MAX_ARGUMENT * L]])
            vals = eval_hat_interpolant(ops, b, xs)
            assert vals.shape == xs.shape
            for x, v in zip(xs, vals):
                assert eval_hat_interpolant(ops, b, float(x)) == v
            assert eval_hat_interpolant(ops, b, np.array([])).shape == (0,)

    def test_rejects_bad_input(self):
        ops = ops_for(4)
        with pytest.raises(ParameterError):
            eval_hat_interpolant(ops, np.zeros(3), 1.0)  # wrong length
        with pytest.raises(ParameterError):
            eval_hat_interpolant(ops, np.zeros(5), -0.5)

    @pytest.mark.parametrize("L", [0.041, 0.052])
    def test_envelope_edge_evaluates(self, L):
        # (200*L)/L rounds to 200.00000000000003 for these scales
        edge = MAX_ARGUMENT * L
        assert edge / L > MAX_ARGUMENT
        b = np.linspace(1.0, -0.5, 8)
        assert eval_hat_interpolant(ops_for(7, L=L), b, edge) == \
            eval_hat_interpolant(ops_for(7), b, MAX_ARGUMENT)
        with pytest.raises(RangeError):
            eval_hat_interpolant(ops_for(7, L=L), b, np.nextafter(edge, np.inf))
