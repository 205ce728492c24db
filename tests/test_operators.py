import math
import re

import numpy as np
import pytest

from emden.errors import ParameterError, RangeError
from emden.laguerre import MAX_ARGUMENT, BasisParams, _unscaled, eval_laguerre_all, radau_nodes
from emden import operators
from emden.operators import NEAR_NODE_TOL, DiffOperators, build_operators, eval_hat_interpolant
from conftest import BAD_POINTS


def ops_for(n, alpha=1.0, L=1.0):
    return build_operators(BasisParams(n=n, alpha=alpha, L=L))


def uncached_build_operators(params):
    """Reference build: every piece made afresh by the uncached unscaled
    build, as build_operators made it before it shared one build per
    (n, alpha)."""
    nodes, d1p, d2p, d1m, d2m = operators._unscaled_operators.__wrapped__(params.n, params.alpha)
    L = params.L
    return DiffOperators(params=params, nodes=nodes, mapped_nodes=L * nodes.eta, D1_poly=d1p,
                         D2_poly=d2p, D1_mgl=d1m, D2_mgl=d2m, D1_scaled=d1m / L,
                         D2_scaled=d2m / (L * L))


def bundle_arrays(ops):
    """Every array of a bundle and of its node set, by field name."""
    arrays = {}
    for owner in (ops, ops.nodes):
        for name, value in vars(owner).items():
            if isinstance(value, np.ndarray):
                arrays[name] = value
    return arrays


def assert_same_bits(ops, other):
    """Same parameters and every array and L_n(0) equal bit for bit."""
    assert ops.params == other.params
    mine, theirs = bundle_arrays(ops), bundle_arrays(other)
    assert mine.keys() == theirs.keys()
    for name, value in mine.items():
        assert value.dtype == theirs[name].dtype and value.shape == theirs[name].shape, name
        assert value.tobytes() == theirs[name].tobytes(), name
    assert np.float64(ops.nodes.Ln_at_zero).tobytes() == \
        np.float64(other.nodes.Ln_at_zero).tobytes()


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


# alphas of the polynomial-operator tests: the default 1 and both sides of it
POLY_ALPHAS = [-0.5, 0.0, 0.5, 1.0, 2.0, 3.7]


def monomial_scale(matrix, exact):
    """Tolerance unit of D @ eta**k: the largest exact value, at least 1, or
    the roundoff of a product with entries of D, which reach 4e7 at n = 12
    as alpha nears -1 (below 1 for every n here at alpha >= 1)."""
    return max(1.0, np.max(np.abs(exact)), 5e-7 * np.max(np.abs(matrix)))


class TestPolyOperators:
    @pytest.mark.parametrize("alpha", POLY_ALPHAS)
    @pytest.mark.parametrize("n", [3, 7, 12])
    def test_d1_differentiates_monomials(self, n, alpha):
        # k = 0 and 1 are the row sums and D1_poly @ eta = 1, at the alpha
        # the node set records (the bundle takes no other)
        ops = ops_for(n, alpha=alpha)
        assert radau_nodes(ops.params).alpha == ops.nodes.alpha == ops.params.alpha
        eta = ops.nodes.eta
        for k in range(n + 1):
            vals = eta**k
            exact = k * eta ** (k - 1) if k > 0 else np.zeros_like(eta)
            scale = monomial_scale(ops.D1_poly, exact)
            np.testing.assert_allclose(ops.D1_poly @ vals, exact, atol=1e-8 * scale)

    @pytest.mark.parametrize("alpha", POLY_ALPHAS)
    @pytest.mark.parametrize("n", [3, 7, 12])
    def test_d2_differentiates_monomials(self, n, alpha):
        ops = ops_for(n, alpha=alpha)
        eta = ops.nodes.eta
        for k in range(n + 1):
            vals = eta**k
            exact = k * (k - 1) * eta ** (k - 2) if k > 1 else np.zeros_like(eta)
            scale = monomial_scale(ops.D2_poly, exact)
            np.testing.assert_allclose(ops.D2_poly @ vals, exact, atol=1e-8 * scale)

    def test_rows_annihilate_constants(self):
        ops = ops_for(9)
        np.testing.assert_allclose(ops.D1_poly.sum(axis=1), 0.0, atol=1e-9)
        np.testing.assert_allclose(ops.D2_poly.sum(axis=1), 0.0, atol=1e-9)

    @pytest.mark.parametrize("alpha", POLY_ALPHAS)
    @pytest.mark.parametrize("n", [4, 8, 10])
    def test_d2_is_d1_squared(self, n, alpha):
        ops = ops_for(n, alpha=alpha)
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

    @pytest.mark.parametrize("alpha", POLY_ALPHAS)
    @pytest.mark.parametrize("n", [3, 9])
    def test_weighted_matrices_come_from_the_bundles_own_alpha(self, n, alpha):
        # the product rule of e^(-eta/2) p(eta), applied to the bundle's own
        # D1_poly and D2_poly at its own nodes; a polynomial matrix of another
        # alpha gives another weighted matrix, and build_operators, which
        # takes only BasisParams, has no way to be handed one
        ops = ops_for(n, alpha=alpha)
        assert ops.nodes.alpha == alpha
        eta = ops.nodes.eta
        ratio = np.exp((eta[None, :] - eta[:, None]) / 2.0)
        eye = np.eye(n + 1)
        assert ((ops.D1_poly - 0.5 * eye) * ratio).tobytes() == ops.D1_mgl.tobytes()
        assert ((ops.D2_poly - ops.D1_poly + 0.25 * eye) * ratio).tobytes() == ops.D2_mgl.tobytes()
        other = ops_for(n, alpha=alpha + 1.0)
        assert not np.allclose((other.D1_poly - 0.5 * eye) * ratio, ops.D1_mgl)


class TestScaleOperators:
    def test_hand_scaled_case(self):
        ops = build_operators(BasisParams(n=1, alpha=1.0, L=3.0))
        e = math.e
        d1 = np.array([[-1.0, 0.5 * e], [-0.5 / e, 0.0]])
        d2 = np.array([[0.75, -0.5 * e], [0.5 / e, -0.25]])
        np.testing.assert_allclose(ops.mapped_nodes, [0.0, 6.0], atol=1e-13)
        np.testing.assert_allclose(ops.D1_scaled, d1 / 3.0, atol=1e-14)
        np.testing.assert_allclose(ops.D2_scaled, d2 / 9.0, atol=1e-14)

    @pytest.mark.parametrize("L", [0.0, -1.0, math.inf, "abc"])
    def test_bad_scale_rejected(self, L):
        with pytest.raises(ParameterError):
            build_operators(BasisParams(n=2, L=L))

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
    ln = eval_laguerre_all(ops.n, ops.params.alpha, t)[-1]
    card = np.empty(len(eta))
    card[0] = np.exp(-t / 2.0) * ln / ops.nodes.Ln_at_zero
    with np.errstate(divide="ignore", invalid="ignore"):
        card[1:] = (w[1:] * t * ln
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

    @pytest.mark.parametrize("n", [1, 7, 19, 30])
    def test_kernel_equals_the_public_entry(self, n):
        # the zero search calls the kernel on unscaled points: at the nodes,
        # between them and past the last one, up to the envelope edge
        rng = np.random.default_rng(n)
        for alpha, L in ((1.0, 1.0), (-0.7, 0.041), (3.5, 2.6)):
            ops = ops_for(n, alpha=alpha, L=L)
            b = rng.standard_normal(n + 1)
            xm = ops.mapped_nodes
            xs = np.concatenate((xm, 0.5 * (xm[1:] + xm[:-1]),
                                 np.linspace(xm[-1], MAX_ARGUMENT * L, 40)[1:]))
            kernel = operators._hat_values(ops.nodes, b, _unscaled(xs, L))
            assert kernel.tobytes() == eval_hat_interpolant(ops, b, xs).tobytes()
            assert kernel.tobytes() == np.array([eval_hat_interpolant(ops, b, x) for x in xs]).tobytes()

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
    @pytest.mark.parametrize("k", range(6))
    def test_reproduces_basis_function(self, k, L):
        # every basis function of degree k <= n lies in the interpolant's span
        ops = build_operators(BasisParams(n=5, alpha=1.0, L=L))

        def basis(x):
            # the decaying basis function exp(-x/(2L)) * L_k^1(x/L)
            return math.exp(-x / (2.0 * L)) * eval_laguerre_all(k, 1.0, x / L)[-1]

        b = np.array([basis(x) for x in ops.mapped_nodes])
        for x in [0.0, 0.3, 1.7, 4.2, 9.0]:
            val = eval_hat_interpolant(ops, b, x)
            assert val == pytest.approx(basis(x), abs=1e-9)

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

    @pytest.mark.filterwarnings("error")
    def test_rejects_bad_input(self):
        ops = ops_for(4)
        for b, message in [(np.zeros(3), "b must have length 5"),
                           ("abc", "b must be real numbers"),
                           ([1.0, [0.8, 0.5], 0.2, 0.05, 0.0], "b must be real numbers"),
                           (["1", "0", "0", "0", "0"], "b must be real numbers"),
                           ([True, False, False, False, False], "b must be real numbers"),
                           ([1.0, 0.8, float("nan"), 0.2, 0.05], "b must be finite")]:
            with pytest.raises(ParameterError, match=message):
                eval_hat_interpolant(ops, b, 1.0)
        with pytest.raises(ParameterError):
            eval_hat_interpolant(ops, np.zeros(5), -0.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", BAD_POINTS)
    def test_rejects_points_that_are_not_finite_numbers(self, x):
        with pytest.raises(ParameterError):
            eval_hat_interpolant(ops_for(4), np.zeros(5), x)

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

    @pytest.mark.parametrize("x", [150.0, [1.0, 150.0, 120.0]])
    def test_point_past_the_edge_is_named_in_x(self, x):
        # the bound is 200*L in x, not 200 in the unscaled x/L
        message = "x=150.0 outside the evaluation envelope x <= 200*L = 100.0"
        with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
            eval_hat_interpolant(ops_for(7, L=0.5), np.zeros(8), x)

    def test_a_point_one_ulp_past_the_edge_raises(self):
        # at L = 0.27, x/L rounds back to 200 one ulp past the edge; the bound
        # is 200*L in x, so the point still raises
        L = 0.27
        past = np.nextafter(MAX_ARGUMENT * L, np.inf)
        assert past / L == MAX_ARGUMENT
        with pytest.raises(RangeError):
            eval_hat_interpolant(ops_for(7, L=L), np.zeros(8), past)


class TestUnscaledBuildCache:
    """build_operators builds the nodes and unscaled matrices once per
    (n, alpha); bundles share them read-only and differ only in the scaling."""

    @pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, -0.0, 0.5, 1, 1.0, 2.25, 4.0])
    def test_cached_bundle_equals_an_uncached_build(self, alpha):
        for n in range(1, 31):
            params = BasisParams(n=n, alpha=alpha, L=0.7)
            first, again = build_operators(params), build_operators(params)
            assert again.nodes is first.nodes
            assert_same_bits(first, uncached_build_operators(params))
            assert_same_bits(again, uncached_build_operators(params))

    @pytest.mark.parametrize("first,second", [(1, 1.0), (1.0, 1)])
    def test_equal_alphas_share_one_build(self, first, second):
        # 1 and 1.0 are one cache key: whichever comes first is the build the
        # other gets, which holds because their uncached builds are bitwise equal
        operators._unscaled_operators.cache_clear()
        for n in (1, 7, 30):
            a = build_operators(BasisParams(n=n, alpha=first, L=2.0))
            b = build_operators(BasisParams(n=n, alpha=second, L=2.0))
            assert b.nodes is a.nodes and b.D2_mgl is a.D2_mgl
            assert_same_bits(b, uncached_build_operators(BasisParams(n=n, alpha=second, L=2.0)))

    @pytest.mark.parametrize("first,second", [(0.0, -0.0), (-0.0, 0.0)])
    def test_signed_zero_alphas_share_one_build(self, first, second):
        # the alpha check reads -0.0 as 0.0, so both signs are one cache key
        # and every node set records +0.0
        operators._unscaled_operators.cache_clear()
        for n in (1, 7, 30):
            a = build_operators(BasisParams(n=n, alpha=first, L=2.0))
            b = build_operators(BasisParams(n=n, alpha=second, L=2.0))
            assert b.nodes is a.nodes and b.D2_mgl is a.D2_mgl
            assert math.copysign(1.0, b.nodes.alpha) == math.copysign(1.0, b.params.alpha) == 1.0
            assert_same_bits(b, uncached_build_operators(BasisParams(n=n, alpha=second, L=2.0)))
        assert operators._unscaled_operators.cache_info().currsize == 3

    def test_bundles_at_one_pair_share_the_unscaled_part(self):
        near, far = ops_for(9, alpha=0.5, L=0.3), ops_for(9, alpha=0.5, L=3.0)
        assert near.nodes is far.nodes
        for name in ("D1_poly", "D2_poly", "D1_mgl", "D2_mgl"):
            assert getattr(near, name) is getattr(far, name)
        np.testing.assert_array_equal(far.D1_scaled, far.D1_mgl / 3.0)
        assert not np.array_equal(near.D1_scaled, far.D1_scaled)

    def test_every_array_is_read_only(self):
        ops = ops_for(6, alpha=0.25, L=1.5)
        for name, value in bundle_arrays(ops).items():
            assert not value.flags.writeable, name
            with pytest.raises(ValueError):
                value[0] = 1.0

    def test_cache_is_bounded(self):
        # a continuous alpha never repeats: the cache must stay at its bound
        bound = operators._UNSCALED_CACHE_SIZE
        for alpha in np.linspace(-0.5, 3.5, 200):
            build_operators(BasisParams(n=12, alpha=float(alpha)))
        assert operators._unscaled_operators.cache_info().currsize <= bound

    def test_one_alpha_across_the_cli_degrees_fits(self):
        # the CLI solves at alpha = 1 with n from 6 to 24: after one pass
        # every build is a hit
        operators._unscaled_operators.cache_clear()
        for n in range(6, 25):
            ops_for(n, L=0.5)
        for n in range(6, 25):
            ops_for(n, L=2.0)
        info = operators._unscaled_operators.cache_info()
        assert (info.misses, info.hits) == (19, 19)
