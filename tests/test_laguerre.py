import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import roots_genlaguerre

from emden.errors import ParameterError, RangeError
from emden.laguerre import (
    MAX_ARGUMENT,
    MAX_DEGREE,
    POLISH_TOL,
    BasisParams,
    eval_laguerre,
    eval_laguerre_all,
    eval_laguerre_deriv,
    eval_mgl,
    laguerre_zeros,
    mgl_norm_constant,
    radau_nodes,
)
from conftest import BAD_POINTS

ALPHAS = [0.0, 1.0, 2.5]


class TestEvalLaguerre:
    def test_degree_zero_is_one(self):
        assert eval_laguerre(0, 1.0, 3.7) == 1.0

    def test_degree_one(self):
        # L1 = 1 + alpha - x
        assert eval_laguerre(1, 1.0, 0.5) == pytest.approx(1.5, abs=1e-15)
        assert eval_laguerre(1, 0.0, 2.0) == pytest.approx(-1.0, abs=1e-15)

    def test_degree_two_closed_form(self):
        # L2^a = x^2/2 - (a+2)x + (a+1)(a+2)/2
        for alpha in ALPHAS:
            for x in [0.0, 0.3, 4.0, 50.0]:
                expected = x * x / 2.0 - (alpha + 2.0) * x + (alpha + 1.0) * (alpha + 2.0) / 2.0
                assert eval_laguerre(2, alpha, x) == pytest.approx(expected, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 12, 30])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_value_at_origin_is_binomial(self, n, alpha):
        expected = math.gamma(n + alpha + 1) / (math.gamma(alpha + 1) * math.factorial(n))
        assert eval_laguerre(n, alpha, 0.0) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("n", [3, 10, 20, 30])
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 50.0, 200.0])
    def test_against_mpmath(self, n, alpha, x):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        exact = float(mpmath.laguerre(n, alpha, x))
        # scale by the largest intermediate so cancellation-heavy points are
        # judged fairly
        scale = max(1.0, float(np.max(np.abs(eval_laguerre_all(n, alpha, x)))))
        assert abs(eval_laguerre(n, alpha, x) - exact) <= 1e-10 * scale

    def test_all_returns_every_degree(self):
        vals = eval_laguerre_all(5, 1.0, 2.0)
        assert vals.shape == (6,)
        for k in range(6):
            assert vals[k] == eval_laguerre(k, 1.0, 2.0)

    def test_vectorized_argument(self):
        xs = np.array([0.0, 1.0, 10.0])
        vals = eval_laguerre_all(4, 0.5, xs)
        assert vals.shape == (5, 3)
        assert vals[3, 1] == eval_laguerre(3, 0.5, 1.0)

    @given(
        n=st.integers(min_value=2, max_value=30),
        alpha=st.floats(min_value=-0.9, max_value=3.0),
        x=st.floats(min_value=0.0, max_value=200.0),
    )
    def test_recurrence_property(self, n, alpha, x):
        vals = eval_laguerre_all(n, alpha, x)
        lhs = n * vals[n]
        rhs = (2 * n - 1 + alpha - x) * vals[n - 1] - (n + alpha - 1) * vals[n - 2]
        scale = max(1.0, float(np.max(np.abs(vals))))
        assert abs(lhs - rhs) <= 1e-10 * scale


class TestEvalLaguerreDeriv:
    def test_degree_zero_derivative_is_zero(self):
        assert eval_laguerre_deriv(0, 1.0, 5.0) == 0.0

    def test_degree_one_derivative(self):
        assert eval_laguerre_deriv(1, 1.0, 3.0) == -1.0

    @pytest.mark.parametrize("n", [1, 4, 9, 15])
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("x", [0.0, 0.7, 5.0, 40.0])
    def test_finite_difference_audit(self, n, alpha, x):
        h = 1e-6 * max(1.0, abs(x))
        fd = (eval_laguerre(n, alpha, x + h) - eval_laguerre(n, alpha, x - h)) / (2 * h)
        der = eval_laguerre_deriv(n, alpha, x)
        assert der == pytest.approx(fd, rel=1e-5, abs=1e-5 * max(1.0, abs(fd)))


class TestLaguerreZeros:
    def test_two_zeros_alpha_zero(self):
        zs = laguerre_zeros(2, 0.0)
        np.testing.assert_allclose(zs, [2.0 - math.sqrt(2.0), 2.0 + math.sqrt(2.0)], atol=1e-12)

    def test_two_zeros_alpha_one(self):
        zs = laguerre_zeros(2, 1.0)
        np.testing.assert_allclose(zs, [3.0 - math.sqrt(3.0), 3.0 + math.sqrt(3.0)], atol=1e-12)

    def test_single_zero(self):
        # L1 = 1 + alpha - x vanishes at 1 + alpha
        np.testing.assert_allclose(laguerre_zeros(1, 1.5), [2.5], atol=1e-13)

    @pytest.mark.parametrize("n", [2, 5, 8, 10, 20, 30])
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_polished_residual(self, n, alpha):
        zs = laguerre_zeros(n, alpha)
        assert zs.shape == (n,)
        assert np.all(np.diff(zs) > 0)
        assert zs[0] > 0
        for z in zs:
            val = eval_laguerre(n, alpha, z)
            der = eval_laguerre_deriv(n, alpha, z)
            assert abs(val) <= POLISH_TOL * max(1.0, abs(z)) * abs(der)

    @pytest.mark.parametrize("n", [5, 10, 20, 30])
    def test_weighted_residual_small(self, n):
        # In the decaying frame the residual stays near machine precision even
        # for degrees where the raw polynomial values are astronomically large.
        zs = laguerre_zeros(n, 1.0)
        weighted = np.exp(-zs / 2.0) * np.abs([eval_laguerre(n, 1.0, z) for z in zs])
        assert np.max(weighted) <= 1e-12

    @pytest.mark.parametrize("n", [3, 7, 12])
    def test_interlacing(self, n):
        outer = laguerre_zeros(n, 1.0)
        inner = laguerre_zeros(n - 1, 1.0)
        for k in range(n - 1):
            assert outer[k] < inner[k] < outer[k + 1]

    def test_agrees_with_scipy_quadrature_nodes(self):
        zs = laguerre_zeros(8, 1.0)
        ref, _ = roots_genlaguerre(8, 1.0)
        np.testing.assert_allclose(zs, np.sort(ref), rtol=1e-12)


class TestRadauNodes:
    def test_structure(self):
        nodes = radau_nodes(BasisParams(n=7, alpha=1.0, L=1.0))
        assert nodes.n == 7
        assert nodes.eta.shape == (8,)
        assert nodes.eta[0] == 0.0
        assert np.all(np.diff(nodes.eta) > 0)
        assert nodes.dLn_at_eta.shape == (8,)
        assert np.all(np.isfinite(nodes.dLn_at_eta))
        assert np.all(nodes.dLn_at_eta != 0)

    def test_value_at_zero(self):
        nodes = radau_nodes(BasisParams(n=5, alpha=1.0))
        assert nodes.Ln_at_zero == pytest.approx(6.0, rel=1e-14)  # binom(6, 5)

    def test_nodes_are_read_only(self):
        nodes = radau_nodes(BasisParams(n=3))
        with pytest.raises(ValueError):
            nodes.eta[0] = 1.0


class TestEvalMgl:
    def test_at_origin(self):
        params = BasisParams(n=4, alpha=1.0, L=2.0)
        assert eval_mgl(params, 4, 0.0) == pytest.approx(5.0, rel=1e-14)

    def test_decay_factor(self):
        params = BasisParams(n=3, alpha=1.0, L=1.5)
        x = 4.5
        expected = math.exp(-x / 3.0) * eval_laguerre(3, 1.0, x / 1.5)
        assert eval_mgl(params, 3, x) == pytest.approx(expected, rel=1e-13)

    def test_lower_index_allowed(self):
        params = BasisParams(n=6)
        assert eval_mgl(params, 0, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-14)

    def test_negative_x_rejected(self):
        with pytest.raises(ParameterError):
            eval_mgl(BasisParams(n=3), 3, -0.1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", BAD_POINTS)
    def test_rejects_points_that_are_not_finite_numbers(self, x):
        with pytest.raises(ParameterError):
            eval_mgl(BasisParams(n=3), 3, x)


class TestMglOrthogonality:
    @pytest.mark.parametrize("L", [1.0, 2.5])
    def test_gram_matrix_diagonal(self, L):
        # 24-point Gauss quadrature integrates products up to degree 47
        # exactly, far beyond the 8x8 block checked here.
        t, w = roots_genlaguerre(24, 1.0)
        vals = eval_laguerre_all(8, 1.0, t)
        gram = L * np.einsum("q,iq,jq->ij", w, vals, vals)
        for i in range(9):
            expected = L * mgl_norm_constant(BasisParams(n=8, alpha=1.0, L=L), i)
            assert gram[i, i] == pytest.approx(expected, rel=1e-12)
            if L == 1.0:
                assert gram[i, i] == pytest.approx(L * (i + 1), rel=1e-12)
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) <= 1e-8 * np.max(np.diag(gram))


class TestValidation:
    def test_degree_envelope(self):
        with pytest.raises(RangeError):
            BasisParams(n=MAX_DEGREE + 1)
        with pytest.raises(RangeError):
            laguerre_zeros(MAX_DEGREE + 1, 1.0)
        with pytest.raises(RangeError):
            eval_laguerre(MAX_DEGREE + 1, 1.0, 1.0)

    def test_argument_envelope(self):
        with pytest.raises(RangeError):
            eval_laguerre(3, 1.0, MAX_ARGUMENT + 1.0)
        with pytest.raises(RangeError):
            eval_laguerre(3, 1.0, -1.5)
        # the envelope floor leaves room for centered difference probes at 0
        assert np.isfinite(eval_laguerre(3, 1.0, -0.5))

    def test_alpha_bound(self):
        with pytest.raises(ParameterError):
            BasisParams(n=3, alpha=-1.0)
        with pytest.raises(ParameterError):
            laguerre_zeros(3, -1.2)

    def test_bad_degree(self):
        with pytest.raises(ParameterError):
            BasisParams(n=0)
        with pytest.raises(ParameterError):
            eval_laguerre(-1, 1.0, 0.0)
        with pytest.raises(ParameterError):
            eval_laguerre(2.5, 1.0, 0.0)

    def test_bad_map_scale(self):
        with pytest.raises(ParameterError):
            BasisParams(n=3, L=0.0)
        with pytest.raises(ParameterError):
            BasisParams(n=3, L=-2.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ParameterError):
            eval_laguerre(3, 1.0, float("nan"))
        with pytest.raises(ParameterError):
            BasisParams(n=3, alpha=float("inf"))
