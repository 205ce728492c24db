import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.special import roots_genlaguerre

from emden import laguerre
from emden.errors import NumericalError, ParameterError, RangeError
from emden.laguerre import (
    MAX_ARGUMENT,
    MAX_DEGREE,
    POLISH_TOL,
    BasisParams,
    eval_laguerre_all,
    radau_nodes,
)
from conftest import BAD_POINTS

ALPHAS = [0.0, 1.0, 2.5]


def reference_radau_nodes(n, alpha, shift=0.0):
    """The node set built with three recurrence sweeps, as before they were
    shared: the zero polish over the eigenvalues alone, then L_n' at the nodes
    and L_n(0) each from a sweep of their own. The eigenvalues come from
    scipy.linalg's own eigh_tridiagonal, scaled by 1 + shift. Returns the node
    set and the number of polish steps."""
    k = np.arange(n, dtype=float)
    diag = 2.0 * k + alpha + 1.0
    off = np.sqrt(k[1:] * (k[1:] + alpha))
    z = eigh_tridiagonal(diag, off, eigvals_only=True) * (1.0 + shift) if n > 1 else diag.copy()
    for step in range(1, laguerre._POLISH_MAX_ITER + 1):
        values = eval_laguerre_all(n, alpha, z)
        val, der = values[-1], -np.sum(values[:-1], axis=0)
        done = np.abs(val) <= POLISH_TOL * np.maximum(1.0, np.abs(z)) * np.abs(der)
        if np.all(done):
            break
        z = np.where(done, z, z - val / der)
    else:
        raise AssertionError("reference polish did not converge")
    eta = np.concatenate(([0.0], np.sort(z)))
    # L_n' = -(L_0 + ... + L_{n-1}), summed over a sweep of its own
    nodes = laguerre.RadauNodeSet(eta=eta, dLn_at_eta=-np.sum(eval_laguerre_all(n - 1, alpha, eta), axis=0),
                                  Ln_at_zero=float(eval_laguerre_all(n, alpha, 0.0)[-1]), alpha=alpha)
    return nodes, step


class TestEvalLaguerre:
    def test_degree_zero_is_one(self):
        assert eval_laguerre_all(0, 1.0, 3.7)[-1] == 1.0

    def test_degree_one(self):
        # L1 = 1 + alpha - x
        assert eval_laguerre_all(1, 1.0, 0.5)[-1] == pytest.approx(1.5, abs=1e-15)
        assert eval_laguerre_all(1, 0.0, 2.0)[-1] == pytest.approx(-1.0, abs=1e-15)

    def test_degree_two_closed_form(self):
        # L2^a = x^2/2 - (a+2)x + (a+1)(a+2)/2
        for alpha in ALPHAS:
            for x in [0.0, 0.3, 4.0, 50.0]:
                expected = x * x / 2.0 - (alpha + 2.0) * x + (alpha + 1.0) * (alpha + 2.0) / 2.0
                assert eval_laguerre_all(2, alpha, x)[-1] == pytest.approx(expected, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 12, 30])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_value_at_origin_is_binomial(self, n, alpha):
        expected = math.gamma(n + alpha + 1) / (math.gamma(alpha + 1) * math.factorial(n))
        assert eval_laguerre_all(n, alpha, 0.0)[-1] == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("n", [3, 10, 20, 30])
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 50.0, 200.0])
    def test_against_mpmath(self, n, alpha, x):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        exact = float(mpmath.laguerre(n, alpha, x))
        # scale by the largest intermediate so cancellation-heavy points are
        # judged fairly
        values = eval_laguerre_all(n, alpha, x)
        scale = max(1.0, float(np.max(np.abs(values))))
        assert abs(values[-1] - exact) <= 1e-10 * scale

    def test_all_returns_every_degree(self):
        vals = eval_laguerre_all(5, 1.0, 2.0)
        assert vals.shape == (6,)
        for k in range(6):
            assert vals[k] == eval_laguerre_all(k, 1.0, 2.0)[-1]

    def test_vectorized_argument(self):
        xs = np.array([0.0, 1.0, 10.0])
        vals = eval_laguerre_all(4, 0.5, xs)
        assert vals.shape == (5, 3)
        assert vals[3, 1] == eval_laguerre_all(3, 0.5, 1.0)[-1]

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


class TestNodeDerivative:
    """L_n' at the nodes, as the node set records it in dLn_at_eta."""

    def test_degree_one_derivative(self):
        assert radau_nodes(BasisParams(n=1, alpha=1.0)).dLn_at_eta.tolist() == [-1.0, -1.0]

    @pytest.mark.parametrize("n", [1, 4, 9, 15])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_finite_difference_audit(self, n, alpha):
        nodes = radau_nodes(BasisParams(n=n, alpha=alpha))
        for x, der in zip(nodes.eta, nodes.dLn_at_eta):
            h = 1e-6 * max(1.0, abs(x))
            fd = (eval_laguerre_all(n, alpha, x + h)[-1] - eval_laguerre_all(n, alpha, x - h)[-1]) / (2 * h)
            assert der == pytest.approx(fd, rel=1e-5, abs=1e-5 * max(1.0, abs(fd)))

    @pytest.mark.parametrize("n", [1, 3, 10, 20, 30])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_against_mpmath(self, n, alpha):
        # d/dx L_n^a = -L_{n-1}^{a+1}, judged as the values are
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        nodes = radau_nodes(BasisParams(n=n, alpha=alpha))
        for x, der in zip(nodes.eta, nodes.dLn_at_eta):
            exact = -float(mpmath.laguerre(n - 1, alpha + 1, x))
            scale = max(1.0, float(np.max(np.abs(eval_laguerre_all(n, alpha, x)))))
            assert abs(der - exact) <= 1e-10 * scale


def summed_rows_derivative(n, alpha, x):
    """L_n' = -(L_0 + ... + L_{n-1}) from the lower rows of one sweep, the
    rule the zero polish differentiates by."""
    return -np.sum(eval_laguerre_all(n, alpha, x)[:-1], axis=0)


class TestDerivativeRule:
    """The summed-rows rule off the nodes: the lower rows of eval_laguerre_all
    agree with the derivative of its top row at any point."""

    def test_degree_zero_derivative_is_zero(self):
        assert summed_rows_derivative(0, 1.0, 5.0) == 0.0

    def test_degree_one_derivative(self):
        assert summed_rows_derivative(1, 1.0, 3.0) == -1.0

    @pytest.mark.parametrize("n", [1, 4, 9, 15])
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("x", [0.0, 0.7, 5.0, 40.0])
    def test_finite_difference_audit(self, n, alpha, x):
        h = 1e-6 * max(1.0, abs(x))
        fd = (eval_laguerre_all(n, alpha, x + h)[-1] - eval_laguerre_all(n, alpha, x - h)[-1]) / (2 * h)
        der = summed_rows_derivative(n, alpha, x)
        assert der == pytest.approx(fd, rel=1e-5, abs=1e-5 * max(1.0, abs(fd)))

    @pytest.mark.parametrize("n", [3, 10, 20, 30])
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 50.0, 200.0])
    def test_against_mpmath(self, n, alpha, x):
        # d/dx L_n^a = -L_{n-1}^{a+1}, judged as the values are
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        exact = -float(mpmath.laguerre(n - 1, alpha + 1, x))
        scale = max(1.0, float(np.max(np.abs(eval_laguerre_all(n, alpha, x)))))
        assert abs(summed_rows_derivative(n, alpha, x) - exact) <= 1e-10 * scale


class TestLaguerreZeros:
    def test_two_zeros_alpha_zero(self):
        zs = radau_nodes(BasisParams(n=2, alpha=0.0)).eta[1:]
        np.testing.assert_allclose(zs, [2.0 - math.sqrt(2.0), 2.0 + math.sqrt(2.0)], atol=1e-12)

    def test_two_zeros_alpha_one(self):
        zs = radau_nodes(BasisParams(n=2, alpha=1.0)).eta[1:]
        np.testing.assert_allclose(zs, [3.0 - math.sqrt(3.0), 3.0 + math.sqrt(3.0)], atol=1e-12)

    def test_single_zero(self):
        # L1 = 1 + alpha - x vanishes at 1 + alpha
        np.testing.assert_allclose(radau_nodes(BasisParams(n=1, alpha=1.5)).eta[1:], [2.5], atol=1e-13)

    @pytest.mark.parametrize("n", [2, 5, 8, 10, 20, 30])
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_polished_residual(self, n, alpha):
        nodes = radau_nodes(BasisParams(n=n, alpha=alpha))
        zs = nodes.eta[1:]
        assert zs.shape == (n,)
        assert np.all(np.diff(zs) > 0)
        assert zs[0] > 0
        for z, der in zip(zs, nodes.dLn_at_eta[1:]):
            val = eval_laguerre_all(n, alpha, z)[-1]
            assert abs(val) <= POLISH_TOL * max(1.0, abs(z)) * abs(der)

    @pytest.mark.parametrize("n", [5, 10, 20, 30])
    def test_weighted_residual_small(self, n):
        # In the decaying frame the residual stays near machine precision even
        # for degrees where the raw polynomial values are astronomically large.
        zs = radau_nodes(BasisParams(n=n, alpha=1.0)).eta[1:]
        weighted = np.exp(-zs / 2.0) * np.abs(eval_laguerre_all(n, 1.0, zs)[-1])
        assert np.max(weighted) <= 1e-12

    @pytest.mark.parametrize("n", [3, 7, 12])
    def test_interlacing(self, n):
        outer = radau_nodes(BasisParams(n=n, alpha=1.0)).eta[1:]
        inner = radau_nodes(BasisParams(n=n - 1, alpha=1.0)).eta[1:]
        for k in range(n - 1):
            assert outer[k] < inner[k] < outer[k + 1]

    def test_agrees_with_scipy_quadrature_nodes(self):
        zs = radau_nodes(BasisParams(n=8, alpha=1.0)).eta[1:]
        ref, _ = roots_genlaguerre(8, 1.0)
        np.testing.assert_allclose(zs, np.sort(ref), rtol=1e-12)


class TestRadauNodes:
    @pytest.mark.parametrize("n", range(1, MAX_DEGREE + 1))
    def test_equals_the_three_sweep_reference(self, n):
        # the public entry and the kernel the operator build calls
        for alpha in np.linspace(-0.95, 5.0, 24).tolist():
            ref, _ = reference_radau_nodes(n, alpha)
            for nodes in (radau_nodes(BasisParams(n=n, alpha=alpha)), laguerre._radau_nodes(n, alpha)):
                assert nodes.eta.tobytes() == ref.eta.tobytes()
                assert nodes.dLn_at_eta.tobytes() == ref.dLn_at_eta.tobytes()
                assert nodes.alpha == ref.alpha
                assert type(nodes.Ln_at_zero) is float
                assert np.float64(nodes.Ln_at_zero).tobytes() == np.float64(ref.Ln_at_zero).tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n, alpha", [(1, 199.5), (3, 190.0), (30, 100.0), (3, 1e300), (3, 1e308),
                                          (30, 58.0), (3, 197.0)])
    def test_zeros_past_the_envelope_raise_naming_n_and_alpha(self, n, alpha):
        # the polish would sweep past MAX_ARGUMENT. From n + alpha > 200 on
        # (the mean zero) the error comes before the Jacobi matrix, which
        # overflows at n=3, alpha=1e308; (30, 58) and (3, 197) get it from
        # the eigenvalues
        message = f"zeros of L_n^alpha outside the evaluation envelope [-1, 200] (n={n}, alpha={alpha})"
        with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
            radau_nodes(BasisParams(n=n, alpha=alpha))

    def test_a_zero_on_the_envelope_edge_builds(self):
        # n + alpha = 200 passes the mean-zero check; at n = 1 the one zero
        # is n + alpha, so the check is exact there
        assert radau_nodes(BasisParams(n=1, alpha=199.0)).eta[-1] == MAX_ARGUMENT

    @pytest.mark.parametrize("shift", [0.0, 1e-9])
    def test_one_recurrence_sweep_per_polish_step(self, shift, monkeypatch):
        # shift moves the eigenvalues off the zeros, so the polish takes steps
        dstevd = laguerre.dstevd

        def shifted(*args, **kwargs):
            w, v, info = dstevd(*args, **kwargs)
            return w * (1.0 + shift), v, info

        monkeypatch.setattr(laguerre, "dstevd", shifted)
        ref, steps = reference_radau_nodes(12, 1.0, shift)
        calls = []
        sweep = laguerre._sweep

        def counted(*args):
            calls.append(args[:2])
            return sweep(*args)

        def forbidden(*args):
            raise AssertionError("radau_nodes sweeps after the polish, or through a checked entry")

        monkeypatch.setattr(laguerre, "_sweep", counted)
        monkeypatch.setattr(laguerre, "eval_laguerre_all", forbidden)
        nodes = radau_nodes(BasisParams(n=12, alpha=1.0))
        assert calls == [(12, 1.0)] * steps
        assert (steps == 1) if shift == 0.0 else (steps > 1)
        assert nodes.eta.tobytes() == ref.eta.tobytes()
        assert nodes.dLn_at_eta.tobytes() == ref.dLn_at_eta.tobytes()

    def test_polish_failure_names_the_zero(self, monkeypatch):
        monkeypatch.setattr(laguerre, "POLISH_TOL", -1.0)
        message = r"^zero polish failed to converge at index 0 \(n=5, alpha=1\.0\)$"
        with pytest.raises(NumericalError, match=message):
            radau_nodes(BasisParams(n=5))

    @pytest.mark.parametrize("info", [1, -2])
    def test_eigensolver_failure_names_n_and_alpha(self, info, monkeypatch):
        dstevd = laguerre.dstevd
        monkeypatch.setattr(laguerre, "dstevd",
                            lambda *args, **kwargs: dstevd(*args, **kwargs)[:2] + (info,))
        message = rf"^Jacobi eigenvalues failed: LAPACK dstevd info={info} \(n=5, alpha=1\.5\)$"
        with pytest.raises(NumericalError, match=message):
            radau_nodes(BasisParams(n=5, alpha=1.5))

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

    @pytest.mark.parametrize("params", [3, None, (3, 1.0, 1.0)])
    def test_params_that_are_not_a_basis_params(self, params):
        with pytest.raises(ParameterError, match="params must be a BasisParams"):
            radau_nodes(params)


class TestMglOrthogonality:
    @pytest.mark.parametrize("L", [1.0, 2.5])
    def test_gram_matrix_diagonal(self, L):
        # 24-point Gauss quadrature integrates products up to degree 47
        # exactly, far beyond the 8x8 block checked here.
        alpha = 1.0
        t, w = roots_genlaguerre(24, alpha)
        vals = eval_laguerre_all(8, alpha, t)
        gram = L * np.einsum("q,iq,jq->ij", w, vals, vals)
        for i in range(9):
            # the weighted norm at L = 1 is Gamma(i + alpha + 1) / i!
            expected = L * math.gamma(i + alpha + 1.0) / math.factorial(i)
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
            eval_laguerre_all(MAX_DEGREE + 1, 1.0, 1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", BAD_POINTS)
    @pytest.mark.parametrize("n", [0, 3])
    def test_rejects_arguments_that_are_not_finite_numbers(self, n, x):
        with pytest.raises(ParameterError):
            eval_laguerre_all(n, 1.0, x)

    @pytest.mark.filterwarnings("error")
    def test_real_numbers_that_numpy_holds_as_objects(self):
        # a Fraction or an integer past int64 is a real number, as check_real
        # reads one; a boolean or text among them is not
        np.testing.assert_array_equal(eval_laguerre_all(3, 1.0, Fraction(1, 2)),
                                      eval_laguerre_all(3, 1.0, 0.5))
        np.testing.assert_array_equal(eval_laguerre_all(3, 1.0, [Fraction(1, 2), 2]),
                                      eval_laguerre_all(3, 1.0, [0.5, 2.0]))
        for x in (10**30, [10**400]):  # past the envelope; the second past any float
            with pytest.raises(ParameterError):
                eval_laguerre_all(3, 1.0, x)
        for x in ([Fraction(1, 2), True], [10**30, "2"]):
            with pytest.raises(ParameterError, match="argument must be real numbers"):
                eval_laguerre_all(3, 1.0, x)

    def test_argument_envelope(self):
        with pytest.raises(RangeError):
            eval_laguerre_all(3, 1.0, MAX_ARGUMENT + 1.0)
        with pytest.raises(RangeError):
            eval_laguerre_all(3, 1.0, -1.5)
        # the envelope floor leaves room for centered difference probes at 0
        assert np.all(np.isfinite(eval_laguerre_all(3, 1.0, -0.5)))

    def test_alpha_bound(self):
        with pytest.raises(ParameterError):
            BasisParams(n=3, alpha=-1.0)
        with pytest.raises(ParameterError):
            BasisParams(n=3, alpha=-1.2)

    def test_bad_degree(self):
        with pytest.raises(ParameterError):
            BasisParams(n=0)
        with pytest.raises(ParameterError):
            eval_laguerre_all(-1, 1.0, 0.0)
        with pytest.raises(ParameterError):
            eval_laguerre_all(2.5, 1.0, 0.0)

    def test_bad_map_scale(self):
        with pytest.raises(ParameterError):
            BasisParams(n=3, L=0.0)
        with pytest.raises(ParameterError):
            BasisParams(n=3, L=-2.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ParameterError):
            eval_laguerre_all(3, 1.0, float("nan"))
        with pytest.raises(ParameterError):
            BasisParams(n=3, alpha=float("inf"))
