import ast
import inspect
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import dgetrf

import emden.laguerre
import emden.operators
import emden.reference
import emden.solver
from emden.errors import NumericalError, ParameterError
from emden.laguerre import BasisParams
from emden.operators import build_operators, eval_hat_interpolant
from emden.reference import closed_form
from emden.solver import (
    LaneEmdenProblem,
    SolverConfig,
    SpectralSolution,
    _lockstep_newton_solve,
    _stacked_lu_solve,
    assemble_jacobian,
    assemble_residual,
    newton_solve,
    pow_signed,
    pow_signed_deriv,
    scan_L_reports,
)
from conftest import BAD_POINTS, STALLED
from test_operators import assert_same_bits, uncached_build_operators

# Regression anchors for the canonical m=3, n=7, L=1 solve, recorded from this
# implementation; they pin point values against accidental drift.
REG_B = (
    1.0,
    0.96445732921,
    0.704915514279,
    0.295881118892,
    0.0433344363417,
    -0.0813992023881,
    -0.141517742356,
    -0.10183118943,
)
REG_VALUES = {
    0.1: 0.99821961,
    0.5: 0.95855263,
    1.0: 0.85490620,
    5.0: 0.10461200,
    6.0: 0.03867478,
}


def solve(m, n, L, **kw):
    return newton_solve(LaneEmdenProblem(m), SolverConfig(n=n, L=L, **kw))


def reference_residual(problem, ops, b):
    """assemble_residual as it was before it evaluated stacks: 1-d products."""
    n = ops.n
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


def reference_jacobian(problem, ops, b):
    """assemble_jacobian as it was when every Newton iteration rebuilt it."""
    b = np.asarray(b, dtype=float)
    n = ops.n
    if b.shape != (n + 1,):
        raise ParameterError(f"b must have length {n + 1}")
    xm = ops.mapped_nodes
    jac = np.zeros((n + 1, n + 1))
    jac[0, 0] = 1.0
    jac[1] = ops.D1_scaled[0]
    interior = np.arange(1, n)
    jac[2:] = xm[interior, None] * ops.D2_scaled[interior] + 2.0 * ops.D1_scaled[interior]
    jac[interior + 1, interior] += xm[interior] * problem.g_prime(b[interior])
    return jac


def reference_lu_solve_checked(jac, rhs):
    """The checked LU solve of one system, through scipy's lu_solve, raising
    the messages of the solver's checks in their order."""
    if not np.isfinite(jac).all():
        raise NumericalError("Jacobian factorization failed: array must not contain infs or NaNs")
    lu, piv, _ = dgetrf(jac)
    pivots = np.abs(np.diag(lu))
    scale = pivots.max() if pivots.size else 0.0
    if not np.isfinite(scale) or scale == 0.0 or pivots.min() < 1e-14 * scale:
        raise NumericalError("singular Jacobian: pivot below 1e-14 of the largest")
    if not np.isfinite(rhs).all():
        raise NumericalError("linear solve failed: right-hand side must not contain infs or NaNs")
    return lu_solve((lu, piv), rhs)


def reference_newton_solve(problem, config):
    """The Newton loop that rebuilds the Jacobian every iteration and halves
    its step one residual at a time, kept as the reference newton_solve and
    every scan member must equal bit for bit, on an uncached build. A failed
    check of the LU solve names L and the iteration, as the solver's does."""
    ops = uncached_build_operators(config.basis_params())
    xm = ops.mapped_nodes
    b = (1.0 + xm**2 / 3.0) ** -0.5
    b[0] = 1.0
    res = reference_residual(problem, ops, b)
    norm = float(np.max(np.abs(res)))
    history = [norm]
    iterations = 0
    while norm > config.newton_tol and iterations < config.max_iter:
        jac = reference_jacobian(problem, ops, b)
        iterations += 1
        try:
            delta = reference_lu_solve_checked(jac, -res)
        except NumericalError as exc:
            raise NumericalError(f"{exc} (L={config.L}, iteration {iterations})") from None
        delta[0] = 0.0
        step = 1.0
        accepted = False
        while step >= 1.0 / 64.0:
            cand = b + step * delta
            cand[0] = 1.0
            cand_res = reference_residual(problem, ops, cand)
            cand_norm = float(np.max(np.abs(cand_res)))
            if np.isfinite(cand_norm) and cand_norm < norm:
                b, res, norm = cand, cand_res, cand_norm
                history.append(norm)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    return SpectralSolution(
        b=b,
        residual_norm=norm,
        iterations=iterations,
        converged=bool(norm <= config.newton_tol),
        config_echo=config,
        operators=ops,
        residual_history=tuple(history),
    )


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


# (m, n, alpha, L, max_iter): canonical setups, even m at (2, 8, 1, 2) and
# (4, 6, 1, 2), the shared stalled line search at (3, 6, 1, 4), solves cut off
# by max_iter, 0.0 and -0.0 alpha, and 30 random draws of m in [0.3, 5],
# n in 1..30, alpha in [-0.9, 4] and L log-uniform in [0.05, 4], some of
# which stall as well
NEWTON_SAMPLE = (
    (0.0, 7, 1.0, 1.0, 100), (1.0, 12, 1.0, 1.0, 100), (3.0, 7, 1.0, 1.0, 100),
    (5.0, 12, 1.0, 0.9, 100), (2.0, 8, 1.0, 2.0, 100), (4.0, 6, 1.0, 2.0, 100),
    (3.0, 6, 1.0, 4.0, 100),
    (2.5, 12, 0.5, 0.4, 100), (3.0, 7, 0.0, 1.0, 100), (3.0, 7, -0.0, 1.0, 100),
    (3.0, 7, 1.0, 1.0, 3), (3.013, 29, -0.891, 1.622, 5),
    (1.141, 1, 1.39, 0.254, 100), (1.968, 20, 2.974, 2.64, 100),
    (1.134, 26, 0.562, 3.461, 100), (4.623, 20, 2.216, 1.354, 100),
    (2.721, 20, 1.297, 0.221, 100), (1.606, 25, 0.209, 0.501, 100),
    (2.325, 9, -0.837, 0.356, 100), (2.016, 20, 0.057, 0.678, 100),
    (2.346, 20, 0.126, 2.309, 100), (4.048, 9, 2.073, 0.227, 100),
    (4.75, 24, 1.221, 2.586, 100), (1.801, 17, 2.51, 0.198, 100),
    (1.529, 4, 0.217, 0.434, 100), (3.026, 22, 0.026, 1.232, 100),
    (2.878, 14, 0.924, 0.315, 100), (2.626, 19, 1.403, 0.966, 100),
    (3.013, 29, -0.891, 1.622, 100), (2.741, 13, 0.7, 0.447, 100),
    (0.739, 6, 3.95, 0.065, 100), (1.984, 28, 2.677, 0.198, 100),
    (2.965, 19, 2.894, 3.334, 100), (4.475, 13, 2.143, 0.101, 100),
    (4.751, 9, 0.559, 0.172, 100), (3.458, 1, 1.488, 0.075, 100),
    (0.36, 26, 1.508, 0.697, 100), (2.951, 19, 3.463, 2.797, 100),
    (1.185, 8, 2.96, 0.822, 100), (3.4, 29, 1.776, 2.784, 100),
    (1.396, 24, 3.09, 0.09, 100), (3.193, 18, 1.074, 1.435, 100),
)


def linspace(lo, hi, count):
    return tuple(np.linspace(lo, hi, count).tolist())


# (m, n, alpha, L grid, tol, max_iter): the four golden scans, the two
# reproduce-tables scans (m = 2 at tol 1e-12 is also golden scan-L_m2_n6, so
# it appears once), alpha -0.5, 0.0 and 2.25, max_iter 3, tol 1e-9, a
# one-point grid and a grid that repeats an L
SCAN_SAMPLE = (
    (2.0, 6, 1.0, linspace(0.5, 4.0, 15), 1e-12, 100),
    (3.5, 16, 1.0, linspace(0.2, 3.0, 9), 1e-12, 100),
    (2.0, 8, 1.0, linspace(2.0, 3.0, 3), 1e-12, 100),
    (2.5, 9, 0.5, linspace(0.3, 3.5, 11), 1e-10, 6),
    (4.0, 6, 1.0, linspace(0.5, 4.0, 15), 1e-12, 100),
    (3.0, 7, -0.5, linspace(0.2, 3.0, 8), 1e-12, 100),
    (1.5, 10, 0.0, linspace(0.3, 4.0, 8), 1e-12, 100),
    (4.5, 12, 2.25, linspace(0.1, 2.0, 8), 1e-12, 100),
    (3.0, 12, 1.0, linspace(0.3, 3.0, 6), 1e-12, 3),
    (2.7, 8, 1.0, linspace(0.2, 3.0, 8), 1e-9, 100),
    (3.0, 7, 1.0, (1.0,), 1e-12, 100),
    (3.0, 7, 1.0, (0.5, 1.0, 0.5, 2.0, 1.0), 1e-12, 100),
)

# a scan whose member at L = 2.0 has a singular Jacobian; the six before it
# converge or stall, and seven of the eight after it fail too, L = 3.5 first
FAILING_SCAN = (0.1428706620038983, 9, 2.9521810169907963, linspace(0.5, 4.0, 15))


def ending(sol, max_iter):
    return "converged" if sol.converged else "max_iter" if sol.iterations == max_iter else "stalled"


class TestPowSigned:
    def test_examples(self):
        assert pow_signed(-0.5, 2) == -0.25
        assert pow_signed(-0.25, 0.5) == -0.5
        assert pow_signed(0.0, 3) == 0.0
        assert pow_signed(0.0, 0) == 1.0
        assert pow_signed(-2.0, 0) == 1.0  # m = 0 is the one index outside the odd extension
        assert pow_signed(2.0, 3) == 8.0

    def test_integer_exponent_takes_the_odd_extension(self):
        assert pow_signed(-2.0, 3) == -8.0
        assert pow_signed(-2.0, 2) == -4.0
        assert pow_signed(-2.0, 4) == -16.0

    @given(y=st.floats(min_value=0.01, max_value=10.0),
           m=st.floats(min_value=0.0, max_value=5.0, exclude_min=True))
    def test_odd_extension(self, y, m):
        # every m > 0, integer or not, takes sign(y)|y|^m
        assert pow_signed(-y, m) == pytest.approx(-pow_signed(y, m), rel=1e-14)

    def test_matches_power_for_positive_base(self):
        for m in [0.5, 1.5, 3.0, 4.2]:
            assert pow_signed(1.7, m) == pytest.approx(1.7**m, rel=1e-14)


class TestPowSignedDeriv:
    @pytest.mark.parametrize("y", [0.3, -0.7, 2.0])
    @pytest.mark.parametrize("m", [0.0, 1.0, 2.0, 3.0, 3.5])
    def test_finite_difference(self, y, m):
        h = 1e-6
        fd = (pow_signed(y + h, m) - pow_signed(y - h, m)) / (2 * h)
        assert m * pow_signed_deriv(y, m) == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_zero_exponent(self):
        assert pow_signed_deriv(0.7, 0.0) == 0.0
        assert pow_signed_deriv(-0.7, 0.0) == 0.0

    def test_singular_point_warns_and_clamps(self):
        with pytest.warns(RuntimeWarning):
            val = pow_signed_deriv(0.0, 0.5)
        assert val == 0.0

    def test_integer_exponent_at_zero(self):
        assert pow_signed_deriv(0.0, 3) == 0.0
        assert pow_signed_deriv(0.0, 1) == 1.0

    @pytest.mark.parametrize("m", [1.0, 1.5, 2.0, 3.0, 4.75])
    def test_no_warning_at_zero_from_m_one_on(self, m):
        # |y|**(m-1) cannot divide by zero for m >= 1, so no floating-point
        # state is needed there
        ys = np.array([0.0, -0.0, -0.5, 0.5])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            got = pow_signed_deriv(ys, m)
        assert bits(got) == bits(np.abs(ys) ** (m - 1.0))

    def test_even_exponent_is_even(self):
        assert pow_signed_deriv(-2.0, 2) == 2.0
        assert pow_signed_deriv(-2.0, 4) == 8.0

    def test_singular_warning_points_at_the_caller(self):
        with pytest.warns(RuntimeWarning) as record:
            pow_signed_deriv(np.array([0.0, 0.5]), 0.5)
        assert [w.filename for w in record] == [__file__]


class TestProblem:
    def test_power_law_dispatch(self):
        p = LaneEmdenProblem(3.0)
        assert p.g(0.5) == pytest.approx(0.125)
        assert p.g_prime(0.5) == pytest.approx(3 * 0.25)

    def test_callback_dispatch(self):
        p = LaneEmdenProblem(3.0, _g=lambda y: 2.0 * y, _g_prime=lambda y: 2.0)
        assert p.g(0.7) == pytest.approx(1.4)
        assert p.g_prime(0.7) == 2.0

    def test_negative_index_rejected(self):
        with pytest.raises(ParameterError):
            LaneEmdenProblem(-1.0)

    @pytest.mark.parametrize("m", [0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 4.75])
    def test_m_is_validated_once_per_problem(self, m, monkeypatch):
        # g and g_prime give the bits and types of the public functions
        # without validating m again
        ys = (np.array([-1.5, -0.3, 0.2, 0.9, 2.0]), 0.7, -0.4)
        expected = [(pow_signed(y, m), m * pow_signed_deriv(y, m)) for y in ys]
        problem = LaneEmdenProblem(m)

        def refuse(*args, **kwargs):
            raise AssertionError("m validated again")

        monkeypatch.setattr(emden.solver, "check_real", refuse)
        for y, (g, g_prime) in zip(ys, expected):
            assert type(problem.g(y)) is type(g) and bits(problem.g(y)) == bits(g)
            assert type(problem.g_prime(y)) is type(g_prime)
            assert bits(problem.g_prime(y)) == bits(g_prime)


def holds_a_non_finite_float(x):
    return any(isinstance(v, float) and not math.isfinite(v) for v in (x if isinstance(x, list) else [x]))


class TestPowerLawInput:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("y", BAD_POINTS)
    def test_every_entry_point_reads_y_one_way(self, y):
        # the two public functions reject what is not a finite number; the
        # problem's g and g_prime reject non-numbers and pass NaN and inf,
        # which the line search has to see in order to reject a rung
        problem = LaneEmdenProblem(3.0)
        for power_law in (pow_signed, pow_signed_deriv):
            with pytest.raises(ParameterError, match="y must be"):
                power_law(y, 3.0)
        if not holds_a_non_finite_float(y):
            for method in (problem.g, problem.g_prime):
                with pytest.raises(ParameterError, match="y must be real numbers"):
                    method(y)
            return
        arr = np.array(y, dtype=float)
        np.testing.assert_array_equal(problem.g(y), np.sign(arr) * np.abs(arr) ** 3.0)
        np.testing.assert_array_equal(problem.g_prime(y), 3.0 * np.abs(arr) ** 2.0)

    @pytest.mark.filterwarnings("error")
    def test_an_overflowing_power_is_inf_without_a_warning(self):
        problem = LaneEmdenProblem(1e6)
        y = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        np.testing.assert_array_equal(problem.g(y), [-np.inf, -0.0, 0.0, 0.0, np.inf])
        np.testing.assert_array_equal(problem.g_prime(y), [np.inf, 0.0, 0.0, 0.0, np.inf])
        assert pow_signed(3.0, 1e300) == np.inf and pow_signed_deriv(-3.0, 1e300) == np.inf
        ops = build_operators(BasisParams(n=4))
        b = np.array([1.0, 2.0, -2.0, 0.5, 0.0])
        residual = assemble_residual(problem, ops, b)
        assert residual[2] == np.inf and residual[3] == -np.inf and np.isfinite(residual[4])
        jacobian = assemble_jacobian(problem, ops, b)
        assert jacobian[2, 1] == jacobian[3, 2] == np.inf and np.isfinite(jacobian[4, 3])


# Every input check of the package; a trusted kernel calls none of them.
CHECKS = {"check_type", "check_real", "check_integer", "as_floats", "as_reals", "as_points", "_check_argument"}


def calls_in(name, module=emden.solver):
    """The names called in the body of module's function or method name."""
    tree = ast.parse(inspect.getsource(module))
    node = next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == name)
    return [call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", None)
            for call in ast.walk(node) if isinstance(call, ast.Call)]


def public_functions(*modules):
    return {name for module in modules for name in module.__all__
            if inspect.isfunction(getattr(module, name))}


class TestCheckedBoundary:
    """Public entries check their input and hold their own overflow guard;
    the private loop functions run on the package's own float arrays under
    the one guard of the Newton loop. The node build, the operator build,
    the interpolant and the zero search run on private kernels the same way."""

    @pytest.mark.parametrize("name", ["_stacked_residual", "_linear_jacobian", "_add_g_prime",
                                      "_stacked_lu_solve", "_power", "_power_prime"])
    def test_the_trusted_core_checks_nothing_and_takes_no_guard(self, name):
        called = set(calls_in(name))
        assert not called & CHECKS
        assert "errstate" not in called

    @pytest.mark.parametrize("module, name", [
        (emden.laguerre, "_sweep"), (emden.laguerre, "_radau_nodes"), (emden.laguerre, "_unscaled"),
        (emden.operators, "_poly_d1"), (emden.operators, "_poly_d2"), (emden.operators, "_exp_ratio"),
        (emden.operators, "_mgl_d1"), (emden.operators, "_mgl_d2"),
        (emden.operators, "_unscaled_operators"), (emden.operators, "_hat_values"),
        (emden.operators, "_hat_cardinals"),
    ], ids=lambda value: getattr(value, "__name__", value))
    def test_the_kernels_check_nothing_and_call_no_public_entry(self, module, name):
        called = set(calls_in(name, module))
        assert not called & CHECKS
        assert not called & public_functions(emden.laguerre, emden.operators)

    def test_the_zero_search_checks_b_once_and_scans_on_the_kernel(self):
        called = calls_in("first_zero", emden.reference)
        assert called.count("_coefficients") == 1 and "_hat_values" in called
        assert not set(called) & public_functions(emden.laguerre, emden.operators)

    def test_the_loop_takes_one_guard(self):
        assert calls_in("_lockstep_newton_solve").count("errstate") == 1

    @pytest.mark.parametrize("L, expected", [
        (1e300, [("operators.py", "overflow encountered in multiply"),
                 ("solver.py", "overflow encountered in square")]),
        (1e-300, [("operators.py", "divide by zero encountered in divide"),
                  ("solver.py", "invalid value encountered in matmul")]),
    ])
    def test_the_loop_guard_covers_only_the_iterations(self, L, expected):
        # the operators and the starting guess come before the guard, and an
        # overflow guard hides no invalid value, so these warnings of a map
        # scale far outside the goldens' [0.2, 4] reach the caller. Bounding
        # L, or giving each solve a termination reason (ROADMAP item 5), may
        # turn them into a typed error and replace these cases
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            newton_solve(LaneEmdenProblem(3.0), SolverConfig(n=7, L=L))
        assert [(os.path.basename(w.filename), str(w.message)) for w in record] == expected
        assert {w.category for w in record} == {RuntimeWarning}


class TestAssembly:
    @pytest.mark.parametrize("assemble", [assemble_residual, assemble_jacobian])
    @pytest.mark.parametrize("b, message", [
        ([1.0, 0.8, 0.5, 0.2], "b must have length 5"),
        ([1.0, 0.8, 0.5, 0.2, 0.05, 0.0], "b must have length 5"),
        ([[1.0, 0.8, 0.5, 0.2, 0.05]], "b must have length 5"),
        ("abc", "b must be real numbers"),
        ([1.0, [0.8, 0.5], 0.2, 0.05, 0.0], "b must be real numbers"),
        (["1.0", "0.8", "0.5", "0.2", "0.05"], "b must be real numbers"),
        ([True, False, False, False, False], "b must be real numbers"),
        ([1.0, 0.8, float("nan"), 0.2, 0.05], "b must be finite"),
    ], ids=["short", "long", "2-d", "text", "ragged", "numeric-text", "bools", "nan"])
    def test_coefficients_not_one_per_node_raise(self, assemble, b, message):
        ops = build_operators(BasisParams(n=4))
        with pytest.raises(ParameterError, match=message):
            assemble(LaneEmdenProblem(3.0), ops, b)

    def test_boundary_rows(self):
        ops = build_operators(BasisParams(n=4))
        b = np.array([1.0, 0.8, 0.5, 0.2, 0.05])
        F = assemble_residual(LaneEmdenProblem(3.0), ops, b)
        assert F.shape == (5,)
        assert F[0] == 0.0
        assert F[1] == pytest.approx(ops.D1_scaled[0] @ b, abs=1e-15)
        F2 = assemble_residual(LaneEmdenProblem(3.0), ops, b + np.array([0.5, 0, 0, 0, 0]))
        assert F2[0] == 0.5

    def test_interior_row_by_hand(self):
        ops = build_operators(BasisParams(n=2, L=1.3))
        b = np.array([1.0, 0.6, 0.1])
        xm = ops.mapped_nodes
        F = assemble_residual(LaneEmdenProblem(3.0), ops, b)
        expected = (xm[1] * (ops.D2_scaled @ b)[1]
                    + 2.0 * (ops.D1_scaled @ b)[1]
                    + xm[1] * b[1] ** 3)
        assert F[2] == pytest.approx(expected, rel=1e-14)

    def test_residual_equals_the_1d_reference(self):
        # a coefficient vector alone gets the bits it gets in any stack
        rng = np.random.default_rng(11)
        for _ in range(300):
            m = float(rng.choice([0.0, 1.0, 2.0, 3.0, rng.uniform(0.0, 5.0)]))
            n, alpha = int(rng.integers(1, 31)), float(rng.uniform(-0.9, 4.0))
            ops = build_operators(BasisParams(n=n, alpha=alpha, L=float(np.exp(rng.uniform(-3, 1.4)))))
            b = rng.standard_normal(n + 1) * rng.uniform(0.01, 3.0)
            problem = LaneEmdenProblem(m)
            F = assemble_residual(problem, ops, b)
            assert bits(F) == bits(reference_residual(problem, ops, b))
            stack = emden.solver._stacked_residual(problem, ops.D1_scaled, ops.D2_scaled,
                                                   ops.mapped_nodes, np.stack([-b, b]))
            assert bits(stack[1]) == bits(F)

    def test_last_node_not_collocated(self):
        # the square system uses rows 0..n-1 of the operators plus the two
        # boundary rows; perturbing only the equation at the last node cannot
        # appear as an extra residual entry
        ops = build_operators(BasisParams(n=3))
        b = np.array([1.0, 0.7, 0.3, 0.1])
        F = assemble_residual(LaneEmdenProblem(2.0), ops, b)
        assert F.shape == (4,)

    @pytest.mark.parametrize("m,n,L", [
        (0.0, 7, 1.0), (1.0, 7, 1.0), (2.0, 6, 0.5),
        (3.0, 7, 1.0), (4.0, 6, 2.0), (5.0, 12, 0.9),
    ])
    def test_jacobian_matches_finite_differences(self, m, n, L):
        sol = solve(m, n, L)
        assert sol.converged
        ops = build_operators(BasisParams(n=n, L=L))
        problem = LaneEmdenProblem(m)
        b = sol.b.copy()
        jac = assemble_jacobian(problem, ops, b)
        scale = np.max(np.abs(jac))
        h = 1e-7
        for j in range(n + 1):
            bp, bm = b.copy(), b.copy()
            bp[j] += h
            bm[j] -= h
            col = (assemble_residual(problem, ops, bp)
                   - assemble_residual(problem, ops, bm)) / (2 * h)
            np.testing.assert_allclose(jac[:, j], col, atol=1e-5 * scale)


class TestNewtonSolve:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m, n, L, converged, iterations", [
        (1e6, 7, 1.0, False, 7),
        (1e300, 7, 1.0, False, 7),
        # the power stays finite here but overflows times the mapped node
        (1e5, 12, 4.0, True, 13),
    ])
    def test_power_overflow_is_a_rejected_rung(self, m, n, L, converged, iterations):
        # an overflowing power makes a rung's residual inf, which the line
        # search rejects, with no warning on the way
        sol = solve(m, n, L)
        assert (sol.converged, sol.iterations) == (converged, iterations)
        assert np.all(np.isfinite(sol.b)) and np.all(np.isfinite(sol.residual_history))

    def test_linear_problem_converges_immediately(self):
        # m=0 makes the collocation system linear
        sol = solve(0.0, 7, 1.0)
        assert sol.converged
        assert sol.iterations <= 2

    def test_mildly_nonlinear_two_steps(self):
        sol = solve(1.0, 12, 1.0)
        assert sol.converged
        assert sol.iterations <= 2

    def test_boundary_value_is_bitwise_one(self):
        for m, n, L in [(3.0, 7, 1.0), (5.0, 12, 0.9)]:
            sol = solve(m, n, L)
            assert sol.b[0] == 1.0

    def test_canonical_regression(self):
        sol = solve(3.0, 7, 1.0)
        assert sol.converged
        assert sol.residual_norm <= 1e-12
        np.testing.assert_allclose(sol.b, REG_B, rtol=1e-9)
        ops = build_operators(BasisParams(n=7))
        for x, expected in REG_VALUES.items():
            assert eval_hat_interpolant(ops, sol.b, x) == pytest.approx(expected, abs=5e-8)

    def test_residual_recomputes_below_tolerance(self):
        for m, n, L in [(1.0, 7, 1.0), (3.0, 7, 1.0), (5.0, 12, 0.9)]:
            sol = solve(m, n, L)
            ops = build_operators(BasisParams(n=n, L=L))
            F = assemble_residual(LaneEmdenProblem(m), ops, sol.b)
            assert np.max(np.abs(F)) <= 1e-11

    def test_residual_history_monotone(self):
        sol = solve(3.0, 7, 1.0)
        hist = np.array(sol.residual_history)
        assert len(hist) >= 1
        assert np.all(np.diff(hist) <= 0)
        assert hist[-1] == sol.residual_norm

    @pytest.mark.parametrize("args, name", [
        ((None, None), "problem"),
        ((3.0, SolverConfig(n=7)), "problem"),
        ((LaneEmdenProblem(3.0), 7), "config"),
        ((LaneEmdenProblem(3.0), BasisParams(n=7)), "config"),
    ], ids=["none", "bare-m", "bare-n", "basis-params"])
    def test_records_of_another_type_raise(self, args, name):
        with pytest.raises(ParameterError, match=f"{name} must be a"):
            newton_solve(*args)

    def test_solution_record_fields(self):
        sol = solve(3.0, 7, 1.0)
        assert sol.config_echo.n == 7
        assert sol.mapped_nodes.shape == (8,)
        assert sol.mapped_nodes is sol.operators.mapped_nodes
        assert sol.b.shape == (8,)
        with pytest.raises(ValueError):
            sol.b[0] = 2.0

    def test_map_scale_covariance(self):
        # solving with scale L equals solving at L=1 with the nonlinearity
        # amplified by L^2
        L = 1.7
        direct = solve(3.0, 8, L)
        amplified = newton_solve(
            LaneEmdenProblem(3.0,
                             _g=lambda y: L * L * pow_signed(y, 3.0),
                             _g_prime=lambda y: L * L * 3.0 * pow_signed_deriv(y, 3.0)),
            SolverConfig(n=8, L=1.0),
        )
        assert direct.converged and amplified.converged
        np.testing.assert_allclose(direct.b, amplified.b, atol=1e-10)

    def test_exact_solution_samples_nearly_satisfy_system(self):
        # nodal samples of the known m=5 profile leave a residual set by basis
        # truncation alone, shrinking as the degree grows
        norms = []
        for n in [8, 12, 16, 20]:
            ops = build_operators(BasisParams(n=n, L=1.0))
            b = closed_form(5.0, ops.mapped_nodes)
            F = assemble_residual(LaneEmdenProblem(5.0), ops, b)
            norms.append(np.max(np.abs(F)))
        assert norms[0] <= 2e-2
        assert norms[1] <= 1e-2
        assert norms[2] <= 8e-3
        assert norms[3] <= 6e-3
        assert all(a > b for a, b in zip(norms, norms[1:]))

    def test_interpolant_satisfies_equation_at_interior_nodes(self):
        # the equation is enforced pointwise at the collocation nodes, so an
        # independent finite-difference audit of the interpolant must recover
        # a near-zero residual there (between nodes only the expansion error
        # remains, which is much larger at this resolution)
        sol = solve(3.0, 7, 1.0)
        ops = build_operators(BasisParams(n=7))
        h = 2e-3

        def f(t):
            return eval_hat_interpolant(ops, sol.b, t)

        for i in [1, 2, 3]:
            x = ops.mapped_nodes[i]
            yp = (-f(x + 2 * h) + 8 * f(x + h)
                  - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)
            ypp = (-f(x + 2 * h) + 16 * f(x + h) - 30 * f(x)
                   + 16 * f(x - h) - f(x - 2 * h)) / (12 * h**2)
            assert abs(ypp + 2.0 / x * yp + f(x) ** 3) <= 1e-6

    def test_stall_reports_non_convergence(self):
        sol = solve(*STALLED)
        assert not sol.converged
        assert sol.residual_norm > 1e-12
        hist = np.array(sol.residual_history)
        assert np.all(np.diff(hist) <= 0)

    def test_singular_system_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning ahead of the typed error fails
            with pytest.raises(NumericalError, match="^singular Jacobian"):
                _stacked_lu_solve(np.zeros((1, 3, 3)), np.ones((1, 3)))

    def test_non_finite_system_raises(self):
        jac = np.eye(3)
        jac[2, 0] = np.nan
        with pytest.raises(NumericalError, match="^Jacobian factorization failed"):
            _stacked_lu_solve(jac[None], np.ones((1, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_right_hand_side_raises(self, bad):
        rhs = np.ones(3)
        rhs[1] = bad
        with pytest.raises(NumericalError, match="^linear solve failed: right-hand side"):
            _stacked_lu_solve(np.eye(3)[None], rhs[None])

    def test_solve_equals_scipy_lu_solve(self):
        rng = np.random.default_rng(17)
        for n in list(range(2, 32)) * 3:
            jac = rng.standard_normal((n, n)) * rng.uniform(0.1, 10.0, n)
            rhs = rng.standard_normal(n)
            x = _stacked_lu_solve(jac[None], rhs[None])
            assert bits(x[0]) == bits(lu_solve(lu_factor(jac), rhs))
            assert not np.shares_memory(x, rhs)

    def test_iteration_budget_respected(self):
        sol = solve(3.0, 7, 1.0, max_iter=3)
        assert sol.iterations <= 3

    @pytest.mark.parametrize("m,n,alpha,L", [(3.0, 7, 1.0, 1.0), (2.5, 12, 0.5, 0.4)])
    def test_operators_equal_a_fresh_build(self, m, n, alpha, L):
        # fresh bypasses the (n, alpha) cache, so a wrong cached build fails here
        config = SolverConfig(n=n, alpha=alpha, L=L)
        ops = newton_solve(LaneEmdenProblem(m), config).operators
        assert_same_bits(ops, uncached_build_operators(config.basis_params()))

    @pytest.mark.parametrize("m,n,alpha,L,max_iter", NEWTON_SAMPLE)
    def test_equals_the_rebuilding_reference_loop(self, m, n, alpha, L, max_iter):
        problem = LaneEmdenProblem(m)
        config = SolverConfig(n=n, alpha=alpha, L=L, max_iter=max_iter)
        sol = newton_solve(problem, config)
        ref = reference_newton_solve(problem, config)
        assert bits(sol.b) == bits(ref.b)
        assert bits(sol.residual_history) == bits(ref.residual_history)
        assert (sol.iterations, sol.converged) == (ref.iterations, ref.converged)
        assert bits(assemble_jacobian(problem, sol.operators, sol.b)) == \
            bits(reference_jacobian(problem, ref.operators, ref.b))

    @pytest.mark.parametrize("m,config,ends", [
        # the start guess meets the tolerance: the interior rows scale like 1/L
        (3.0, SolverConfig(n=7, L=1e20), "converged"),
        # the ladder ends at 1/64: a solve whose fourth step takes that last
        # rung, and a stall at the second iteration where 1/128 would reduce
        (2.0, SolverConfig(n=10, L=3.0), "converged"),
        (2.5, SolverConfig(n=10, L=4.0), "stalled"),
        # driven to the round-off floor, where a rung can only match the norm
        (3.0, SolverConfig(n=7, L=1.0, newton_tol=1e-300), "stalled"),
        (1.0, SolverConfig(n=7, L=1.0, newton_tol=1e-300), "stalled"),
        # the member of FAILING_SCAN whose Jacobian turns singular
        (FAILING_SCAN[0], SolverConfig(n=FAILING_SCAN[1], alpha=FAILING_SCAN[2], L=2.0),
         "singular Jacobian"),
    ])
    def test_edge_cases_equal_the_reference_loop(self, m, config, ends):
        problem = LaneEmdenProblem(m)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            if ends.startswith("singular"):
                with pytest.raises(NumericalError) as ref:
                    reference_newton_solve(problem, config)
                with pytest.raises(NumericalError) as sol:
                    newton_solve(problem, config)
                assert str(sol.value) == str(ref.value)
                assert str(ref.value).startswith(ends)
                return
            sol = newton_solve(problem, config)
            ref = reference_newton_solve(problem, config)
        assert bits(sol.b) == bits(ref.b)
        assert bits(sol.residual_history) == bits(ref.residual_history)
        assert (sol.iterations, sol.converged) == (ref.iterations, ref.converged)
        assert ending(sol, config.max_iter) == ends
        if config.L == 1e20:
            assert sol.iterations == 0 and sol.residual_history == (sol.residual_norm,)

    def test_sample_covers_every_way_a_solve_ends(self):
        outcomes = set()
        for m, n, alpha, L, max_iter in NEWTON_SAMPLE:
            sol = newton_solve(LaneEmdenProblem(m),
                               SolverConfig(n=n, alpha=alpha, L=L, max_iter=max_iter))
            outcomes.add("converged" if sol.converged
                         else "max_iter" if sol.iterations == max_iter else "stalled")
        assert outcomes == {"converged", "stalled", "max_iter"}


class TestScanLReports:
    def test_matches_a_loop_of_solves(self):
        grid = np.linspace(0.5, 4.0, 8)
        reports = scan_L_reports(2.0, 6, 1.0, grid, tol=1e-11, max_iter=50)
        solutions = [solve(2.0, 6, float(L), newton_tol=1e-11, max_iter=50) for L in grid]
        assert [r.L for r in reports] == [float(L) for L in grid]
        assert [r.converged for r in reports] == [s.converged for s in solutions]
        assert any(r.converged for r in reports) and not all(r.converged for r in reports)
        tails = [float(np.max(np.abs(s.b[-3:]))) for s in solutions]
        assert [r.tail_magnitude for r in reports] == tails
        for r, s in zip(reports, solutions):
            assert r.coeff_abs == tuple(float(a) for a in np.abs(s.b))
        best = min((i for i, s in enumerate(solutions) if s.converged), key=tails.__getitem__)
        assert [r.recommended for r in reports] == [i == best for i in range(len(grid))]

    @pytest.mark.parametrize("m,n,alpha,grid,tol,max_iter", SCAN_SAMPLE)
    def test_each_member_equals_newton_solve_bitwise(self, m, n, alpha, grid, tol, max_iter):
        # newton_solve is the one-member scan, so the members are held to the
        # reference loop that newton_solve itself equals
        problem = LaneEmdenProblem(m)
        reports = scan_L_reports(m, n, alpha, np.array(grid), tol=tol, max_iter=max_iter)
        assert [r.L for r in reports] == list(grid)
        for report, L in zip(reports, grid):
            config = SolverConfig(n=n, alpha=alpha, L=L, newton_tol=tol, max_iter=max_iter)
            ref = reference_newton_solve(problem, config)
            sol = report.solution
            assert sol.config_echo == config
            assert bits(sol.b) == bits(ref.b)
            assert bits(sol.residual_history) == bits(ref.residual_history)
            assert bits(sol.residual_norm) == bits(ref.residual_norm)
            assert (sol.iterations, sol.converged) == (ref.iterations, ref.converged)
            assert report.converged == ref.converged
            assert not sol.b.flags.writeable
            assert_same_bits(sol.operators, ref.operators)

    @pytest.mark.parametrize("m,n,alpha,grid,tol,max_iter", SCAN_SAMPLE)
    def test_one_residual_call_per_iteration(self, monkeypatch, m, n, alpha, grid, tol, max_iter):
        # the whole damping ladder of every live member goes into one call
        calls = []

        def counted(problem, d1, d2, xm, b):
            calls.append(b.shape)
            return stacked_residual(problem, d1, d2, xm, b)

        stacked_residual = emden.solver._stacked_residual
        monkeypatch.setattr(emden.solver, "_stacked_residual", counted)
        reports = scan_L_reports(m, n, alpha, np.array(grid), tol=tol, max_iter=max_iter)
        assert len(calls) == 1 + max(r.solution.iterations for r in reports)
        assert calls[0] == (len(grid), n + 1)
        assert all(shape[1:] == (7, n + 1) for shape in calls[1:])

    def test_members_hold_read_only_slices_of_one_stack(self):
        reports = scan_L_reports(3.0, 7, 1.0, [0.5, 1.0, 2.0])
        ops = [r.solution.operators for r in reports]
        for name in ("D1_scaled", "D2_scaled", "mapped_nodes"):
            arrays = [getattr(o, name) for o in ops]
            assert all(not a.flags.writeable for a in arrays)
            assert all(a.base is not None and a.base is arrays[0].base for a in arrays)

    def test_sample_covers_every_way_a_solve_ends(self):
        outcomes = set()
        for m, n, alpha, grid, tol, max_iter in SCAN_SAMPLE:
            reports = scan_L_reports(m, n, alpha, np.array(grid), tol=tol, max_iter=max_iter)
            outcomes.update(ending(r.solution, max_iter) for r in reports)
        assert outcomes == {"converged", "stalled", "max_iter"}

    def test_empty_grid(self):
        assert scan_L_reports(3.0, 7, 1.0, []) == []

    def test_failing_scan_raises_what_a_loop_of_solves_raises(self):
        # each L solved alone by the reference loop; the scan raises the
        # failure at the earliest iteration, the earlier L on a tie
        m, n, alpha, grid = FAILING_SCAN
        problem = LaneEmdenProblem(m)
        failures = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for L in grid:
                try:
                    reference_newton_solve(problem, SolverConfig(n=n, alpha=alpha, L=L))
                except NumericalError as exc:
                    failures.append((int(str(exc).split("iteration ")[1].rstrip(")")), str(exc)))
            with pytest.raises(NumericalError) as scan:
                scan_L_reports(m, n, alpha, np.array(grid))
        first = min(failures, key=lambda failure: failure[0])[1]
        assert len(failures) == 8
        assert first == "singular Jacobian: pivot below 1e-14 of the largest (L=3.5, iteration 22)"
        assert str(scan.value) == first

    def test_the_member_that_fails_first_decides_the_error(self, monkeypatch):
        # L = 0.5 takes one step, then fails with a non-finite Jacobian at
        # its second LU solve; L = 2.5 fails with a singular one at its 28th.
        # The scan raises at that second solve, from L = 0.5, though L = 2.5
        # comes first in the grid
        m, n, alpha, _ = FAILING_SCAN
        problem = LaneEmdenProblem(
            m,
            _g=lambda y: np.sign(y) * np.abs(y) ** m,
            _g_prime=lambda y: np.where(y < -1.0, np.inf, m * np.abs(y) ** (m - 1.0)))
        configs = [SolverConfig(n=n, alpha=alpha, L=L) for L in (2.5, 0.5)]
        stacks = []

        def counted(jac, rhs):
            stacks.append(len(jac))
            return stacked_lu_solve(jac, rhs)

        stacked_lu_solve = emden.solver._stacked_lu_solve
        monkeypatch.setattr(emden.solver, "_stacked_lu_solve", counted)
        with np.errstate(divide="ignore"):
            with pytest.raises(NumericalError, match="^singular Jacobian"):
                reference_newton_solve(problem, configs[0])
            assert reference_newton_solve(problem, SolverConfig(n=n, alpha=alpha, L=0.5,
                                                                max_iter=1)).iterations == 1
            with pytest.raises(NumericalError, match="^Jacobian factorization failed"):
                reference_newton_solve(problem, configs[1])
            with pytest.raises(NumericalError, match="^Jacobian factorization failed"):
                _lockstep_newton_solve(problem, configs)
        assert stacks == [2, 2]

    def test_an_invalid_grid_is_rejected_before_any_solve(self, monkeypatch):
        calls = []
        monkeypatch.setattr(emden.solver, "_lockstep_newton_solve",
                            lambda problem, configs: calls.append(configs))
        m, n, alpha, grid = FAILING_SCAN
        with pytest.raises(ParameterError, match="^L must be"):
            scan_L_reports(m, n, alpha, list(grid) + [-1.0])
        with pytest.raises(ParameterError, match="^L must be"):
            scan_L_reports(3.0, 7, 1.0, [1.0, -1.0])
        with pytest.raises(ParameterError, match="^grid must be an iterable"):
            scan_L_reports(3, 7, 1.0, 1.0)
        assert calls == []

    @pytest.mark.parametrize("bad", [None, "a", "1.0", [1.0], True, float("nan")])
    def test_a_grid_entry_that_is_not_a_map_scale(self, bad):
        with pytest.raises(ParameterError, match="^L must be"):
            scan_L_reports(3.0, 7, 1.0, [1.0, bad])
        m, n, alpha, grid = FAILING_SCAN
        with pytest.raises(ParameterError, match="^L must be"):
            scan_L_reports(m, n, alpha, list(grid) + [bad])

    def test_report_L_is_the_solved_float(self):
        reports = scan_L_reports(3.0, 7, 1.0, [1, np.float32(0.5), np.int64(2)])
        assert [type(r.L) for r in reports] == [float] * 3
        assert [r.L for r in reports] == [r.solution.config_echo.L for r in reports] == [1.0, 0.5, 2.0]


class TestConvergenceMap:
    def test_floor_over_the_grid(self):
        # 10 m in {0.5, ..., 5} x 7 n x 12 geometric L in [0.05, 4]; the
        # floors are the measured counts, so a drop in convergence fails here
        grid = np.geomspace(0.05, 4.0, 12)
        converged = {}
        for m in np.linspace(0.5, 5.0, 10).tolist():
            converged[m] = sum(r.converged for n in (6, 7, 8, 10, 12, 16, 20)
                               for r in scan_L_reports(m, n, 1.0, grid))
        assert sum(converged.values()) >= 809
        assert converged[2.0] >= 74
        assert converged[4.0] == 84


class TestStackedLuSolve:
    @pytest.mark.parametrize("jac,rhs,message", [
        ([[np.nan, 0.0], [0.0, 1.0]], [np.inf, 1.0], "Jacobian factorization failed"),
        ([[0.0, 0.0], [0.0, 1.0]], [np.nan, 1.0], "singular Jacobian"),
        ([[1.0, 0.0], [0.0, 1.0]], [np.nan, 1.0], "linear solve failed: right-hand side"),
    ])
    def test_a_system_failing_several_checks_reports_the_first(self, jac, rhs, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=f"^{message}"):
                _stacked_lu_solve(np.array([np.eye(2), jac]), np.array([[1.0, 2.0], rhs]))
        with pytest.raises(NumericalError, match=f"^{message}"):
            reference_lu_solve_checked(np.array(jac), np.array(rhs))

    @pytest.mark.parametrize("seed", range(40))
    def test_equals_a_loop_of_checked_solves(self, seed):
        # members may carry a NaN or inf Jacobian, an exactly singular one or
        # a non-finite right-hand side; the stack raises the message that a
        # loop of the reference checked solve raises, or equals its solutions
        rng = np.random.default_rng(seed)
        k, size = int(rng.integers(1, 8)), int(rng.integers(2, 18))
        jac = rng.standard_normal((k, size, size)) * rng.uniform(0.1, 10.0, (k, 1, size))
        rhs = rng.standard_normal((k, size))
        for i in range(k):
            kind = rng.integers(8)
            if kind == 0:
                jac[i, rng.integers(size), rng.integers(size)] = rng.choice([np.nan, np.inf])
            elif kind == 1:
                jac[i, :, rng.integers(size)] = 0.0
            elif kind == 2:
                rhs[i, rng.integers(size)] = rng.choice([np.nan, -np.inf])
        expected, message = [], None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i in range(k):
                try:
                    expected.append(reference_lu_solve_checked(jac[i], rhs[i]))
                except NumericalError as exc:
                    message = str(exc)
                    break
            if message is None:
                assert bits(_stacked_lu_solve(jac, rhs)) == bits(expected)
            else:
                with pytest.raises(NumericalError) as failure:
                    _stacked_lu_solve(jac, rhs)
                assert str(failure.value) == message


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ParameterError):
            SolverConfig(n=0)
        with pytest.raises(ParameterError):
            SolverConfig(n=7, L=-1.0)
        with pytest.raises(ParameterError):
            SolverConfig(n=7, newton_tol=0.0)
        with pytest.raises(ParameterError):
            SolverConfig(n=7, max_iter=0)
        with pytest.raises(ParameterError):
            SolverConfig(n=7, alpha=-2.0)

    def test_basis_params_round_trip(self):
        config = SolverConfig(n=9, alpha=0.5, L=2.0)
        params = config.basis_params()
        assert params.n == 9
        assert params.alpha == 0.5
        assert params.L == 2.0

    def test_basis_params_built_once(self, monkeypatch):
        config = SolverConfig(n=9, alpha=0.5, L=2.0)
        assert config.basis_params() is config.basis_params()
        assert config == SolverConfig(n=9, alpha=0.5, L=2.0)
        assert hash(config) == hash(SolverConfig(n=9, alpha=0.5, L=2.0))
        assert repr(config) == "SolverConfig(n=9, alpha=0.5, L=2.0, newton_tol=1e-12, max_iter=100)"
        # a solve and every scan member use their config's params, not a copy
        configs = [SolverConfig(n=7, L=L) for L in (0.5, 1.0)]
        monkeypatch.setattr(emden.solver, "BasisParams", None)
        sol = newton_solve(LaneEmdenProblem(3.0), config)
        assert sol.operators.params is config.basis_params()
        for sol, config in zip(_lockstep_newton_solve(LaneEmdenProblem(3.0), configs), configs):
            assert sol.operators.params is config.basis_params()


def counted_solves(monkeypatch):
    """Setups the Newton loop runs from here on, one list per loop run."""
    runs = []

    def counted(problem, configs):
        runs.append(list(configs))
        return _lockstep_newton_solve(problem, configs)

    monkeypatch.setattr(emden.solver, "_lockstep_newton_solve", counted)
    return runs


def cubic(y):
    return np.sign(y) * np.abs(y) ** 3.0


def cubic_prime(y):
    return 3.0 * y * y


class TestKeptSolves:
    """newton_solve keeps its recent results: an equal setup returns the
    kept object, and any difference in the setup solves anew."""

    def test_a_repeat_returns_the_kept_object(self, monkeypatch):
        runs = counted_solves(monkeypatch)
        first = newton_solve(LaneEmdenProblem(3.0), SolverConfig(n=7))
        # equal, not identical, arguments find it
        assert newton_solve(LaneEmdenProblem(3.0), SolverConfig(n=7, alpha=1.0, L=1.0)) is first
        assert len(runs) == 1

    @pytest.mark.parametrize("problem, config", [
        (LaneEmdenProblem(3.5), SolverConfig(n=7)),
        (LaneEmdenProblem(3.0, _g=cubic, _g_prime=cubic_prime), SolverConfig(n=7)),
        (LaneEmdenProblem(3.0), SolverConfig(n=8)),
        (LaneEmdenProblem(3.0), SolverConfig(n=7, alpha=2.0)),
        (LaneEmdenProblem(3.0), SolverConfig(n=7, L=1.5)),
        (LaneEmdenProblem(3.0), SolverConfig(n=7, newton_tol=1e-10)),
        (LaneEmdenProblem(3.0), SolverConfig(n=7, max_iter=3)),
    ], ids=["m", "callback", "n", "alpha", "L", "newton_tol", "max_iter"])
    def test_each_part_of_the_setup_keeps_entries_apart(self, problem, config, monkeypatch):
        runs = counted_solves(monkeypatch)
        base = newton_solve(LaneEmdenProblem(3.0), SolverConfig(n=7))
        other = newton_solve(problem, config)
        assert other is not base and other.config_echo == config
        assert newton_solve(problem, config) is other
        assert newton_solve(LaneEmdenProblem(3.0), SolverConfig(n=7)) is base
        assert len(runs) == 2

    def test_the_sign_of_a_zero_alpha_keeps_entries_apart(self):
        # -0.0 and 0.0 compare and hash equal, in the config as in the float
        configs = [SolverConfig(n=7, alpha=0.0), SolverConfig(n=7, alpha=-0.0)]
        assert configs[0] == configs[1] and hash(configs[0]) == hash(configs[1])
        for _ in range(2):
            for config in configs:
                echo = newton_solve(LaneEmdenProblem(3.0), config).config_echo
                assert math.copysign(1.0, echo.alpha) == math.copysign(1.0, config.alpha)

    def test_a_solve_that_raises_is_not_kept(self, monkeypatch):
        runs = counted_solves(monkeypatch)
        problem = LaneEmdenProblem(3.0, _g=cubic, _g_prime=lambda y: np.full(y.shape, np.nan))
        for _ in range(2):
            with pytest.raises(NumericalError, match="Jacobian factorization failed"):
                newton_solve(problem, SolverConfig(n=7))
        assert len(runs) == 2

    def test_an_unconverged_solve_is_kept(self, monkeypatch):
        runs = counted_solves(monkeypatch)
        first = solve(*STALLED)
        assert not first.converged and solve(*STALLED) is first
        assert len(runs) == 1

    def test_the_33rd_setup_evicts_the_least_recent(self, monkeypatch):
        runs = counted_solves(monkeypatch)
        configs = [SolverConfig(n=6, L=0.5 + 0.05 * k) for k in range(33)]
        solutions = [newton_solve(LaneEmdenProblem(3.0), config) for config in configs]
        assert len(runs) == 33
        # the second and the last are still kept; the first was evicted
        assert newton_solve(LaneEmdenProblem(3.0), configs[1]) is solutions[1]
        assert newton_solve(LaneEmdenProblem(3.0), configs[32]) is solutions[32]
        assert len(runs) == 33
        again = newton_solve(LaneEmdenProblem(3.0), configs[0])
        assert again is not solutions[0] and bits(again.b) == bits(solutions[0].b)
        assert len(runs) == 34

    def test_a_kept_solve_does_not_warn_again(self):
        # the operators of this map scale overflow; the kept solve repeats
        # no work, so it repeats none of the first call's warnings
        config = SolverConfig(n=7, L=1e300)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            first = newton_solve(LaneEmdenProblem(3.0), config)
            assert record
            del record[:]
            assert newton_solve(LaneEmdenProblem(3.0), config) is first
        assert record == []

    def test_scans_keep_nothing(self, monkeypatch):
        runs = counted_solves(monkeypatch)
        for _ in range(2):
            reports = scan_L_reports(3.0, 7, 1.0, [0.5, 1.0])
        sol = newton_solve(LaneEmdenProblem(3.0), SolverConfig(n=7, L=1.0))
        assert sol is not reports[1].solution and bits(sol.b) == bits(reports[1].solution.b)
        assert [len(run) for run in runs] == [2, 2, 1]
