import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import dgetrf

from emden.errors import NumericalError, ParameterError
from emden.laguerre import BasisParams
from emden.operators import build_operators, eval_hat_interpolant
from emden.reference import closed_form
from emden.solver import (
    LaneEmdenProblem,
    SolverConfig,
    SpectralSolution,
    _lu_solve_checked,
    assemble_jacobian,
    assemble_residual,
    newton_solve,
    pow_signed,
    pow_signed_deriv,
    scan_L_reports,
)
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
    """_lu_solve_checked as it was, solving through scipy's lu_solve."""
    if not np.isfinite(jac).all():
        raise NumericalError("Jacobian factorization failed: array must not contain infs or NaNs")
    lu, piv, _ = dgetrf(jac)
    pivots = np.abs(np.diag(lu))
    scale = pivots.max() if pivots.size else 0.0
    if not np.isfinite(scale) or scale == 0.0 or pivots.min() < 1e-14 * scale:
        raise NumericalError("singular Jacobian: pivot below 1e-14 of the largest")
    return lu_solve((lu, piv), rhs)


def reference_newton_solve(problem, config):
    """The Newton loop that rebuilds the Jacobian every iteration, kept as the
    reference newton_solve must equal bit for bit, on an uncached build."""
    ops = uncached_build_operators(config.basis_params())
    xm = ops.mapped_nodes
    b = (1.0 + xm**2 / 3.0) ** -0.5
    b[0] = 1.0
    res = assemble_residual(problem, ops, b)
    norm = float(np.max(np.abs(res)))
    history = [norm]
    iterations = 0
    while norm > config.newton_tol and iterations < config.max_iter:
        jac = reference_jacobian(problem, ops, b)
        delta = reference_lu_solve_checked(jac, -res)
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


# (m, n, alpha, L, max_iter): canonical setups, a stalled line search at
# (2, 8, 1, 2), solves cut off by max_iter, 0.0 and -0.0 alpha, and 30
# random draws of m in [0.3, 5], n in 1..30, alpha in [-0.9, 4] and
# L log-uniform in [0.05, 4], some of which stall as well
NEWTON_SAMPLE = (
    (0.0, 7, 1.0, 1.0, 100), (1.0, 12, 1.0, 1.0, 100), (3.0, 7, 1.0, 1.0, 100),
    (5.0, 12, 1.0, 0.9, 100), (2.0, 8, 1.0, 2.0, 100), (4.0, 6, 1.0, 2.0, 100),
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


class TestPowSigned:
    def test_examples(self):
        assert pow_signed(-0.5, 2) == 0.25
        assert pow_signed(-0.25, 0.5) == -0.5
        assert pow_signed(0.0, 3) == 0.0
        assert pow_signed(0.0, 0) == 1.0
        assert pow_signed(2.0, 3) == 8.0

    def test_integer_exponent_keeps_sign_parity(self):
        assert pow_signed(-2.0, 3) == -8.0
        assert pow_signed(-2.0, 2) == 4.0

    @given(y=st.floats(min_value=0.01, max_value=10.0),
           m=st.floats(min_value=0.0, max_value=5.0).filter(lambda v: not v.is_integer()))
    def test_odd_extension(self, y, m):
        # odd extension holds for the sign(y)|y|^m branch; integer exponents
        # keep plain parity instead and are covered above
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

    def test_singular_point_warns_and_clamps(self):
        with pytest.warns(RuntimeWarning):
            val = pow_signed_deriv(0.0, 0.5)
        assert val == 0.0

    def test_integer_exponent_at_zero(self):
        assert pow_signed_deriv(0.0, 3) == 0.0
        assert pow_signed_deriv(0.0, 1) == 1.0


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


class TestAssembly:
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
        sol = solve(2.0, 8, 2.0)
        assert not sol.converged
        assert sol.residual_norm > 1e-12
        hist = np.array(sol.residual_history)
        assert np.all(np.diff(hist) <= 0)

    def test_singular_system_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning ahead of the typed error fails
            with pytest.raises(NumericalError):
                _lu_solve_checked(np.zeros((3, 3)), np.ones(3))

    def test_non_finite_system_raises(self):
        jac = np.eye(3)
        jac[2, 0] = np.nan
        with pytest.raises(NumericalError, match="factorization failed"):
            _lu_solve_checked(jac, np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_right_hand_side_raises(self, bad):
        rhs = np.ones(3)
        rhs[1] = bad
        with pytest.raises(NumericalError, match="right-hand side"):
            _lu_solve_checked(np.eye(3), rhs)

    def test_solve_equals_scipy_lu_solve(self):
        rng = np.random.default_rng(17)
        for n in list(range(2, 32)) * 3:
            jac = rng.standard_normal((n, n)) * rng.uniform(0.1, 10.0, n)
            rhs = rng.standard_normal(n)
            x = _lu_solve_checked(jac, rhs)
            assert bits(x) == bits(lu_solve(lu_factor(jac), rhs))
            assert x is not rhs

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
        with pytest.raises(ParameterError):
            SolverConfig(n=7, damping_min=0.0)

    def test_basis_params_round_trip(self):
        config = SolverConfig(n=9, alpha=0.5, L=2.0)
        params = config.basis_params()
        assert params.n == 9
        assert params.alpha == 0.5
        assert params.L == 2.0
