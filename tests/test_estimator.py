import numpy as np
import pytest

from emden.errors import ConvergenceWarning, NotFittedError, ParameterError, RangeError
from emden.estimator import LaneEmdenSolver
from emden.laguerre import BasisParams
from emden.operators import build_operators, eval_hat_interpolant
from emden.reference import closed_form
from emden.solver import LaneEmdenProblem, SolverConfig, newton_solve
from conftest import BAD_POINTS, STALLED


class TestParams:
    def test_defaults(self):
        est = LaneEmdenSolver()
        assert est.get_params() == {
            "m": 3.0, "n": 12, "alpha": 1.0, "L": 1.0, "tol": 1e-12, "max_iter": 100,
        }

    def test_round_trip(self):
        est = LaneEmdenSolver(m=5.0, n=8, L=0.9)
        clone = LaneEmdenSolver(**est.get_params())
        assert clone.get_params() == est.get_params()

    def test_set_params_chains(self):
        est = LaneEmdenSolver()
        returned = est.set_params(m=1.0, n=10)
        assert returned is est
        assert est.m == 1.0 and est.n == 10

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ParameterError):
            LaneEmdenSolver().set_params(gamma=2.0)

    def test_constructor_stores_without_validating(self):
        # bad values surface at fit time, keeping parameter search usable
        est = LaneEmdenSolver(n=-5)
        with pytest.raises(ParameterError):
            est.fit()

    def test_sklearn_clone_if_available(self):
        base = pytest.importorskip("sklearn.base")
        est = LaneEmdenSolver(m=5.0, n=8)
        cloned = base.clone(est)
        assert cloned.get_params() == est.get_params()


class TestFitPredict:
    def test_fit_returns_self_and_sets_attributes(self):
        est = LaneEmdenSolver(m=3.0, n=7, L=1.0)
        assert est.fit() is est
        assert est.converged_
        assert est.coefficients_.shape == (8,)
        assert est.coefficients_[0] == 1.0
        assert est.nodes_.shape == (8,)
        assert est.residual_norm_ <= 1e-12
        assert est.n_iter_ >= 1
        assert est.operators_ is est.solution_.operators

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            LaneEmdenSolver().predict([1.0])

    def test_predict_matches_interpolant(self):
        est = LaneEmdenSolver(m=3.0, n=7, L=1.0).fit()
        sol = newton_solve(LaneEmdenProblem(3.0), SolverConfig(n=7, L=1.0))
        ops = build_operators(BasisParams(n=7))
        xs = np.array([0.0, 0.5, 2.0, 6.0])
        np.testing.assert_array_equal(est.predict(xs), eval_hat_interpolant(ops, sol.b, xs))

    def test_predict_shapes(self):
        est = LaneEmdenSolver(m=3.0, n=7).fit()
        assert est.predict(1.0).shape == (1,)
        assert est.predict([0.0, 1.0]).shape == (2,)
        assert est.predict(np.array([[0.0], [1.0]])).shape == (2,)
        with pytest.raises(ParameterError):
            est.predict(np.zeros((2, 3)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", BAD_POINTS)
    def test_predict_rejects_points_that_are_not_finite_numbers(self, x):
        est = LaneEmdenSolver(m=3.0, n=7).fit()
        with pytest.raises(ParameterError):
            est.predict(x)

    def test_predict_boundary_value(self):
        est = LaneEmdenSolver(m=3.0, n=7).fit()
        assert est.predict(0.0)[0] == 1.0

    def test_accuracy_against_closed_form(self):
        est = LaneEmdenSolver(m=5.0, n=12, L=0.9).fit()
        xs = np.linspace(0.0, 5.0, 21)
        err = np.max(np.abs(est.predict(xs) - closed_form(5.0, xs)))
        assert err <= 1e-3

    def test_non_convergence_warns(self):
        m, n, L = STALLED
        est = LaneEmdenSolver(m=m, n=n, L=L)
        with pytest.warns(ConvergenceWarning):
            est.fit()
        assert not est.converged_

    def test_refit_after_set_params(self):
        # the m=1 profile needs a tighter map scale than the m=3 default to
        # resolve sin(x)/x well at this degree
        est = LaneEmdenSolver(m=3.0, n=7).fit()
        first = est.predict(1.0)[0]
        est.set_params(m=1.0, n=12, L=0.15).fit()
        second = est.predict(1.0)[0]
        assert first != second
        assert second == pytest.approx(np.sin(1.0), abs=1e-3)

    def test_failed_refit_leaves_the_estimator_unfitted(self):
        est = LaneEmdenSolver(m=3, n=12, L=0.5).fit()
        with pytest.raises(RangeError):
            est.set_params(n=40).fit()
        with pytest.raises(NotFittedError):
            est.predict([1.0])
        assert not any(name.endswith("_") for name in vars(est))
        assert est.get_params()["n"] == 40

    def test_unconverged_refit_keeps_its_own_result(self):
        m, n, L = STALLED
        est = LaneEmdenSolver(m=3.0, n=7).fit()
        with pytest.warns(ConvergenceWarning):
            est.set_params(m=m, n=n, L=L).fit()
        assert not est.converged_
        assert len(est.coefficients_) - 1 == n
        assert est.predict([0.0])[0] == pytest.approx(1.0)
