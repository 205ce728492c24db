import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from emden import operators, reference
from emden.errors import NoZeroFound, NumericalError, ParameterError
from emden.laguerre import MAX_ARGUMENT, BasisParams
from emden.operators import build_operators, eval_hat_interpolant
from emden.reference import (
    _SCAN_BLOCK,
    FirstZeroResult,
    ReferenceProfile,
    closed_form,
    first_zero,
    first_zero_of,
    first_zero_reference,
    horedt_reference,
    method_reference_first_zero,
    method_reference_profile,
    shooting_oracle,
)
from emden.solver import (
    LaneEmdenProblem,
    SolverConfig,
    newton_solve,
    _pow_signed_scalar,
)
from emden.validation import check_real
from conftest import BAD_POINTS, STALLED


class TestClosedForm:
    def test_values(self):
        assert closed_form(0, 0.0) == 1.0
        assert closed_form(0, 2.0) == pytest.approx(1.0 - 4.0 / 6.0, rel=1e-15)
        assert closed_form(1, 0.0) == 1.0
        assert closed_form(1, 2.0) == pytest.approx(math.sin(2.0) / 2.0, rel=1e-14)
        assert closed_form(5, math.sqrt(3.0)) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)

    def test_zero_locations(self):
        assert closed_form(0, math.sqrt(6.0)) == pytest.approx(0.0, abs=1e-15)
        assert closed_form(1, math.pi) == pytest.approx(0.0, abs=1e-15)

    def test_array_input(self):
        xs = np.array([0.0, 1.0, 2.0])
        ys = closed_form(5, xs)
        assert ys.shape == (3,)
        assert ys[0] == 1.0

    def test_satisfies_equation_numerically(self):
        h = 1e-5
        for m in [0.0, 1.0, 5.0]:
            for x in [0.5, 1.0, 1.8]:
                y0 = closed_form(m, x)
                yp = (closed_form(m, x + h) - closed_form(m, x - h)) / (2 * h)
                ypp = (closed_form(m, x + h) - 2 * y0 + closed_form(m, x - h)) / h**2
                assert abs(ypp + 2.0 / x * yp + np.sign(y0) * abs(y0) ** m) <= 1e-5

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m, far", [(0, -math.inf), (1, 0.0), (5, 0.0)])
    @pytest.mark.parametrize("x", [1e200, [0.0, 1e200]])
    def test_overflow_past_1e154_is_quiet(self, m, far, x):
        # x**2 overflows; the value is numpy's, with no RuntimeWarning
        assert np.atleast_1d(closed_form(m, x))[-1] == pytest.approx(far, abs=1e-199)

    def test_unsupported_index(self):
        with pytest.raises(ParameterError):
            closed_form(2, 1.0)

    def test_negative_x_rejected(self):
        with pytest.raises(ParameterError):
            closed_form(0, -1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", [0, 1, 5])
    @pytest.mark.parametrize("x", BAD_POINTS)
    def test_rejects_points_that_are_not_finite_numbers(self, m, x):
        with pytest.raises(ParameterError):
            closed_form(m, x)


class TestShootingOracle:
    def test_series_start_matches_closed_forms(self):
        # second sample sits at x = h_series where the quartic series is exact
        # to far below double precision
        for m in [0.0, 1.0, 5.0]:
            prof = shooting_oracle(m, 1.0)
            assert prof.xs[0] == 0.0 and prof.ys[0] == 1.0
            assert prof.xs[1] == 1e-3
            assert abs(prof.ys[1] - closed_form(m, 1e-3)) <= 1e-14

    def test_matches_m5_closed_form(self):
        prof = shooting_oracle(5.0, 5.0)
        errs = np.abs(prof.ys - closed_form(5.0, prof.xs))
        assert np.max(errs) <= 1e-8

    def test_m0_value(self):
        prof = shooting_oracle(0.0, 2.0)
        assert prof.xs[-1] == pytest.approx(2.0, abs=1e-12)
        assert prof.ys[-1] == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_m1_zero_at_pi(self):
        prof = shooting_oracle(1.0, 4.0)
        assert prof.first_zero() == pytest.approx(math.pi, abs=5e-7)

    def test_m3_value_at_one(self):
        prof = shooting_oracle(3.0, 2.0)
        val = float(prof.interpolant()(1.0))
        assert val == pytest.approx(0.855058, abs=2e-5)

    @pytest.mark.parametrize("m,exact", [
        (2.0, 4.35287460), (3.0, 6.89684862), (4.0, 14.9715463),
    ])
    def test_first_zeros(self, m, exact):
        prof = shooting_oracle(m, exact + 0.5)
        assert prof.first_zero() == pytest.approx(exact, abs=5e-6)

    def test_tolerance_consistency(self):
        # tightening the step tolerance moves the answer by far less than the
        # advertised oracle accuracy
        a = shooting_oracle(3.0, 3.0, tol=1e-10)
        b = shooting_oracle(3.0, 3.0, tol=1e-12)
        va = float(a.interpolant()(2.5))
        vb = float(b.interpolant()(2.5))
        assert abs(va - vb) <= 1e-8

    def test_deterministic(self):
        a = shooting_oracle(3.0, 4.0)
        b = shooting_oracle(3.0, 4.0)
        np.testing.assert_array_equal(a.xs, b.xs)
        np.testing.assert_array_equal(a.ys, b.ys)

    def test_stops_past_first_crossing(self):
        prof = shooting_oracle(3.0, 50.0)
        assert prof.ys[-1] <= 0.0
        assert prof.xs[-1] < 8.0

    def test_keeps_derivative_samples(self):
        prof = shooting_oracle(1.0, 2.0)
        assert prof.yps is not None
        assert prof.yps.shape == prof.xs.shape
        assert prof.yps[0] == 0.0

    def test_bad_arguments(self):
        with pytest.raises(ParameterError):
            shooting_oracle(-1.0, 2.0)
        with pytest.raises(ParameterError):
            shooting_oracle(3.0, 0.0)
        with pytest.raises(ParameterError):
            shooting_oracle(3.0, 2.0, tol=0.0)

    @pytest.mark.parametrize("h_max", [-1.0, 0.0, float("nan"), float("inf"), "abc"])
    def test_bad_step_cap(self, h_max):
        with pytest.raises(ParameterError, match="h_max"):
            shooting_oracle(3.0, 2.0, h_max=h_max)


def vector_rk4_step(f, x, y, h, k1):
    k2 = f(x + h / 2.0, y + h / 2.0 * k1)
    k3 = f(x + h / 2.0, y + h / 2.0 * k2)
    k4 = f(x + h, y + h * k3)
    return y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def vector_shooting_oracle(m, x_end, h_series=1e-3, tol=1e-10, h_max=None, power=None) -> ReferenceProfile:
    """Reference for shooting_oracle: the same integrator on numpy 2-vectors
    with LaneEmdenProblem(m).g, or power when given, in every stage, the form
    it had before its state became two floats, with the first stage shared by
    the full and the first half step as there, so both make the same sequence
    of power calls."""
    m = check_real("m", m, minimum=0.0)
    h_series = check_real("h_series", h_series, minimum=0.0, exclusive=True)
    x_end = check_real("x_end", x_end, minimum=h_series, exclusive=True)
    tol = check_real("tol", tol, minimum=0.0, exclusive=True)
    power = LaneEmdenProblem(m).g if power is None else power

    def f(x, y):
        return np.array([y[1], -2.0 * y[1] / x - power(y[0])])

    x = h_series
    y = np.array([1.0 - x**2 / 6.0 + m * x**4 / 120.0, -x / 3.0 + m * x**3 / 30.0])
    pts = [(0.0, 1.0, 0.0), (x, y[0], y[1])]
    h = h_series
    while x < x_end:
        h = min(h, x_end - x)
        if h_max is not None:
            h = min(h, h_max)
        k1 = f(x, y)
        full = vector_rk4_step(f, x, y, h, k1)
        half = vector_rk4_step(f, x, y, h / 2.0, k1)
        double = vector_rk4_step(f, x + h / 2.0, half, h / 2.0, f(x + h / 2.0, half))
        err = float(np.max(np.abs(double - full))) / 15.0
        scale = max(1.0, float(np.max(np.abs(y))))
        if err <= tol * scale:
            x += h
            y = double + (double - full) / 15.0
            pts.append((x, y[0], y[1]))
            if y[0] <= 0.0:
                break
        if h < 1e-12:
            raise NumericalError(f"step underflow at x={x:.6g} (m={m})")
        if err > 0.0:
            factor = (tol * scale / err) ** 0.2
        else:
            factor = 2.0 if err == 0.0 else 0.0
        h *= min(2.0, max(0.1, 0.9 * factor))
    xs, ys, yps = (np.array(column) for column in zip(*pts))
    return ReferenceProfile(m=m, xs=xs, ys=ys, source="shooting", yps=yps)


def assert_same_profile(got, expected):
    for name in ("xs", "ys", "yps"):
        assert np.array_equal(getattr(got, name), getattr(expected, name)), name


# (m, x_end, tol, h_max): every integer m, non-integer m on both sides of the
# integers, ends before and past the first zero (m >= 5 has none)
SHOOTING_SAMPLE = [
    (0.0, 2.0, 1e-10, None), (0.0, 3.0, 1e-10, 0.05),
    (1.0, 3.0, 1e-10, 0.05), (1.0, 4.0, 1e-12, None),
    (2.0, 4.0, 1e-10, None), (2.0, 5.0, 1e-12, 0.1),
    (3.0, 6.0, 1e-10, 0.05), (3.0, 8.0, 1e-9, None),
    (4.0, 10.0, 1e-9, None), (4.0, 16.0, 1e-10, 0.25),
    (5.0, 10.0, 1e-10, None), (5.0, 20.0, 1e-12, 0.5),
    (0.25, 4.0, 1e-10, None), (0.5, 2.0, 1e-11, 0.05),
    (1.5, 5.0, 1e-10, None), (2.5, 4.0, 1e-10, 0.1),
    (2.5, 7.0, 1e-11, None), (3.25, 9.0, 1e-10, None),
    (4.1201, 12.0, 1e-8, 0.5), (4.75, 40.0, 1e-10, None),
    (5.5, 15.0, 1e-10, None),
]


class TestShootingMatchesVectorReference:
    @pytest.mark.parametrize("m, x_end, tol, h_max", SHOOTING_SAMPLE)
    def test_bitwise_equal(self, m, x_end, tol, h_max):
        assert_same_profile(shooting_oracle(m, x_end, tol=tol, h_max=h_max),
                            vector_shooting_oracle(m, x_end, tol=tol, h_max=h_max))

    @pytest.mark.parametrize("m", [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 0.5, 1.5, 2.75, 4.1201, 7.3])
    def test_scalar_power_pinned_to_g(self, m):
        power, g = _pow_signed_scalar(m), LaneEmdenProblem(m).g
        ys = [-2.5, -1.0, -0.3, -1e-300, -0.0, 0.0, 5e-324, 1e-300, 0.3, 1.0, 2.5]
        ys += [float(y) for y in np.random.default_rng(0).uniform(-2.0, 2.0, 200)]
        for y in ys:
            got, expected = power(y), g(y)
            assert type(got) is float
            assert struct.pack("<d", got) == struct.pack("<d", expected), y

    @pytest.mark.parametrize("m", [40.0, 1e6, 1e300])
    def test_an_overflowing_scalar_power_is_signed_inf(self, m):
        power, g = _pow_signed_scalar(m), LaneEmdenProblem(m).g
        assert (power(-1e200), power(1e200)) == (-math.inf, math.inf)
        for y in (-1e200, -3.0, -1.5, 1.5, 3.0, 1e200):
            assert struct.pack("<d", power(y)) == struct.pack("<d", g(y)), y

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("m", [1e9, 1e300])
    def test_a_power_that_overflows_ends_in_step_underflow(self, m):
        # y passes 1 on the first step, where y**m is inf at every stage; each
        # NaN error cuts the step to a tenth until it underflows. The stages
        # turn inf and NaN, which the problem's g lets pass
        with pytest.raises(NumericalError) as expected:
            vector_shooting_oracle(m, 5.0)
        with pytest.raises(NumericalError, match="step underflow at x=0.001") as got:
            shooting_oracle(m, 5.0)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("m", [0.0, 2.5, 3.0])
    @pytest.mark.parametrize("tol", [1e-300, 1e-20])
    def test_step_underflow_unchanged(self, m, tol):
        with pytest.raises(NumericalError) as expected:
            vector_shooting_oracle(m, 2.0, tol=tol)
        with pytest.raises(NumericalError) as got:
            shooting_oracle(m, 2.0, tol=tol)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("call", [4, 15, 103])
    @pytest.mark.parametrize("m", [3.0, 2.5])
    def test_nan_stage_rejects_the_step(self, monkeypatch, m, call):
        # The power returns NaN at one call, the k4 stage of a full step when
        # call is 4 past a multiple of 11 (an attempted step makes 11 power
        # calls, the first stage shared): that step's y is finite and its y' NaN, so
        # np.max makes the error NaN and the step is rejected. A max that
        # dropped the NaN would accept the step, and the NaN state would then
        # reject every later one; the call guard ends such a run.
        def nan_at(power):
            count = itertools.count(1)

            def injected(*args):
                k = next(count)
                if k > 100_000:
                    raise RuntimeError("runaway integration")
                return math.nan if k == call else power(*args)
            return injected

        expected = vector_shooting_oracle(m, 1.0, power=nan_at(LaneEmdenProblem(m).g))
        monkeypatch.setattr(reference, "_pow_signed_scalar", lambda m: nan_at(_pow_signed_scalar(m)))
        assert_same_profile(shooting_oracle(m, 1.0), expected)
        assert np.all(np.isfinite(expected.ys)) and np.all(np.isfinite(expected.yps))


def scalar_scan_first_zero(f, scan_step=0.05, x_max=50.0, stop_at_adjacent_doubles=True):
    """Reference for first_zero_of: a point-by-point scan and a bisection with
    one scalar call of f per step. stop_at_adjacent_doubles=False is the
    earlier rule, which kept bisecting a bracket of two neighbouring doubles
    (x >= 512, where they lie more than 1e-13 apart) up to the step cap."""
    prev_x = 0.0
    prev_y = float(f(0.0))
    bracket = None
    steps = int(np.ceil(x_max / scan_step))
    for k in range(1, steps + 1):
        xk = min(k * scan_step, x_max)
        yk = float(f(xk))
        if prev_y == 0.0:
            return FirstZeroResult(x_star=prev_x, bracket=(prev_x, prev_x), refinement_iterations=0)
        if np.sign(yk) != np.sign(prev_y):
            bracket = (prev_x, xk)
            break
        prev_x, prev_y = xk, yk
    if bracket is None:
        raise NoZeroFound(f"no sign change in [0, {x_max:g}] at scan step {scan_step:g}")
    lo, hi = bracket
    f_lo = prev_y
    iterations = 0
    while hi - lo > 1e-13 and iterations < 200:
        mid = 0.5 * (lo + hi)
        if stop_at_adjacent_doubles and (mid == lo or mid == hi):
            break
        f_mid = float(f(mid))
        iterations += 1
        if f_mid == 0.0:
            lo = hi = mid
            break
        if np.sign(f_mid) == np.sign(f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return FirstZeroResult(x_star=0.5 * (lo + hi), bracket=bracket, refinement_iterations=iterations)


def array_only(f, calls):
    """f behind a guard that rejects any but 1-d input, recording the points
    of each call as a list of floats."""
    def guarded(x):
        if np.ndim(x) != 1:
            raise TypeError(f"f called with {np.ndim(x)}-d input")
        calls.append(np.asarray(x).tolist())
        return f(x)
    return guarded


def scalar_points(f, visited):
    """f recording each scalar point it is called at."""
    def recorded(x):
        visited.append(float(x))
        return f(x)
    return recorded


def dyadic_root(j, depth):
    """Linear function whose root is the midpoint that bisection step `depth`
    meets in the bracket (2.375, 2.5) of a 0.125 scan, j indexing the
    midpoints of that level; every such point is an exact double."""
    root = 2.375 + 0.125 * (2 * j + 1) / 2**depth
    return (lambda x: root - x), root


class TestScanMatchesScalarReference:
    """first_zero_of scans in blocks and walks predicted bisection paths;
    every result must equal the scalar scan's."""

    @pytest.mark.parametrize("f, kwargs", [
        pytest.param(lambda x: x, {}, id="zero-at-origin"),
        pytest.param(lambda x: 2.5 - x, {"scan_step": 0.125}, id="zero-on-scan-point"),
        pytest.param(lambda x: closed_form(0, x), {"scan_step": 0.001}, id="past-first-block"),
        pytest.param(lambda x: closed_form(1, x), {"scan_step": 0.003}, id="fifth-block"),
        pytest.param(lambda x: 3.005 - x, {"x_max": 3.01}, id="change-at-x-max"),
        pytest.param(lambda x: 3.01 - x, {"x_max": 3.01}, id="zero-at-x-max"),
    ])
    def test_analytic(self, f, kwargs):
        assert first_zero_of(array_only(f, []), **kwargs) == scalar_scan_first_zero(f, **kwargs)

    @pytest.mark.parametrize("offset", [-0.0625, 0.0, 0.0625])
    def test_sign_change_at_block_boundary(self, offset):
        # the point shared by the first two scan blocks, and the intervals
        # on either side of it
        root = _SCAN_BLOCK * 0.125 + offset
        f = lambda x: root - x
        assert first_zero_of(f, scan_step=0.125) == scalar_scan_first_zero(f, scan_step=0.125)

    @pytest.mark.parametrize("scan_step", [0.05, 0.003])
    def test_no_zero_raises_in_both(self, scan_step):
        f = lambda x: closed_form(5, x)
        with pytest.raises(NoZeroFound):
            scalar_scan_first_zero(f, scan_step=scan_step)
        with pytest.raises(NoZeroFound):
            first_zero_of(f, scan_step=scan_step)

    @pytest.mark.parametrize("m, n, L", [
        (3.0, 7, 1.0), (4.0, 9, 1.7), (5.0, 12, 0.9), (2.0, 8, 2.0), (2.5, 8, 0.5),
        (5.0, 12, 0.052),
    ])
    def test_spectral_interpolant(self, m, n, L):
        # the golden first-zero setups and the envelope edge, scanned as
        # first_zero scans them (converged or not)
        sol = newton_solve(LaneEmdenProblem(m), SolverConfig(n=n, L=L))
        f = lambda x: eval_hat_interpolant(sol.operators, sol.b, x)
        x_max = min(50.0, MAX_ARGUMENT * L)
        calls = []
        try:
            expected = scalar_scan_first_zero(f, x_max=x_max)
        except NoZeroFound:
            with pytest.raises(NoZeroFound):
                first_zero_of(array_only(f, calls), x_max=x_max)
        else:
            assert first_zero_of(array_only(f, calls), x_max=x_max) == expected
            assert len(calls) < expected.refinement_iterations
            if sol.converged:
                assert first_zero(sol) == expected

    # the ids name the depths around where a bisection batched 6 tree levels
    # per call split its calls; the walk reaches any of them in one call
    @pytest.mark.parametrize("depth", [
        pytest.param(5, id="deep-node"),
        pytest.param(6, id="last-level-of-first-call"),
        pytest.param(7, id="first-node-of-second-call"),
        pytest.param(13, id="first-node-of-third-call"),
    ])
    @pytest.mark.parametrize("j", [0, 3])
    def test_exact_zero_at_tree_node(self, depth, j):
        f, root = dyadic_root(j, depth)
        calls = []
        result = first_zero_of(array_only(f, calls), scan_step=0.125)
        assert result == scalar_scan_first_zero(f, scan_step=0.125)
        assert result.x_star == root and result.refinement_iterations == depth
        # regula falsi on a line lands on the root exactly: one scan call,
        # then one walk call whose path ends at the root
        assert [len(points) for points in calls] == [_SCAN_BLOCK + 1, depth]

    def test_width_reached_mid_call(self):
        # 0.05 halves to <= 1e-13 in 39 steps. Every walk call starts at the
        # next midpoint bisection visits, and the last one ends where the
        # width is reached: the path holds no midpoint the walk cannot reach.
        f = lambda x: closed_form(0, x)
        calls, visited = [], []
        result = first_zero_of(array_only(f, calls))
        assert result == scalar_scan_first_zero(scalar_points(f, visited))
        mids = visited[-result.refinement_iterations:]
        assert len(calls) > 2
        position = 0
        for points in calls[1:]:
            walked = 0
            while walked < len(points) and points[walked] == mids[position + walked]:
                walked += 1
            assert walked >= 1
            position += walked
        assert position == len(mids)
        assert calls[-1] == mids[-len(calls[-1]):]

    @pytest.mark.parametrize("scan_step", [0.05, 0.125])
    def test_stops_at_adjacent_doubles_past_512(self, scan_step):
        # The root lies strictly between two neighbouring doubles, 1.14e-13
        # apart at 600.3, so the bracket never narrows to 1e-13. At step 0.125
        # every bracket of a level spans a power-of-two count of doubles, so
        # the whole level below the last one left has no midpoint.
        f = lambda x: (x - 600.3) - 2.8e-14
        result = first_zero_of(array_only(f, []), scan_step, x_max=700.0)
        assert result == scalar_scan_first_zero(f, scan_step, x_max=700.0)
        earlier = scalar_scan_first_zero(f, scan_step, x_max=700.0, stop_at_adjacent_doubles=False)
        assert (result.x_star, result.bracket) == (earlier.x_star, earlier.bracket)
        assert earlier.refinement_iterations == 200
        assert result.refinement_iterations < 45
        assert result.x_star in (600.3, np.nextafter(600.3, 700.0))


# Converged (m, n, L) setups with a first zero below x = 50, drawn once from
# m in [0.5, 4], n in 10..24 and L log-uniform in [0.25, 2].
ZERO_SAMPLE = (
    (3.8622, 22, 1.6095), (3.7584, 11, 1.8951), (3.9319, 22, 0.4401), (3.8921, 24, 0.3322),
    (0.9576, 13, 0.76), (0.9971, 23, 1.2667), (1.6122, 15, 0.4098), (3.7021, 18, 0.7366),
    (0.6501, 18, 1.9954), (1.6135, 21, 0.3996), (1.1828, 22, 0.2778), (1.7334, 19, 0.7305),
    (1.9291, 22, 0.6398), (1.7411, 20, 0.5749), (0.7604, 15, 0.8209), (0.7486, 14, 1.7752),
    (2.1381, 22, 0.4548), (2.1953, 19, 0.325), (3.3681, 15, 0.593), (3.8174, 10, 0.4464),
    (2.0977, 13, 1.6017), (0.6464, 12, 0.816), (1.1408, 20, 0.7732), (1.0955, 10, 0.9316),
)


class TestPredictedWalk:
    """The walk evaluates predicted bisection paths ahead; the steps it takes
    and their results stay those of the scalar bisection."""

    @given(root=st.floats(0.01, 20.0), bend=st.floats(-3.0, 3.0), freq=st.floats(0.0, 40.0),
           cubic=st.floats(0.0, 50.0), scale=st.floats(1e-3, 1e3))
    def test_smooth_functions(self, root, bend, freq, cubic, scale):
        # one root, at `root`; the positive factor bends the function inside
        # the bracket, so regula falsi mispredicts at some depth
        def f(x):
            d = root - x
            return scale * d * (np.exp(bend * np.sin(freq * x)) + cubic * d * d)
        calls = []
        result = first_zero_of(array_only(f, calls))
        assert result == scalar_scan_first_zero(f)
        assert len(calls) <= 2 + result.refinement_iterations

    def test_interpolant_calls_on_a_spectral_sample(self):
        # measured: 100 calls for the 24 searches; batching 6 bisection
        # levels per call took 195, and one call per step 960
        calls, steps = [], 0
        for m, n, L in ZERO_SAMPLE:
            sol = newton_solve(LaneEmdenProblem(m), SolverConfig(n=n, L=L))
            f = lambda x: eval_hat_interpolant(sol.operators, sol.b, x)
            result = first_zero_of(array_only(f, calls))
            assert result == scalar_scan_first_zero(f)
            steps += result.refinement_iterations
        assert (len(calls), steps) == (100, 936)

    def test_nan_on_an_unvisited_midpoint_is_not_read(self):
        # the first path of a bending function mispredicts at some depth; the
        # midpoints after that belong to another bracket and are never walked
        g = lambda x: closed_form(1, x)
        visited = []
        expected = scalar_scan_first_zero(scalar_points(g, visited))
        lo, hi = expected.bracket
        path = reference._predicted_path(lo, float(g(lo)), hi, float(g(hi)), 200)
        unvisited = [x for x in path if x not in visited]
        assert unvisited
        f = lambda x: np.where(x == unvisited[0], np.nan, g(x))
        assert first_zero_of(f) == expected

    def test_nan_on_a_visited_midpoint_raises(self):
        g = lambda x: closed_form(1, x)
        visited = []
        result = scalar_scan_first_zero(scalar_points(g, visited))
        mid = visited[-result.refinement_iterations // 2]
        with pytest.raises(NumericalError, match="NaN"):
            first_zero_of(lambda x: np.where(x == mid, np.nan, g(x)))

    def test_nan_after_the_first_sign_change_is_not_read(self):
        f = lambda x: np.where(x >= 3.0, np.nan, 2.0 - x)
        assert first_zero_of(f) == scalar_scan_first_zero(f)

    @pytest.mark.parametrize("f", [
        pytest.param(lambda x: np.where(abs(x - 1.0) < 0.03, np.nan, 2.0 - x), id="nan-before-root"),
        pytest.param(lambda x: np.where(x >= 1.5, np.nan, 1.0), id="nan-without-root"),
    ])
    def test_nan_at_a_scan_point_raises(self, f):
        # a NaN is no sign change; counted as one, x_star would read 0.97 and 1.5
        with pytest.raises(NumericalError, match="NaN"):
            first_zero_of(f)

    def test_infinities_keep_their_sign(self):
        f = lambda x: np.where(x < 1.0, np.inf, np.where(x > 3.0, -np.inf, 2.0 - x))
        assert first_zero_of(f) == scalar_scan_first_zero(f)
        step = lambda x: np.where(x < 2.0, np.inf, -np.inf)
        result = first_zero_of(step)
        assert result == scalar_scan_first_zero(step)
        assert result.x_star == pytest.approx(2.0, abs=1e-13)


class TestFirstZeroOf:
    def test_parabola(self):
        result = first_zero_of(lambda x: closed_form(0, x))
        assert result.x_star == pytest.approx(math.sqrt(6.0), abs=1e-10)

    def test_sine_ratio(self):
        result = first_zero_of(lambda x: closed_form(1, x))
        assert result.x_star == pytest.approx(math.pi, abs=1e-10)

    def test_scan_step_halving_invariance(self):
        f = lambda x: closed_form(0, x)
        a = first_zero_of(f, scan_step=0.05)
        b = first_zero_of(f, scan_step=0.025)
        assert abs(a.x_star - b.x_star) <= 1e-10

    def test_result_invariants(self):
        result = first_zero_of(lambda x: closed_form(0, x))
        lo, hi = result.bracket
        assert lo <= result.x_star <= hi
        assert hi - lo == pytest.approx(0.05, abs=1e-12)
        assert 0 < result.refinement_iterations <= 200
        assert abs(closed_form(0, result.x_star)) <= 1e-12

    def test_positive_function_raises(self):
        with pytest.raises(NoZeroFound):
            first_zero_of(lambda x: closed_form(5, x), x_max=50.0)

    def test_zero_at_origin(self):
        result = first_zero_of(lambda x: x)
        assert result.x_star == 0.0

    @pytest.mark.parametrize("scan_step, x_max", [(1e-300, 1e10), (5e-324, 1.0)])
    def test_scan_count_past_the_float_range_raises(self, scan_step, x_max):
        def refuse(x):
            raise AssertionError("scanned")

        with pytest.raises(ParameterError, match=r"x_max / scan_step must be finite.*x_max=.*scan_step="):
            first_zero_of(refuse, scan_step=scan_step, x_max=x_max)

    @pytest.mark.parametrize("scan_step, x_max", [(1e-300, 1e-10), (0.5, 500000.5)])
    def test_scan_count_past_the_cap_raises(self, scan_step, x_max):
        def refuse(x):
            raise AssertionError("scanned")

        with pytest.raises(ParameterError, match=r"^x_max / scan_step must be finite and at most 1000000, "
                                                 r"got x_max=.*, scan_step=.*$"):
            first_zero_of(refuse, scan_step=scan_step, x_max=x_max)

    def test_scan_count_at_the_cap_runs(self):
        assert first_zero_of(lambda x: 1.0 - x, scan_step=0.5, x_max=500000.0).x_star == \
            pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("f", [
        lambda x: 1.0,
        lambda x: np.cos(x)[:5],  # the sign change at pi/2 lies past the fifth point
        lambda x: np.cos(x)[:, None],
        lambda x: np.append(np.cos(x), 1.0),
    ], ids=["scalar", "short", "column", "long"])
    def test_scan_values_not_one_per_point_raise(self, f):
        with pytest.raises(ParameterError, match="one value per point"):
            first_zero_of(f)

    @pytest.mark.parametrize("wrong", [lambda y: y[:-1], lambda y: float(y[0])],
                             ids=["short", "scalar"])
    def test_walk_values_not_one_per_point_raise(self, wrong):
        # the scan's first block holds 257 points, every walk path at most 200
        def f(x):
            return np.cos(x) if x.size > 200 else wrong(np.cos(x))

        with pytest.raises(ParameterError, match="one value per point"):
            first_zero_of(f)

    @pytest.mark.parametrize("text", [lambda x: "abc", lambda x: np.full(x.shape, "abc"),
                                      lambda x: ["abc"] * x.size, lambda x: np.cos(x).astype(str)],
                             ids=["str", "str-array", "str-list", "numeric-str-array"])
    @pytest.mark.parametrize("where", ["scan", "walk"])
    def test_text_values_raise(self, text, where):
        # the scan's first block holds 257 points, every walk path at most 200
        def f(x):
            return text(x) if where == "scan" or x.size <= 200 else np.cos(x)

        with pytest.raises(ParameterError, match="function values must be real numbers"):
            first_zero_of(f)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("f", [lambda x: x > 1.0, lambda x: [bool(v < 1.0) for v in x]],
                             ids=["bool-array", "bool-list"])
    def test_boolean_values_raise(self, f):
        with pytest.raises(ParameterError, match="function values must be real numbers"):
            first_zero_of(f)


class TestSpectralFirstZero:
    def test_canonical_regression(self):
        sol = newton_solve(LaneEmdenProblem(3.0), SolverConfig(n=7, L=1.0))
        ops = build_operators(BasisParams(n=7))
        result = first_zero(sol)
        assert result.x_star == pytest.approx(6.7964814974, abs=1e-8)
        val = eval_hat_interpolant(ops, sol.b, result.x_star)
        assert abs(val) <= 1e-12

    def test_requires_convergence(self):
        m, n, L = STALLED
        sol = newton_solve(LaneEmdenProblem(m), SolverConfig(n=n, L=L))
        assert not sol.converged
        with pytest.raises(ParameterError):
            first_zero(sol)

    def test_no_crossing_raises(self):
        sol = newton_solve(LaneEmdenProblem(5.0), SolverConfig(n=12, L=0.9))
        with pytest.raises(NoZeroFound):
            first_zero(sol)

    def test_a_repeat_returns_the_kept_result(self, monkeypatch):
        sol = newton_solve(LaneEmdenProblem(3.0), SolverConfig(n=7, L=1.0))
        result = first_zero(sol)
        monkeypatch.setattr(reference, "first_zero_of", None)  # no second search
        assert first_zero(sol) is result
        # the kept outcome is no field: equality and repr are as they were
        assert "first_zero" not in repr(sol)

    def test_a_repeat_without_a_crossing_raises_the_same_text(self, monkeypatch):
        sol = newton_solve(LaneEmdenProblem(5.0), SolverConfig(n=12, L=0.9))
        with pytest.raises(NoZeroFound) as first:
            first_zero(sol)
        monkeypatch.setattr(reference, "first_zero_of", None)
        with pytest.raises(NoZeroFound) as again:
            first_zero(sol)
        assert str(again.value) == str(first.value) == "no sign change in [0, 50] at scan step 0.05"

    @pytest.mark.parametrize("m", [3.0, 5.0], ids=["zero", "no-zero"])
    def test_a_search_checks_b_once(self, m, monkeypatch):
        # m=3 scans one block and bisects, m=5 scans four blocks and finds no
        # zero; every scan block and bisection path runs on the kernel
        sol = newton_solve(LaneEmdenProblem(m), SolverConfig(n=12, L=0.9))
        checked = []
        as_reals = operators.as_reals

        def counted(x, name="x"):
            checked.append(name)
            return as_reals(x, name)

        monkeypatch.setattr(operators, "as_reals", counted)
        for _ in range(2):  # the repeat returns the kept outcome, unchecked
            try:
                first_zero(sol)
            except NoZeroFound:
                pass
            assert checked == ["b"]

    def test_a_failed_search_is_not_kept(self, monkeypatch):
        sol = newton_solve(LaneEmdenProblem(3.0), SolverConfig(n=7, L=1.0))

        def nan_search(f, x_max):
            raise NumericalError("function value is NaN")

        monkeypatch.setattr(reference, "first_zero_of", nan_search)
        with pytest.raises(NumericalError):
            first_zero(sol)
        monkeypatch.undo()
        assert first_zero(sol).x_star == pytest.approx(6.7964814974, abs=1e-8)

    def test_scan_ceiling_respects_envelope(self):
        # a tiny map scale shrinks the evaluable range; the scan must clamp
        # instead of stepping outside it
        sol = newton_solve(LaneEmdenProblem(5.0), SolverConfig(n=10, L=0.05))
        with pytest.raises(NoZeroFound):
            first_zero(sol)

    def test_scan_reaching_envelope_edge(self):
        # the last scan point 200*L maps to t = 200.00000000000003 here
        sol = newton_solve(LaneEmdenProblem(5.0), SolverConfig(n=12, L=0.052))
        assert sol.converged
        with pytest.raises(NoZeroFound):
            first_zero(sol)


def closed_form_samples(m, xs):
    return ReferenceProfile(m=m, xs=xs, ys=closed_form(m, xs), source="closed-form")


class TestProfileFirstZero:
    """ReferenceProfile.first_zero refines its first sign change by the
    bisection that first_zero_of runs."""

    # earlier: what scipy's brentq gave at xtol 1e-13, the root finder this
    # bisection replaced
    @pytest.mark.parametrize("profile, earlier", [
        pytest.param(lambda: shooting_oracle(2.0, 6.0), 4.352874596049754, id="shooting-m2"),
        pytest.param(lambda: shooting_oracle(3.0, 8.0), 6.89684842416675, id="shooting-m3"),
        pytest.param(lambda: shooting_oracle(4.0, 16.0), 14.971545692524717, id="shooting-m4"),
        pytest.param(lambda: shooting_oracle(4.9, 250.0), 171.4334037871151, id="shooting-m4.9"),
        pytest.param(lambda: closed_form_samples(1.0, np.linspace(0.0, 4.0, 41)),
                     3.1415927773538472, id="sine-ratio-spline"),
    ])
    def test_zero_within_1e_13_of_the_earlier_root_finder(self, profile, earlier):
        assert abs(profile().first_zero() - earlier) <= 1e-13

    def test_interpolant_called_only_with_1d_arrays(self, monkeypatch):
        prof = shooting_oracle(3.0, 8.0)
        expected = prof.first_zero()
        calls = []
        spline = ReferenceProfile.interpolant
        monkeypatch.setattr(ReferenceProfile, "interpolant",
                            lambda self: array_only(spline(self), calls))
        assert prof.first_zero() == expected
        # each call evaluates a predicted path, several bisection steps
        assert 0 < len(calls) < sum(map(len, calls))

    @pytest.mark.parametrize("profile", [
        pytest.param(lambda: shooting_oracle(3.0, 5.0), id="shooting-before-the-zero"),
        pytest.param(lambda: closed_form_samples(5.0, np.linspace(0.0, 10.0, 11)), id="m5"),
    ])
    def test_no_sign_change_raises(self, profile):
        with pytest.raises(NoZeroFound, match="no sign change in the sampled range"):
            profile().first_zero()

    def test_zero_sample_after_the_flip_is_returned_exactly(self, monkeypatch):
        prof = ReferenceProfile(m=3.0, xs=[0.0, 1.0, 2.7, 3.0], ys=[1.0, 0.4, 0.0, -0.2],
                                source="closed-form")

        def refuse(self):
            raise AssertionError("interpolant built for a zero sample")

        monkeypatch.setattr(ReferenceProfile, "interpolant", refuse)
        assert prof.first_zero() == 2.7

    @pytest.mark.parametrize("ys", [[0.0, -1.0, -2.0], [0.0, 1.0, -2.0]],
                             ids=["then-negative", "then-a-sign-change"])
    def test_zero_first_sample_is_returned_exactly(self, ys, monkeypatch):
        # the way first_zero_of returns 0 when f(0) == 0
        prof = ReferenceProfile(m=3.0, xs=[1.0, 2.0, 3.0], ys=ys, source="closed-form")

        def refuse(self):
            raise AssertionError("interpolant built for a zero sample")

        monkeypatch.setattr(ReferenceProfile, "interpolant", refuse)
        assert prof.first_zero() == 1.0


class TestProfilesAndComparison:
    def test_profile_validation(self):
        with pytest.raises(ParameterError):
            ReferenceProfile(m=3.0, xs=np.array([0.0, 1.0]),
                             ys=np.array([0.5, 0.4]), source="closed-form")
        with pytest.raises(ParameterError):
            ReferenceProfile(m=3.0, xs=np.array([1.0, 0.5]),
                             ys=np.array([0.9, 0.8]), source="closed-form")
        with pytest.raises(ParameterError):
            ReferenceProfile(m=5.0, xs=[], ys=[], source="closed-form")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name,value", [
        ("m", "x"), ("m", -1.0), ("m", math.nan),
        ("xs", [0.0, "a"]), ("xs", [0.0, math.nan]), ("xs", [-1.0, 0.0]), ("xs", [[0.0, 1.0]]),
        ("ys", [1.0, math.nan]), ("ys", [1.0, -math.inf]), ("ys", [1.0]),
        ("yps", [0.0, math.nan]), ("yps", [0.0]), ("yps", [0.0, -0.3, 0.1]),
    ])
    def test_samples_checked_when_built(self, name, value):
        samples = dict(m=3.0, xs=[0.0, 1.0], ys=[1.0, 0.8], yps=[0.0, -0.3])
        samples[name] = value
        with pytest.raises(ParameterError):
            ReferenceProfile(source="shooting", **samples)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name,value", [
        (name, value) for name in ("xs", "ys", "yps") for value in BAD_POINTS
        if not (name == "yps" and value is None)  # a profile without derivatives
    ])
    def test_samples_that_are_not_finite_numbers_raise_naming_the_field(self, name, value):
        samples = dict(m=3.0, xs=[0.0, 1.0], ys=[1.0, 0.8], yps=[0.0, -0.3])
        samples[name] = value
        with pytest.raises(ParameterError, match=f"^{name} must be"):
            ReferenceProfile(source="shooting", **samples)

    @pytest.mark.parametrize("m", [0.0, 1.0, 5.0])
    def test_closed_form_interpolant_reproduces_its_samples(self, m):
        xs = np.linspace(0.0, 2.0, 21)
        prof = closed_form_samples(m, xs)
        np.testing.assert_allclose(prof.interpolant()(xs), closed_form(m, xs), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("source", [5, None, "table", "Shooting", b"shooting", ("shooting",)])
    def test_a_source_outside_the_four_raises_naming_them(self, source):
        with pytest.raises(ParameterError, match="^source must be one of closed-form, shooting, "
                                                 "horedt-table, method-table, got "):
            ReferenceProfile(m=3, xs=[0, 1], ys=[1, 0.5], source=source)

    @pytest.mark.parametrize("source", ["closed-form", "shooting", "horedt-table", "method-table"])
    def test_each_named_source_is_kept(self, source):
        assert ReferenceProfile(m=3, xs=[0, 1], ys=[1, 0.5], source=source).source == source

    def test_samples_read_from_sequences(self):
        prof = ReferenceProfile(m=3, xs=[0, 1], ys=[1, -1], source="closed-form")
        assert prof.m == 3.0
        for values in (prof.xs, prof.ys):
            assert values.dtype == float and not values.flags.writeable
        assert prof.first_zero() == 0.5

    @pytest.mark.filterwarnings("error")
    def test_one_sample_with_derivatives(self):
        # Hermite needs two samples; one takes the np.interp path of a
        # one-sample profile without yps
        prof = ReferenceProfile(m=3, xs=[0.0], ys=[1.0], yps=[0.0], source="shooting")
        plain = ReferenceProfile(m=3, xs=[0.0], ys=[1.0], source="shooting")
        assert prof.interpolant()(0.0) == plain.interpolant()(0.0) == 1.0

    def test_interpolant_hits_samples(self):
        prof = horedt_reference(3.0)
        vals = prof.interpolant()(prof.xs)
        np.testing.assert_allclose(vals, prof.ys, atol=1e-12)


class TestEmbeddedReferences:
    def test_horedt_profile(self):
        prof = horedt_reference(3.0)
        assert prof.source == "horedt-table"
        assert prof.xs[0] == 0.0 and prof.ys[0] == 1.0
        assert prof.xs[-1] == 6.896
        assert prof.ys[3] == 0.855058

    def test_method_profile(self):
        prof = method_reference_profile(3.0)
        assert prof.source == "method-table"
        assert prof.ys[1] == 0.998323
        assert prof.xs.shape == (8,)

    def test_first_zero_values(self):
        assert first_zero_reference(2.0) == 4.35287460
        assert first_zero_reference(3.0) == 6.89684862
        assert first_zero_reference(4.0) == 14.9715463

    def test_method_first_zeros(self):
        assert method_reference_first_zero(3.0) == (7, 6.896849)
        assert method_reference_first_zero(2.0) == (6, 4.352875)
        assert method_reference_first_zero(4.0) == (6, 14.971546)

    @pytest.mark.parametrize("lookup", [horedt_reference, first_zero_reference,
                                        method_reference_profile, method_reference_first_zero])
    @pytest.mark.parametrize("m", [None, "x", "3", [3.0], True])
    def test_index_that_is_not_a_real_number(self, lookup, m):
        with pytest.raises(ParameterError, match="m must be a real number"):
            lookup(m)

    def test_integer_and_numpy_indices(self):
        assert first_zero_reference(3) == first_zero_reference(np.float64(3.0)) == 6.89684862
        assert method_reference_first_zero(np.int64(2)) == (6, 4.352875)
        assert horedt_reference(3).m == method_reference_profile(np.float32(3.0)).m == 3.0

    def test_unsupported_indices(self):
        with pytest.raises(ParameterError):
            horedt_reference(2.0)
        with pytest.raises(ParameterError):
            first_zero_reference(5.0)
        with pytest.raises(ParameterError):
            method_reference_first_zero(0.0)
