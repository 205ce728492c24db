"""Reference solutions and zero finding: closed forms, a shooting integrator
and embedded published values.

The shooting integrator is the package's independent oracle. It never touches
the collocation machinery: series start near the singular origin, classical
RK4 with step doubling, derivative samples kept for Hermite interpolation.

Every zero search here bisects by one rule, _bisection. Only
ReferenceProfile.interpolant() uses scipy.interpolate; it imports it on first
use, so that importing the package (and every CLI subcommand) loads no public
scipy subpackage.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NoZeroFound, NumericalError, ParameterError
from .laguerre import MAX_ARGUMENT, _unscaled
from .operators import _coefficients, _hat_values
from .solver import LaneEmdenProblem, SpectralSolution, _pow_signed_scalar
from .validation import as_floats, as_points, as_reals, check_real, check_type

__all__ = [
    "ReferenceProfile",
    "FirstZeroResult",
    "closed_form",
    "shooting_oracle",
    "first_zero",
    "first_zero_of",
    "horedt_reference",
    "first_zero_reference",
    "method_reference_profile",
    "method_reference_first_zero",
]

# Published half-line polytrope values (Horedt's tables), stored digit-for-digit
# as printed; single source of truth for the m=3 reference column.
_HOREDT = {3.0: (
    (0.0, 1.000000),
    (0.1, 0.998336),
    (0.5, 0.959839),
    (1.0, 0.855058),
    (5.0, 0.110820),
    (6.0, 0.043738),
    (6.8, 0.004168),
    (6.896, 0.000036),
)}

# Published values for this collocation method at the same grid (m=3, n=7, L=1);
# the reproduction targets for the m=3 profile.
_METHOD = {3.0: (
    (0.0, 1.000000),
    (0.1, 0.998323),
    (0.5, 0.959821),
    (1.0, 0.855057),
    (5.0, 0.110820),
    (6.0, 0.043718),
    (6.8, 0.004165),
    (6.896, 0.000035),
)}

# First zeros: high-accuracy values, and the published method results with the
# degree used for each.
_FIRST_ZERO_EXACT = {2.0: 4.35287460, 3.0: 6.89684862, 4.0: 14.9715463}
_METHOD_FIRST_ZERO = {2.0: (6, 4.352875), 3.0: (7, 6.896849), 4.0: (6, 14.971546)}

_BISECT_INTERVAL = 1e-13
_BISECT_MAX_ITER = 200
# Points per call of a scanned function: bounds memory, keeps an early exit.
_SCAN_BLOCK = 256
# Where a zero scan ends unless the caller says otherwise.
_SCAN_END = 50.0
# Most scan points of one search: 1000 times the default scan of 0.05 to 50.
_SCAN_MAX_POINTS = 10**6


@dataclass(frozen=True)
class ReferenceProfile:
    """A reference solution sampled on an ascending grid.

    source is one of {"closed-form", "shooting", "horedt-table",
    "method-table"}. yps optionally carries derivative samples (the shooting
    oracle fills it), upgrading interpolation to Hermite from two samples on.
    Samples that are not finite, or xs that are not nonnegative and ascending,
    raise ParameterError.
    """

    m: float
    xs: np.ndarray
    ys: np.ndarray
    source: str
    yps: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "m", LaneEmdenProblem(self.m).m)
        xs = as_points(self.xs, "xs")
        samples = {"xs": xs, "ys": as_reals(self.ys, "ys")}
        if self.yps is not None:
            samples["yps"] = as_reals(self.yps, "yps")
        if xs.ndim != 1 or not xs.size or any(v.shape != xs.shape for v in samples.values()):
            raise ParameterError("xs, ys and yps must be matching non-empty 1-d arrays")
        if np.any(np.diff(xs) <= 0):
            raise ParameterError("xs must be strictly ascending")
        if xs[0] == 0.0 and abs(samples["ys"][0] - 1.0) > 1e-12:
            raise ParameterError("a profile starting at x=0 must start at y=1")
        for name, values in samples.items():
            values.setflags(write=False)
            object.__setattr__(self, name, values)

    def interpolant(self) -> Callable[[np.ndarray], np.ndarray]:
        """Smooth evaluator through the samples; exact at the sample points."""
        from scipy.interpolate import CubicHermiteSpline, CubicSpline

        if self.yps is not None and len(self.xs) >= 2:
            return CubicHermiteSpline(self.xs, self.ys, self.yps)
        if len(self.xs) >= 4:
            return CubicSpline(self.xs, self.ys)
        return lambda x: np.interp(x, self.xs, self.ys)

    def first_zero(self) -> float:
        """Smallest root of the interpolant inside the sampled range. A zero
        sample met before any sign change is returned as it is, the way
        first_zero_of returns 0 when f(0) == 0; otherwise the first sample
        interval with a sign change is refined as first_zero_of refines it."""
        signs = np.sign(self.ys)
        stops = np.flatnonzero((signs == 0) | (signs * np.append(signs[1:], 0) < 0))
        if not stops.size:
            raise NoZeroFound(f"no sign change in the sampled range of the {self.source} profile")
        k = int(stops[0])
        if signs[k] == 0:
            return float(self.xs[k])
        return _refine(self.interpolant(), self.xs[k:k + 2].tolist(), self.ys[k:k + 2].tolist())[0]


@dataclass(frozen=True)
class FirstZeroResult:
    """First zero of an interpolant: location, scan bracket, bisection count."""

    x_star: float
    bracket: tuple
    refinement_iterations: int


def closed_form(m, x):
    """Exact solutions: m=0 parabola, m=1 sin(x)/x, m=5 inverse square root."""
    m = check_real("m", m)
    arr = as_points(x)
    # x**2 overflows past about 1e154, quietly: the values are then -inf
    # (m=0) and 0 (m=5)
    with np.errstate(over="ignore"):
        if m == 0.0:
            out = 1.0 - arr**2 / 6.0
        elif m == 1.0:
            out = np.sinc(arr / np.pi)  # sin(x)/x with the correct limit at 0
        elif m == 5.0:
            out = (1.0 + arr**2 / 3.0) ** -0.5
        else:
            raise ParameterError(f"no closed form for m={m}; supported m are 0, 1, 5")
    return float(out) if out.ndim == 0 else out


def _slope(g, x, y, yp):
    """yp' = -2 yp/x - g(y), the first stage of an RK4 step from (x, y, yp)."""
    return -2.0 * yp / x - g(y)


def _rk4_step(g, x, y, yp, k1p, h):
    """One classical RK4 step of y' = yp, yp' = -2 yp/x - g(y) on two floats;
    k1p is _slope(g, x, y, yp), which steps from one point share."""
    half = h / 2.0
    a, b = y + half * yp, yp + half * k1p
    k2y, k2p = b, -2.0 * b / (x + half) - g(a)
    a, b = y + half * k2y, yp + half * k2p
    k3y, k3p = b, -2.0 * b / (x + half) - g(a)
    a, b = y + h * k3y, yp + h * k3p
    k4y, k4p = b, -2.0 * b / (x + h) - g(a)
    return (y + h / 6.0 * (yp + 2.0 * k2y + 2.0 * k3y + k4y),
            yp + h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p))


def _max_nan(a, b):
    """max of two floats that is NaN when either is, as np.max is."""
    return a if a >= b or a != a else b


def shooting_oracle(m, x_end, h_series=1e-3, tol=1e-10, h_max=None) -> ReferenceProfile:
    """Integrate outward from a series start; the independent reference solver.

    Starts at x = h_series with y = 1 - x^2/6 + m x^4/120 and
    y' = -x/3 + m x^3/30 (the first terms of the regular series at the
    singular origin), then advances with RK4 step doubling: a full step is
    compared against two half steps, the Richardson error estimate controls
    acceptance against tol, and the accepted value keeps the extrapolated
    combination. Integration stops at x_end or just past the first crossing
    into y <= 0, whichever comes first.

    The state y, y' is two Python floats and y^m is _pow_signed_scalar(m), so
    every sample is bit for bit what the same steps on numpy 2-vectors with
    LaneEmdenProblem(m).g give, an overflowing power included. The step error is the
    larger of the two components' and NaN when either is NaN, so a NaN stage
    rejects the step and cuts the next one to a tenth; a state whose power
    overflows at every stage ends in step underflow.

    h_max caps the step size (useful when dense output is wanted for
    interpolation); None means no cap, otherwise it must be finite and > 0.
    Raises NumericalError if the step underflows.
    """
    m = LaneEmdenProblem(m).m
    h_series = check_real("h_series", h_series, minimum=0.0, exclusive=True)
    x_end = check_real("x_end", x_end, minimum=h_series, exclusive=True)
    tol = check_real("tol", tol, minimum=0.0, exclusive=True)
    if h_max is not None:
        h_max = check_real("h_max", h_max, minimum=0.0, exclusive=True)
    g = _pow_signed_scalar(m)

    x = h_series
    y, yp = 1.0 - x**2 / 6.0 + m * x**4 / 120.0, -x / 3.0 + m * x**3 / 30.0
    pts = [(0.0, 1.0, 0.0), (x, y, yp)]
    h = h_series
    while x < x_end:
        h = min(h, x_end - x)
        if h_max is not None:
            h = min(h, h_max)
        k1p = _slope(g, x, y, yp)  # the full and the first half step share it
        full_y, full_p = _rk4_step(g, x, y, yp, k1p, h)
        half_y, half_p = _rk4_step(g, x, y, yp, k1p, h / 2.0)
        x_half = x + h / 2.0
        double_y, double_p = _rk4_step(g, x_half, half_y, half_p, _slope(g, x_half, half_y, half_p), h / 2.0)
        err = _max_nan(abs(double_y - full_y), abs(double_p - full_p)) / 15.0
        scale = max(1.0, _max_nan(abs(y), abs(yp)))
        if err <= tol * scale:
            x += h
            y = double_y + (double_y - full_y) / 15.0
            yp = double_p + (double_p - full_p) / 15.0
            pts.append((x, y, yp))
            if y <= 0.0:
                break
        if h < 1e-12:
            raise NumericalError(f"step underflow at x={x:.6g} (m={m})")
        if err > 0.0:
            factor = (tol * scale / err) ** 0.2
        else:  # no error grows the step; a NaN one cuts it to the floor
            factor = 2.0 if err == 0.0 else 0.0
        h *= min(2.0, max(0.1, 0.9 * factor))
    xs, ys, yps = (np.array(column) for column in zip(*pts))
    return ReferenceProfile(m=m, xs=xs, ys=ys, source="shooting", yps=yps)


def _bisection(lo, hi, side, budget):
    """Bisect [lo, hi] by the one rule of every zero search here.

    Each step asks side(mid, lo, hi, left) about mid = 0.5*(lo+hi), left being
    the steps still allowed with this one: > 0 moves lo to mid, < 0 moves hi,
    0 (a zero at mid) stops with lo = hi = mid. The search also stops at width
    1e-13, after `budget` steps, or at a midpoint equal to an end (only at
    x >= 512, where neighbouring doubles lie more than 1e-13 apart). Returns
    (lo, hi, steps).
    """
    steps = 0
    while hi - lo > _BISECT_INTERVAL and steps < budget:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        found = side(mid, lo, hi, budget - steps)
        steps += 1
        if found == 0:
            return mid, mid, steps
        lo, hi = (mid, hi) if found > 0 else (lo, mid)
    return lo, hi, steps


def _predicted_path(lo, y_lo, hi, y_hi, budget):
    """Midpoints bisection visits from [lo, hi] if every sign agrees with the
    regula falsi estimate of the root from the ends and their values.

    It stops where _bisection stops, or at a midpoint on the estimate, which
    predicts an exact zero. An estimate that is not finite or falls outside
    [lo, hi] is replaced by the midpoint.
    """
    root = lo - y_lo * (hi - lo) / (y_hi - y_lo)
    if not lo <= root <= hi:  # NaN fails the test as well
        root = 0.5 * (lo + hi)
    path = []

    def side(mid, *_):
        path.append(mid)
        return (root > mid) - (root < mid)

    _bisection(lo, hi, side, budget)
    return path


def _nan_error(x):
    return NumericalError(f"function value is NaN at x={x!r} in the zero search")


def _values(f, xs):
    """f(xs) as a float array, checked to hold one real value per point of
    xs; NaN and +-inf pass, for the caller to read."""
    ys = as_floats(f(xs), "function values")
    if ys.shape != xs.shape:
        raise ParameterError(
            f"function must return one value per point: got shape {ys.shape} for {xs.size} points")
    return ys


def _refine(f, ends, end_values):
    """Bisect a sign change of f between two ends, the lower one's value
    nonzero; returns (the final bracket's midpoint, steps). Each sign is read
    from values keyed by x, and a midpoint without one calls f on the
    predicted path from the current bracket."""
    values = dict(zip(ends, end_values))
    positive_lo = end_values[0] > 0.0  # lo only moves to midpoints of its sign

    def side(mid, lo, hi, left):
        if mid not in values:
            path = _predicted_path(lo, values[lo], hi, values[hi], left)
            values.update(zip(path, _values(f, np.array(path)).tolist()))
        y = values[mid]
        if y != y:
            raise _nan_error(mid)
        return 0 if y == 0.0 else (1 if (y > 0.0) == positive_lo else -1)

    lo, hi, steps = _bisection(*ends, side, _BISECT_MAX_ITER)
    return 0.5 * (lo + hi), steps


def first_zero_of(f, scan_step=0.05, x_max=_SCAN_END) -> FirstZeroResult:
    """First sign change of a callable on [0, x_max]: scan, then bisect.

    f is always called with a 1-d array. The scan calls it with blocks of up
    to _SCAN_BLOCK points min(k*scan_step, x_max), neighbouring blocks sharing
    an end point, and stops at the first block with a sign change. Bisection
    (_bisection) then refines the first bracketing interval to width <= 1e-13,
    leaving the function value at the root below 1e-12 for any slope of
    practical size. Its steps and signs are those of a bisection that calls f
    once per step, though one call evaluates several predicted steps.

    A NaN that the search acts on, at a scan point up to the first sign
    change or at a midpoint the bisection visits, raises NumericalError; ±inf
    count with their sign. A call of f that returns anything other than one
    value per point raises ParameterError, and so does a scan of more than
    10**6 points (x_max / scan_step above 10**6, 1000 times the default scan),
    before f is called.
    """
    scan_step = check_real("scan_step", scan_step, minimum=0.0, exclusive=True)
    x_max = check_real("x_max", x_max, minimum=0.0, exclusive=True)
    ratio = x_max / scan_step
    if not ratio <= _SCAN_MAX_POINTS:  # an overflow to inf as well
        raise ParameterError(f"x_max / scan_step must be finite and at most {_SCAN_MAX_POINTS}, "
                             f"got x_max={x_max!r}, scan_step={scan_step!r}")
    steps = int(np.ceil(ratio))
    for start in range(0, steps, _SCAN_BLOCK):
        xs = np.minimum(np.arange(start, min(start + _SCAN_BLOCK, steps) + 1) * scan_step, x_max)
        ys = _values(f, xs)
        if ys[0] == 0.0:  # only at x = 0: a later zero ends a block as a sign change
            return FirstZeroResult(x_star=0.0, bracket=(0.0, 0.0), refinement_iterations=0)
        # a NaN differs in sign from everything, so it ends the scan here too
        flips = np.flatnonzero(np.sign(ys[1:]) != np.sign(ys[:-1]))
        if flips.size:
            k = int(flips[0])
            break
    else:
        raise NoZeroFound(f"no sign change in [0, {x_max:g}] at scan step {scan_step:g}")
    for x, y in ((xs[k], ys[k]), (xs[k + 1], ys[k + 1])):
        if np.isnan(y):
            raise _nan_error(float(x))
    bracket = tuple(xs[k:k + 2].tolist())
    x_star, iterations = _refine(f, bracket, ys[k:k + 2].tolist())
    return FirstZeroResult(x_star=x_star, bracket=bracket, refinement_iterations=iterations)


def first_zero(solution: SpectralSolution) -> FirstZeroResult:
    """First zero of a converged spectral solution's interpolant.

    Scans the smooth interpolant on the solution's own operators (the zero
    generically falls between nodes) up to x = 50, clamped to the evaluation
    envelope 200*L. Raises NoZeroFound when the profile never changes sign
    (the m=5 situation).

    The outcome is kept on the solution, which is immutable: a repeat returns
    the same FirstZeroResult, or raises NoZeroFound with the same message,
    without a second search. A search checks solution.b once, then scans and
    bisects on the interpolant's unchecked kernel, on points it made inside
    the envelope.
    """
    if not check_type("solution", solution, SpectralSolution).converged:
        raise ParameterError("first_zero requires a converged solution")
    outcome = vars(solution).get("_first_zero")
    if outcome is None:
        ops = solution.operators
        b, nodes, L = _coefficients(ops, solution.b), ops.nodes, ops.params.L
        try:
            outcome = first_zero_of(lambda x: _hat_values(nodes, b, _unscaled(x, L)),
                                    x_max=min(_SCAN_END, MAX_ARGUMENT * L))
        except NoZeroFound as exc:
            outcome = str(exc)
        # outside the dataclass fields, so out of equality and repr
        object.__setattr__(solution, "_first_zero", outcome)
    if isinstance(outcome, str):
        raise NoZeroFound(outcome)
    return outcome


def _embedded(table, m, what):
    """The entry of an embedded table, keyed by m as a float, for index m."""
    key = check_real("m", m)
    if key not in table:
        raise ParameterError(f"no {what} for m={m}; the embedded values hold m in {sorted(table)}")
    return table[key]


def horedt_reference(m) -> ReferenceProfile:
    """The embedded published profile (Horedt's tables); only m=3 is excerpted."""
    xs, ys = (np.array(column) for column in zip(*_embedded(_HOREDT, m, "embedded table profile")))
    return ReferenceProfile(m=3.0, xs=xs, ys=ys, source="horedt-table")


def first_zero_reference(m) -> float:
    """High-accuracy first zero for m in {2, 3, 4}."""
    return _embedded(_FIRST_ZERO_EXACT, m, "reference first zero")


def method_reference_profile(m) -> ReferenceProfile:
    """Published values of this collocation method for the m=3 profile (n=7, L=1)."""
    xs, ys = (np.array(column) for column in zip(*_embedded(_METHOD, m, "published method profile")))
    return ReferenceProfile(m=3.0, xs=xs, ys=ys, source="method-table")


def method_reference_first_zero(m):
    """Published method first zero for m in {2, 3, 4}: returns (degree, value)."""
    return _embedded(_METHOD_FIRST_ZERO, m, "published method first zero")
