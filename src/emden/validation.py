"""Input checks, each written once: records, real and integer scalars, and
arrays of numbers, which reject text and booleans wherever a number is read."""
from __future__ import annotations

import numbers

import numpy as np

from .errors import ParameterError

__all__ = ["check_type", "check_real", "check_integer", "as_floats", "as_reals", "as_points", "as_float_grid"]


def _is_real(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_type(name, value, kind):
    """value, checked to be a kind (one of the package's records)."""
    if not isinstance(value, kind):
        raise ParameterError(f"{name} must be a {kind.__name__}, got {value!r:.40}")
    return value


def check_real(name, value, minimum=None, exclusive=False):
    """Validate a real scalar, returning it as float.

    minimum bounds the value from below; exclusive makes the bound strict.
    """
    if not _is_real(value):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not np.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    if minimum is not None:
        if exclusive and value <= minimum:
            raise ParameterError(f"{name} must be > {minimum}, got {value}")
        if not exclusive and value < minimum:
            raise ParameterError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_integer(name, value, minimum=None):
    """Validate an integer scalar, returning it as int."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}")
    return value


def as_floats(x, name="x"):
    """x as a float array of its own shape; NaN and inf pass. Text, booleans
    (a boolean among numbers too), ragged nesting and other non-numbers raise
    ParameterError."""
    try:
        arr = np.asarray(x)
        # integers past int64 and other Python numbers arrive as objects
        numeric = arr.dtype.kind in "iuf" or arr.dtype == object and all(map(_is_real, arr.flat))
        # numpy reads a boolean among numbers as a number; an array's dtype tells
        if numeric and not isinstance(x, np.ndarray):
            numeric = not any(isinstance(v, (bool, np.bool_)) for v in np.asarray(x, dtype=object).flat)
        if numeric:
            return arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ParameterError(f"{name} must be real numbers, got {x!r:.40}")


def as_reals(x, name="x"):
    """as_floats with NaN and inf entries rejected too."""
    arr = as_floats(x, name)
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{name} must be finite")
    return arr


def as_points(x, name="x"):
    """as_reals for points on the half line: negative entries are rejected too."""
    arr = as_reals(x, name)
    if np.any(arr < 0):
        raise ParameterError(f"{name} must be nonnegative")
    return arr


def as_float_grid(xs, name="x"):
    """as_points as a 1-d array of at least one point; a scalar becomes one point."""
    arr = np.atleast_1d(as_points(xs, name))
    if arr.ndim != 1 or arr.size == 0:
        raise ParameterError(f"{name} must be one-dimensional with at least one point, got shape {arr.shape}")
    return arr
