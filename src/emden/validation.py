"""Small input-checking helpers used by the public entry points."""
from __future__ import annotations

import numbers

import numpy as np

from .errors import ParameterError

__all__ = ["check_real", "check_integer", "as_reals", "as_points", "as_float_grid"]


def check_real(name, value, minimum=None, exclusive=False, maximum=None):
    """Validate a real scalar, returning it as float.

    minimum/maximum bound the value; exclusive makes the lower bound strict.
    """
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not np.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    if minimum is not None:
        if exclusive and value <= minimum:
            raise ParameterError(f"{name} must be > {minimum}, got {value}")
        if not exclusive and value < minimum:
            raise ParameterError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ParameterError(f"{name} must be <= {maximum}, got {value}")
    return value


def check_integer(name, value, minimum=None, maximum=None):
    """Validate an integer scalar, returning it as int."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ParameterError(f"{name} must be <= {maximum}, got {value}")
    return value


def as_reals(x, name="x"):
    """x as a float array of its own shape; reject non-numeric, NaN and inf entries."""
    try:
        arr = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise ParameterError(f"{name} must be real numbers, got {x!r:.40}") from None
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
    """as_points as a 1-d array; a scalar becomes one point."""
    arr = np.atleast_1d(as_points(xs, name))
    if arr.ndim != 1:
        raise ParameterError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr
