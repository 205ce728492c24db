"""Exception and warning types shared across the package."""

__all__ = [
    "EmdenError",
    "ParameterError",
    "RangeError",
    "NumericalError",
    "NoZeroFound",
    "NotFittedError",
    "ConvergenceWarning",
]


class EmdenError(Exception):
    """Base class for errors raised by this package."""


class ParameterError(EmdenError, ValueError):
    """A parameter is outside its documented domain."""


class RangeError(ParameterError):
    """Input outside the double-precision evaluation envelope (n <= 30, x <= 200*L)."""


class NumericalError(EmdenError, ArithmeticError):
    """A numerical process broke down (singular pivot, step underflow, polish failure)."""


class NoZeroFound(EmdenError):
    """The scanned interval contains no sign change."""


class NotFittedError(EmdenError, ValueError):
    """Estimator used before a successful call to fit."""


class ConvergenceWarning(RuntimeWarning):
    """The iterative solver stopped without meeting its residual tolerance."""
