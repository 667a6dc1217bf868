"""Exception types shared across the package, and the one integer and one
real-number check (with its form for arrays of states)."""

import numbers

import numpy as np


class EigenbondError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(EigenbondError):
    """Bad user input: parameters, schedules, or configuration."""


class UnsupportedModelError(EigenbondError):
    """An operation was requested for a model that does not support it."""


class ConvergenceError(EigenbondError):
    """A truncated series failed to satisfy its stopping rule within bounds."""


class BracketError(EigenbondError):
    """Root bracketing or the single-crossing sign scan failed.

    Carries ``decision_index`` when raised inside the backward recursion so
    the failing decision date can be reported.
    """

    def __init__(self, message, decision_index=None):
        super().__init__(message)
        self.decision_index = decision_index


class DensityTruncationError(EigenbondError):
    """Transition-density expansion cannot reach the requested tail accuracy."""


def check_integer(name: str, value, minimum: int = 0) -> None:
    """Refuse, with ``ValidationError``, a value that is not an integer (a
    bool or a float with an integral value included) or is below
    ``minimum``.  A plain int, as on the evaluators' hot path, skips the
    slower ABC check."""
    if type(value) is not int and (
        isinstance(value, bool) or not isinstance(value, numbers.Integral)
    ):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")


def check_real(name: str, value) -> None:
    """Refuse, with ``ValidationError``, a value that is not a real number
    (a bool, a string or None included).  Range checks are the caller's."""
    if type(value) is not float and (
        isinstance(value, bool) or not isinstance(value, numbers.Real)
    ):
        raise ValidationError(f"{name} must be a real number, got {value!r}")


def real_array(name: str, values) -> np.ndarray:
    """``values`` (a real number or an array-like of them) as a float array,
    each entry refused by ``check_real`` when it is not a real number.  A
    numpy array of integers or floats passes whole; anything else is read
    entry by entry before numpy converts it (which reads "0.05" and True)."""
    array = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
    if array.dtype.kind not in "iuf":
        for value in array.flat:
            check_real(name, value)
    return array.astype(float, copy=False)
