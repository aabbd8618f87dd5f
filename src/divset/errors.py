"""Exception types shared across the package.

The CLI maps ValidationError to exit code 2 and NumericalError to exit
code 3; everything else is a bug and propagates.
"""

import numbers
import sys

# Floats (512 MiB) that one array sized by a config's counts may hold. A count
# whose array would pass it is rejected by name before the array is made.
MAX_ARRAY_FLOATS = 2**26


class ValidationError(ValueError):
    """Inputs violate a documented precondition or invariant."""


class NumericalError(ArithmeticError):
    """A numerical routine failed in a way that signals a broken upstream
    invariant (e.g. Cholesky failure on a matrix that should be positive
    definite). Never silently recovered."""


def check_number(name: str, value, integer: bool = False):
    """Return a real, non-bool config value (as an int when ``integer``), else raise naming it.

    A count or a seed (``integer``) must be >= 0; any other field must be finite as a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    if integer and not ((isinstance(value, numbers.Integral) or float(value).is_integer()) and value >= 0):
        raise ValidationError(f"{name} must be an integer >= 0, got {value!r}")
    if not (integer or -sys.float_info.max <= value <= sys.float_info.max):  # False for NaN
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return int(value) if integer else value


def check_floats(name: str, floats: int) -> None:
    """Reject the count ``name`` when an array it sizes would hold ``floats`` > MAX_ARRAY_FLOATS floats."""
    if floats > MAX_ARRAY_FLOATS:
        raise ValidationError(f"{name} is too large: an array it sizes would pass {MAX_ARRAY_FLOATS} floats")
