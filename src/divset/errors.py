"""Exception types shared across the package.

The CLI maps ValidationError to exit code 2 and NumericalError to exit
code 3; everything else is a bug and propagates.
"""

import numbers


class ValidationError(ValueError):
    """Inputs violate a documented precondition or invariant."""


class NumericalError(ArithmeticError):
    """A numerical routine failed in a way that signals a broken upstream
    invariant (e.g. Cholesky failure on a matrix that should be positive
    definite). Never silently recovered."""


def check_number(name: str, value, integer: bool = False):
    """Return a real, non-bool config value (as an int when ``integer``), else raise naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    if integer and not (isinstance(value, numbers.Integral) or float(value).is_integer()):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value) if integer else value
