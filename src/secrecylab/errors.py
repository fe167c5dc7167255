"""Exception types and the argument checks shared across the package.

All validation failures derive from :class:`ValueError` so callers that do
not care about the fine-grained category can catch the builtin.  Each rule
about a single argument value (a number, a count, a seed, a grid step) is
written once, here, and raises :class:`InvalidInputError` with a message
that starts with the value's name (``"<name>: expected ..."``), so a caller
can prefix where the value came from.  Booleans are never numbers.  This
module imports nothing else from the package, nor numpy.
"""

import sys
from numbers import Integral

_MAX = sys.float_info.max


class InvalidInputError(ValueError):
    """An argument violates a documented precondition (sign, range, shape)."""


class UnsupportedSizeError(ValueError):
    """The instance is larger than the exhaustive/desk-scale limit."""


class InvalidPairError(ValueError):
    """A cooperating pair violates the jamming-margin ordering."""


class UsageError(ValueError):
    """A required option is missing or an option combination is invalid."""


class ScenarioError(ValueError):
    """A scenario file could not be used. Base class for load failures."""


class ScenarioSyntaxError(ScenarioError):
    """The scenario file is not well-formed (reported with line/column)."""


class ScenarioValidationError(ScenarioError):
    """The scenario parsed but violates the schema or a type invariant."""


class NumericalError(RuntimeError):
    """A solver failed to converge to its documented tolerance."""


def _finite_float(name, value):
    """``value`` as a float; it must be a finite int or float, not a bool."""
    # Comparing an int with a float is exact, so ints beyond the float range fail here.
    if isinstance(value, (int, float)) and not isinstance(value, bool) and -_MAX <= value <= _MAX:
        return float(value)
    raise InvalidInputError(f"{name}: expected a finite number, got {value!r}")


def _finite_numbers(values):
    """Whether every value passes the type test of :func:`_finite_float`, and
    every int its range test.

    The rule over a whole column, without a message: each value is an int or
    a float (exactly: not a bool), and no int lies beyond the float range, so
    the values convert to a float array whose entries are finite exactly
    where :func:`_finite_float` accepts them.
    """
    kinds = set(map(type, values))
    if int not in kinds:
        return kinds <= {float}
    return kinds <= {int, float} and all(-_MAX <= v <= _MAX for v in values if type(v) is int)


def _check_positive(name, value):
    """``value`` as a float; it must be a finite number above zero."""
    number = _finite_float(name, value)
    if not number > 0:
        raise InvalidInputError(f"{name}: expected a positive value, got {value!r}")
    return number


def _check_nonnegative(name, value):
    """``value`` must be a finite number at or above zero."""
    if not _finite_float(name, value) >= 0:
        raise InvalidInputError(f"{name}: expected a non-negative value, got {value!r}")


def _check_count(name, value):
    """``value`` unchanged; it must be an integer >= 1 (numpy integers too), not a bool."""
    if not (isinstance(value, Integral) and not isinstance(value, bool) and value >= 1):
        raise InvalidInputError(f"{name}: expected a positive integer, got {value!r}")
    return value


def _check_seed(name, value):
    """``value`` unchanged; it must be an integer in ``[0, 2**64)``."""
    if not (isinstance(value, int) and not isinstance(value, bool)
            and 0 <= value < 2 ** 64):
        raise InvalidInputError(f"{name}: expected a 64-bit unsigned integer, got {value!r}")
    return value


def _check_grid_step(name, value):
    """``value`` as a float; it must lie in ``[1e-3, 0.1]``, the supported simplex steps."""
    number = _finite_float(name, value)
    if not 1e-3 <= number <= 0.1:
        raise InvalidInputError(f"{name}: expected a value in [1e-3, 0.1], got {value!r}")
    return number
