"""Exception hierarchy shared across the package.

Every error raised by library code derives from EhlError. The CLI maps the
``exit_code`` attribute of the caught class to the process exit status, so the
status never encodes a statistical decision, only an operational failure.

The checks below say each rule on a scalar argument once: library entry
points run them first, and the CLI's argument types run them at parse time.
"""

import math
import operator


class EhlError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InputError(EhlError):
    """Malformed data, out-of-range values, or invalid configuration."""

    exit_code = 2


class BoundaryForecastError(EhlError):
    """A forecast of exactly 0 or 1 where the likelihood ratio is undefined."""

    exit_code = 3


class ExactSizeError(EhlError):
    """Sample too large for the exact variant (its n_max or hard size limit)."""

    exit_code = 4


class DegreesOfFreedomError(EhlError):
    """Realized binning leaves fewer than one degree of freedom."""

    exit_code = 5


class DegenerateSplitError(InputError):
    """Requested split leaves an empty estimation or holdout part."""


class FitError(EhlError):
    """Numerical fitting failed (non-convergence or singular system)."""

    exit_code = 2


class ArgumentError(InputError):
    """A scalar argument that breaks its rule. The message names the argument;
    ``rule`` alone lets the CLI report the rule against the text as given."""

    def __init__(self, name: str, rule: str, value: object) -> None:
        super().__init__(f"{name} must be {rule}, got {value!r}")
        self.rule = rule


def check_int(name: str, value: object, low: int, high: float = math.inf) -> int:
    """value as an int, if it is a Python or numpy integer from low to high."""
    try:
        number = operator.index(value)
        if low <= number <= high:
            return number
    except TypeError:
        pass
    span = f"from {low} to {high}" if high < math.inf else f"of at least {low}"
    raise ArgumentError(name, f"an integer {span}", value)


def check_positive(name: str, value: float) -> None:
    # nan and inf would reach the JSON output as the invalid NaN and Infinity
    if not 0.0 < value < math.inf:
        raise ArgumentError(name, "a finite number above 0", value)


def check_fraction(name: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise ArgumentError(name, "a number strictly in (0, 1)", value)


def check_choice(name: str, value: object, choices: tuple) -> None:
    if value not in choices:
        raise InputError(f"unknown {name} {value!r}; expected one of {choices}")
