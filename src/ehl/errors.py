"""Exception hierarchy shared across the package.

Every error raised by library code derives from EhlError. The CLI maps the
``exit_code`` attribute of the caught class to the process exit status, so the
status never encodes a statistical decision, only an operational failure.
"""


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
