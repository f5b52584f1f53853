"""Exception types shared across the package, and the count rule that
every count (steps, midpoints, sweeps, chains, cells, dimensions) obeys."""

import numbers


class UlmcError(Exception):
    """Base class for all errors raised by this package."""


class InvalidTargetError(UlmcError):
    """Target construction arguments violate the required assumptions."""


class UnsupportedTargetError(UlmcError):
    """Operation requires a target class the given target does not belong to."""


class DatasetFormatError(UlmcError):
    """Dataset file is malformed or uses an unrecognized label alphabet."""


class ScheduleError(UlmcError):
    """Step size, iteration count or fixed-point depth out of range."""


class ConfigError(UlmcError):
    """Run configuration is inconsistent or incomplete."""


def _require_count(value, what, least, error):
    """value must be a Python or numpy integer >= least (a bool is not one);
    otherwise raises error, naming the count as `what`."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
        raise error(f"{what} must be an integer >= {least}, got {value!r}")
