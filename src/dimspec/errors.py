"""Exception hierarchy shared by every dimspec module.

Two broad classes matter for the CLI exit codes: configuration problems
(bad flags, caps exceeded, malformed ratios) map to exit code 2, numeric
failures (divergence, unreachable tolerances, degenerate fits) map to
exit code 3.
"""

import operator


class DimspecError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(DimspecError):
    """Invalid user-supplied configuration (CLI exit code 2)."""

    exit_code = 2


def require_int(value, what: str) -> int:
    """value as an int (ints and numpy integers); ConfigError for
    anything else, so 4.7 is never truncated to 4."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{what} must be an integer, got {value!r}") from None


class CapExceeded(ConfigError):
    """A depth, length or point budget was exceeded."""


class ExponentBudgetError(ConfigError):
    """A dyadic value would need an exponent beyond the configured budget."""


class NumericError(DimspecError):
    """Numeric failure while computing (CLI exit code 3)."""

    exit_code = 3


class DivergentSum(NumericError):
    """Requested a pressure value where the defining series diverges."""


class ToleranceNotReachable(NumericError):
    """Requested tolerance is below the arithmetic resolution of the tier."""


class InsufficientPrecision(NumericError):
    """Interval enclosures overlap; a signed quantity cannot be certified."""


class DegenerateScales(NumericError):
    """Too few usable scales remain for a log-log regression."""
