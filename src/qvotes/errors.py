"""Exception hierarchy shared across the package.

The split between :class:`DataError` and :class:`ConfigError` mirrors the
CLI exit-code contract: input/validation problems exit with 1,
configuration problems with 2.
"""

import operator


class QvotesError(Exception):
    """Base class for all qvotes errors."""


class DataError(QvotesError):
    """Invalid, malformed, or insufficient input data."""


class DegenerateDataError(DataError):
    """A statistic is mathematically undefined for the given input
    (e.g. rank correlation of a constant vector)."""


class ConfigError(QvotesError):
    """Invalid configuration: bad sweep values, unknown metric names,
    inconsistent flags."""


def _integer(name: str, value, error: type[QvotesError] = ConfigError) -> int:
    """``value`` as an int.  Python and numpy integers are accepted; a
    float, even an integral one, or a bool raises ``error`` rather than
    being truncated or read as 0 or 1."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{name} must be an integer, got {value!r}")
