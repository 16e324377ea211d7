"""Exception types shared across the package, and the check on positive
real parameters."""

import math


class FormatError(ValueError):
    """A file or byte payload does not match its declared format.

    Messages name the byte offset of the first offending byte where one
    is known.
    """


class ConfigError(ValueError):
    """Invalid parameter combination or mismatched operands."""


def require_positive(**values) -> None:
    """Raise ConfigError unless every value is a finite number above zero
    (`<= 0` alone would let NaN through)."""
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise ConfigError(f"{name} must be positive and finite, got {value}")
