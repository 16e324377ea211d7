"""Exception types shared across the package, and the checks on positive
real parameters, kernel bandwidths, array sizes and float64 overflow."""

import contextlib
import math

import numpy as np


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


def require_bandwidth(**values) -> None:
    """Raise ConfigError unless every value is positive and finite and
    1/(2 value^2), the factor a Gaussian kernel of that width applies to
    squared distances, is finite too."""
    require_positive(**values)
    for name, value in values.items():
        twice_square = 2.0 * value * value
        if twice_square == 0.0 or math.isinf(1.0 / twice_square):
            raise ConfigError(f"{name} is too small for 1/(2*{name}^2) to "
                              f"be finite, got {value}")


def require_addressable(what: str, *shape: int) -> None:
    """Raise MemoryError when a float64 or int64 array of `shape` would be
    larger than numpy can address. numpy raises ValueError or TypeError there, not
    the MemoryError of an allocation that merely fails."""
    if 8 * math.prod(shape) > np.iinfo(np.intp).max:
        raise MemoryError(f"{what} of shape {shape} is larger than numpy "
                          f"can address")


@contextlib.contextmanager
def overflow_is_config_error(what: str):
    """A numpy overflow inside the block is a ConfigError: `what` has no
    finite value for these inputs."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError:
        raise ConfigError(f"{what} overflows the float64 range") from None
