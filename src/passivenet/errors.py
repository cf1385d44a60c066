"""Fault types shared across the package, the one sample-period, credit and decimation
checks and the one sum."""

import math
from functools import reduce
from operator import add


class ConfigurationError(ValueError):
    """A configuration value violates an invariant (bad weights, delays, schema...)."""


class SimulationFault(RuntimeError):
    """A runtime signal is unusable (non-finite input, mismatched port count...)."""


def check_positive_finite(value: float, name: str = "sample period") -> float:
    """``value`` as a float if it lies in (0, inf); NaN, inf, zero and negatives are rejected."""
    if not 0.0 < value < math.inf:
        raise ConfigurationError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def check_credit(value: float) -> float:
    """``value`` as a float if it is finite and >= 0: a passivity credit a ledger may book."""
    if not 0.0 <= value < math.inf:
        raise ConfigurationError(
            f"hub passivity index must be finite and nonnegative, got {value!r}")
    return float(value)


def check_decimation(value, name: str = "decimation") -> int:
    """``value`` if it is an int >= 1 (a bool is not): keep every ``value``-th trace row."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigurationError(f"{name} must be an integer >= 1, got {value!r:.40}")
    return value


def fold(values) -> float:
    """Left-to-right sum from 0.0, numpy's order below eight terms.  Unlike builtin
    ``sum`` (compensated from Python 3.12 on), it gives the same bits on every version."""
    return reduce(add, values, 0.0)
