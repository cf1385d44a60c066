"""Fault types shared across the package, and the one check of a sample period."""

import math


class ConfigurationError(ValueError):
    """A configuration value violates an invariant (bad weights, delays, schema...)."""


class SimulationFault(RuntimeError):
    """A runtime signal is unusable (non-finite input, mismatched port count...)."""


def check_positive_finite(value: float, name: str = "sample period") -> float:
    """Return ``value`` if it lies in (0, inf); NaN, inf, zero and negatives are rejected."""
    if not 0.0 < value < math.inf:
        raise ConfigurationError(f"{name} must be positive and finite, got {value!r}")
    return value
