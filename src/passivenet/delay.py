"""Time-varying transport delay: sinusoidal delay law, split into sine terms at build
for the step's port pass (one sine per distinct frequency), plus ring-buffer line."""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, copysign, floor, inf, isfinite, sin

from .errors import ConfigurationError, check_positive_finite


@dataclass(frozen=True)
class DelayProfile:
    """Sinusoidal delay law d(t) = offset + amplitude * sin(frequency * t)."""

    offset: float
    amplitude: float
    frequency: float

    def __post_init__(self):
        if not all(isfinite(v) for v in (self.offset, self.amplitude, self.frequency)):
            raise ConfigurationError("delay profile parameters must be finite")
        if self.offset - abs(self.amplitude) < 0.0:
            raise ConfigurationError(
                f"delay profile (offset={self.offset}, amplitude={self.amplitude}) "
                "goes negative; offset - |amplitude| must be >= 0"
            )

    def delay_at(self, t: float) -> float:
        return self.offset + self.amplitude * sin(self.frequency * t)

    @property
    def max_delay(self) -> float:
        return self.offset + abs(self.amplitude)

    def halved(self) -> "DelayProfile":
        """One leg of a round trip split 50/50."""
        return DelayProfile(self.offset / 2.0, self.amplitude / 2.0, self.frequency)


def sine_terms(legs) -> tuple[list[float], list[tuple[float, float, int]]]:
    """The distinct frequencies of ``legs`` and each leg's (offset, amplitude, j), so that
    ``offset + amplitude * sin(frequencies[j] * t)`` is ``leg.delay_at(t)`` bit for bit.

    A frequency is keyed with its sign, as sin(-0.0 * t) is -0.0."""
    sine_of = {}  # (frequency, sign) -> j, the index of its sine
    terms = [(leg.offset, leg.amplitude, sine_of.setdefault(
        (leg.frequency, copysign(1.0, leg.frequency)), len(sine_of))) for leg in legs]
    return [f for f, _ in sine_of], terms


class DelayLine:
    """Ring buffer (a list of the pushed floats) read with nearest-sample indexing.

    Samples are pushed once per period, push n (counted by the line from 0) at
    t = n*dt; the read index for a requested delay d is the stored sample whose
    timestamp is nearest to t - d (ties round toward the more recent sample).
    Before t - d reaches zero the line returns the cold-start value 0.  A NaN or
    negative d raises ConfigurationError, as does one past the capacity, +inf too.
    """

    __slots__ = ("dt", "capacity", "_buf", "_n")

    def __init__(self, max_delay: float, dt: float):
        if not 0.0 <= max_delay < inf:
            raise ConfigurationError(
                f"maximum delay must be nonnegative and finite, got {max_delay!r}"
            )
        self.dt = check_positive_finite(dt)
        self.capacity = ceil(max_delay / dt) + 2
        self._buf = [0.0] * self.capacity
        self._n = 0  # index of the next push

    def push_and_sample(self, sample: float, d: float) -> float:
        if not d >= 0.0:  # NaN fails it too
            raise ConfigurationError(f"requested delay must be nonnegative, got {d!r}")
        n, capacity, buf = self._n, self.capacity, self._buf
        buf[n % capacity] = sample
        self._n = n + 1
        try:  # floor raises OverflowError where d/dt is inf
            k = floor((n - d / self.dt) + 0.5)
            # cold start: k < 0, or t = n*dt short of d; k >= 1 puts t - d near dt/2 or above
            if k < 1 and (k < 0 or n * self.dt < d):
                return 0.0
            if n - k < capacity:
                return buf[k % capacity]
        except OverflowError:
            pass
        raise ConfigurationError(f"requested delay {d} exceeds the line capacity "
                                 f"({capacity} samples at dt={self.dt})")
