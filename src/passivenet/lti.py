"""Continuous-time models and their discrete stepping states.

The hub is a strictly proper force-to-velocity admittance, realized with a
zero-order-hold (hold-equivalent) discretization so it has no direct
feedthrough: the velocity returned at step n never depends on the force
absorbed at step n.  The realization also carries the exact hold integrals
of the hub, so the distance it travels while a force is held (and with it
the work that force does) is known before the force is applied.  Remote
nodes are mass-damper-spring impedance triples realized with a
backward-difference derivative and trapezoidal integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import ConfigurationError


@dataclass(frozen=True)
class ContinuousTF:
    """Rational transfer function, coefficients in descending powers of s."""

    num: tuple[float, ...]
    den: tuple[float, ...]

    def __post_init__(self):
        if len(self.num) == 0 or len(self.den) == 0:
            raise ConfigurationError("transfer function coefficient lists must be nonempty")
        if self.den[0] == 0.0:
            raise ConfigurationError("denominator leading coefficient must be nonzero")
        if not all(math.isfinite(c) for c in self.num + self.den):
            raise ConfigurationError("transfer function coefficients must be finite")

    @property
    def strictly_proper(self) -> bool:
        return len(self.num) < len(self.den)

    @property
    def poles(self) -> np.ndarray:
        return np.roots(self.den)

    def freq_response(self, omega) -> np.ndarray:
        """Evaluate the transfer function at s = j*omega."""
        s = 1j * np.asarray(omega, dtype=float)
        return np.polyval(self.num, s) / np.polyval(self.den, s)


@dataclass(frozen=True)
class ImpedanceTriple:
    """Mass-damper-spring triple: Z(s) = m*s + b + k/s.  Any sign is allowed."""

    m: float
    b: float
    k: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.m, self.b, self.k)):
            raise ConfigurationError("impedance triple entries must be finite")


class FirstOrderLowpass:
    """Backward-Euler one-pole low-pass, y[n] = y[n-1] + beta*(x[n] - y[n-1])."""

    def __init__(self, cutoff: float, dt: float):
        if cutoff <= 0.0 or dt <= 0.0:
            raise ConfigurationError("low-pass cutoff and sample period must be positive")
        self._beta = (cutoff * dt) / (1.0 + cutoff * dt)
        self._y = 0.0

    def filter(self, x: float) -> float:
        self._y += self._beta * (x - self._y)
        return self._y


class HubState:
    """Hold-equivalent discrete realization of the hub admittance.

    ``velocity()`` peeks at the output before any force is absorbed;
    ``step(force)`` returns (velocity, position) and then advances the state,
    so the returned velocity is independent of the force passed in.
    Position is the trapezoidal running integral of the velocity samples.

    ``hold_preview()`` gives the exact continuous-time motion under held
    forces.  With F held over the coming sample and F' over the one after,
    and (travel, next_velocity, next_travel) the free terms it returns:

    * the hub travels ``travel + hold_travel * F`` during the coming sample
      (the integral of its velocity, not ``dt`` times the sample),
    * its next velocity sample is ``next_velocity + hold_velocity * F``,
    * it then travels ``next_travel + hold_carry * F + hold_travel * F'``.
    """

    def __init__(
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray,
        dt: float,
        travel_row: np.ndarray,
        hold_travel: float,
    ):
        self._a = a
        self._b = b
        self._c = c
        self._x = np.zeros(a.shape[0])
        self.dt = dt
        self._pos = 0.0
        self._prev_v = 0.0
        self._preview_rows = np.vstack([travel_row, c @ a, travel_row @ a])
        self.hold_travel = hold_travel
        self.hold_velocity = float(c @ b)
        self.hold_carry = float(travel_row @ b)

    def hold_preview(self) -> tuple[float, float, float]:
        travel, next_velocity, next_travel = (self._preview_rows @ self._x).tolist()
        return travel, next_velocity, next_travel

    def velocity(self) -> float:
        return float(self._c @ self._x)

    def step(self, force: float) -> tuple[float, float]:
        v = self.velocity()
        self._pos += self.dt * (v + self._prev_v) / 2.0
        self._prev_v = v
        self._x = self._a @ self._x + self._b * force
        return v, self._pos


def make_hub_admittance(tf: ContinuousTF, dt: float) -> HubState:
    """Discretize a strictly proper admittance with a zero-order hold.

    The realization is the controller-canonical form, built with the same
    arithmetic as ``scipy.signal.tf2ss`` followed by
    ``cont2discrete(method="zoh")``: (Ad, bd) are the top blocks of
    expm(dt * [[A, b], [0, 0]]).  Unlike scipy, a leading numerator
    coefficient of magnitude <= 1e-14 is kept, not trimmed.  A realization
    that overflows is rejected.
    """
    if dt <= 0.0:
        raise ConfigurationError("sample period must be positive")
    if not tf.strictly_proper:
        raise ConfigurationError(
            "hub admittance must be strictly proper (numerator degree < denominator "
            "degree); a proper-but-not-strict model has direct feedthrough and closes "
            "an algebraic loop"
        )
    # an overflow here is reported below as a ConfigurationError, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        den = np.asarray(tf.den, dtype=float)
        num = np.asarray(tf.num, dtype=float) / den[0]
        den = den / den[0]
        n = len(den) - 1
        num = np.concatenate([np.zeros(n + 1 - len(num)), num])
        a = np.vstack([-den[1:], np.eye(n - 1, n)])
        b = np.eye(1, n)[0]
        c = num[1:] - num[0] * den[1:]
        block = np.zeros((n + 1, n + 1))
        block[:n, :n] = a
        block[:n, n] = b
        top = expm(dt * block)[:n]
        once, twice = _hold_integrals(a, dt)
        travel_row = c @ once
        hold_travel = float(c @ twice @ b)
    if not all(np.isfinite(m).all() for m in (top, c, once, twice, travel_row, hold_travel)):
        raise ConfigurationError(
            f"hub realization is not finite at dt={dt!r}: a coefficient, or the "
            "growth of an unstable pole over one sample, overflows float range"
        )
    return HubState(top[:, :n], top[:, n], c, dt, travel_row, hold_travel)


def _hold_integrals(a: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(int_0^dt e^{As} ds, int_0^dt int_0^s e^{Ar} dr ds) from one block exponential."""
    n = a.shape[0]
    block = np.zeros((3 * n, 3 * n))
    block[:n, :n] = a * dt
    block[:n, n:2 * n] = np.eye(n) * dt
    block[n:2 * n, 2 * n:] = np.eye(n) * dt
    full = expm(block)
    return full[:n, n:2 * n], full[:n, 2 * n:]


class NodeState:
    """Discrete mass-damper-spring impedance, velocity in, force out.

    f[n] = m*(v[n] - v[n-1])/dt + b*v[n] + k*I[n], with I[n] the trapezoidal
    integral of v.  When ``derivative_cutoff`` is set, the backward-difference
    term is passed through a one-pole low-pass; the filtered inertia
    m*s*wc/(s+wc) keeps Re >= 0 at all frequencies, so a passive triple stays
    passive.
    """

    def __init__(self, triple: ImpedanceTriple, dt: float, derivative_cutoff: float | None = None):
        if dt <= 0.0:
            raise ConfigurationError("sample period must be positive")
        self.triple = triple
        self.dt = dt
        self._prev_v = 0.0
        self._integral = 0.0
        self._dfilter = (
            None if derivative_cutoff is None else FirstOrderLowpass(derivative_cutoff, dt)
        )

    def step(self, v: float) -> float:
        z = self.triple
        self._integral += self.dt * (v + self._prev_v) / 2.0
        dv = (v - self._prev_v) / self.dt
        if self._dfilter is not None:
            dv = self._dfilter.filter(dv)
        self._prev_v = v
        return z.m * dv + z.b * v + z.k * self._integral


def default_osp_grid() -> np.ndarray:
    """Log-spaced frequency grid for the passivity-index sweep."""
    return np.logspace(-3.0, 4.0, 1000)


def estimate_osp_index(tf: ContinuousTF, omega_grid=None) -> float:
    """Largest output-strict-passivity index supported on the grid.

    Returns min over the grid of Re{Y(jw)} / |Y(jw)|^2, clamped to 0 if the
    ratio goes negative anywhere (the model then contributes no guaranteed
    passive capacity).  Models with right-half-plane poles are rejected;
    poles on the imaginary axis are tolerated because the grid is positive
    and finite.
    """
    if omega_grid is None:
        omega_grid = default_osp_grid()
    omega = np.asarray(omega_grid, dtype=float)
    if omega.size == 0:
        raise ConfigurationError("frequency grid must be nonempty")
    if not np.all(np.isfinite(omega)) or np.any(omega <= 0.0):
        raise ConfigurationError("frequency grid must be positive and finite")
    if len(tf.den) > 1 and np.any(tf.poles.real > 0.0):
        raise ConfigurationError("passivity index is undefined for an unstable model")
    resp = tf.freq_response(omega)
    mag2 = np.abs(resp) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = resp.real / mag2
    if not np.all(np.isfinite(ratio)):
        raise ConfigurationError(
            "frequency response vanishes on the grid; choose grid points away "
            "from imaginary-axis zeros"
        )
    return max(0.0, float(ratio.min()))
