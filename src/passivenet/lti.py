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
from functools import reduce
from itertools import chain
from operator import mul

from .errors import ConfigurationError, SimulationFault, check_positive_finite


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


@dataclass(frozen=True)
class ImpedanceTriple:
    """Mass-damper-spring triple: Z(s) = m*s + b + k/s.  Any sign is allowed."""

    m: float
    b: float
    k: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.m, self.b, self.k)):
            raise ConfigurationError("impedance triple entries must be finite")
        for name in ("m", "b", "k"):  # builtin floats, so no numpy scalar reaches a trace
            object.__setattr__(self, name, float(getattr(self, name)))


class HubState:
    """Hold-equivalent discrete realization of the hub admittance.

    ``velocity()`` peeks at the output before any force is absorbed;
    ``step(force)`` returns (velocity, position) and then advances the state,
    so the returned velocity is independent of the force passed in.  One pass
    per step forms c x and the ``hold_preview()`` terms, which the getters read.
    Position is the trapezoidal running integral of the velocity samples.
    The matrices and the state are lists of floats and every product is an
    exactly rounded ``math.fsum``, so a step gives the same bits on any CPU.

    ``hold_preview()`` gives the exact continuous-time motion under held
    forces.  With F held over the coming sample and F' over the one after,
    and (travel, next_velocity, next_travel) the free terms it returns:

    * the hub travels ``travel + hold_travel * F`` during the coming sample
      (the integral of its velocity, not ``dt`` times the sample), which
      ``travel(F)`` returns,
    * its next velocity sample is ``next_velocity + hold_velocity * F``,
    * it then travels ``next_travel + hold_carry * F + hold_travel * F'``.
    """

    def __init__(self, a: list, b: list, rows: list, dt: float, hold: tuple):
        self._a = a
        self._b = b
        self._x = [0.0] * len(b)
        self.dt = dt
        self._pos = 0.0
        self._prev_v = 0.0
        self._rows = rows  # c, travel_row, c Ad, travel_row Ad
        self.hold_travel, self.hold_velocity, self.hold_carry = hold
        self._v, self._preview = 0.0, (0.0, 0.0, 0.0)  # the outputs of the zero state

    def hold_preview(self) -> tuple[float, float, float]:
        return self._preview

    def travel(self, force: float) -> float:
        return self._preview[0] + self.hold_travel * force

    def velocity(self) -> float:
        return self._v

    def step(self, force: float) -> tuple[float, float]:
        v = self._v
        self._pos += self.dt * (v + self._prev_v) / 2.0
        self._prev_v = v
        try:  # fsum raises on an overflow or on inf - inf
            self._x = x = [math.fsum([*map(mul, row, self._x), bi * force])
                           for row, bi in zip(self._a, self._b)]
            self._v, *preview = [math.fsum(map(mul, row, x)) for row in self._rows]
        except (OverflowError, ValueError):
            raise SimulationFault("hub state overflows float range") from None
        self._preview = tuple(preview)
        return v, self._pos


def make_hub_admittance(tf: ContinuousTF, dt: float) -> HubState:
    """Discretize a strictly proper admittance with a zero-order hold.

    The realization is the controller-canonical form of ``scipy.signal.tf2ss``,
    with its arithmetic, so c is the same: A = [-den[1:]/den[0]; shifted I] and
    b = e1.  One Van Loan exponential e^{dt[[A, I, 0], [0, 0, I], [0, 0, 0]]}
    gives once = int_0^dt e^{As} ds and twice = int_0^dt int_0^s e^{Ar} dr ds,
    so Ad = I + A once and bd = once b.  Unlike scipy, a leading numerator
    coefficient of magnitude <= 1e-14 is kept.  Overflow is rejected.
    """
    dt = check_positive_finite(dt)
    if not tf.strictly_proper:
        raise ConfigurationError(
            "hub admittance must be strictly proper (numerator degree < denominator "
            "degree); a proper-but-not-strict model has direct feedthrough and closes "
            "an algebraic loop"
        )
    n = len(tf.den) - 1
    den = [d / tf.den[0] for d in tf.den]
    num = [0.0] * (n + 1 - len(tf.num)) + [v / tf.den[0] for v in tf.num]
    eye, zero = [[float(i == j) for j in range(n)] for i in range(n)], [0.0] * n
    a = [[-d for d in den[1:]]] + eye[:-1]
    c = [v - num[0] * d for v, d in zip(num[1:], den[1:])]
    block = [r + e + zero for r, e in zip(a, eye)] + [zero * 2 + e for e in eye] + [zero * 3] * n
    try:  # fsum raises on an overflow or on inf - inf; either is a ConfigurationError
        top = _expm([[dt * v for v in row] for row in block])[:n]
        once, twice = [row[n:2 * n] for row in top], [row[2 * n:] for row in top]
        ad = [[e + v for e, v in zip(*rows)] for rows in zip(eye, _matmul(a, once))]
        travel_row = _matmul([c], once)[0]
        out_rows = [c, travel_row, *_matmul([c, travel_row], ad)]
        # c twice b, c bd and travel_row bd, as b = e1 and bd is the first column of once
        hold = (_matmul([c], twice)[0][0], travel_row[0], _matmul([travel_row], once)[0][0])
        if not all(map(math.isfinite, chain(*out_rows, hold, *ad, *top))):
            raise OverflowError
    except (OverflowError, ValueError):
        raise ConfigurationError(
            f"hub realization is not finite at dt={dt!r}: a coefficient, or the "
            "growth of an unstable pole over one sample, overflows float range"
        ) from None
    return HubState(ad, [row[0] for row in once], out_rows, dt, hold)


def _matmul(p, q) -> list[list[float]]:
    cols = list(zip(*q))
    return [[math.fsum(map(mul, row, col)) for col in cols] for row in p]


def _expm(m: list[list[float]]) -> list[list[float]]:
    """e^M by an order-18 Taylor series with scaling and squaring.

    The scaling brings max(||M^4||^(1/4), ||M^5||^(1/5)) (1-norm) to <= 1, so the
    series truncates below 1e-17; ||M|| would overscale a hub's non-normal blocks
    and cost accuracy (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31(3), 2009)."""
    m2 = _matmul(m, m)
    m4 = _matmul(m2, m2)
    norms = [max(math.fsum(map(abs, col)) for col in zip(*p)) for p in (m4, _matmul(m4, m))]
    size = max(norms[0] ** 0.25, norms[1] ** 0.2)
    squarings = max(0, math.ceil(math.log2(size))) if size > 0.0 else 0
    x = [[v / 2.0 ** squarings for v in row] for row in m]
    result = eye = [[float(i == j) for j in range(len(m))] for i in range(len(m))]
    for k in range(18, 0, -1):  # Horner: I + X (I + X/2 (... (I + X/18) ...))
        result = [[e + v / k for e, v in zip(*rows)] for rows in zip(eye, _matmul(x, result))]
    for _ in range(squarings):
        result = _matmul(result, result)
    return result


class NodeState:
    """Discrete mass-damper-spring impedance, velocity in, force out.

    f[n] = m*(v[n] - v[n-1])/dt + b*v[n] + k*I[n], with I[n] the trapezoidal
    integral of v.  Each cutoff that is set adds a backward-Euler one-pole
    low-pass y[n] = y[n-1] + beta*(x[n] - y[n-1]), beta = wc*dt/(1 + wc*dt):
    ``command_cutoff`` smooths the velocity command before the node takes it,
    and ``derivative_cutoff`` filters the backward-difference term; the
    filtered inertia m*s*wc/(s+wc) keeps Re >= 0 at all frequencies, so a
    passive triple stays passive.
    """

    __slots__ = ("triple", "dt", "_prev_v", "_integral", "_command", "_command_beta",
                 "_derivative", "_derivative_beta")

    def __init__(self, triple: ImpedanceTriple, dt: float, derivative_cutoff: float | None = None,
                 command_cutoff: float | None = None):
        self.triple = triple
        self.dt = check_positive_finite(dt)
        self._prev_v = self._integral = self._command = self._derivative = 0.0
        self._command_beta = _lowpass_beta(command_cutoff, self.dt)
        self._derivative_beta = _lowpass_beta(derivative_cutoff, self.dt)

    def step(self, v: float) -> float:
        dt, prev, z = self.dt, self._prev_v, self.triple
        beta = self._command_beta
        if beta is not None:  # both low-passes inline: a helper would be called 2M times a step
            y = self._command
            v = self._command = y + beta * (v - y)
        self._integral = integral = self._integral + dt * (v + prev) / 2.0
        dv = (v - prev) / dt
        beta = self._derivative_beta
        if beta is not None:
            y = self._derivative
            dv = self._derivative = y + beta * (dv - y)
        self._prev_v = v
        return z.m * dv + z.b * v + z.k * integral


def _lowpass_beta(cutoff: float | None, dt: float) -> float | None:
    """The low-pass beta for ``cutoff``, or None where no cutoff is set."""
    if cutoff is None:
        return None
    cutoff = check_positive_finite(cutoff, "low-pass cutoff")
    return (cutoff * dt) / (1.0 + cutoff * dt)


def default_osp_grid() -> tuple[float, ...]:
    """1000 log-spaced frequencies, 1e-3 to 1e4, at numpy's ``linspace`` exponents bit for bit."""
    return (*(10.0 ** (k * (7.0 / 999) - 3.0) for k in range(999)), 10.0 ** 4.0)


def _rhp_root_count(den) -> int:
    """Roots of den (descending powers) with Re > 0, by Routh-Hurwitz.

    Roots at 0 (trailing zeros) are stripped, so an integrator counts none.  A zero
    row is replaced by the derivative of the auxiliary polynomial in the row above
    it.  A zero lead in any other row becomes a small epsilon (the epsilon method),
    which may count an imaginary-axis pair met after it as two unstable roots."""
    coeffs = list(den)
    while coeffs[-1] == 0.0:
        coeffs.pop()
    above, row = coeffs[0::2], coeffs[1::2]
    leads = [above[0]]
    for k in range(len(coeffs) - 1, 0, -1):  # above is the s^k row, row the s^(k-1) row
        if not any(row):
            row = [(k - 2 * i) * c for i, c in enumerate(above)]
        if row[0] == 0.0:
            row[0] = 1e-9 * max(map(abs, row))
        leads.append(row[0])
        above, row = row, [
            (row[0] * a - above[0] * r) / row[0] for a, r in zip(above[1:], row[1:] + [0.0])
        ]
    return sum((a < 0.0) != (b < 0.0) for a, b in zip(leads, leads[1:]))


def estimate_osp_index(tf: ContinuousTF, omega_grid=None) -> float:
    """Largest output-strict-passivity index supported on the grid.

    Returns min over the grid of Re{Y(jw)} / |Y(jw)|^2, clamped to 0 if the
    ratio goes negative anywhere (the model then contributes no guaranteed
    passive capacity).  Models with right-half-plane poles are rejected;
    poles on the imaginary axis are tolerated, but not a grid point on one,
    or on an imaginary-axis zero.
    """
    try:  # a flat sequence of numbers; a scalar, a string or a nested one raises TypeError
        grid = list(default_osp_grid() if omega_grid is None else omega_grid)
        ok = len(grid) > 0 and all(math.isfinite(w) and w > 0.0 for w in grid)
    except TypeError:
        ok = False
    if not ok:
        raise ConfigurationError(
            "frequency grid must be a nonempty flat sequence of finite positive numbers"
        )
    if _rhp_root_count(tf.den):
        raise ConfigurationError("passivity index is undefined for an unstable model")
    worst = math.inf
    for w in grid:
        s = complex(0.0, w)  # numpy's 1j * w; then Horner, as np.polyval
        n, d = (reduce(lambda acc, c: acc * s + c, p, 0j) for p in (tf.num, tf.den))
        if n == 0.0 or d == 0.0:
            raise ConfigurationError(
                f"frequency grid point {w!r} is on an imaginary-axis pole or zero of the model"
            )
        y = n / d
        try:  # abs() raises on a magnitude past float range, the division on one below it
            ratio = y.real / (abs(y) * abs(y))
        except (OverflowError, ZeroDivisionError):
            ratio = math.nan
        if not math.isfinite(ratio):
            raise ConfigurationError(f"frequency response overflows or vanishes at {w!r}")
        worst = min(worst, ratio)
    return max(0.0, worst)
