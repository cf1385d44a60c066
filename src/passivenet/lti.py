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
import struct
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, dropwhile, product, zip_longest
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

    ``velocity`` is the output c x of the current state, the sample shown
    before any force is absorbed; ``step(force)`` returns (velocity,
    position) and then advances the state, so the returned velocity is
    independent of the force passed in.  Position is the trapezoidal running
    integral of the velocity samples.  The matrices and the state are lists
    of floats and every product is an exactly rounded ``math.fsum``, so a
    step gives the same bits on any CPU.

    The realization gives the exact continuous-time motion under held
    forces.  With F held over the coming sample and F' over the one after,
    the hub travels ``travel + hold_travel * F`` during the coming sample
    (the integral of its velocity, not ``dt`` times the sample), its next
    velocity sample is ``next_velocity + hold_velocity * F``, and it then
    travels ``next_travel + hold_carry * F + hold_travel * F'``.  Each step
    stores ``velocity`` and ``travel``; ``next_sample()`` forms the other two
    terms when it is called.
    """

    def __init__(self, a: list, b: list, rows: list, dt: float, hold: tuple):
        self._state_rows = tuple(zip(a, b))  # each row of Ad with its entry of bd
        self._x = [0.0] * len(b)
        self.dt = dt
        self._pos = 0.0
        self._rows, self._next_rows = rows[:2], rows[2:]  # c, travel_row; c Ad, travel_row Ad
        self.hold_travel, self.hold_velocity, self.hold_carry = hold
        self.velocity = self.travel = 0.0  # the outputs of the zero state

    def next_sample(self) -> tuple[float, float]:
        """(next_velocity, next_travel), the free terms of the sample after the coming one."""
        (velocity_row, travel_row), x = self._next_rows, self._x
        try:  # fsum raises on an overflow or on inf - inf
            return math.fsum(map(mul, velocity_row, x)), math.fsum(map(mul, travel_row, x))
        except (OverflowError, ValueError):
            raise SimulationFault("hub state overflows float range") from None

    def step(self, force: float) -> tuple[float, float]:
        v, pos = self.velocity, self._pos
        try:  # fsum raises on an overflow or on inf - inf
            self._x = x = [math.fsum([*map(mul, row, self._x), bi * force])
                           for row, bi in self._state_rows]
            self.velocity, self.travel = [math.fsum(map(mul, row, x)) for row in self._rows]
        except (OverflowError, ValueError):
            raise SimulationFault("hub state overflows float range") from None
        self._pos = pos + self.dt * (v + self.velocity) / 2.0
        return v, pos


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


def _rhp_root_count(den) -> int:
    """Roots of den (descending powers) with Re > 0, counted exactly.

    The coefficients are scaled to integers, so the count is integer
    arithmetic.  Roots at 0 (trailing zeros) are stripped, so an integrator
    counts none.  Write p(jw) = R(w) + jI(w) and n = deg p.  Routh's test in
    its Sturm-chain form runs the chain of f0 = R, f1 = I (f0 = I, f1 = R for
    odd n), whose signs at +-inf give the Cauchy index of f1/f0 through any
    degree drop, a zero lead in a nonzero Routh row among them.  Its last term
    d(w) = gcd(R, I) = g(jw), where g = gcd(p(s), p(-s)) = h(s^2) holds the
    roots mirrored through 0.  For q = p/g, n_L - n_R = -index (even n) or
    +index (odd n).  Each root z of h puts one of the pair +-sqrt(z) in each
    half-plane, unless z < 0 puts both on the imaginary axis, where they count
    none, repeated or not; those are the real roots of d, counted with
    multiplicity.
    """
    p, = _integer_coefficients(den)
    while p[-1] == 0:
        p.pop()
    n = len(p) - 1
    c = p[::-1]  # ascending, so p(jw) is the sum of c[k] j^k w^k
    real, imag = ([(-1) ** (k // 2) * v if k % 2 == odd else 0 for k, v in enumerate(c)][::-1]
                  for odd in (0, 1))
    sturm = _sturm(imag, real) if n % 2 else _sturm(real, imag)  # f0 of degree n first
    index = _sign_changes(sturm, -1) - _sign_changes(sturm, 1)
    d = f = sturm[-1]
    axis = 0
    while len(f) > 1:  # the real roots of d, each once per multiplicity
        chain = _root_chain(f)
        axis += _sign_changes(chain, -1) - _sign_changes(chain, 1)
        f = chain[-1]
    mirrored = len(d) - 1
    return (n - mirrored + (-index if n % 2 else index)) // 2 + (mirrored - axis) // 2


def _sturm(f0: list, f1: list) -> list:
    """The chain f0, f1, -rem(f0, f1), ... down to the last nonzero remainder.

    Integer coefficients, descending, f0[0] != 0.  Each remainder is that of
    k*f0 for an integer k > 0, divided by the gcd of its coefficients, so its
    signs are those of the exact remainder."""
    sturm = [f0]
    while any(f1):
        f1 = list(dropwhile(lambda c: c == 0, f1))
        sturm.append(f1)
        lead, sign = abs(f1[0]), 1 if f1[0] > 0 else -1
        rest = f0
        while len(rest) >= len(f1):
            q = sign * rest[0]
            rest = [lead * r - q * v for r, v in zip(rest[1:], f1[1:] + [0] * (len(rest) - len(f1)))]
        content = math.gcd(*rest) or 1
        f0, f1 = f1, [-c // content for c in rest]
    return sturm


def _integer_coefficients(*polys) -> list[list[int]]:
    """``polys`` times one power of two, the largest denominator of their floats."""
    ratios = [[float(c).as_integer_ratio() for c in p] for p in polys]
    scale = max(d for r in ratios for _, d in r)
    return [[n * (scale // d) for n, d in r] for r in ratios]


def _root_chain(f: list) -> list:
    """The Sturm chain of f and f', whose sign changes count f's distinct real roots."""
    return _sturm(f, [c * (len(f) - 1 - i) for i, c in enumerate(f[:-1])])


def _sign_changes(sturm: list, at: int) -> int:
    """Sign changes along a Sturm chain at -inf (``at`` = -1), +inf (1) or just above 0 (0)."""
    signs = [(f[0] * at ** (len(f) - 1) if at else [c for c in f if c][-1]) > 0 for f in sturm]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _re_conj_product(f: list, g: list) -> list:
    """Re[f(jw) conj(g(jw))] ascending in x = w^2, for f and g ascending in s: the term
    f_a g_b j^a (-j)^b w^(a+b) is real where a - b is even, and is then (-1)^((a-b)/2)."""
    out = [0] * ((len(f) + len(g)) // 2)
    for (a, fa), (b, gb) in product(enumerate(f), enumerate(g)):
        if (a - b) % 2 == 0:
            out[(a + b) // 2] += (-1) ** (abs(a - b) // 2) * fa * gb
    return out


def estimate_osp_index(tf: ContinuousTF) -> float:
    """A certified lower bound on the output-strict-passivity index of Y = num/den.

    The index is the infimum over w > 0 of Re Y(jw)/|Y(jw)|^2 = Re Z(jw), Z = 1/Y, clamped
    at 0; an unstable model is rejected.  With x = w^2, Re Z(jw) = P(x)/Q(x), where
    P = Re[den conj(num)] and Q = |num|^2 are integers once num and den share one power
    of two.  A double nu = m/2^e passes when 2^e P - m Q has no root on (0, inf), by a
    Sturm chain, and is positive there.  The largest passing double, found by bisecting
    the bit patterns of the nonnegative doubles, is never above the index.  It is the
    double below an infimum attained at a w > 0 (14.999999999999998 for the bundled hub,
    whose Re Z is 15 at every w), and may equal one approached as w -> 0 or inf.  It is
    0.0 where nu = 0 fails: an integrator has Re Z = 0, Z vanishes at an imaginary-axis
    pole of Y, and at an imaginary-axis zero of Y, P and Q share a root that no nu
    clears, so 0.0 is the one bound that holds there.
    """
    if _rhp_root_count(tf.den):
        raise ConfigurationError("passivity index is undefined for an unstable model")
    num, den = (p[::-1] for p in _integer_coefficients(tf.num, tf.den))
    pq = list(zip_longest(_re_conj_product(den, num), _re_conj_product(num, num), fillvalue=0))

    def passes(bits: int) -> bool:  # bits: the IEEE pattern of a nonnegative double nu
        m, scale = struct.unpack("<d", struct.pack("<Q", bits))[0].as_integer_ratio()
        f = list(dropwhile(lambda c: c == 0, [scale * p - m * q for p, q in reversed(pq)]))
        if not f or f[0] < 0:  # Re Z = nu at every w, or P = Q = 0; or negative past some w
            return False
        chain = _root_chain(f)
        return _sign_changes(chain, 0) == _sign_changes(chain, 1)

    first_fail = bisect_left(range(0x7FF0000000000000), True, key=lambda bits: not passes(bits))
    return struct.unpack("<d", struct.pack("<Q", max(first_fail - 1, 0)))[0]  # 0.0 if 0.0 fails
