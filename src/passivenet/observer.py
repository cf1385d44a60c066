"""Centralized passivity observer: cumulative network energy bookkeeping.

Two ledgers watch the hub port.

``EnergyLedger`` is the paper's observer.  It prices each step at the
sampled hub output, one rectangle per sample: the observable energy is
E_obs[n] = E_hat[n-1] + dt*(xi*y^2 + u.y) and the controlled energy, once
the stabilizer's injection is recorded, is E_hat[n] = E_obs[n] + dt*A.S.
The net energy is accumulated directly, not formed as the raw
interconnection energy E plus the injected dissipation D: those are two
large sums of opposite sign.  The per-port D_i are kept for reporting only.

``HoldLedger`` prices the same port exactly.  The hub is a zero-order-hold
plant: the net network force s it is handed stays applied for the whole
sample while its velocity moves, so the work s does is s*P with P the exact
distance the hub travels, not s*y*dt.  The rectangle misses about
s^2*dt^2/(2m) per step (m the hub's high-frequency mass), which is
negligible while s is comparable to m*y/dt and decisive when a large held
force meets a nearly resting hub.  Its energy, credited with the hub's own
passivity index nu, is E_x = sum(nu*P^2/dt + s*P); E_x >= 0 bounds the hub's
stored energy by the work of the external input.
"""

from __future__ import annotations

import math
from operator import add

from .errors import ConfigurationError, check_credit, check_positive_finite, fold

# A predicted next sample within this fraction of the held-force speed of
# zero counts as landing on the held force's side: it leaves the rounding of
# the prediction no room to put the hub there unpriced.
LANDING_MARGIN = 1e-9


class EnergyLedger:
    """Every port sees the one hub velocity y, so port i's injection is
    dt*y^2*alpha_i; the ledger keeps these D_i, which sum to the injected D.
    """

    def __init__(self, dt: float, xi: float, num_ports: int):
        if num_ports < 1:
            raise ConfigurationError("ledger needs at least one port")
        self.dt = check_positive_finite(dt)
        self.xi = check_credit(xi)
        self.dissipated = [0.0] * num_ports  # D_i, reporting only
        self.observable_energy = 0.0  # E_obs at the last ingest
        self.controlled_energy = 0.0  # E_hat
        self._y = 0.0

    @property
    def injected_energy(self) -> float:
        """D, the sum of the per-port dissipations D_i."""
        return fold(self.dissipated)

    def ingest_step(self, y: float, raw: float) -> float:
        """Accumulate one step of raw energy and return the observable energy.

        ``y`` is the hub velocity, ``raw`` the sum of the per-port raw
        feedback.  The hub credit xi*y^2 enters once, not per port; injections
        recorded so far (through step n-1) are included via E_hat[n-1].
        """
        increment = self.dt * y * (self.xi * y + raw)
        self._y = y
        self.observable_energy = self.controlled_energy + increment
        self.controlled_energy = self.observable_energy
        return self.observable_energy

    def record_injection(self, gains) -> None:
        """Add this step's dissipation dt*y^2*alpha_i to each D_i and to E_hat.

        With every gain zero the D_i stay as they are and E_hat is
        E_obs + 0.0, the bits the full update gives (it turns -0.0 into 0.0).
        """
        if not any(gains):
            self.controlled_energy = self.observable_energy + 0.0
            return
        w = self.dt * self._y * self._y
        injected = [w * a for a in gains]
        self.dissipated = list(map(add, self.dissipated, injected))
        self.controlled_energy = self.observable_energy + fold(injected)


class HoldLedger:
    """Exact held-force energy at the hub port, and the force it requires.

    ``credit`` is the hub's passivity index nu and ``hub`` the
    :class:`passivenet.lti.HubState` whose port it prices: its sample period
    and hold constants give the run constants here, and each step reads its
    ``velocity``, ``travel`` and ``next_sample()``.
    """

    def __init__(self, credit: float, hub):
        self.credit = nu = check_credit(credit)
        self.hub = hub
        self.dt = hub.dt
        self.energy = 0.0  # E_x
        dt, gam, car = hub.dt, hub.hold_travel, hub.hold_carry
        # required_force's s^2 coefficients, p0 factor and landing margin per unit |raw|/dt
        self._here_square = nu * gam * gam / dt - gam
        self._here_scale = 1.0 - 2.0 * nu * gam / dt
        self._both_square = self._here_square + nu * car * car / dt
        self._margin = LANDING_MARGIN * gam

    def record(self, force: float, network_force: float) -> float:
        """Book the exact work of one sample held at hub force ``force``; return E_x."""
        travel = self.hub.travel + self.hub.hold_travel * force
        self.energy += self.credit * travel * travel / self.dt + network_force * travel
        return self.energy

    def target(self, raw: float, e_obs: float, u_ext: float, u_ext_next: float) -> float:
        """Energy the allocator must cancel: ``e_obs``, or -(held - raw)*y*dt, y the hub's
        velocity, where :meth:`required_force` asks for a force beyond the rectangular floor.
        Where dt*y is 0 (y is, or the product underflows) no floor exists and it is ``e_obs``."""
        y, dt = self.hub.velocity, self.dt
        if dt * y == 0.0:
            return e_obs
        floor = raw - e_obs / (dt * y) if e_obs < 0.0 else raw
        held = self.required_force(raw, floor, u_ext, u_ext_next)
        return -(held - raw) * y * dt if (held - floor) * y > 0.0 else e_obs

    def required_force(self, raw: float, floor: float, u_ext: float, u_ext_next: float) -> float:
        """Net network force to hold over the coming sample, at the hub velocity y.

        ``raw`` is the sum of the raw node forces, ``floor`` the net force at
        the gains the rectangular ledger requires.  Damping gains can only
        move the net force from ``floor`` towards sign(y)*inf, so the answer
        lies on that half-line.  A held force that opposes a nearly resting
        hub is out of the gains' reach at the step it arrives: it reverses
        the hub within the sample and hands it energy the rectangle books as
        absorbed.  So the force is chosen one sample ahead.  E_x after this
        sample plus, if the next sample lands on the side where ``raw`` would
        act unaltered, the exact work of ``raw`` held over that sample too,
        must stay >= 0.  The answer is the force nearest ``floor`` that
        achieves this or, when none does, the one that comes closest; where
        that is the limit of one side at the cut between landing sides, which
        the side never attains, the answer is the cut itself.  The first piece starts at
        s0 = floor + direction*0.0 and holds ``here`` or ``both``; where each is >= 0 at s0,
        s0 is the answer, returned before the look-ahead's landing sides are formed.
        """
        hub, nu, dt = self.hub, self.credit, self.dt
        gam, kap, car = hub.hold_travel, hub.hold_velocity, hub.hold_carry
        # exact work of this sample as a quadratic in the net force s
        p0 = hub.travel + gam * u_ext
        here = (self._here_square, p0 * self._here_scale, self.energy + nu * p0 * p0 / dt)
        direction = 1.0 if hub.velocity > 0.0 else -1.0
        if raw != 0.0:
            next_velocity, next_travel = hub.next_sample()
            # exact work of ``raw`` held over the next sample, same variable
            q0 = next_travel + car * u_ext + gam * (u_ext_next - raw)
            both = (self._both_square,
                    here[1] - car * (2.0 * nu * q0 / dt + raw),
                    here[2] + nu * q0 * q0 / dt + raw * q0)
        s0 = floor + direction * 0.0  # the floor shortcut: see the docstring
        if (here[0] * s0 + here[1]) * s0 + here[2] >= 0.0 and (
                raw == 0.0 or (both[0] * s0 + both[1]) * s0 + both[2] >= 0.0):
            return s0
        if raw == 0.0:
            pieces = [(0.0, math.inf, here)]
        else:
            # the hub lands on raw's side where side*y' > -margin, with
            # side*y'(floor + direction*t) = lead - slope*t
            side = 1.0 if raw > 0.0 else -1.0
            margin = self._margin * abs(raw) / dt
            lead = side * (next_velocity + kap * (u_ext - floor)) + margin
            slope = side * direction * kap
            cut = lead / slope if slope != 0.0 else math.inf
            if 0.0 < cut < math.inf:
                pieces = [(0.0, cut, both if lead > 0.0 else here),
                          (cut, math.inf, here if lead > 0.0 else both)]
            else:  # one status for every t > 0
                pieces = [(0.0, math.inf, both if lead - slope > 0.0 else here)]

        best_t, best_value = 0.0, -math.inf
        for lo, hi, (a, b, c) in pieces:
            s0 = floor + direction * lo  # the piece as a quadratic in t, s = s0 + direction*t
            t, value = _reach(a, direction * (2.0 * a * s0 + b), (a * s0 + b) * s0 + c, hi - lo)
            if value is None:
                return floor + direction * (lo + t)
            if value > best_value:
                best_t, best_value = lo + t, value
        return floor + direction * best_t


def _reach(a: float, b: float, c: float, length: float):
    """(t, None) for the smallest t in [0, length) with q(t) = a*t^2 + b*t + c >= 0;
    where there is none, (t, q(t)) for the t in [0, length] maximizing q (length may be inf)."""
    if c >= 0.0:
        return 0.0, None
    if a == 0.0 and b > 0.0 and -c / b < length:
        return -c / b, None
    if a != 0.0 and (disc := b * b - 4.0 * a * c) >= 0.0:
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        other = c / q if q else math.sqrt(max(0.0, -c / a))  # q is 0 where b, a*c underflow
        roots = [r for r in (q / a, other) if 0.0 < r < length]
        if roots:
            return min(roots), None
    candidates = [0.0, length] if math.isfinite(length) else [0.0]
    if a < 0.0 and 0.0 < (vertex := -b / (2.0 * a)) < length:
        candidates.append(vertex)
    t = max(candidates, key=lambda t: (a * t + b) * t)
    return t, (a * t + b) * t + c
