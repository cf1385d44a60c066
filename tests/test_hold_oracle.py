"""An exact oracle for the hold ledger's force choice.

Each call of ``HoldLedger.required_force`` in a run is captured with the hub
and ledger state it reads, and E_x after the coming sample is rebuilt in
``Fraction`` along t = direction*(s - floor), t >= 0: E + nu*P^2/dt + s*P with
P = travel + gamma*(u_ext - s), plus the exact work of ``raw`` held over the
next sample where the hub lands on raw's side (lead - slope*t > 0, with the
code's landing margin).  Call that F.  The returned s must be the admissible
force (F >= 0) nearest ``floor`` or, where no force is admissible, a force
that maximizes F.

The rule at the cut.  Where the landing side changes, F jumps, and the best
value of a piece can be its limit at the cut, which that piece never attains.
``required_force`` then returns the cut itself, and rounding s can put it a
few ulps past the cut, on the other piece, where F is lower (by about 25 J on
case1).  So within CUT_WINDOW ulps of max(|floor|, |s|) of a cut, F takes the
larger of the two pieces' values.  Without the rule 6,541 of case1's 19,998
calls fail; with it every call of case1 and table1 passes.
"""

import dataclasses
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import passivenet as pn
from passivenet.observer import LANDING_MARGIN, HoldLedger
from passivenet.selfcheck import shipped

# F may fall short of what the checks ask by this fraction of the summed
# magnitudes of the monomials that required_force evaluates, which bound its
# rounding.  The worst shortfall over all 20 s of case1 and table1 and the
# random hubs below is 1.7e-16 of them.
TOLERANCE = 1e-12
# A force within this many ulps of max(|floor|, |s|) of a cut takes the larger piece's value.
CUT_WINDOW = 4
# Check 2 ignores admissible forces this close, relatively, to the answer: the
# root found in floating point may lie that far past the exact one.
ROOT_SLACK = Fraction(1e-9)


def _captured_run(topology, scenario) -> list:
    """Run and return every required_force call's inputs, hub and ledger state, and answer."""
    sim = pn.build(topology, scenario)
    ledger, hub = sim.hold_ledger, sim.hub
    inner, states = ledger.required_force, []

    def capture(raw, floor, u_ext, u_ext_next):
        s = inner(raw, floor, u_ext, u_ext_next)
        states.append((hub.velocity, hub.travel, *(hub.next_sample() if raw else (0.0, 0.0)),
                       hub.hold_travel, hub.hold_velocity, hub.hold_carry, ledger.credit,
                       ledger.dt, ledger.energy, raw, floor, u_ext, u_ext_next, s))
        return s

    ledger.required_force = capture
    sim.run()
    return states


def _sup(quad, lo, hi):
    """Largest a*t^2 + b*t + c on [lo, hi] (hi may be inf), or None where lo > hi."""
    a, b, c = quad
    if lo > hi:
        return None
    if hi == math.inf and (a > 0 or (a == 0 and b > 0)):
        return math.inf
    if a < 0 and lo < -b / (2 * a) < hi:
        return c - b * b / (4 * a)  # the vertex
    return max((a * t + b) * t + c for t in ([lo] if hi == math.inf else [lo, hi]))


def _sup_over(pieces, lo, hi):
    """Largest F on [lo, hi], each piece over its part of the range, or None if empty."""
    values = [_sup(quad, max(lo, p_lo), min(hi, p_hi)) for quad, p_lo, p_hi in pieces]
    return max((v for v in values if v is not None), default=None)


def _scale(state) -> float:
    """Summed magnitudes of the monomials that required_force evaluates, in floats."""
    _, travel, _, next_travel, gam, _, car, nu, dt, energy, raw, floor, u_ext, u_ext_next, s = state
    reach = max(abs(floor), abs(s))
    # nu*P^2/dt + force*P, where |P|'s monomials sum to at most m
    m = abs(travel + gam * u_ext) + abs(gam) * reach
    scale = abs(energy) + m * (nu * m / dt + reach)
    if raw:
        m = abs(next_travel + car * u_ext + gam * (u_ext_next - raw)) + abs(car) * reach
        scale += m * (nu * m / dt + abs(raw))
    return scale


def _check(state) -> tuple[bool, str | None]:
    """(whether any force is admissible, which check the answer fails or None)."""
    y, travel, next_velocity, next_travel, gam, kap, car, nu, dt, energy, raw, floor, u_ext, \
        u_ext_next, s = map(Fraction, state)
    d = 1 if y > 0 else -1
    t_s = d * (s - floor)
    if t_s < 0:
        return True, "the answer lies behind floor"
    # this sample's P = p0 + pd*t along s = floor + d*t
    p0, pd, k = travel + gam * (u_ext - floor), -gam * d, nu / dt
    here = (k * pd * pd + d * pd, 2 * k * p0 * pd + floor * pd + d * p0,
            energy + k * p0 * p0 + floor * p0)
    if raw == 0:
        pieces = [(here, 0, math.inf)]
    else:
        # raw held over the next sample: P' = q0 + qd*t
        q0, qd = next_travel + car * (u_ext - floor) + gam * (u_ext_next - raw), -car * d
        both = tuple(h + n for h, n in zip(here, (
            k * qd * qd, 2 * k * q0 * qd + raw * qd, k * q0 * q0 + raw * q0)))
        side = 1 if raw > 0 else -1
        margin = Fraction(LANDING_MARGIN) * gam * abs(raw) / dt
        lead = side * (next_velocity + kap * (u_ext - floor)) + margin
        slope = side * d * kap  # the hub lands on raw's side where lead - slope*t > 0
        if slope == 0:
            pieces = [(both if lead > 0 else here, 0, math.inf)]
        else:
            cut = lead / slope
            window = Fraction(CUT_WINDOW * math.ulp(float(max(abs(floor), abs(s)))))
            before, after = (both, here) if slope > 0 else (here, both)
            pieces = [(before, 0, cut + window), (after, max(0, cut - window), math.inf)]
    tol = Fraction(TOLERANCE * _scale(state))
    value = max((a * t_s + b) * t_s + c for (a, b, c), lo, hi in pieces if lo <= t_s <= hi)
    if value < 0 and (best := _sup_over(pieces, 0, math.inf)) < 0:  # none is admissible
        if value < best - tol:
            return False, f"F(s) = {float(value)!r} below sup F = {float(best)!r}"
        return False, None
    if value < -tol:
        return True, f"F(s) = {float(value)!r} < 0 where a force is admissible"
    nearer = _sup_over(pieces, 0, t_s * (1 - ROOT_SLACK)) if t_s > 0 else None
    if nearer is not None and nearer >= 0:
        return True, "an admissible force lies nearer floor"
    return True, None


@pytest.fixture(scope="module")
def shipped_states():
    """Every required_force call of case1's first 10 s and table1's first 1 s."""
    states = []
    for name, duration in (("case1.cfg", 10.0), ("table1.cfg", 1.0)):
        cfg = shipped(name)
        states += _captured_run(cfg.topology, dataclasses.replace(cfg.scenario, duration=duration))
    return states


def test_required_force_passes_the_exact_oracle(shipped_states):
    checked = [_check(state) for state in shipped_states]
    assert len(checked) >= 10_000
    assert [(i, failure) for i, (_, failure) in enumerate(checked) if failure] == []
    # every branch is exercised: no force is admissible on 4,476 of case1's
    # 9,998 calls, and raw is 0 on 60 of them and on 59 of table1's 999
    assert sum(not admissible for admissible, _ in checked) >= 4_000
    assert sum(state[10] == 0.0 for state in shipped_states) >= 50


def _random_stable_hub(rng: random.Random) -> pn.ContinuousTF:
    """A strictly proper hub of order 1-3: random stable poles, one complex pair at
    most, random real zeros of either sign, and a random gain of either sign."""
    order = rng.randint(1, 3)
    poles = [-(10.0 ** rng.uniform(-1.0, 3.5)) for _ in range(order)]
    if order > 1 and rng.random() < 0.5:
        sigma, omega = poles[0], 10.0 ** rng.uniform(0.0, 4.0)
        poles[:2] = [complex(sigma, omega), complex(sigma, -omega)]
    den = np.real(np.poly(poles))
    num = np.atleast_1d(np.poly([rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(0.0, 3.5)
                                 for _ in range(rng.randint(0, order - 1))]))
    num *= rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-1.0, 1.0) * den[-1] / num[-1]
    return pn.ContinuousTF(tuple(map(float, num)), tuple(map(float, den)))


def test_required_force_passes_the_exact_oracle_on_random_hubs():
    # Other hubs give other signs and sizes of hold_travel, hold_velocity and
    # hold_carry; every tenth call of a second of each keeps the cost down.
    rng = random.Random(21)
    case1 = shipped("case1.cfg")
    scenario = dataclasses.replace(case1.scenario, duration=1.0)
    states = []
    for _ in range(12):
        topology = dataclasses.replace(case1.topology, hub=_random_stable_hub(rng))
        states += _captured_run(topology, scenario)[::10]
    checked = [_check(state) for state in states]
    assert len(states) >= 500
    assert [(i, failure) for i, (_, failure) in enumerate(checked) if failure] == []
    assert {(state[4] > 0.0, state[6] > 0.0) for state in states} >= {(True, True), (False, True)}
    assert not all(admissible for admissible, _ in checked)


def _replay(state, ledger_class) -> tuple:
    """``state`` with the answer ``ledger_class`` gives from its inputs."""
    y, travel, next_velocity, next_travel, gam, kap, car, nu, dt, energy, raw, floor, u_ext, \
        u_ext_next, _ = state
    hub = SimpleNamespace(velocity=y, travel=travel, dt=dt, hold_travel=gam, hold_velocity=kap,
                          hold_carry=car, next_sample=lambda: (next_velocity, next_travel))
    ledger = ledger_class(nu, hub)
    ledger.energy = energy
    return (*state[:-1], ledger.required_force(raw, floor, u_ext, u_ext_next))


class _IgnoresNextSample(HoldLedger):
    """A planted fault: the force is chosen as if raw were 0, so the next sample goes unpriced."""

    def required_force(self, raw, floor, u_ext, u_ext_next):
        return super().required_force(0.0, floor, u_ext, u_ext_next)


def test_oracle_rejects_a_planted_fault(shipped_states):
    assert all(_replay(state, HoldLedger) == state for state in shipped_states)
    planted = (_replay(state, _IgnoresNextSample) for state in shipped_states)
    assert any(_check(state)[1] for state, real in zip(planted, shipped_states) if state != real)
