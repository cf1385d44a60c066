import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import passivenet as pn
from passivenet import observer
from passivenet.errors import fold
from passivenet.observer import HoldLedger, _reach
from passivenet.selfcheck import shipped

from conftest import TABLE1_HUB, per_node


def test_all_zero_signals():
    ledger = pn.EnergyLedger(0.001, 15.0, 3)
    for _ in range(100):
        assert ledger.ingest_step(0.0, fold(np.zeros(3))) == 0.0
        ledger.record_injection(np.zeros(3))
    assert ledger.controlled_energy == 0.0


def test_single_port_worked_example():
    ledger = pn.EnergyLedger(0.01, 15.0, 1)
    e_obs = ledger.ingest_step(1.0, fold([-20.0]))
    assert e_obs == pytest.approx(-0.05, rel=1e-12)


def test_cancellation_example():
    ledger = pn.EnergyLedger(0.01, 0.0, 3)
    e_obs = ledger.ingest_step(2.0, fold([1.0, -1.0, 0.0]))
    assert e_obs == pytest.approx(0.0, abs=1e-15)


def test_injection_balances_deficit():
    ledger = pn.EnergyLedger(0.01, 15.0, 1)
    e_obs = ledger.ingest_step(1.0, fold([-20.0]))
    assert e_obs == pytest.approx(-0.05, rel=1e-12)
    ledger.record_injection([5.0])  # A'S = 5 with S = y^2 = 1, dt*A'S = 0.05
    assert ledger.controlled_energy == pytest.approx(0.0, abs=1e-15)


def test_zero_injection_keeps_e_hat_at_e_obs():
    ledger = pn.EnergyLedger(0.01, 2.0, 2)
    e_obs = ledger.ingest_step(1.0, fold([-3.0, 1.0]))
    ledger.record_injection([0.0, 0.0])
    assert ledger.controlled_energy == e_obs


def test_injections_accumulate():
    ledger = pn.EnergyLedger(0.01, 0.0, 1)
    for _ in range(2):
        ledger.ingest_step(1.0, fold([0.0]))
        ledger.record_injection([1.0])
    assert ledger.injected_energy == pytest.approx(0.02, rel=1e-12)


def test_observable_energy_excludes_current_injection():
    dt, y, u = 0.01, 1.0, [-1.0]
    raw_increment = dt * y * sum(u)  # xi = 0
    ledger = pn.EnergyLedger(dt, 0.0, 1)
    ledger.ingest_step(y, fold(u))
    ledger.record_injection([1.0])
    d_after_first = ledger.injected_energy
    e_obs = ledger.ingest_step(y, fold(u))
    # E_obs carries injections through the previous step only
    assert e_obs == pytest.approx(2.0 * raw_increment + d_after_first, rel=1e-12)


def test_net_ledger_survives_large_opposing_energies():
    # Raw and injected energies grow to about -/+1e8 J while E_hat stays near
    # zero; E_hat must still equal the exact sum of the per-step increments.
    # Each increment is priced as the ledger prices it, dt*y*(xi*y + sum(u))
    # and dt*y^2*alpha_i: other roundings of the same increment (sum(u_i*y),
    # say) drift about 2e-9 apart over 20 000 terms of 1e5 J.
    rng = np.random.default_rng(5)
    dt, xi, m = 0.001, 12.0, 3
    ledger = pn.EnergyLedger(dt, xi, m)
    increments, raw_increments = [], []
    for n in range(1, 10_001):
        y = float(rng.uniform(50.0, 150.0)) * (1.0 if n % 2 else -1.0)
        u = -y * rng.uniform(1e3, 2e3, size=m)
        e_obs = ledger.ingest_step(y, fold(u))
        raw_increments.append(dt * y * (xi * y + float(np.sum(u))))
        increments.append(raw_increments[-1])
        gains = np.full(m, -e_obs / (dt * m * y * y)) * rng.uniform(1.0, 1.001)
        ledger.record_injection(gains)
        increments.extend(((dt * y * y) * gains).tolist())
        if n % 1000 == 0:
            assert abs(ledger.controlled_energy - math.fsum(increments)) <= 1e-9
    assert math.fsum(raw_increments) < -1e8 and ledger.injected_energy > 1e8


def test_hold_ledger_books_exact_work():
    hub = pn.make_hub_admittance(TABLE1_HUB, 0.001)
    ledger = HoldLedger(15.0, hub)
    # a resting hub travels hold_travel * F under a held hub force F
    travel_force = 0.002 / hub.hold_travel
    assert ledger.record(travel_force, -3.0) == pytest.approx(15.0 * 0.002**2 / 0.001 - 0.006)
    travel_force = -0.001 / hub.hold_travel
    assert ledger.record(travel_force, 4.0) == pytest.approx(0.054 + 0.015 - 0.004)


def _two_sample_energy(push, s, raw, u_ext, u_ext_next, nu, dt, start):
    """E_x after holding net force s, then raw if the hub lands on raw's side."""
    hub = pn.make_hub_admittance(TABLE1_HUB, dt)
    hub.step(push)
    travel = hub.travel + hub.hold_travel * (u_ext - s)
    energy = start + nu * travel**2 / dt + s * travel
    hub.step(u_ext - s)
    if raw * hub.velocity > 0.0:
        travel = hub.travel + hub.hold_travel * (u_ext_next - raw)
        energy += nu * travel**2 / dt + raw * travel
    return energy


def test_required_force_is_the_floor_with_energy_to_spare():
    dt = 0.001
    hub = pn.make_hub_admittance(TABLE1_HUB, dt)
    hub.step(1.0 / hub.hold_velocity)  # moving at 1 m/s
    ledger = HoldLedger(15.0, hub)
    ledger.energy = 100.0
    floor = -12.0 * hub.velocity
    assert ledger.required_force(50.0, floor, 3.0, 3.0) == floor


def test_required_force_prices_a_held_force_meeting_a_resting_hub():
    # A 2 kN raw force that opposes a hub moving at 6 mm/s reverses it
    # within one held sample.  The rectangular floor lets the hub land there;
    # the required force keeps the two-sample exact energy nonnegative.
    dt, nu, start = 0.001, 15.0, 1.0
    hub = pn.make_hub_admittance(TABLE1_HUB, dt)
    push = 0.006 / hub.hold_velocity
    hub.step(push)
    ledger = HoldLedger(nu, hub)
    ledger.energy = start
    y, raw, u_ext, u_ext_next = hub.velocity, -1926.0, -4.7, -4.73
    floor = -12.0 * y  # the rectangular ledger cancels raw down to -xi*y
    s = ledger.required_force(raw, floor, u_ext, u_ext_next)
    assert (s - floor) * y > 0.0
    at_floor = _two_sample_energy(push, floor, raw, u_ext, u_ext_next, nu, dt, start)
    at_s = _two_sample_energy(push, s, raw, u_ext, u_ext_next, nu, dt, start)
    assert at_floor < -1.0
    assert at_s >= -1e-9


def test_hold_ledger_reads_its_sample_period_from_the_hub():
    hub = pn.make_hub_admittance(TABLE1_HUB, 0.002)
    assert HoldLedger(15.0, hub).dt == hub.dt == 0.002


def test_target_is_e_obs_where_the_hold_does_not_bind():
    dt = 0.001
    hub = pn.make_hub_admittance(TABLE1_HUB, dt)
    ledger = HoldLedger(15.0, hub)
    assert hub.velocity == 0.0
    assert ledger.target(50.0, -0.5, 3.0, 3.0) == -0.5
    hub.step(1.0 / hub.hold_velocity)  # moving at 1 m/s
    ledger.energy = 100.0
    for e_obs in (-0.5, 0.25):
        assert ledger.target(50.0, e_obs, 3.0, 3.0) == e_obs
    hub = pn.make_hub_admittance(TABLE1_HUB, dt)
    hub.step(1e-321 / hub.hold_velocity)  # y != 0, but dt*y underflows to 0
    assert hub.velocity != 0.0 == dt * hub.velocity
    assert HoldLedger(15.0, hub).target(50.0, -0.5, 3.0, 3.0) == -0.5


def test_target_prices_the_held_force_where_the_hold_binds():
    # the resting-hub case of test_required_force_prices_a_held_force_meeting_a_resting_hub,
    # with the E_obs whose rectangular floor is -12*y
    dt, nu = 0.001, 15.0
    hub = pn.make_hub_admittance(TABLE1_HUB, dt)
    hub.step(0.006 / hub.hold_velocity)
    ledger = HoldLedger(nu, hub)
    ledger.energy = 1.0
    y, raw, u_ext, u_ext_next = hub.velocity, -1926.0, -4.7, -4.73
    e_obs = (raw + 12.0 * y) * dt * y
    floor = raw - e_obs / (dt * y)
    held = ledger.required_force(raw, floor, u_ext, u_ext_next)
    assert (held - floor) * y > 0.0
    target = ledger.target(raw, e_obs, u_ext, u_ext_next)
    assert target == -(held - raw) * y * dt < e_obs < 0.0


@pytest.mark.parametrize("name, solves", [
    ("table1.cfg", False), ("passive_baseline.cfg", False), ("case1.cfg", True),
])
def test_the_look_ahead_is_solved_only_where_the_floor_fails(name, solves, monkeypatch):
    # where the rectangular floor holds on every step, required_force returns it before
    # the look-ahead, so _reach is never called; case1's hold ledger binds from 2.66 s on
    required, reached, solve = [], [], HoldLedger.required_force
    monkeypatch.setattr(HoldLedger, "required_force",
                        lambda self, *args: required.append(args) or solve(self, *args))
    monkeypatch.setattr(observer, "_reach", lambda *args: reached.append(args) or _reach(*args))
    cfg = shipped(name)
    _, metrics = pn.build(cfg.topology, dataclasses.replace(cfg.scenario, duration=3.0)).run()
    assert metrics.steps == 3000 and len(required) > 2900
    assert (len(reached) > 0) == solves


def test_first_nonnegative_root_where_the_discriminant_underflows():
    # b = 0 and 4*a*c underflows, so b*b - 4*a*c is 0: the root of 1e-200*(t^2 - 1) is 1
    assert _reach(1e-200, 0.0, -1e-200, math.inf) == (1.0, None)


# Replayed E_hat may differ from the trace's by at most this, in J.  500 steps
# of case1 (|E_hat| up to 8.67 J, 175 firing steps) measure 3.7e-15 J and
# table1 3.0e-16 J, so the bound leaves a margin of 27x; one dropped injection
# of 1e-6 J or more is ten million times the bound.
REPLAY_BOUND = 1e-13


def _replay_drift(trace) -> tuple[float, float]:
    """Largest |E_hat - replay| over the steps, for the exact sum of the rounded
    increments the ledger forms and for the exact sum of the exact increments,
    both replayed in Fraction from the trace's y, u and alpha."""
    dt, xi = trace.dt, trace.xi
    exact_dt, exact_xi = Fraction(dt), Fraction(xi)
    rounded = exact = Fraction(0)
    worst_rounded = worst_exact = 0.0
    rows = zip(trace.column("y"), per_node(trace, "u"), per_node(trace, "alpha"),
               trace.column("E_hat"))
    for y, u, alpha, e_hat in rows:
        rounded += Fraction(dt * y * (xi * y + fold(u)))
        rounded += Fraction(fold([dt * y * y * a for a in alpha]))
        fy = Fraction(y)
        exact += exact_dt * fy * (exact_xi * fy + sum(map(Fraction, u)))
        exact += exact_dt * fy * fy * sum(map(Fraction, alpha))
        e_hat = Fraction(e_hat)
        worst_rounded = max(worst_rounded, abs(float(e_hat - rounded)))
        worst_exact = max(worst_exact, abs(float(e_hat - exact)))
    return worst_rounded, worst_exact


class _DropOneInjection(pn.EnergyLedger):
    """A planted fault: the ledger skips the first injection of 1e-6 J or more."""

    dropped = False

    def record_injection(self, gains) -> None:
        if not self.dropped and self.dt * self._y * self._y * fold(gains) >= 1e-6:
            self.dropped = True
            self.controlled_energy = self.observable_energy
            return
        super().record_injection(gains)


@pytest.mark.parametrize("name", ["case1.cfg", "table1.cfg"])
def test_ledger_matches_an_exact_replay(name):
    cfg = shipped(name)
    scen = dataclasses.replace(cfg.scenario, duration=500 * cfg.scenario.dt)
    trace, metrics = pn.build(cfg.topology, scen).run()
    assert metrics.steps == 500 and metrics.total_injected > 0.0
    assert max(_replay_drift(trace)) <= REPLAY_BOUND

    planted = pn.build(cfg.topology, scen)
    planted.ledger = _DropOneInjection(scen.dt, planted.xi, cfg.topology.num_nodes)
    trace, _ = planted.run()
    assert planted.ledger.dropped
    assert min(_replay_drift(trace)) > REPLAY_BOUND
