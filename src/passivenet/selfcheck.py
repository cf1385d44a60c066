"""Built-in invariant self-test suite (the CLI's --seed-check).

Each check is deterministic (fixed RNG seed) and fast; together they cover
the allocator optimality conditions, the ledger bookkeeping identity, the
delay line, the hub's zero feedthrough, node linearity, and the passive
zero-delay baseline.
"""

from __future__ import annotations

import numpy as np

from .allocator import WeightMatrix, allocate
from .delay import DelayLine, DelayProfile
from .lti import ContinuousTF, ImpedanceTriple, NodeState, make_hub_admittance
from .observer import EnergyLedger
from .sim import Scenario, Topology, build


def _check_allocator_constraint(rng) -> bool:
    for _ in range(200):
        m = int(rng.integers(1, 7))
        e_obs = -float(10.0 ** rng.uniform(-3, 3))
        s = rng.uniform(0.0, 10.0, m)
        q = WeightMatrix(tuple(10.0 ** rng.uniform(-4, 4, m)))
        dt = float(10.0 ** rng.uniform(-4, 0))
        res = allocate(e_obs, s, q, dt)
        if not res.fired:
            if np.any(s > 0.0):
                return False
            continue
        if np.any(res.gains < 0.0):
            return False
        if abs(res.constraint_residual) > 1e-9 * abs(e_obs / dt):
            return False
    return True


def _check_allocator_scaling(rng) -> bool:
    for _ in range(100):
        m = int(rng.integers(1, 7))
        e_obs = -float(10.0 ** rng.uniform(-2, 2))
        s = rng.uniform(0.1, 10.0, m)
        qd = 10.0 ** rng.uniform(-3, 3, m)
        c = float(10.0 ** rng.uniform(-3, 3))
        a1 = allocate(e_obs, s, WeightMatrix(tuple(qd)), 1e-3).gains
        a2 = allocate(e_obs, s, WeightMatrix(tuple(c * qd)), 1e-3).gains
        denom = np.maximum(np.abs(a1), 1e-300)
        if np.max(np.abs(a1 - a2) / denom) > 1e-12:
            return False
    return True


def _check_share_law(rng) -> bool:
    for _ in range(100):
        m = int(rng.integers(2, 7))
        s_val = float(rng.uniform(0.1, 10.0))
        qd = 10.0 ** rng.uniform(-3, 3, m)
        res = allocate(-1.0, np.full(m, s_val), WeightMatrix(tuple(qd)), 1e-2)
        prods = res.gains * qd
        if np.max(np.abs(prods - prods[0])) > 1e-12 * max(1.0, abs(prods[0])):
            return False
    return True


def _check_ledger_identity(rng) -> bool:
    m = 3
    dt, xi = 1e-3, 7.5
    ledger = EnergyLedger(dt, xi, m)
    prev = 0.0
    for _ in range(500):
        y = float(rng.normal())
        u = rng.normal(size=m)
        ledger.ingest_step(y, u)
        gains = np.abs(rng.normal(size=m))
        ledger.record_injection(gains)
        u_hat = u + gains * y
        expected = dt * (xi * y * y + float(np.sum(u_hat * y)))
        if abs((ledger.controlled_energy - prev) - expected) > 1e-12 * max(
            1.0, abs(expected)
        ):
            return False
        prev = ledger.controlled_energy
    return True


def _check_delay_shift(rng) -> bool:
    dt = 0.01
    line = DelayLine(0.1, dt)
    samples = rng.normal(size=300)
    for n, sample in enumerate(samples):
        out = line.push_and_sample(float(sample), n * dt, 0.1)
        expected = float(samples[n - 10]) if n >= 10 else 0.0
        if out != expected:
            return False
    return True


def _check_hub_feedthrough(rng) -> bool:
    # Two hubs share history up to step n, receive different forces at n:
    # the velocities returned at n must be identical (no feedthrough).
    tf = ContinuousTF((1.0, 0.0), (0.5, 15.0, 1.0))
    for _ in range(20):
        hub_a = make_hub_admittance(tf, 1e-3)
        hub_b = make_hub_admittance(tf, 1e-3)
        for _ in range(int(rng.integers(1, 50))):
            f = float(rng.normal())
            hub_a.step(f)
            hub_b.step(f)
        va, _ = hub_a.step(float(rng.normal()))
        vb, _ = hub_b.step(float(rng.normal()) + 1e6)
        if va != vb:
            return False
    return True


def _check_node_linearity(rng) -> bool:
    dt = 1e-3
    z = ImpedanceTriple(10.0, 5.0, 400.0)
    u1 = rng.normal(size=200)
    u2 = rng.normal(size=200)
    a, b = 2.5, -1.25
    n1 = NodeState(z, dt)
    n2 = NodeState(z, dt)
    n3 = NodeState(z, dt)
    for x1, x2 in zip(u1, u2):
        f1 = n1.step(float(x1))
        f2 = n2.step(float(x2))
        f3 = n3.step(a * float(x1) + b * float(x2))
        if abs(f3 - (a * f1 + b * f2)) > 1e-9 * max(1.0, abs(f3)):
            return False
    return True


def _check_passive_baseline(_rng) -> bool:
    topo = Topology(
        hub=ContinuousTF((1.0, 0.0), (0.5, 15.0, 1.0)),
        nodes=(
            ImpedanceTriple(10.0, 5.0, 400.0),
            ImpedanceTriple(20.0, 10.0, 800.0),
        ),
        delays=(DelayProfile(0.0, 0.0, 0.0), DelayProfile(0.0, 0.0, 0.0)),
        weights=WeightMatrix((1.0, 1.0)),
    )
    scen = Scenario(kind="dual-sine", duration=2.0, dt=1e-3, amplitude=20.0)
    trace, metrics = build(topo, scen).run()
    if metrics.diverged or metrics.total_injected != 0.0:
        return False
    return all(r.e_obs >= 0.0 for r in trace.records)


CHECKS = [
    ("allocator constraint / nonnegativity / tolerance", _check_allocator_constraint),
    ("allocator weight-scaling invariance", _check_allocator_scaling),
    ("equal-output share law", _check_share_law),
    ("energy ledger incremental identity", _check_ledger_identity),
    ("delay line constant-delay shift equivalence", _check_delay_shift),
    ("hub zero feedthrough", _check_hub_feedthrough),
    ("node impedance linearity", _check_node_linearity),
    ("passive zero-delay baseline never fires", _check_passive_baseline),
]


def run_self_checks(verbose: bool = True) -> bool:
    rng = np.random.default_rng(20240614)
    all_ok = True
    for name, fn in CHECKS:
        ok = fn(rng)
        all_ok &= ok
        if verbose:
            print(f"[seed-check] {name}: {'ok' if ok else 'FAIL'}")
    return all_ok
