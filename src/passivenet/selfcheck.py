"""The invariant suite, run by the CLI's --seed-check and by the tests.

Each check is written once, here. It builds its own ``random.Random`` from
a fixed seed, so its instances do not depend on which checks ran before it,
and raises :class:`CheckFailed` at the first violation. Together the checks
cover the allocator's constraint, nonnegativity, weight-scaling invariance
and 1/q share law, the ledger's bookkeeping identity, the delay line, and,
on the shipped table1.cfg and passive_baseline.cfg (read when the check
runs), the hub's zero feedthrough, hub and node linearity and the baseline.
"""

from __future__ import annotations

import random
from dataclasses import replace

from .allocator import WeightMatrix, allocate, constraint_residual
from .config import RunConfig, bundled_config_path, parse_config_file
from .delay import DelayLine
from .errors import fold
from .lti import NodeState, make_hub_admittance
from .observer import EnergyLedger
from .sim import build


class CheckFailed(AssertionError):
    """An invariant check found a violation."""


def _expect(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def random_allocation(rng):
    """A random deficit instance (E_obs, S, Q, dt) over many decades."""
    m = rng.randint(1, 6)
    e_obs = -(10.0 ** rng.uniform(-3.0, 3.0))
    s = [rng.uniform(0.0, 10.0) for _ in range(m)]
    q = WeightMatrix(tuple(10.0 ** rng.uniform(-4.0, 4.0) for _ in range(m)))
    dt = 10.0 ** rng.uniform(-4.0, 0.0)
    return e_obs, s, q, dt


def shipped(name: str) -> RunConfig:
    """The bundled config ``name``, read from its file as the CLI reads it."""
    return parse_config_file(bundled_config_path(name))


def _table1_state(part: str):
    """A zero state of table1.cfg's hub, of its first node, or of that node
    behind table1's inertia filter ("hub", "node", "filtered node")."""
    cfg = shipped("table1.cfg")
    topo, dt = cfg.topology, cfg.scenario.dt
    if part == "hub":
        return make_hub_admittance(topo.hub, dt)
    cutoff = topo.inertia_filter_cutoff if part == "filtered node" else None
    return NodeState(topo.nodes[0], dt, derivative_cutoff=cutoff)


def check_allocator_constraint() -> None:
    rng = random.Random(31)
    fired = 0
    for _ in range(2000):
        e_obs, s, q, dt = random_allocation(rng)
        res = allocate(e_obs, s, q, dt)
        if not res.fired:
            _expect(not any(s), f"deferred with S = {s!r}")
            continue
        fired += 1
        _expect(min(res.gains) >= 0.0, f"negative gain in {res.gains!r}")
        residual = constraint_residual(res.gains, s, e_obs, dt)
        _expect(abs(residual) <= 1e-9 * abs(e_obs / dt),
                f"residual {residual!r} for E_obs/dt = {e_obs / dt!r}")
    _expect(fired > 1900, f"fired on only {fired} of 2000 instances")


def check_allocator_scaling() -> None:
    rng = random.Random(32)
    for _ in range(500):
        m = rng.randint(1, 6)
        e_obs = -(10.0 ** rng.uniform(-2.0, 2.0))
        s = [rng.uniform(0.1, 10.0) for _ in range(m)]
        qd = [10.0 ** rng.uniform(-3.0, 3.0) for _ in range(m)]
        c = 10.0 ** rng.uniform(-3.0, 3.0)
        a1 = allocate(e_obs, s, WeightMatrix(tuple(qd)), 1e-3).gains
        a2 = allocate(e_obs, s, WeightMatrix(tuple(c * q for q in qd)), 1e-3).gains
        _expect(
            all(abs(x2 - x1) <= 1e-12 * abs(x1) for x1, x2 in zip(a1, a2)),
            f"Q scaled by {c!r} moved the gains from {a1!r} to {a2!r}",
        )


def check_share_law() -> None:
    rng = random.Random(35)
    for _ in range(500):
        m = rng.randint(2, 6)
        s_val = rng.uniform(0.01, 10.0)
        qd = [10.0 ** rng.uniform(-3.0, 3.0) for _ in range(m)]
        res = allocate(-2.0, [s_val] * m, WeightMatrix(tuple(qd)), 1e-2)
        _expect(res.fired, f"deferred with S = {s_val!r}")
        prods = [a * q for a, q in zip(res.gains, qd)]
        _expect(
            all(abs(p - prods[0]) <= 1e-12 * abs(prods[0]) for p in prods),
            f"alpha_i * q_i not constant: {prods!r}",
        )


def check_ledger_identity() -> None:
    # each increment equals dt*(xi*y^2 + u_hat . y) with u_hat = u + alpha*y
    rng = random.Random(21)
    dt, xi, m = 1e-3, 7.5, 4
    ledger = EnergyLedger(dt, xi, m)
    prev = 0.0
    for n in range(2000):
        y = rng.gauss(0.0, 1.0)
        u = [rng.gauss(0.0, 1.0) for _ in range(m)]
        ledger.ingest_step(y, fold(u))
        gains = [abs(rng.gauss(0.0, 1.0)) for _ in range(m)]
        ledger.record_injection(gains)
        u_hat = [ui + a * y for ui, a in zip(u, gains)]
        expected = dt * (xi * y * y + sum(v * y for v in u_hat))
        got = ledger.controlled_energy - prev
        _expect(abs(got - expected) <= 1e-12, f"step {n}: increment {got!r} != {expected!r}")
        prev = ledger.controlled_energy


def check_delay_shift() -> None:
    rng = random.Random(11)
    dt = 0.01
    line = DelayLine(0.1, dt)
    samples = [rng.gauss(0.0, 1.0) for _ in range(400)]
    for n, sample in enumerate(samples):
        out = line.push_and_sample(sample, 0.1)
        expected = samples[n - 10] if n >= 10 else 0.0
        _expect(out == expected, f"sample {n}: {out!r} != {expected!r}")


def check_hub_feedthrough() -> None:
    # Two hubs share a history, then receive different forces at step n:
    # the velocities returned at n must be identical (no feedthrough).
    rng = random.Random(7)
    for _ in range(20):
        hub_a, hub_b = _table1_state("hub"), _table1_state("hub")
        for _ in range(rng.randint(1, 99)):
            f = rng.gauss(0.0, 1.0)
            hub_a.step(f)
            hub_b.step(f)
        va, _ = hub_a.step(rng.gauss(0.0, 1.0))
        vb, _ = hub_b.step(rng.gauss(0.0, 1.0) + 1e9)
        _expect(va == vb, f"velocity {va!r} != {vb!r} after different forces")


def _output(result) -> float:
    return result[0] if isinstance(result, tuple) else result


def check_linearity() -> None:
    """Superposition for table1's hub, node and filtered node, over 400 samples each."""
    for part in ("hub", "node", "filtered node"):
        rng = random.Random(5)
        u1 = [rng.gauss(0.0, 1.0) for _ in range(400)]
        u2 = [rng.gauss(0.0, 1.0) for _ in range(400)]
        a, b = 1.7, -0.6
        s1, s2, s3 = (_table1_state(part) for _ in range(3))
        for x1, x2 in zip(u1, u2):
            y1 = _output(s1.step(x1))
            y2 = _output(s2.step(x2))
            y3 = _output(s3.step(a * x1 + b * x2))
            want = a * y1 + b * y2
            _expect(
                abs(y3 - want) <= max(1e-9 * abs(want), 1e-12),
                f"{part}: response {y3!r} to the combined input != {want!r}",
            )


def check_passive_baseline() -> None:
    # the shipped passive_baseline.cfg, cut to its first 2 s
    cfg = shipped("passive_baseline.cfg")
    trace, metrics = build(cfg.topology, replace(cfg.scenario, duration=2.0)).run()
    _expect(not metrics.diverged, "diverged")
    _expect(metrics.total_injected == 0.0, f"injected {metrics.total_injected!r} J")
    _expect(all(e >= 0.0 for e in trace.column("E_obs")), "E_obs went negative")
    alphas = (trace.column(f"alpha{i}") for i in range(1, trace.num_nodes + 1))
    _expect(all(a == 0.0 for alpha in alphas for a in alpha), "a gain fired")


CHECKS = [
    ("allocator constraint / nonnegativity / tolerance", check_allocator_constraint),
    ("allocator weight-scaling invariance", check_allocator_scaling),
    ("equal-output share law", check_share_law),
    ("energy ledger incremental identity", check_ledger_identity),
    ("delay line constant-delay shift equivalence", check_delay_shift),
    ("hub zero feedthrough", check_hub_feedthrough),
    ("node impedance linearity", check_linearity),
    ("passive zero-delay baseline never fires", check_passive_baseline),
]


def run_self_checks() -> bool:
    """Run every check in CHECKS and print one line per check."""
    all_ok = True
    for name, check in CHECKS:
        try:
            check()
            status = "ok"
        except CheckFailed as exc:
            all_ok = False
            status = f"FAIL ({exc})"
        print(f"[seed-check] {name}: {status}")
    return all_ok
