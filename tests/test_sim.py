import dataclasses
import math
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import passivenet as pn
from passivenet.errors import fold
from passivenet.lti import HubState
from passivenet.observer import HoldLedger
from passivenet.selfcheck import shipped

from conftest import (
    PASSIVE_BASELINE,
    TABLE1_DELAYS,
    TABLE1_HUB,
    TABLE1_NODES,
    driven_topology,
    per_node,
    table1_topology,
)


def test_build_estimates_hub_index():
    topo = table1_topology(xi=None)
    sim = pn.build(topo, pn.Scenario(kind="impulse", duration=1.0, dt=0.001))
    assert sim.xi == pytest.approx(15.0, abs=1e-6)


def test_build_uses_supplied_index():
    sim = pn.build(table1_topology(), pn.Scenario(kind="impulse", duration=1.0, dt=0.001))
    assert sim.xi == 12.0


def test_mismatched_weight_length_rejected():
    with pytest.raises(pn.ConfigurationError):
        table1_topology(weights=pn.WeightMatrix((1.0, 1.0)))


def test_mismatched_delay_count_rejected():
    with pytest.raises(pn.ConfigurationError):
        table1_topology(delays=TABLE1_DELAYS[:2])


def test_all_quiet_run_is_identically_zero():
    topo = PASSIVE_BASELINE
    scen = pn.Scenario(kind="external", duration=0.5, dt=0.001, samples=())
    trace, metrics = pn.build(topo, scen).run()
    assert metrics.steps == 500
    for name in trace.columns:  # every column but t and u_ext
        if name not in ("t", "u_ext"):
            assert all(v == 0.0 for v in trace.column(name)), name


def _bits(trace, group: str) -> np.ndarray:
    """The M columns of ``group`` as raw 64-bit patterns, one row per step."""
    cols = [trace.column(f"{group}{i}") for i in range(1, trace.num_nodes + 1)]
    return np.stack([np.frombuffer(c, dtype=np.uint64) for c in cols], axis=1)


def test_no_gain_path_passes_u_through(bundled_runs):
    """On every row whose gains are all +0.0, each û_i has the bytes of u_i, E_hat
    those of E_obs, and each D_i those of the row before.

    A step where no gain fires (stabilizer off, no deficit, or a deferral) takes
    û = u; u_i + 0.0 * y would write the -0.0 of a nonpassive node at rest as
    +0.0, and table1 has such rows.  Such a step books nothing in the ledger, which
    keeps the bits of the full update E_obs + 0.0 only because no E_obs or E_hat
    cell is -0.0.  With the stabilizer off, every alpha and D cell is +0.0.
    """
    scen = pn.Scenario(kind="dual-sine", duration=0.5, dt=0.001, amplitude=20.0)
    runs = {name: (cfg.topology, trace) for name, (cfg, trace, _m) in bundled_runs.items()}
    runs["driven_topology(8)"] = (driven_topology(8), pn.build(driven_topology(8), scen).run()[0])
    negative_zero = np.uint64(1 << 63)
    for name, (topo, trace) in runs.items():
        u, alpha = _bits(trace, "u"), _bits(trace, "alpha")
        idle = np.all(alpha == 0, axis=1)  # +0.0 has all bits clear
        assert idle.any(), name
        assert np.array_equal(_bits(trace, "uhat")[idle], u[idle]), name
        e_obs, e_hat = (np.frombuffer(trace.column(c), dtype=np.uint64) for c in ("E_obs", "E_hat"))
        assert np.array_equal(e_hat[idle], e_obs[idle]), name
        d = _bits(trace, "D")
        before = np.vstack([np.zeros((1, d.shape[1]), dtype=np.uint64), d[:-1]])
        assert np.array_equal(d[idle], before[idle]), name
        assert not (e_obs == negative_zero).any() and not (e_hat == negative_zero).any(), name
        if not topo.stabilizer_enabled:
            assert idle.all() and not d.any(), name
        if name == "table1.cfg":
            assert topo.stabilizer_enabled and (u[idle] == negative_zero).any()


def test_determinism_bitwise():
    scen = pn.Scenario(kind="dual-sine", duration=1.0, dt=0.001, amplitude=20.0)
    t1, m1 = pn.build(table1_topology(), scen).run()
    t2, m2 = pn.build(table1_topology(), scen).run()
    assert t1.num_nodes == t2.num_nodes and t1.data == t2.data
    assert m1 == m2


def test_system_level_share_law():
    # broadcast output makes every S_i equal, so D_i * q_i agree cumulatively
    q = (1.0, 1e-4, 1.0)
    topo = table1_topology(weights=pn.WeightMatrix(q))
    scen = pn.Scenario(kind="dual-sine", duration=3.0, dt=0.001, amplitude=20.0)
    trace, metrics = pn.build(topo, scen).run()
    assert metrics.total_injected > 0.0
    for dissipated in per_node(trace, "D"):
        prods = [d * qi for d, qi in zip(dissipated, q)]
        ref = max(abs(p) for p in prods)
        if ref == 0.0:
            continue
        assert max(prods) - min(prods) <= 1e-9 * ref


def test_unstabilized_run_diverges_and_stops_early():
    topo = table1_topology(stabilizer_enabled=False)
    scen = pn.Scenario(kind="impulse", duration=20.0, dt=0.001)
    trace, metrics = pn.build(topo, scen).run()
    assert metrics.diverged
    assert metrics.steps < scen.num_steps
    assert abs(trace.column("y")[-1]) > 1e6 or trace.column("E_obs")[-1] < -1e6


def test_step_past_duration_faults():
    sim = pn.build(table1_topology(), pn.Scenario(kind="impulse", duration=0.01, dt=0.001))
    for _ in range(10):
        sim.step()
    with pytest.raises(pn.SimulationFault):
        sim.step()


def test_dissipated_is_nondecreasing_and_sums_to_ledger():
    scen = pn.Scenario(kind="dual-sine", duration=2.0, dt=0.001, amplitude=20.0)
    sim = pn.build(table1_topology(), scen)
    trace, metrics = sim.run()
    prev = (0.0,) * 3
    for dissipated in per_node(trace, "D"):
        assert all(d >= p for d, p in zip(dissipated, prev))
        prev = dissipated
    assert np.array_equal(_bits(trace, "D")[-1], np.array(sim.ledger.dissipated).view(np.uint64))


def test_fold_is_plain_left_to_right():
    # Python 3.12's builtin sum compensates and gives 1.0 here; math.fsum gives 1.0 too
    assert fold([1e16, 1.0, -1e16]) == 0.0
    acc = 0.0
    for _ in range(10):
        acc += 0.1
    assert fold([0.1] * 10) == acc != 1.0  # the exactly rounded sum is 1.0
    trace = pn.Trace(dt=0.001, num_nodes=3)
    trace.append(0.0, 0.0, 0.0, 0.0, (0.0,) * 3, (0.0,) * 3, (0.0,) * 3,
                 (1e16, 1.0, -1e16), 0.0, 0.0)
    metrics = pn.summarize(trace, False)
    assert metrics.total_injected == 0.0 and metrics.shares == (0.0, 0.0, 0.0)


def _numpy_scalar_inputs():
    f = np.float64
    nodes = tuple(pn.ImpedanceTriple(*np.array([z.m, z.b, z.k])) for z in TABLE1_NODES)
    topo = table1_topology(nodes=nodes, xi=f(12.0), inertia_filter_cutoff=f(20.0),
                           command_filter_cutoff=f(15.0))
    return topo, pn.Scenario(kind="dual-sine", duration=f(1.0), dt=f(0.001), amplitude=f(20.0))


RECORD_RUNS = {
    "sixty_four_nodes": lambda: (
        driven_topology(),
        pn.Scenario(kind="dual-sine", duration=1.0, dt=0.001, amplitude=20.0),
    ),
    "numpy_scalar_inputs": _numpy_scalar_inputs,
}


@pytest.mark.parametrize("run", sorted(RECORD_RUNS))
def test_records_hold_only_builtin_numbers(run, tmp_path):
    # a numpy scalar in the trace or summary would be written as np.float64(...)
    # under numpy 2
    topo, scen = RECORD_RUNS[run]()
    trace, metrics = pn.build(topo, scen).run()
    assert len(trace)
    assert len(trace.columns) == 6 + 4 * topo.num_nodes
    for name in trace.columns:
        cells = trace.column(name).tolist()
        assert len(cells) == len(trace) and all(type(v) is float for v in cells), name
    for v in (metrics.min_e_hat, metrics.final_abs_y, *metrics.dissipated, *metrics.shares):
        assert type(v) is float
    pn.write_trace(trace, tmp_path / "trace.csv")
    assert "np." not in (tmp_path / "trace.csv").read_text()


def test_scenario_validation():
    with pytest.raises(pn.ConfigurationError):
        pn.Scenario(kind="square", duration=1.0, dt=0.001)
    with pytest.raises(pn.ConfigurationError):
        pn.Scenario(kind="impulse", duration=0.0, dt=0.001)
    with pytest.raises(pn.ConfigurationError):
        pn.Scenario(kind="external", duration=1.0, dt=0.001)  # samples required
    with pytest.raises(pn.ConfigurationError):
        pn.Scenario(kind="impulse", duration=1.0, dt=0.001, samples=(1.0,))
    # non-finite values, and durations that give no step or no finite step count
    for duration, dt in (
        (math.nan, 0.001), (math.inf, 0.001), (1.0, math.nan), (1.0, math.inf),
        (0.0004, 0.001), (1e300, 1e-300),
    ):
        with pytest.raises(pn.ConfigurationError):
            pn.Scenario(kind="impulse", duration=duration, dt=dt)


def test_impulse_realization():
    scen = pn.Scenario(kind="impulse", duration=1.0, dt=0.001, amplitude=2.0)
    assert scen.input_at(0) == 2000.0
    assert scen.input_at(1) == 0.0


def test_dual_sine_realization():
    scen = pn.Scenario(kind="dual-sine", duration=1.0, dt=0.001, amplitude=20.0)
    t = 0.25
    want = 20.0 * (math.sin(math.pi * t) + math.sin(0.5 * math.pi * t))
    assert scen.input_at(250) == pytest.approx(want, rel=1e-12)


def test_external_stream_pads_with_zeros():
    scen = pn.Scenario(kind="external", duration=0.01, dt=0.001, samples=(1.0, 2.0))
    assert [scen.input_at(n) for n in range(4)] == [1.0, 2.0, 0.0, 0.0]


@pytest.mark.parametrize("stabilizer", [True, False])
@pytest.mark.parametrize("amplitude", [1e100, 1e150, 1e200, 1e300])
def test_huge_external_samples_stop_with_finite_records(stabilizer, amplitude):
    # Inputs near the float range must stop the run, not crash it or leave a
    # non-finite number in the trace.
    topo = table1_topology(stabilizer_enabled=stabilizer)
    scen = pn.Scenario(
        kind="external", duration=0.05, dt=0.001, samples=(amplitude, -amplitude) * 3
    )
    trace, metrics = pn.build(topo, scen).run()
    assert metrics.diverged
    assert math.isfinite(metrics.min_e_hat)
    for name in trace.columns:
        assert all(math.isfinite(c) for c in trace.column(name)), name


_Z = TABLE1_NODES[0]

SAMPLE_PERIOD_USERS = {
    "allocate": lambda dt: pn.allocate(-1.0, np.ones(3), pn.WeightMatrix((1.0,) * 3), dt),
    "DelayLine": lambda dt: pn.DelayLine(0.1, dt),
    "NodeState.command_cutoff": lambda v: pn.NodeState(_Z, 0.001, command_cutoff=v),
    "NodeState.derivative_cutoff": lambda v: pn.NodeState(_Z, 0.001, derivative_cutoff=v),
    "make_hub_admittance": lambda dt: pn.make_hub_admittance(TABLE1_HUB, dt),
    "NodeState": lambda dt: pn.NodeState(_Z, dt),
    "EnergyLedger": lambda dt: pn.EnergyLedger(dt, 1.0, 3),
    "HoldLedger": lambda dt: HoldLedger(1.0, pn.make_hub_admittance(TABLE1_HUB, dt)),
}


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("user", sorted(SAMPLE_PERIOD_USERS))
def test_sample_period_outside_zero_to_inf_is_rejected(user, bad):
    with pytest.raises(pn.ConfigurationError, match="must be positive and finite"):
        SAMPLE_PERIOD_USERS[user](bad)


def test_ledger_credit_and_line_length_must_be_finite():
    hub = pn.make_hub_admittance(TABLE1_HUB, 0.001)
    for xi in (math.nan, math.inf, -1.0):
        with pytest.raises(pn.ConfigurationError, match="passivity index"):
            pn.EnergyLedger(0.001, xi, 3)
        with pytest.raises(pn.ConfigurationError, match="passivity index"):
            HoldLedger(xi, hub)
        with pytest.raises(pn.ConfigurationError, match="passivity index"):
            table1_topology(xi=xi)
    for num_ports in (0, 2.5, True):
        with pytest.raises(pn.ConfigurationError, match="must be an integer >= 1"):
            pn.EnergyLedger(0.001, 1.0, num_ports)
    for max_delay, dt in ((math.inf, 0.001), (math.nan, 0.001), (-0.1, 0.001),
                          (1.0, 5e-324), (1e300, 1e-300)):  # the last two overflow max_delay/dt
        with pytest.raises(pn.ConfigurationError, match="maximum delay"):
            pn.DelayLine(max_delay, dt)


def test_delay_longer_than_the_run_reads_only_cold_start_zeros():
    # each line holds at most the run's duration, so a huge finite delay costs no memory
    cfg = pn.parse_config_file(pn.bundled_config_path("table1.cfg"))
    scenario = dataclasses.replace(cfg.scenario, duration=2.0)

    def trace(offset):
        first = dataclasses.replace(cfg.topology.delays[0], offset=offset)
        topology = dataclasses.replace(cfg.topology, delays=(first, *cfg.topology.delays[1:]))
        return pn.build(topology, scenario).run()[0]

    far = trace(1e9)
    assert len(far) == 2000 and all(u == 0.0 for u in far.column("u1"))
    assert far.data == trace(2.5).data  # a round trip of 2.5 s also never returns within 2 s


def test_trace_stores_one_packed_row_per_step():
    sim = pn.build(
        driven_topology(),
        pn.Scenario(kind="dual-sine", duration=1.0, dt=0.001, amplitude=20.0),
    )
    for _ in range(800):
        sim.step()
    tracemalloc.start()  # over the last 200 steps, which reallocate the rows
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace, metrics = sim.run()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert metrics.steps == 1000 and trace.width == 6 + 4 * 64
    assert len(trace.data) == 1000 * trace.width
    # array('d') keeps 8 B a value and over-allocates by at most 1/16
    rows = 8 * trace.width * metrics.steps * 17 / 16
    assert sys.getsizeof(trace.data) <= rows + 64
    # nothing else accumulates per step (about 25 kB of state is replaced
    # while tracing)
    assert grown <= rows + 64 * 1024


def test_ports_match_a_per_port_reference_loop():
    # every port is backward(node(forward(y, d)), d) with d = leg.delay_at(t),
    # whichever ports share a frequency
    topo = driven_topology(8)
    slots = (20.0, 7.5, 0.0, 20.0, -3.0)  # four distinct frequencies over eight ports
    topo = dataclasses.replace(topo, delays=tuple(
        pn.DelayProfile(d.offset, (-1.0) ** i * d.amplitude, slots[i % 5])
        for i, d in enumerate(topo.delays)))
    scen = pn.Scenario(kind="dual-sine", duration=1.5, dt=0.001, amplitude=20.0)
    trace, metrics = pn.build(topo, scen).run()
    assert metrics.steps == 1500 and metrics.total_injected > 0.0
    legs = [delay.halved() for delay in topo.delays]
    ports = [(leg, pn.DelayLine(leg.max_delay, scen.dt),
              pn.NodeState(z, scen.dt, topo.inertia_filter_cutoff, topo.command_filter_cutoff),
              pn.DelayLine(leg.max_delay, scen.dt)) for z, leg in zip(topo.nodes, legs)]
    for t, y, got in zip(trace.column("t"), trace.column("y"), per_node(trace, "u")):
        u = []
        for leg, forward, node, backward in ports:
            d = leg.delay_at(t)
            u.append(backward.push_and_sample(node.step(forward.push_and_sample(y, d)), d))
        assert got == tuple(u)
    assert all(any(u != 0.0 for u in trace.column(f"u{i}")) for i in range(1, 9))


def test_step_makes_the_benchmarks_exact_structural_calls(monkeypatch):
    """Each step pushes 2M delay-line samples, steps M nodes and allocates once.

    This follows the exact-count table of ``bench/selftest.py`` (2M pushes, M
    node steps, one allocation per step), so a step change that would fail
    the benchmark's self-test fails here first.  Relax it together with that
    table (ROADMAP item 1).  Beyond that table, the ledger books an injection
    exactly once per fired step, a row with a nonzero gain, and never on an idle one.
    """
    calls = {"push": 0, "node": 0, "allocate": 0, "record": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(pn.DelayLine, "push_and_sample",
                        counted("push", pn.DelayLine.push_and_sample))
    monkeypatch.setattr(pn.NodeState, "step", counted("node", pn.NodeState.step))
    monkeypatch.setattr(pn.sim, "allocate", counted("allocate", pn.sim.allocate))
    monkeypatch.setattr(pn.EnergyLedger, "record_injection",
                        counted("record", pn.EnergyLedger.record_injection))
    scen = pn.Scenario(kind="dual-sine", duration=0.5, dt=0.001, amplitude=20.0)
    trace, metrics = pn.build(driven_topology(8), scen).run()
    steps = metrics.steps
    fired = sum(any(row) for row in per_node(trace, "alpha"))
    assert steps == 500 and metrics.total_injected > 0.0 and 0 < fired < steps
    assert calls == {"push": 2 * 8 * steps, "node": 8 * steps, "allocate": steps, "record": fired}


@pytest.mark.parametrize("name", ["table1_nostab.cfg", "table1.cfg"])
def test_the_hub_forms_its_next_sample_terms_only_where_they_are_read(monkeypatch, name):
    """A step of the order-2 bundled hub makes 4 ``math.fsum`` sums: 2 state rows, then
    velocity and travel.  Only the hold target reads next_sample(), 2 sums more, and it
    runs only with the stabilizer on, at most once a step."""
    cfg = pn.parse_config_file(pn.bundled_config_path(name))
    sim = pn.build(cfg.topology, dataclasses.replace(cfg.scenario, duration=1.0))
    calls = {"fsum": 0, "next_sample": 0}

    def fsum(values):
        calls["fsum"] += 1
        return math.fsum(values)

    def next_sample(hub):
        calls["next_sample"] += 1
        return read(hub)

    read = HubState.next_sample
    monkeypatch.setattr(pn.lti, "math", SimpleNamespace(**{**vars(math), "fsum": fsum}))
    monkeypatch.setattr(HubState, "next_sample", next_sample)
    steps = sim.run()[1].steps
    assert calls["fsum"] == 4 * steps + 2 * calls["next_sample"]
    if cfg.topology.stabilizer_enabled:
        assert steps == 1000 and 0 < calls["next_sample"] < steps
    else:
        assert steps == 496 and calls["next_sample"] == 0


def test_passive_baseline_converges_first_order_in_dt():
    # y sampled every 0.5 s over 5 s, against the dt = 0.25 ms run, as a fraction
    # of its scale: 1.859e-3 at 1 ms and 6.214e-4 at 0.5 ms, a ratio of 2.99
    cfg = shipped("passive_baseline.cfg")
    samples = []
    for dt in (1e-3, 5e-4, 2.5e-4):
        scen = dataclasses.replace(cfg.scenario, duration=5.0, dt=dt)
        trace, metrics = pn.build(cfg.topology, scen).run()
        assert not metrics.diverged
        samples.append(trace.column("y")[::round(0.5 / dt)])
    *coarse, fine = samples
    scale = max(map(abs, fine))
    errors = [max(abs(a - b) for a, b in zip(ys, fine)) / scale for ys in coarse]
    assert errors[1] < 1e-3
    assert 2.5 <= errors[0] / errors[1] <= 3.5
