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
from passivenet.selfcheck import passive_topology

from conftest import (
    TABLE1_DELAYS,
    TABLE1_HUB,
    TABLE1_NODES,
    driven_topology,
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
    topo = passive_topology()
    scen = pn.Scenario(kind="external", duration=0.5, dt=0.001, samples=())
    trace, metrics = pn.build(topo, scen).run()
    assert metrics.steps == 500
    for rec in trace.records:
        assert rec.y == 0.0 and rec.x == 0.0 and rec.e_obs == 0.0 and rec.e_hat == 0.0
        assert all(v == 0.0 for v in rec.u + rec.u_hat + rec.alpha + rec.dissipated)


def test_stabilizer_off_equivalence():
    topo = table1_topology(stabilizer_enabled=False)
    scen = pn.Scenario(kind="impulse", duration=0.3, dt=0.001)
    trace, _ = pn.build(topo, scen).run()
    assert len(trace.records) > 0
    for rec in trace.records:
        assert rec.u_hat == rec.u
        assert all(a == 0.0 for a in rec.alpha)
        assert all(d == 0.0 for d in rec.dissipated)


def test_determinism_bitwise():
    scen = pn.Scenario(kind="dual-sine", duration=1.0, dt=0.001, amplitude=20.0)
    t1, m1 = pn.build(table1_topology(), scen).run()
    t2, m2 = pn.build(table1_topology(), scen).run()
    assert t1.records == t2.records
    assert m1 == m2


def test_system_level_share_law():
    # broadcast output makes every S_i equal, so D_i * q_i agree cumulatively
    q = (1.0, 1e-4, 1.0)
    topo = table1_topology(weights=pn.WeightMatrix(q))
    scen = pn.Scenario(kind="dual-sine", duration=3.0, dt=0.001, amplitude=20.0)
    trace, metrics = pn.build(topo, scen).run()
    assert metrics.total_injected > 0.0
    for rec in trace.records:
        prods = [d * qi for d, qi in zip(rec.dissipated, q)]
        ref = max(abs(p) for p in prods)
        if ref == 0.0:
            continue
        assert max(prods) - min(prods) <= 1e-9 * ref


def _resummed_e_hat(trace):
    total = 0.0
    out = []
    m = trace.num_nodes
    for rec in trace.records:
        y_vec = np.full(m, rec.y)
        total += trace.dt * (
            trace.xi * rec.y * rec.y + float(np.dot(np.asarray(rec.u_hat), y_vec))
        )
        out.append(total)
    return out


@pytest.mark.parametrize("stabilizer", [True, False])
def test_energy_audit_resummation(stabilizer):
    topo = table1_topology(stabilizer_enabled=stabilizer)
    scen = pn.Scenario(kind="impulse", duration=2.0, dt=0.001)
    trace, _ = pn.build(topo, scen).run()
    resummed = _resummed_e_hat(trace)
    for rec, want in zip(trace.records, resummed):
        assert rec.e_hat == pytest.approx(want, abs=1e-9)


def test_unstabilized_run_diverges_and_stops_early():
    topo = table1_topology(stabilizer_enabled=False)
    scen = pn.Scenario(kind="impulse", duration=20.0, dt=0.001)
    trace, metrics = pn.build(topo, scen).run()
    assert metrics.diverged
    assert metrics.steps < scen.num_steps
    last = trace.records[-1]
    assert abs(last.y) > 1e6 or last.e_obs < -1e6


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
    for rec in trace.records:
        assert all(d >= p for d, p in zip(rec.dissipated, prev))
        prev = rec.dissipated
    assert sum(prev) == pytest.approx(sim.ledger.injected_energy, rel=1e-12, abs=1e-300)


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


def _bundled_second(name):
    cfg = pn.parse_config_file(pn.bundled_config_path(name))
    return cfg.topology, dataclasses.replace(cfg.scenario, duration=1.0)


RECORD_RUNS = {
    "table1": lambda: _bundled_second("table1.cfg"),
    "table1_nostab": lambda: _bundled_second("table1_nostab.cfg"),
    "sixty_four_nodes": lambda: (
        driven_topology(),
        pn.Scenario(kind="dual-sine", duration=1.0, dt=0.001, amplitude=20.0),
    ),
    "numpy_scalar_inputs": _numpy_scalar_inputs,
}


@pytest.mark.parametrize("run", sorted(RECORD_RUNS))
def test_records_hold_only_builtin_numbers(run, tmp_path):
    # a numpy scalar in a record would be written as np.float64(...) under numpy 2
    topo, scen = RECORD_RUNS[run]()
    trace, _ = pn.build(topo, scen).run()
    assert trace.records
    for rec in trace.records:
        assert type(rec.n) is int
        for name in ("t", "u_ext", "y", "x", "e_obs", "e_hat"):
            assert type(getattr(rec, name)) is float, name
        for name in ("u", "u_hat", "alpha", "dissipated"):
            cells = getattr(rec, name)
            assert type(cells) is tuple and len(cells) == topo.num_nodes, name
            assert all(type(v) is float for v in cells), name
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
    for rec in trace.records:
        cells = (rec.t, rec.u_ext, rec.y, rec.x, rec.e_obs, rec.e_hat)
        cells += rec.u + rec.u_hat + rec.alpha + rec.dissipated
        assert all(math.isfinite(c) for c in cells)


_Z = pn.ImpedanceTriple(10.0, 5.0, 400.0)

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
    for xi in (math.nan, math.inf, -1.0):
        with pytest.raises(pn.SimulationFault, match="passivity index"):
            pn.EnergyLedger(0.001, xi, 3)
    for max_delay in (math.inf, math.nan, -0.1):
        with pytest.raises(pn.ConfigurationError, match="maximum delay"):
            pn.DelayLine(max_delay, 0.001)


def test_delay_longer_than_the_run_reads_only_cold_start_zeros():
    # each line holds at most the run's duration, so a huge finite delay costs no memory
    cfg = pn.parse_config_file(pn.bundled_config_path("table1.cfg"))
    scenario = dataclasses.replace(cfg.scenario, duration=2.0)

    def records(offset):
        first = dataclasses.replace(cfg.topology.delays[0], offset=offset)
        topology = dataclasses.replace(cfg.topology, delays=(first, *cfg.topology.delays[1:]))
        return pn.build(topology, scenario).run()[0].records

    far = records(1e9)
    assert len(far) == 2000 and all(rec.u[0] == 0.0 for rec in far)
    assert far == records(2.5)  # a round trip of 2.5 s also never returns within 2 s


def test_records_view_is_a_lazy_read_only_sequence():
    scen = pn.Scenario(kind="dual-sine", duration=0.6, dt=0.001, amplitude=20.0)
    trace, metrics = pn.build(table1_topology(), scen).run()
    records = trace.records
    assert len(records) == metrics.steps == 600 and records
    listed = list(records)
    assert [rec.n for rec in listed] == list(range(600))
    assert records[-1] == records[599] == listed[-1]
    assert records[-600] == records[0] == listed[0]
    for n in (-601, 600):
        with pytest.raises(IndexError):
            records[n]
    with pytest.raises(TypeError):
        records[0] = listed[1]
    assert not hasattr(records, "append")
    assert records[-1].y == trace.data[-trace.width + 2]
    assert type(records[-1]) is pn.StepRecord and type(records[-1].u) is tuple

    again, _ = pn.build(table1_topology(), scen).run()
    assert records == again.records and list(again.records) == listed
    louder = dataclasses.replace(scen, amplitude=21.0)
    assert records != pn.build(table1_topology(), louder).run()[0].records
    assert not pn.Trace(dt=0.001, num_nodes=3).records


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
    for rec in trace.records:
        u = []
        for leg, forward, node, backward in ports:
            d = leg.delay_at(rec.t)
            u.append(backward.push_and_sample(node.step(forward.push_and_sample(rec.y, d)), d))
        assert rec.u == tuple(u)
    assert all(any(rec.u[i] != 0.0 for rec in trace.records) for i in range(8))


def test_step_makes_the_benchmarks_exact_structural_calls(monkeypatch):
    """Each step pushes 2M delay-line samples, steps M nodes and allocates once.

    This follows the exact-count table of ``bench/selftest.py`` (2M pushes, M
    node steps, one allocation per step), so a step change that would fail
    the benchmark's self-test fails here first.  Relax it together with that
    table (ROADMAP item 1).
    """
    calls = {"push": 0, "node": 0, "allocate": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(pn.DelayLine, "push_and_sample",
                        counted("push", pn.DelayLine.push_and_sample))
    monkeypatch.setattr(pn.NodeState, "step", counted("node", pn.NodeState.step))
    monkeypatch.setattr(pn.sim, "allocate", counted("allocate", pn.sim.allocate))
    scen = pn.Scenario(kind="dual-sine", duration=0.5, dt=0.001, amplitude=20.0)
    metrics = pn.build(driven_topology(8), scen).run()[1]
    steps = metrics.steps
    assert steps == 500 and metrics.total_injected > 0.0
    assert calls == {"push": 2 * 8 * steps, "node": 8 * steps, "allocate": steps}


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
