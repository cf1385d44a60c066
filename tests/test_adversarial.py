"""Short stabilized runs at the edges of the supported configurations.

Extreme weight ratios, a single node, a sample period that does not divide
the delays, and 64 nodes.  Each run must finish bounded with min E_hat >=
-1e-9, and wherever the stabilizer fired the cumulative dissipation shares
must follow the 1/q law.

Past those edges, configs whose signals leave float range must be refused
with a ConfigurationError at build, or run to completion or to a diverged
stop; no other exception may leave ``build`` or ``Simulation.run``.
"""

import json
import random
from dataclasses import replace

import numpy as np
import pytest

import passivenet as pn

from conftest import driven_topology


def _bundled(name: str):
    cfg = pn.parse_config_file(pn.bundled_config_path(name))
    return cfg.topology, cfg.scenario


def _run_bounded(topo: pn.Topology, scen: pn.Scenario) -> None:
    _trace, metrics = pn.build(topo, scen).run()
    assert not metrics.diverged and metrics.steps == scen.num_steps
    assert metrics.min_e_hat >= -1e-9
    if metrics.total_injected > 0.0:
        inv_q = 1.0 / np.asarray(topo.weights.diagonal)
        np.testing.assert_allclose(metrics.shares, inv_q / inv_q.sum(), rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("q", [(1.0, 1e8, 1.0), (1.0, 1e-8, 1.0), (1e-8, 1.0, 1e8)])
@pytest.mark.parametrize("name", ["table1.cfg", "case1.cfg"])
def test_extreme_weight_ratios(name, q):
    topo, scen = _bundled(name)
    _run_bounded(replace(topo, weights=pn.WeightMatrix(q)), replace(scen, duration=2.0))


@pytest.mark.parametrize("i", range(3))
def test_single_node(i):
    topo, scen = _bundled("table1.cfg")
    topo = replace(topo, nodes=topo.nodes[i:i + 1], delays=topo.delays[i:i + 1],
                   weights=pn.WeightMatrix((1.0,)))
    _run_bounded(topo, replace(scen, duration=2.0))


@pytest.mark.parametrize("name", ["table1.cfg", "case1.cfg"])
def test_sample_period_that_does_not_divide_the_delays(name):
    topo, scen = _bundled(name)
    _run_bounded(topo, replace(scen, duration=2.0, dt=0.0007))


def test_sixty_four_nodes():
    scen = pn.Scenario(kind="dual-sine", duration=1.0, dt=0.001, amplitude=20.0)
    _run_bounded(driven_topology(), scen)


def _outcome(topo: pn.Topology, scen: pn.Scenario) -> str:
    try:
        sim = pn.build(topo, scen)
    except pn.ConfigurationError as exc:
        return f"refused: {exc}"
    _trace, metrics = sim.run()
    return "diverged" if metrics.diverged else f"completed {metrics.steps}"


def _one_nonpassive_node(num, den, amplitude, dt, duration):
    topo = pn.Topology(hub=pn.ContinuousTF(num, den), nodes=(pn.ImpedanceTriple(-1.0, -1.0, -1.0),),
                       delays=(pn.DelayProfile(0.02, 0.0, 0.0),), weights=pn.WeightMatrix((1.0,)),
                       xi=0.0)
    return topo, pn.Scenario(kind="impulse", duration=duration, dt=dt, amplitude=amplitude)


def _table1_doc_outcome(edit) -> str:
    doc = json.loads(pn.bundled_config_path("table1.cfg").read_text())
    edit(doc)
    cfg = pn.parse_config(json.dumps(doc))
    return _outcome(cfg.topology, cfg.scenario)


def _undelayed_huge_impulse(doc):
    for delay in doc["topology"]["delays"]:
        delay.update(offset=0.0, amplitude=0.0, frequency=0.0)
    doc["topology"]["command_filter_cutoff"] = None
    doc["scenario"].update(amplitude=1e78, duration=0.5)


def _delay_phase_past_range(doc):
    doc["topology"]["delays"][0]["frequency"] = 1e308
    doc["scenario"]["duration"] = 3.0


def test_output_whose_square_sum_overflows_stops_diverged():
    # S'Q^{-1}S = 3*y^4 passes float range at |y| ~ 1e77
    assert _table1_doc_outcome(_undelayed_huge_impulse) == "diverged"


def test_fault_that_ends_a_run_keeps_its_message():
    doc = json.loads(pn.bundled_config_path("table1.cfg").read_text())
    _undelayed_huge_impulse(doc)
    cfg = pn.parse_config(json.dumps(doc))
    sim = pn.build(cfg.topology, cfg.scenario)
    trace, metrics = sim.run()
    assert metrics.diverged and metrics.steps == len(trace) == 1  # the faulting step is unrecorded
    assert sim.fault.startswith("S'Q^-1 S overflows float range")
    topo, scen = _bundled("table1.cfg")
    sim = pn.build(topo, replace(scen, duration=0.1))
    assert not sim.run()[1].diverged and sim.fault is None


def test_gain_past_float_range_stops_diverged_unrecorded():
    # draw 364 of the seed-14 sweep: at step 6 lambda overflows, as the hub force did before
    topo = pn.Topology(
        hub=pn.ContinuousTF((-3.3637636299956923e-279,), (1.0, 8.630093244129561, 2010.4437913730562)),
        nodes=(pn.ImpedanceTriple(5.531567103959463, 0.9555915193512127, 7.623466666649259),
               pn.ImpedanceTriple(-20.96006933042079, -0.49926202781403956, -0.04376576936522181)),
        delays=(pn.DelayProfile(0.17893273509723367, 0.032762527619744596, 41.104317576885315),
                pn.DelayProfile(0.12941939170759278, 0.026489471373530648, 48.74208255829244)),
        weights=pn.WeightMatrix((134618.43690282715, 2.519248379041506e-05)),
        xi=0.0, inertia_filter_cutoff=None)
    scen = pn.Scenario(kind="impulse", duration=2.0, dt=0.03790921960576471,
                       amplitude=1.626422538386688e+216)
    sim = pn.build(topo, scen)
    trace, metrics = sim.run()
    assert metrics.diverged and metrics.steps == len(trace) == 6
    assert sim.fault.startswith("gains overflow float range: lambda = inf")


def test_hub_state_that_overflows_stops_diverged():
    # the unstable pole grows the state to inf - inf at step 7
    assert _outcome(*_one_nonpassive_node((1e-249,), (1.0, -982.0, 1.0), 1.0, 0.1, 2.0)) == (
        "diverged"
    )


def test_deficit_where_dt_times_y_underflows_defers():
    # y decays until dt*y underflows to 0 while a deficit stands; the allocator defers
    topo, scen = _one_nonpassive_node((1e-229,), (1.0, 821.0), 1e100, 0.001, 1.0)
    assert _outcome(topo, scen) == "completed 1000"


def test_delay_phase_that_overflows_is_refused_at_build():
    assert _table1_doc_outcome(_delay_phase_past_range) == (
        "refused: delay frequency 1e+308 overflows phase f*t"
    )


def _random_adversarial(rng: random.Random):
    """A hub of order 1-3 with coupling down to 1e-300, a passive and a nonpassive
    node, weights over 16 decades and inputs up to 1e300."""
    order = rng.randint(1, 3)
    den = (1.0, *(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.5) for _ in range(order)))
    num = tuple(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 0.0)
                for _ in range(rng.randint(1, order)))
    dt = 10.0 ** rng.uniform(-3.0, -1.0)
    delays = []
    for _ in range(2):
        offset = rng.uniform(0.0, 0.2)
        delays.append(pn.DelayProfile(offset, offset * rng.random(), rng.uniform(0.0, 50.0)))
    topo = pn.Topology(
        hub=pn.ContinuousTF(num, den),
        nodes=(pn.ImpedanceTriple(*(10.0 ** rng.uniform(-2.0, 2.0) for _ in range(3))),
               pn.ImpedanceTriple(*(-(10.0 ** rng.uniform(-2.0, 2.0)) for _ in range(3)))),
        delays=tuple(delays),
        weights=pn.WeightMatrix(tuple(10.0 ** rng.uniform(-8.0, 8.0) for _ in range(2))),
        xi=rng.choice((None, 0.0, 10.0 ** rng.uniform(-3.0, 3.0))),
        inertia_filter_cutoff=rng.choice((None, 20.0)),
        command_filter_cutoff=rng.choice((None, 15.0)),
    )
    kind = rng.choice(("impulse", "dual-sine"))
    amplitude = 10.0 ** rng.uniform(0.0, 300.0)
    if kind == "impulse":
        amplitude = min(amplitude, 1e300 * dt)
    return topo, pn.Scenario(kind=kind, duration=min(2.0, 400 * dt), dt=dt, amplitude=amplitude)


def test_random_adversarial_runs_raise_nothing_but_configuration_errors():
    rng = random.Random(13)
    outcomes = [_outcome(*_random_adversarial(rng)).split()[0] for _ in range(400)]
    assert all(outcomes.count(o) > 80 for o in ("refused:", "diverged", "completed"))


def test_next_sample_that_overflows_ends_the_run_at_the_step_that_reads_it():
    # a state whose c Ad x sum passes float range, while the stored velocity and travel are
    # finite; by step 300 the node forces have arrived, so the hold target reads next_sample()
    topo, scen = _bundled("table1.cfg")
    sim = pn.build(topo, replace(scen, duration=1.0))
    for _ in range(300):
        sim.step()
    sim.hub._x = [9.25e307, -1e308]
    trace, metrics = sim.run()
    assert metrics.diverged and metrics.steps == len(trace) == 300
    assert sim.fault == "hub state overflows float range"
