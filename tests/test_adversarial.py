"""Short stabilized runs at the edges of the supported configurations.

Extreme weight ratios, a single node, a sample period that does not divide
the delays, and 64 nodes.  Each run must finish bounded with min E_hat >=
-1e-9, and wherever the stabilizer fired the cumulative dissipation shares
must follow the 1/q law.
"""

from dataclasses import replace

import numpy as np
import pytest

import passivenet as pn

from conftest import sixty_four_node_topology


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
    _run_bounded(sixty_four_node_topology(), scen)
