import dataclasses

import numpy as np
import pytest

import passivenet as pn
from passivenet.selfcheck import shipped

TABLE1 = shipped("table1.cfg").topology
TABLE1_HUB, TABLE1_NODES, TABLE1_DELAYS = TABLE1.hub, TABLE1.nodes, TABLE1.delays
PASSIVE_BASELINE = shipped("passive_baseline.cfg").topology


def table1_topology(**overrides) -> pn.Topology:
    """The shipped table1.cfg network with ``overrides`` replacing its fields."""
    return dataclasses.replace(TABLE1, **overrides)


def driven_topology(m: int = 64) -> pn.Topology:
    """A network of the driven benchmark's kind at M = ``m``, drawn once from
    ``numpy.random.default_rng(64)``, so not the benchmark's own per-seed draw:
    passive_baseline's triples scaled by 3/M * U[0.5, 2], a random half of them
    sign-flipped, round-trip delays of 50-150 ms at 20 rad/s, log-uniform weights."""
    rng = np.random.default_rng(64)
    flipped = set(rng.permutation(m)[: m // 2].tolist())
    nodes = []
    for i in range(m):
        scale = 3.0 / m * rng.uniform(0.5, 2.0) * (-1.0 if i in flipped else 1.0)
        z = PASSIVE_BASELINE.nodes[i % 3]
        nodes.append(pn.ImpedanceTriple(scale * z.m, scale * z.b, scale * z.k))
    offsets = rng.uniform(0.05, 0.15, m)
    return pn.Topology(
        hub=TABLE1_HUB,
        nodes=tuple(nodes),
        delays=tuple(pn.DelayProfile(o, o / 4.0, 20.0) for o in offsets),
        weights=pn.WeightMatrix(tuple(10.0 ** rng.uniform(-2.0, 2.0, m))),
        xi=0.0,
        command_filter_cutoff=15.0,
    )


def per_node(trace, group: str) -> list[tuple[float, ...]]:
    """Each row's M values of ``group`` ("u", "uhat", "alpha" or "D"), one tuple a row."""
    return list(zip(*(trace.column(f"{group}{i}") for i in range(1, trace.num_nodes + 1))))


@pytest.fixture(scope="session")
def bundled_runs():
    """Every bundled scenario, run once per test session."""
    runs = {}
    for name in pn.bundled_config_names():
        cfg = shipped(name)
        trace, metrics = pn.build(cfg.topology, cfg.scenario).run()
        runs[name] = (cfg, trace, metrics)
    return runs
