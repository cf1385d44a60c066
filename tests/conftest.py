import numpy as np
import pytest

import passivenet as pn
from passivenet.selfcheck import HUB as TABLE1_HUB

TABLE1_NODES = (
    pn.ImpedanceTriple(10.0, 5.0, 400.0),
    pn.ImpedanceTriple(-10.0, -5.0, -400.0),
    pn.ImpedanceTriple(-20.0, -10.0, -800.0),
)
TABLE1_DELAYS = (
    pn.DelayProfile(0.05, 0.0125, 20.0),
    pn.DelayProfile(0.1, 0.025, 20.0),
    pn.DelayProfile(0.15, 0.0375, 20.0),
)


def table1_topology(**overrides) -> pn.Topology:
    kwargs = dict(
        hub=TABLE1_HUB,
        nodes=TABLE1_NODES,
        delays=TABLE1_DELAYS,
        weights=pn.WeightMatrix((1.0, 1.0, 1.0)),
        stabilizer_enabled=True,
        xi=12.0,
        inertia_filter_cutoff=20.0,
        command_filter_cutoff=15.0,
    )
    kwargs.update(overrides)
    return pn.Topology(**kwargs)


def driven_topology(m: int = 64) -> pn.Topology:
    """The driven benchmark's network at M = ``m``: table1's passive triples
    scaled by 3/M * U[0.5, 2], a random half of them sign-flipped, round-trip
    delays of 50-150 ms at 20 rad/s, log-uniform weights."""
    rng = np.random.default_rng(64)
    flipped = set(rng.permutation(m)[: m // 2].tolist())
    triples = ((10.0, 5.0, 400.0), (10.0, 5.0, 400.0), (20.0, 10.0, 800.0))
    nodes = []
    for i in range(m):
        scale = 3.0 / m * rng.uniform(0.5, 2.0) * (-1.0 if i in flipped else 1.0)
        nodes.append(pn.ImpedanceTriple(*(scale * v for v in triples[i % 3])))
    offsets = rng.uniform(0.05, 0.15, m)
    return pn.Topology(
        hub=TABLE1_HUB,
        nodes=tuple(nodes),
        delays=tuple(pn.DelayProfile(o, o / 4.0, 20.0) for o in offsets),
        weights=pn.WeightMatrix(tuple(10.0 ** rng.uniform(-2.0, 2.0, m))),
        xi=0.0,
        command_filter_cutoff=15.0,
    )


@pytest.fixture(scope="session")
def bundled_runs():
    """Every bundled scenario, run once per test session."""
    runs = {}
    for name in pn.bundled_config_names():
        cfg = pn.parse_config_file(pn.bundled_config_path(name))
        trace, metrics = pn.build(cfg.topology, cfg.scenario).run()
        runs[name] = (cfg, trace, metrics)
    return runs
