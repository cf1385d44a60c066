"""Benchmark workloads: which config each one runs and how its outputs are checked.

The parent process of the benchmark imports only the standard library from
here; the checks run inside the child, after its timings are taken, and
import numpy there.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

WORKLOADS = ("impulse_m3", "passive_m3", "driven_m64")

# The bundled configs are timed unchanged.  case1-3.cfg are not timed: each
# stops at step 13,020 on the open stabilized divergence, so fixing that bug
# would raise their run time and memory and read as a regression.
BUNDLED = {"impulse_m3": "table1.cfg", "passive_m3": "passive_baseline.cfg"}

DRIVEN_NODES = 64
DRIVEN_DURATION = 5.0
DRIVEN_DT = 0.001
# table1's node triples with their signs dropped; node i takes triple i % 3.
TABLE1_TRIPLES = ((10.0, 5.0, 400.0), (10.0, 5.0, 400.0), (20.0, 10.0, 800.0))


def driven_config(seed: int) -> dict:
    """A 64-node dual-sine config drawn from ``seed`` (the same seed, the same doc).

    Triples are table1's scaled by 3/M x U[0.5, 2]; a random half of them is
    sign-flipped (nonpassive).  Round-trip delays have offsets U[0.05, 0.15] s
    with amplitude offset/4 at 20 rad/s, and the weights are log-uniform in
    [1e-2, 1e2].
    """
    rng = random.Random(seed)
    m = DRIVEN_NODES
    flipped = set(rng.sample(range(m), m // 2))
    nodes = []
    for i in range(m):
        scale = 3.0 / m * rng.uniform(0.5, 2.0)
        sign = -1.0 if i in flipped else 1.0
        mass, damping, spring = TABLE1_TRIPLES[i % 3]
        nodes.append({"m": sign * scale * mass, "b": sign * scale * damping,
                      "k": sign * scale * spring})
    delays = []
    for _ in range(m):
        offset = rng.uniform(0.05, 0.15)
        delays.append({"offset": offset, "amplitude": offset / 4.0, "frequency": 20.0})
    q_diag = [10.0 ** rng.uniform(-2.0, 2.0) for _ in range(m)]
    return {
        "topology": {
            "hub": {"num": [1.0, 0.0], "den": [0.5, 15.0, 1.0]},
            "xi": 0.0,
            "nodes": nodes,
            "delays": delays,
            "inertia_filter_cutoff": 20.0,
            "command_filter_cutoff": 15.0,
        },
        "scenario": {"kind": "dual-sine", "amplitude": 20.0,
                     "duration": DRIVEN_DURATION, "dt": DRIVEN_DT},
        "control": {"stabilizer": True, "q_diag": q_diag,
                    "epsilon_singular": 1e-12, "alpha_max": None},
        "output": {"trace": "driven_trace.csv", "summary": "driven_summary.txt",
                   "decimation": 1},
    }


def prepare_config(root: Path, workload: str, seed: int, work: Path) -> Path:
    """The config file the workload runs: bundled as shipped, or generated into ``work``."""
    if workload in BUNDLED:
        path = root / "src" / "passivenet" / "configs" / BUNDLED[workload]
        if not path.is_file():
            raise FileNotFoundError(f"bundled config {path} is missing")
        return path
    if workload != "driven_m64":
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    path = work / f"driven_m64-seed{seed}.cfg"
    path.write_text(json.dumps(driven_config(seed), indent=1) + "\n")
    return path


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(workload: str, cfg, metrics, trace_path: Path, summary_path: Path) -> list[str]:
    """Every invariant the run must meet; returns the ones that failed.

    Reads the returned SummaryMetrics and the written files, at the
    tolerances of the acceptance checklist in tests/test_acceptance.py.
    """
    problems = []
    expected = cfg.scenario.num_steps
    if metrics.diverged or metrics.steps != expected:
        problems.append(f"steps={metrics.steps} diverged={metrics.diverged}; "
                        f"expected {expected} steps, not diverged")
    summary = {}
    for line in summary_path.read_text().splitlines():
        key, _, value = line.partition("=")
        summary[key] = value
    if summary.get("diverged") != "false" or summary.get("steps") != str(expected):
        problems.append(f"summary file reads diverged={summary.get('diverged')} "
                        f"steps={summary.get('steps')}")
    if not metrics.min_e_hat >= -1e-9:
        problems.append(f"min_E_hat={metrics.min_e_hat!r} < -1e-9")

    import numpy as np

    m = cfg.topology.num_nodes
    width = 5 + 4 * m + 2
    header, _, body = trace_path.read_text().partition("\n")
    rows = body.splitlines()
    want_rows = -(-metrics.steps // cfg.decimation)
    if header.count(",") != width - 1 or len(rows) != want_rows:
        problems.append(f"trace has {len(rows)} rows, expected {want_rows}")
    if any(row.count(",") != width - 1 for row in rows):
        problems.append(f"trace rows are not all {width} cells wide")
    cells = np.fromstring(body.replace("\n", ","), sep=",")
    if cells.size != len(rows) * width or not np.all(np.isfinite(cells)):
        problems.append("trace has a cell that is not a finite number")
        cells = np.zeros((0, width))
    cells = cells.reshape(-1, width)
    ys = cells[:, 3]
    alphas_nonzero = bool(np.any(cells[:, 7:5 + 4 * m:4] != 0.0))

    if workload == "impulse_m3" and ys.size:
        tail = float(np.max(np.abs(ys[int(0.9 * ys.size):])))
        if not tail < 1e-3:
            problems.append(f"tail max |y| = {tail!r}, expected < 1e-3")
    if workload == "passive_m3" and (metrics.total_injected != 0.0 or alphas_nonzero):
        problems.append(f"stabilizer fired on a passive network "
                        f"(total injected {metrics.total_injected!r})")
    if workload == "driven_m64" and not metrics.total_injected > 0.0:
        problems.append("driven network injected no dissipation")
    return problems
