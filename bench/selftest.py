"""Self-test of the benchmark at a short run length.

    python3 bench/selftest.py

Runs ``run.py --trace 1 --seconds 1`` on every workload (one untraced and one
traced child each) and checks that every end-to-end and per-layer metric is
printed with its unit, that no run failed, and that the structural counts
are exact: 2M delay-line pushes, M node steps and one allocation per step,
and no fired allocation on passive_m3.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

from run import END_TO_END, PER_LAYER, per_layer  # noqa: E402
from workloads import DRIVEN_NODES, WORKLOADS  # noqa: E402

NODES = {"impulse_m3": 3, "passive_m3": 3, "driven_m64": DRIVEN_NODES}


def check_workload(workload: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        return [f"run.py exited {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"]:
        problems.append(f"{result['failed']} of {result['attempted']} runs failed")
    printed = {line.split(" = ")[0]: line.split(" = ")[1].split()[1] for line in lines[:-1]
               if " = " in line}
    expected = {**END_TO_END, **PER_LAYER, "error_rate": "ratio"}
    for name, unit in expected.items():
        if printed.get(name) != unit:
            problems.append(f"{name} printed as {printed.get(name)!r}, expected unit {unit!r}")
    if set(result["metrics"]) != set(PER_LAYER):
        problems.append("traced result does not list exactly the per-layer metrics")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    m = NODES[workload]
    exact = {
        "delay.DelayLine.push_and_sample.calls_per_step": 2 * m,
        "lti.NodeState.step.calls_per_step": m,
        "allocator.allocate.calls_per_step": 1,
        "sim.Simulation.step.calls_per_step": 1,
    }
    if workload == "passive_m3":
        exact["allocator.allocate.fired_ratio"] = 0
    for name, want in exact.items():
        if values.get(name) != want:
            problems.append(f"{name} = {values.get(name)!r}, expected exactly {want}")
    return problems


def check_missing_layer() -> list[str]:
    """A layer the package no longer defines reports zero calls instead of failing."""
    child = {"layers": {}, "counts": {}, "steps": 10, "ledger_drift_j": 0.0}
    values = per_layer(child)
    bad = [k for k in values if k.endswith(".calls_per_step") and values[k] != 0]
    return [f"missing layer reported calls: {bad}"] if bad else []


def main() -> int:
    failures = check_missing_layer()
    for workload in WORKLOADS:
        problems = check_workload(workload)
        print(f"{workload}: {'ok' if not problems else 'FAIL'}", flush=True)
        failures += [f"{workload}: {p}" for p in problems]
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
