"""Run the benchmark over several seeds and record medians and spreads.

    python3 bench/record.py --seeds 1-10 --seconds 40 --out bench/baseline.json

For each workload: one ``run.py --trace 0`` per seed, then one
``run.py --trace 1`` on the first seed.  Writes, per workload and metric, the
median over seeds and the interquartile range as a share of that median
(``statistics.quantiles(values, n=4)``), every per-seed value, the per-layer
figures of the traced run, and a machine line (nproc, Python, numpy, scipy).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

from workloads import WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    probe = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        capture_output=True, text=True, check=True).stdout.split()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": probe[0], "scipy": probe[1], "machine": platform.machine()}


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": first["unit"], "median": median,
                     "iqr_share": (q3 - q1) / median if median else 0.0, "values": values}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    doc = {"machine": machine(), "seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        runs = [bench(workload, seed, args.seconds, 0) for seed in seeds]
        traced = bench(workload, seeds[0], args.seconds, 1)
        doc["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs + [traced]),
            "attempted": sum(r["attempted"] for r in runs + [traced]),
            "failed": sum(r["failed"] for r in runs + [traced]),
            "end_to_end": summarize(runs),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for name, m in doc["workloads"][workload]["end_to_end"].items():
            print(f"{workload:11s} {name:17s} median {m['median']:10.5g} {m['unit']:3s} "
                  f"iqr/median {m['iqr_share']:.3f}", flush=True)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
