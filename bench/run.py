"""passivenet benchmark: what one CLI run costs, end to end and per layer.

    python3 bench/run.py --workload impulse_m3 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Each measurement is a fresh,
single-threaded child process (``bench/child.py``) that takes the CLI's path
through the checkout's ``src/passivenet``, one child at a time (a closed
loop with one client).  Children start until ``--seconds`` would be
exceeded.  Each figure is the median over them; timings are scaled to a
reference host speed (see ``REFERENCE_S``).

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced and traced children and reports the
per-layer metrics from the traced ones; ``trace.overhead`` is their ratio.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

from workloads import WORKLOADS, prepare_config, sha256_of  # noqa: E402

CHILD_TIMEOUT_S = 170
SETUP_PROBES = 2  # setup-only children per run, so setup_s is a median of several

END_TO_END = {
    "setup_s": "s",
    "step_us": "us",
    "write_us_per_row": "us",
    "total_s": "s",
    "peak_rss_mb": "MB",
}

# Layers on the per-step path; each reports calls_per_step, self_us_per_call
# and share_of_run (self time over the Simulation.run span).
STEP_LAYERS = (
    "sim.Simulation.step",
    "sim.Scenario.input_at",
    "observer.EnergyLedger.ingest_step",
    "observer.EnergyLedger.record_injection",
    "allocator.allocate",
    "allocator.WeightMatrix.inverse_diagonal",
    "allocator.apply_dissipation",
    "delay.DelayLine.push_and_sample",
    "delay.DelayProfile.delay_at",
    "lti.NodeState.step",
    "lti.FirstOrderLowpass.filter",
    "lti.HubState.step",
    "lti.HubState.velocity",
)
# Setup layers, inclusive wall time of their spans.
SETUP_LAYERS = (
    "config.parse_config_file",
    "sim.build",
    "lti.make_hub_admittance",
    "lti.estimate_osp_index",
)


def per_layer_units() -> dict[str, str]:
    units = {"import.s": "s"}
    units.update({f"{name}.ms": "ms" for name in SETUP_LAYERS})
    for name in STEP_LAYERS:
        units[f"{name}.calls_per_step"] = "calls/step"
        units[f"{name}.self_us_per_call"] = "us"
        units[f"{name}.share_of_run"] = "ratio"
    units.update({
        "sim.Simulation.run.self_us_per_step": "us",
        "allocator.allocate.fired_ratio": "ratio",
        "allocator.allocate.deferred": "count",
        "sim.trace_bytes_per_step": "B/step",
        "output.write_trace.us_per_row": "us",
        "output.write_trace.bytes_per_row": "B/row",
        "observer.ledger_drift_j": "J",
        "trace.overhead": "ratio",
    })
    return units


PER_LAYER = per_layer_units()


class ChildFailed(Exception):
    pass


def run_child(workload: str, config: Path, *, setup_only=False, spans: Path | None = None) -> dict:
    """Start one child, wait for it to end, and return its result with the spawn time."""
    result = WORK / "result.json"
    out = WORK / "out"
    result.unlink(missing_ok=True)
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, "-s", str(HERE / "child.py"), "--workload", workload,
           "--config", str(config), "--out", str(out), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--trace", str(spans)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=WORK, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child exceeded {CHILD_TIMEOUT_S} s") from None
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        raise ChildFailed(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    data = json.loads(result.read_text())
    if Path(data["package"]) != (ROOT / "src" / "passivenet").resolve():
        raise ChildFailed(f"child imported passivenet from {data['package']}, not the checkout")
    if data.get("problems"):
        raise ChildFailed("output check failed: " + "; ".join(data["problems"]))
    data["t_spawn"] = t_spawn
    data["wall_s"] = time.monotonic() - t_spawn
    return data


def end_to_end(child: dict) -> dict[str, float]:
    return {
        "setup_s": child["t_built"] - child["t_spawn"],
        "step_us": child["run_s"] / child["steps"] * 1e6,
        "write_us_per_row": child["write_s"] / child["rows"] * 1e6,
        "total_s": child["t_written"] - child["t_spawn"],
        "peak_rss_mb": child["peak_rss_bytes"] / 1e6,
    }


def per_layer(child: dict) -> dict[str, float]:
    layers, counts, steps = child["layers"], child["counts"], child["steps"]

    def get(name, key):
        return layers.get(name, {}).get(key, 0.0)

    run_ns = get("sim.Simulation.run", "total_ns")
    values = {"import.s": get("import", "total_ns") / 1e9}
    for name in SETUP_LAYERS:
        values[f"{name}.ms"] = get(name, "total_ns") / 1e6
    for name in STEP_LAYERS:
        calls, self_ns = get(name, "calls"), get(name, "self_ns")
        values[f"{name}.calls_per_step"] = calls / steps
        values[f"{name}.self_us_per_call"] = self_ns / calls / 1e3 if calls else 0.0
        values[f"{name}.share_of_run"] = self_ns / run_ns if run_ns else 0.0
    allocations = get("allocator.allocate", "calls")
    rows = counts.get("output.write_trace.rows", 0)
    values.update({
        "sim.Simulation.run.self_us_per_step": get("sim.Simulation.run", "self_ns") / steps / 1e3,
        "allocator.allocate.fired_ratio":
            counts.get("allocator.allocate.fired", 0) / allocations if allocations else 0.0,
        "allocator.allocate.deferred": counts.get("allocator.allocate.deferred", 0),
        "output.write_trace.us_per_row": get("output.write_trace", "total_ns") / rows / 1e3
        if rows else 0.0,
        "output.write_trace.bytes_per_row":
            counts.get("output.write_trace.bytes", 0) / rows if rows else 0.0,
        "observer.ledger_drift_j": child["ledger_drift_j"],
    })
    return values


def medians(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


# On a shared 2-vCPU host, other tenants slow every process by up to ~60%
# for tens of seconds at a time; CPU time equals wall time, so it is
# contention for the core, not descheduling.  Raw per-run medians then drift
# by 10-25% between runs.  So the benchmark pins itself and its children to
# one CPU, times a fixed piece of pure-Python work there before and after
# each child, and scales the child's timings by REFERENCE_S / (mean of the
# two).  Timings are thus seconds at the host speed at which REFERENCE_S was
# measured.  Over 40 s windows of 5.5 minutes of children, this cut the
# spread of window medians (IQR / median) from 11% to 7.5% for step time and
# from 15-18% to 8% for write time.
REFERENCE_LOOPS = 150_000
REFERENCE_S = 0.0247  # median reference_seconds() on the baseline host (2 vCPU, Python 3.11.7)
SCALED = ("setup_s", "step_us", "write_us_per_row", "total_s")


def reference_seconds() -> float:
    """Median of five timings of the same pure-Python loop."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc, values = 0.0, []
        for i in range(REFERENCE_LOOPS):
            acc += (i * 0.5) % 7.0
            values.append(acc)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(values: dict[str, float], reference_s: float) -> dict[str, float]:
    return {k: v * REFERENCE_S / reference_s if k in SCALED else v for k, v in values.items()}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run children for ``seconds`` and return the aggregated report."""
    WORK.mkdir(exist_ok=True)
    config = prepare_config(ROOT, workload, seed, WORK)
    attempted = failed = 0
    errors: list[str] = []
    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []

    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})  # children inherit it
    probe = reference_seconds()

    def attempt(**kwargs):
        nonlocal attempted, failed, probe
        attempted += 1
        before = probe
        try:
            child = run_child(workload, config, **kwargs)
        except ChildFailed as exc:
            failed += 1
            errors.append(str(exc))
            return None
        finally:
            probe = reference_seconds()
        child["reference_s"] = (before + probe) / 2.0
        return child

    attempt(setup_only=True)  # warm-up: byte-compiles the package and fills the page cache
    t_begin = time.monotonic()
    if not trace:
        for _ in range(SETUP_PROBES):
            child = attempt(setup_only=True)
            if child is not None:
                setups.append((child["t_built"] - child["t_spawn"]) * REFERENCE_S
                              / child["reference_s"])
    longest = 0.0
    while True:
        complete = bool(plain) and (bool(traced) or not trace)
        elapsed = time.monotonic() - t_begin
        if (complete or failed) and elapsed + (longest if complete else 0.0) > seconds:
            break
        use_trace = trace and len(traced) < len(plain)
        child = attempt(spans=WORK / f"spans-{workload}.bin" if use_trace else None)
        if child is not None:
            longest = max(longest, child["wall_s"])
            (traced if use_trace else plain).append(child)
    raw = [end_to_end(c) for c in plain]
    e2e = [scaled(v, c["reference_s"]) for v, c in zip(raw, plain)]
    setups += [v["setup_s"] for v in e2e]
    report = {
        "workload": workload, "seed": seed, "config": str(config.relative_to(ROOT)),
        "config_sha256": sha256_of(config), "attempted": attempted, "failed": failed,
        "errors": errors, "children": len(plain) + len(traced), "setup_samples": len(setups),
        "e2e": {}, "layers": {},
    }
    if e2e:
        report["e2e"] = medians(e2e)
        report["e2e"]["setup_s"] = statistics.median(setups)
        report["raw"] = medians(raw)
        report["samples"] = {k: [v[k] for v in e2e] for k in e2e[0]}
        report["samples"]["setup_s"] = setups
        report["samples"]["reference_s"] = [c["reference_s"] for c in plain]
    if traced and e2e:
        layers = medians([per_layer(c) for c in traced])
        layers["sim.trace_bytes_per_step"] = statistics.median(
            c["run_rss_growth_bytes"] / c["steps"] for c in plain)
        layers["trace.overhead"] = statistics.median(
            scaled(end_to_end(c), c["reference_s"])["step_us"] for c in traced
        ) / report["e2e"]["step_us"]
        report["layers"] = layers
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "passivenet" / "__init__.py").is_file():
        print(f"bench: no passivenet sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for err in report["errors"]:
        print(f"bench: run failed: {err}", file=sys.stderr)
    wanted = PER_LAYER if args.trace else END_TO_END
    values = report["layers"] if args.trace else report["e2e"]
    if not values:
        print("bench: no run completed; nothing to report", file=sys.stderr)
        return 1

    print(f"# workload={report['workload']} seed={report['seed']} config={report['config']} "
          f"config_sha256={report['config_sha256']}")
    print(f"# {report['children']} timed runs, {report['setup_samples']} set-ups")
    for name, unit in END_TO_END.items():
        lo, hi = min(report["samples"][name]), max(report["samples"][name])
        print(f"{name} = {report['e2e'][name]:.6g} {unit}  (runs {lo:.6g} .. {hi:.6g}; "
              f"unscaled median {report['raw'][name]:.6g})")
    print(f"error_rate = {report['failed'] / report['attempted']:.6g} ratio  "
          f"({report['failed']} failed of {report['attempted']} attempted)")
    for name, unit in PER_LAYER.items() if args.trace else ():
        print(f"{name} = {report['layers'][name]:.6g} {unit}")

    WORK.joinpath("results").mkdir(exist_ok=True)
    WORK.joinpath("results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
