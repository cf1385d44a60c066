"""One timed passivenet run in a fresh process, on the path the CLI takes.

    python3 bench/child.py --workload NAME --config PATH --out DIR --result FILE
                           [--setup-only] [--trace SPANS_FILE]

Steps: ``import passivenet`` -> ``parse_config_file`` -> ``build`` ->
``Simulation.run`` -> ``write_trace`` + ``write_summary``, then (untimed) the
output check.  Writes one JSON object of monotonic timestamps, counts and
check results to ``--result``.  ``passivenet`` must be importable from
PYTHONPATH; the parent points it at the checkout's ``src``.
"""

import argparse
import importlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path


def current_rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def ledger_drift(trace) -> float:
    """max |E_hat - exact re-summation of dt(xi y^2 + sum_i uhat_i y)| over the trace."""
    dt, xi = trace.dt, trace.xi
    partials: list[float] = []  # Shewchuk's exact running sum, as in math.fsum
    worst = 0.0
    for rec in trace.records:
        y = rec.y
        for x in (dt * xi * y * y, *(dt * uh * y for uh in rec.u_hat)):
            i = 0
            for p in partials:
                if abs(x) < abs(p):
                    x, p = p, x
                hi = x + p
                lo = p - (hi - x)
                if lo:
                    partials[i] = lo
                    i += 1
                x = hi
            partials[i:] = [x]
        worst = max(worst, abs(rec.e_hat - math.fsum(partials)))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None, help="record spans and write them here")
    args = parser.parse_args(argv)

    recorder = None
    if args.trace:
        from tracer import Recorder, install

        recorder = Recorder()
        recorder.wrap(importlib.import_module, "import")("passivenet")
        install(recorder)
    else:
        import passivenet  # noqa: F401

    from passivenet.config import parse_config_file, resolve_config_path
    from passivenet.output import write_summary, write_trace
    from passivenet.sim import build

    out = {"package": str(Path(sys.modules["passivenet"].__file__).resolve().parent)}
    cfg = parse_config_file(resolve_config_path(args.config))
    cfg = cfg.with_overrides()  # as the CLI does, here with no overrides
    sim = build(cfg.topology, cfg.scenario)
    out["t_built"] = time.monotonic()
    if args.setup_only:
        Path(args.result).write_text(json.dumps(out))
        return 0

    rss_before = current_rss_bytes()
    t_run = time.monotonic()
    trace, metrics = sim.run()
    out["t_ran"] = time.monotonic()
    rss_after = current_rss_bytes()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / cfg.trace_path
    summary_path = out_dir / cfg.summary_path
    t_write = time.monotonic()
    write_trace(trace, trace_path, cfg.decimation)
    write_summary(metrics, summary_path)
    out["t_written"] = time.monotonic()
    out["peak_rss_bytes"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

    out["run_s"] = out["t_ran"] - t_run
    out["write_s"] = out["t_written"] - t_write
    out["steps"] = metrics.steps
    out["rows"] = -(-metrics.steps // cfg.decimation)
    out["run_rss_growth_bytes"] = rss_after - rss_before

    if recorder is not None:
        out["layers"] = recorder.layer_totals()
        out["counts"] = recorder.counts
        out["ledger_drift_j"] = ledger_drift(trace)
        recorder.save(args.trace)

    from workloads import check_outputs

    out["problems"] = check_outputs(args.workload, cfg, metrics, trace_path, summary_path)
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
