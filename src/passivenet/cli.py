"""Command-line entry point: run one configured scenario, write trace + summary."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import parse_config_file, resolve_config_path
from .errors import ConfigurationError, SimulationFault
from .output import write_summary, write_trace
from .sim import SCENARIO_KINDS, build


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="passivenet",
        description=(
            "Simulate a hub-and-spoke networked system under the centralized "
            "optimal passivity stabilizer and write a trace and summary."
        ),
    )
    parser.add_argument(
        "--config",
        required=True,
        help="path to a scenario config, or the name of a bundled one (e.g. table1.cfg)",
    )
    parser.add_argument(
        "--out", default=".", help="directory for the trace and summary files"
    )
    parser.add_argument(
        "--scenario",
        default=None,
        choices=SCENARIO_KINDS,
        help="override the scenario kind from the config",
    )
    parser.add_argument(
        "--q-diag",
        default=None,
        help="override the weight diagonal, e.g. 1,0.0001,1",
    )
    parser.add_argument(
        "--no-stabilizer",
        action="store_true",
        help="disable the dissipation stabilizer for this run",
    )
    parser.add_argument(
        "--seed-check",
        action="store_true",
        help="validate and build the run, run the built-in invariant self-test suite, and exit",
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = parse_config_file(resolve_config_path(args.config))
        q_diag = None
        if args.q_diag is not None:
            try:
                q_diag = tuple(float(v) for v in args.q_diag.split(","))
            except ValueError:
                raise ConfigurationError(
                    f"--q-diag must be a comma-separated list of numbers, got {args.q_diag!r}"
                ) from None
        cfg = cfg.with_overrides(
            scenario_kind=args.scenario,
            q_diag=q_diag,
            stabilizer=False if args.no_stabilizer else None,
        )

        sim = build(cfg.topology, cfg.scenario)
        if args.seed_check:
            from .selfcheck import run_self_checks

            return 0 if run_self_checks() else 1

        trace, metrics = sim.run()

        trace_path = Path(args.out) / cfg.trace_path
        summary_path = Path(args.out) / cfg.summary_path
        for path in (trace_path, summary_path):  # both checked before either is written
            path.parent.mkdir(parents=True, exist_ok=True)
            if path.is_dir():
                raise ConfigurationError(f"output file {str(path)!r} is a directory")
        staged = [(p, p.parent / f".{p.name}.{os.getpid()}") for p in (trace_path, summary_path)]
        undo = [tmp for _path, tmp in staged]  # what a failure removes
        try:  # each file under a temporary name beside its target, renamed once both are written
            write_trace(trace, staged[0][1], cfg.decimation)
            write_summary(metrics, staged[1][1])
            for path, tmp in staged:
                os.replace(tmp, path)
                undo.append(path)  # a later rename that fails takes this file back too
            undo = []
        finally:  # so a failed write or rename leaves neither file
            for path in undo:
                path.unlink(missing_ok=True)
    except (ConfigurationError, SimulationFault, OSError) as exc:
        print(f"passivenet: error: {exc}", file=sys.stderr)
        return 2

    if sim.fault is not None:
        print(f"passivenet: fault: {sim.fault}", file=sys.stderr)
    print(f"steps={metrics.steps} diverged={'true' if metrics.diverged else 'false'}")
    print(f"min_E_hat={metrics.min_e_hat!r} final_abs_y={metrics.final_abs_y!r}")
    print(f"trace={trace_path} summary={summary_path}")
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
