"""Centralized optimal passivity control for hub-and-spoke networked systems.

A discrete-time simulator and control library: a centralized passivity
observer tracks the interconnection's cumulative energy flow, and a
weighted minimum-norm allocator injects just-enough damping at the remote
ports to keep the closed loop passive under asymmetric time-varying delays
and nonpassive node dynamics.
"""

from .allocator import AllocationResult, WeightMatrix, allocate
from .config import (
    RunConfig,
    bundled_config_names,
    bundled_config_path,
    parse_config,
    parse_config_file,
    resolve_config_path,
)
from .delay import DelayLine, DelayProfile
from .errors import ConfigurationError, SimulationFault
from .lti import (
    ContinuousTF,
    ImpedanceTriple,
    NodeState,
    estimate_osp_index,
    make_hub_admittance,
)
from .observer import EnergyLedger
from .output import read_summary, trace_header, write_summary, write_trace
from .sim import (
    Scenario,
    Simulation,
    StepRecord,
    SummaryMetrics,
    Topology,
    Trace,
    build,
    summarize,
)

__version__ = "0.1.0"


def __getattr__(name):
    if name == "run_self_checks":  # the self-check suite loads only where it is used
        from .selfcheck import run_self_checks

        return run_self_checks
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AllocationResult",
    "ConfigurationError",
    "ContinuousTF",
    "DelayLine",
    "DelayProfile",
    "EnergyLedger",
    "ImpedanceTriple",
    "NodeState",
    "RunConfig",
    "Scenario",
    "Simulation",
    "SimulationFault",
    "StepRecord",
    "SummaryMetrics",
    "Topology",
    "Trace",
    "WeightMatrix",
    "allocate",
    "build",
    "bundled_config_names",
    "bundled_config_path",
    "estimate_osp_index",
    "make_hub_admittance",
    "parse_config",
    "parse_config_file",
    "read_summary",
    "resolve_config_path",
    "run_self_checks",
    "summarize",
    "trace_header",
    "write_summary",
    "write_trace",
]
