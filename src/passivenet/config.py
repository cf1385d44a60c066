"""Scenario configuration files: parsing and validation.

Configs are JSON documents (conventionally ``*.cfg``) with four sections,
``topology``, ``scenario``, ``control``, and ``output``.  Parsing is
fail-closed: unknown keys anywhere are rejected, and every component
invariant is checked while the domain objects are constructed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .allocator import WeightMatrix
from .delay import DelayProfile
from .errors import ConfigurationError
from .lti import ContinuousTF, ImpedanceTriple
from .sim import Scenario, Topology

_TOPOLOGY_KEYS = {
    "hub",
    "xi",
    "nodes",
    "delays",
    "inertia_filter_cutoff",
    "command_filter_cutoff",
}
_HUB_KEYS = {"num", "den"}
_NODE_KEYS = {"m", "b", "k"}
_DELAY_KEYS = {"offset", "amplitude", "frequency"}
_SCENARIO_KEYS = {"kind", "amplitude", "duration", "dt", "samples"}
_CONTROL_KEYS = {"stabilizer", "q_diag", "epsilon_singular", "alpha_max"}
_OUTPUT_KEYS = {"trace", "summary", "decimation"}
# Removed control knobs: configs written before their removal carry them at
# these old defaults, which still parse; any other value is an error.
_REMOVED_CONTROL = {
    "epsilon_singular": (
        1e-12, "allocate defers only where S'Q^-1 S is 0, which needs no threshold"
    ),
    "alpha_max": (None, "a gain cap breaks the equality that keeps the stabilized loop passive"),
}
_TOP_KEYS = {"topology", "scenario", "control", "output"}


@dataclass(frozen=True)
class RunConfig:
    topology: Topology
    scenario: Scenario
    trace_path: str = "trace.csv"
    summary_path: str = "summary.txt"
    decimation: int = 1

    def __post_init__(self):
        d = self.decimation
        if not isinstance(d, int) or isinstance(d, bool) or d < 1:
            raise ConfigurationError(f"output.decimation must be an integer >= 1, got {d!r:.40}")
        if os.path.normpath(self.trace_path) == os.path.normpath(self.summary_path):
            raise ConfigurationError(
                f"output.trace and output.summary name the same file {self.trace_path!r}")

    def with_overrides(
        self,
        scenario_kind: str | None = None,
        q_diag: tuple[float, ...] | None = None,
        stabilizer: bool | None = None,
    ) -> "RunConfig":
        """The config that editing the corresponding file fields would give."""
        topo, scen = self.topology, self.scenario
        if scenario_kind is not None:
            samples = scen.samples if scenario_kind == "external" else None
            scen = replace(scen, kind=scenario_kind, samples=samples)
        if q_diag is not None:
            topo = replace(topo, weights=WeightMatrix(tuple(q_diag)))
        if stabilizer is not None:
            topo = replace(topo, stabilizer_enabled=stabilizer)
        return replace(self, topology=topo, scenario=scen)


def _reject_unknown(section, allowed: set, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigurationError(f"{where} must be an object")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}"
        )


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigurationError(f"missing required key {key!r} in {where}")
    return section[key]


def _number(value, where: str) -> float:
    """The one reader of numeric fields: a JSON number (not a boolean) in float range."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ConfigurationError(f"{where} must be a number, got {value!r:.40}")


def _file_name(section: dict, key: str, default: str) -> str:
    value = section.get(key, default)
    if not isinstance(value, str) or not value:
        raise ConfigurationError(f"output.{key} must be a non-empty string, got {value!r:.40}")
    return value


def _num_list(value, where: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ConfigurationError(f"{where} must be an array of numbers")
    return tuple(_number(v, f"{where}[{i}]") for i, v in enumerate(value))


def _opt_float(section: dict, key: str, where: str, default):
    value = section.get(key, default)
    return None if value is None else _number(value, f"{where}.{key}")


def _records(topo_sec: dict, key: str, fields: set) -> list[dict]:
    """The array topology.<key> of objects whose fields are all required numbers."""
    items = _require(topo_sec, key, "section 'topology'")
    if not isinstance(items, list):
        raise ConfigurationError(f"topology.{key} must be an array")
    records = []
    for i, item in enumerate(items):
        where = f"topology.{key}[{i}]"
        _reject_unknown(item, fields, where)
        records.append(
            {f: _number(_require(item, f, where), f"{where}.{f}") for f in sorted(fields)}
        )
    return records


def parse_config(text: str) -> RunConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    _reject_unknown(doc, _TOP_KEYS, "the config document")

    topo_sec = _require(doc, "topology", "the config")
    _reject_unknown(topo_sec, _TOPOLOGY_KEYS, "section 'topology'")
    hub_sec = _require(topo_sec, "hub", "section 'topology'")
    _reject_unknown(hub_sec, _HUB_KEYS, "topology.hub")
    hub = ContinuousTF(
        num=_num_list(_require(hub_sec, "num", "topology.hub"), "topology.hub.num"),
        den=_num_list(_require(hub_sec, "den", "topology.hub"), "topology.hub.den"),
    )
    nodes = [ImpedanceTriple(**r) for r in _records(topo_sec, "nodes", _NODE_KEYS)]
    delays = [DelayProfile(**r) for r in _records(topo_sec, "delays", _DELAY_KEYS)]

    control_sec = doc.get("control", {})
    _reject_unknown(control_sec, _CONTROL_KEYS, "section 'control'")
    q_diag = control_sec.get("q_diag")
    if q_diag is None:
        weights = WeightMatrix((1.0,) * len(nodes))
    else:
        weights = WeightMatrix(_num_list(q_diag, "control.q_diag"))
    stabilizer = control_sec.get("stabilizer", True)
    if not isinstance(stabilizer, bool):
        raise ConfigurationError("control.stabilizer must be true or false")
    for key, (old_default, why) in _REMOVED_CONTROL.items():
        value = control_sec.get(key, old_default)
        if type(value) is not type(old_default) or value != old_default:
            raise ConfigurationError(
                f"control.{key} was removed ({why}); only its old default "
                f"{json.dumps(old_default)} is accepted, got {value!r:.40}"
            )

    topology = Topology(
        hub=hub,
        nodes=tuple(nodes),
        delays=tuple(delays),
        weights=weights,
        stabilizer_enabled=stabilizer,
        xi=_opt_float(topo_sec, "xi", "topology", None),
        inertia_filter_cutoff=_opt_float(topo_sec, "inertia_filter_cutoff", "topology", 20.0),
        command_filter_cutoff=_opt_float(topo_sec, "command_filter_cutoff", "topology", None),
    )

    scen_sec = _require(doc, "scenario", "the config")
    _reject_unknown(scen_sec, _SCENARIO_KEYS, "section 'scenario'")
    samples = scen_sec.get("samples")
    scenario = Scenario(
        kind=_require(scen_sec, "kind", "section 'scenario'"),
        duration=_number(
            _require(scen_sec, "duration", "section 'scenario'"), "scenario.duration"
        ),
        dt=_number(_require(scen_sec, "dt", "section 'scenario'"), "scenario.dt"),
        amplitude=_number(scen_sec.get("amplitude", 1.0), "scenario.amplitude"),
        samples=None if samples is None else _num_list(samples, "scenario.samples"),
    )

    out_sec = doc.get("output", {})
    _reject_unknown(out_sec, _OUTPUT_KEYS, "section 'output'")

    return RunConfig(
        topology=topology,
        scenario=scenario,
        trace_path=_file_name(out_sec, "trace", "trace.csv"),
        summary_path=_file_name(out_sec, "summary", "summary.txt"),
        decimation=out_sec.get("decimation", 1),
    )


def parse_config_file(path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def bundled_config_names() -> list[str]:
    root = resources.files(__package__) / "configs"
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".cfg"))


def bundled_config_path(name: str) -> Path:
    path = Path(str(resources.files(__package__) / "configs" / name))
    if not path.is_file():
        raise ConfigurationError(
            f"no bundled config named {name!r}; bundled: {bundled_config_names()}"
        )
    return path


def resolve_config_path(spec: str) -> Path:
    """A filesystem path if it exists, otherwise a bundled config name."""
    path = Path(spec)
    if path.is_file():
        return path
    try:
        return bundled_config_path(spec)
    except ConfigurationError:
        raise ConfigurationError(
            f"config {spec!r} is neither an existing file nor a bundled config name "
            f"(bundled: {bundled_config_names()})"
        ) from None
