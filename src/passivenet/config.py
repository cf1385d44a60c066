"""Scenario configuration files: parsing and validation.

A config is a JSON document (conventionally ``*.cfg``) with the sections
``topology`` and ``scenario`` and, optionally, ``control`` and ``output``.
:data:`_FORMAT` states the format once: each key with the reader that checks
its shape and type and names the dotted path of a bad value.  Unknown,
duplicate and missing required keys are rejected.  Only the keys present are
passed on, so every default is the one its type declares, and the
constructors check the values, for library callers too.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .allocator import WeightMatrix
from .delay import DelayProfile
from .errors import ConfigurationError, check_decimation
from .lti import ContinuousTF, ImpedanceTriple
from .sim import Scenario, Topology


@dataclass(frozen=True)
class RunConfig:
    topology: Topology
    scenario: Scenario
    trace_path: str = "trace.csv"
    summary_path: str = "summary.txt"
    decimation: int = 1

    def __post_init__(self):
        check_decimation(self.decimation, "output.decimation")
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


# Readers take a JSON value and its dotted path, and return what is passed on.
def _number(value, where: str) -> float:
    """A JSON number (not a boolean) in float range."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ConfigurationError(f"{where} must be a number, got {value!r:.40}")


def _array(read_item):
    def read(value, where):
        if not isinstance(value, list):
            raise ConfigurationError(f"{where} must be an array")
        return tuple(read_item(v, f"{where}[{i}]") for i, v in enumerate(value))
    return read


_numbers = _array(_number)


def _optional(read):
    """``read``, or None for a JSON null."""
    return lambda value, where: None if value is None else read(value, where)


def _text(value, where: str) -> str:
    if not isinstance(value, str) or not value or "\0" in value:  # a NUL byte is no file name
        raise ConfigurationError(f"{where} must be a non-empty string without NUL bytes, "
                                 f"got {value!r:.40}")
    return value


def _flag(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigurationError(f"{where} must be true or false")
    return value


def _removed(old_default, why: str):
    """A removed key: configs written before its removal carry it at ``old_default``,
    which still parses and is not passed on; any other value is an error."""
    def read(value, where):
        if type(value) is not type(old_default) or value != old_default:
            raise ConfigurationError(
                f"{where} was removed ({why}); only its old default "
                f"{json.dumps(old_default)} is accepted, got {value!r:.40}")
    return None, read


def _object(required: dict, optional: dict = {}, make=dict):
    """``make`` of the keys present: each maps to its reader, or to ``(name, reader)`` where
    it is passed on as ``name`` (None: not passed on)."""
    fields = {k: f if type(f) is tuple else (k, f) for k, f in {**required, **optional}.items()}
    def read(value, where):
        here = where or "the config document"
        if not isinstance(value, dict):
            raise ConfigurationError(f"{here} must be an object")
        unknown = set(value) - set(fields)
        if unknown:
            raise ConfigurationError(
                f"unknown key(s) {sorted(unknown)} in {here}; allowed: {sorted(fields)}")
        for key in required:
            if key not in value:
                raise ConfigurationError(f"missing required key {key!r} in {here}")
        out = {}
        for key, item in value.items():
            name, read_item = fields[key]
            item = read_item(item, f"{where}.{key}" if where else key)
            if name is not None:
                out[name] = item
        return make(**out)
    return read


_FORMAT = _object({
    "topology": _object({
        "hub": _object({"num": _numbers, "den": _numbers}, make=ContinuousTF),
        "nodes": _array(_object(dict.fromkeys(("m", "b", "k"), _number), make=ImpedanceTriple)),
        "delays": _array(_object(dict.fromkeys(("offset", "amplitude", "frequency"), _number),
                                 make=DelayProfile)),
    }, dict.fromkeys(("xi", "inertia_filter_cutoff", "command_filter_cutoff"), _optional(_number))),
    "scenario": _object({"kind": _text, "duration": _number, "dt": _number},
                        {"amplitude": _number, "samples": _optional(_numbers)}, make=Scenario),
}, {
    "control": _object({}, {
        "stabilizer": ("stabilizer_enabled", _flag),
        "q_diag": ("weights", _optional(_numbers)),
        "epsilon_singular": _removed(
            1e-12, "allocate defers only where S'Q^-1 S is 0, which needs no threshold"),
        "alpha_max": _removed(
            None, "a gain cap breaks the equality that keeps the stabilized loop passive"),
    }),
    "output": _object({}, {"trace": ("trace_path", _text), "summary": ("summary_path", _text),
                           "decimation": check_decimation}),
})


def _unique_keys(pairs) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        dup = next(key for key in keys if keys.count(key) > 1)
        raise ConfigurationError(f"duplicate key {dup!r} in the config")
    return obj


def parse_config(text: str) -> RunConfig:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    doc = _FORMAT(doc, "")
    topology, control = doc["topology"], doc.get("control", {})
    q_diag = control.pop("weights", None)  # None: M unit weights
    weights = WeightMatrix((1.0,) * len(topology["nodes"]) if q_diag is None else q_diag)
    return RunConfig(Topology(**topology, **control, weights=weights), doc["scenario"],
                     **doc.get("output", {}))


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
