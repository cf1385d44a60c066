"""Closed-loop simulation of the hub, remote nodes, delay legs, and stabilizer.

Per-step pipeline (one sample period, no feedthrough anywhere):

1. read the external input u_ext[n]
2. peek the hub velocity y[n]
3. forward-delay y to each node, step the node impedance, backward-delay the
   node force back to the hub port, giving the raw feedback u_i[n]
4. observer ingest of y and the raw feedback -> observable energy E_obs[n]
5. hold ledger -> the net network force the exact held-force energy needs,
   one sample ahead (see :class:`passivenet.observer.HoldLedger`)
6. allocator -> damping gains A[n] for the larger of the two requirements
7. u_hat_i = u_i + alpha_i * y
8. the step's one finiteness check, on E_obs and the hub force (inputs are
   validated where they enter, so only overflow in the loop can trip it)
9. record the injected dissipation in the ledger
10. book the exact work of the held net force sum(u_hat) in the hold ledger
    and advance the hub with the net force u_ext - sum(u_hat)
11. emit the step record
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .allocator import WeightMatrix, allocate, check_allocator_knobs
from .delay import DelayLine, DelayProfile
from .errors import ConfigurationError, SimulationFault
from .lti import (
    ContinuousTF,
    FirstOrderLowpass,
    ImpedanceTriple,
    NodeState,
    estimate_osp_index,
    make_hub_admittance,
)
from .observer import EnergyLedger, HoldLedger

DEFAULT_VELOCITY_LIMIT = 1e6
DEFAULT_ENERGY_LIMIT = 1e6

SCENARIO_KINDS = ("impulse", "dual-sine", "external")


@dataclass(frozen=True)
class Topology:
    """Hub plus M remote nodes, their round-trip delay laws, and control knobs.

    ``xi`` is the hub passivity-index credit used by the observer; None means
    estimate it from the hub model at build time.  The hold ledger always
    credits the index measured from the hub model, whatever ``xi`` says.
    ``inertia_filter_cutoff`` bandlimits each node's inertial force path
    (required for a well-posed sampled interconnection; None disables).
    ``command_filter_cutoff`` smooths the delayed velocity command each node
    receives (None disables).
    """

    hub: ContinuousTF
    nodes: tuple[ImpedanceTriple, ...]
    delays: tuple[DelayProfile, ...]
    weights: WeightMatrix
    stabilizer_enabled: bool = True
    xi: float | None = None
    epsilon_singular: float = 1e-12
    alpha_max: float | None = None
    inertia_filter_cutoff: float | None = 20.0
    command_filter_cutoff: float | None = None

    def __post_init__(self):
        m = len(self.nodes)
        if m < 1:
            raise ConfigurationError("topology needs at least one remote node")
        if len(self.delays) != m:
            raise ConfigurationError(
                f"got {len(self.delays)} delay profiles for {m} nodes; need one each"
            )
        if len(self.weights) != m:
            raise ConfigurationError(
                f"weight diagonal has {len(self.weights)} entries for {m} nodes"
            )
        if self.xi is not None and (not math.isfinite(self.xi) or self.xi < 0.0):
            raise ConfigurationError("explicit hub passivity index must be >= 0")
        check_allocator_knobs(self.epsilon_singular, self.alpha_max)
        for name, cut in (
            ("inertia_filter_cutoff", self.inertia_filter_cutoff),
            ("command_filter_cutoff", self.command_filter_cutoff),
        ):
            if cut is not None and (not math.isfinite(cut) or cut <= 0.0):
                raise ConfigurationError(f"{name} must be positive or None")

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class Scenario:
    """External input program: kind, amplitude, duration, sample period."""

    kind: str
    duration: float
    dt: float
    amplitude: float = 1.0
    samples: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ConfigurationError(
                f"unknown scenario kind {self.kind!r}; expected one of {SCENARIO_KINDS}"
            )
        if not (0.0 < self.duration < math.inf and 0.0 < self.dt < math.inf):
            raise ConfigurationError("scenario duration and dt must be positive and finite")
        if not 0.5 < self.duration / self.dt < math.inf:  # num_steps >= 1, and finite
            raise ConfigurationError("scenario must run at least one step, and finitely many")
        if not math.isfinite(self.amplitude):
            raise ConfigurationError("scenario amplitude must be finite")
        if self.kind == "external":
            if self.samples is None:
                raise ConfigurationError("external scenario requires a samples array")
            if not all(math.isfinite(s) for s in self.samples):
                raise ConfigurationError("external samples must be finite")
        elif self.samples is not None:
            raise ConfigurationError(f"samples are only valid for kind 'external', not {self.kind!r}")

    @property
    def num_steps(self) -> int:
        return int(round(self.duration / self.dt))

    def input_at(self, n: int) -> float:
        if self.kind == "impulse":
            return self.amplitude / self.dt if n == 0 else 0.0
        if self.kind == "dual-sine":
            t = n * self.dt
            return self.amplitude * (math.sin(math.pi * t) + math.sin(0.5 * math.pi * t))
        return self.samples[n] if n < len(self.samples) else 0.0


@dataclass(frozen=True)
class StepRecord:
    n: int
    t: float
    u_ext: float
    y: float
    x: float
    u: tuple[float, ...]
    u_hat: tuple[float, ...]
    alpha: tuple[float, ...]
    dissipated: tuple[float, ...]
    e_obs: float
    e_hat: float


@dataclass
class Trace:
    records: list[StepRecord] = field(default_factory=list)
    dt: float = 0.0
    xi: float = 0.0
    num_nodes: int = 0


@dataclass(frozen=True)
class SummaryMetrics:
    diverged: bool
    min_e_hat: float
    final_abs_y: float
    dissipated: tuple[float, ...]
    shares: tuple[float, ...]
    total_injected: float
    steps: int


class Simulation:
    """A built, steppable closed loop.  Construct via :func:`build`."""

    def __init__(self, topology: Topology, scenario: Scenario):
        self.topology = topology
        self.scenario = scenario
        m = topology.num_nodes
        dt = scenario.dt
        self.xi = (
            topology.xi if topology.xi is not None else estimate_osp_index(topology.hub)
        )
        self.hub = make_hub_admittance(topology.hub, dt)
        self.nodes = [
            NodeState(z, dt, topology.inertia_filter_cutoff) for z in topology.nodes
        ]
        self.leg_profiles = [p.halved() for p in topology.delays]
        self.forward = [DelayLine(p.max_delay, dt) for p in self.leg_profiles]
        self.backward = [DelayLine(p.max_delay, dt) for p in self.leg_profiles]
        cut = topology.command_filter_cutoff
        self.command_filters = (
            None if cut is None else [FirstOrderLowpass(cut, dt) for _ in range(m)]
        )
        self.ledger = EnergyLedger(dt, self.xi, m)
        self.hold_ledger = HoldLedger(
            dt, self.xi if topology.xi is None else _hold_credit(topology.hub), self.hub
        )
        self._next_input = scenario.input_at(0)
        self.n = 0

    @property
    def num_nodes(self) -> int:
        return self.topology.num_nodes

    def step(self) -> StepRecord:
        if self.n >= self.scenario.num_steps:
            raise SimulationFault("simulation already ran past its duration")
        topo, scen = self.topology, self.scenario
        m = topo.num_nodes
        dt = scen.dt
        n = self.n
        t = n * dt

        u_ext = self._next_input
        self._next_input = scen.input_at(n + 1)
        y = self.hub.velocity()

        u = np.empty(m)
        for i in range(m):
            d_leg = self.leg_profiles[i].delay_at(t)
            v = self.forward[i].push_and_sample(y, t, d_leg)
            if self.command_filters is not None:
                v = self.command_filters[i].filter(v)
            f = self.nodes[i].step(v)
            u[i] = self.backward[i].push_and_sample(f, t, d_leg)

        e_obs = self.ledger.ingest_step(y, u)
        preview = self.hub.hold_preview()
        if topo.stabilizer_enabled:
            target = e_obs
            if y != 0.0:
                raw = float(u.sum())
                floor = raw - e_obs / (dt * y) if e_obs < 0.0 else raw
                held = self.hold_ledger.required_force(
                    y, raw, floor, u_ext, self._next_input, preview
                )
                if (held - floor) * y > 0.0:
                    target = -(held - raw) * y * dt
            result = allocate(
                target,
                np.full(m, y * y),
                topo.weights,
                dt,
                epsilon_singular=topo.epsilon_singular,
                alpha_max=topo.alpha_max,
            )
            gains = result.gains
            u_hat = u + gains * y
        else:
            gains = np.zeros(m)
            u_hat = u  # bit-exact pass-through, no -0.0 flips in the trace

        net = float(u_hat.sum())
        force = u_ext - net
        if not (math.isfinite(e_obs) and math.isfinite(force)):
            raise SimulationFault(
                f"non-finite step at n={n}: E_obs={e_obs!r}, hub force={force!r}"
            )
        self.ledger.record_injection(gains)
        self.hold_ledger.record(preview[0] + self.hub.hold_travel * force, net)
        _, pos = self.hub.step(force)
        self.n = n + 1
        return StepRecord(
            n=n,
            t=t,
            u_ext=u_ext,
            y=y,
            x=pos,
            u=tuple(u.tolist()),
            u_hat=tuple(u_hat.tolist()),
            alpha=tuple(gains.tolist()),
            dissipated=tuple(self.ledger.dissipated.tolist()),
            e_obs=e_obs,
            e_hat=self.ledger.controlled_energy,
        )

    def run(
        self,
        velocity_limit: float = DEFAULT_VELOCITY_LIMIT,
        energy_limit: float = DEFAULT_ENERGY_LIMIT,
    ) -> tuple[Trace, SummaryMetrics]:
        """Step to the configured duration or until a divergence threshold trips.

        A step that faults ends the run unrecorded, so every recorded cell is finite.
        """
        trace = Trace(dt=self.scenario.dt, xi=self.xi, num_nodes=self.num_nodes)
        diverged = False
        while self.n < self.scenario.num_steps:
            try:
                rec = self.step()
            except SimulationFault:
                diverged = True
                break
            trace.records.append(rec)
            if abs(rec.y) > velocity_limit or rec.e_obs < -energy_limit:
                diverged = True
                break
        return trace, summarize(trace, diverged)


def summarize(trace: Trace, diverged: bool) -> SummaryMetrics:
    records = trace.records
    if not records:
        zeros = (0.0,) * trace.num_nodes
        return SummaryMetrics(diverged, 0.0, 0.0, zeros, zeros, 0.0, 0)
    dissipated = records[-1].dissipated
    total = sum(dissipated)
    if total > 0.0:
        shares = tuple(d / total for d in dissipated)
    else:
        shares = (0.0,) * len(dissipated)
    return SummaryMetrics(
        diverged=diverged,
        min_e_hat=min(r.e_hat for r in records),
        final_abs_y=abs(records[-1].y),
        dissipated=dissipated,
        shares=shares,
        total_injected=total,
        steps=len(records),
    )


def _hold_credit(hub: ContinuousTF) -> float:
    """The hub's measured passivity index, or 0 where none can be measured."""
    try:
        return estimate_osp_index(hub)
    except ConfigurationError:  # an unstable hub guarantees no passive capacity
        return 0.0


def build(topology: Topology, scenario: Scenario) -> Simulation:
    """Assemble a zero-initialized simulation from validated components."""
    return Simulation(topology, scenario)
