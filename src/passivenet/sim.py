"""Closed-loop simulation of the hub, remote nodes, delay legs, and stabilizer.

Per-step pipeline (one sample period, no feedthrough anywhere):

1. read the external input u_ext[n]
2. read the hub velocity y[n], which the hub stored when it last advanced
3. form every port's one-leg delay d_i(t) in one pass (one sine per distinct
   frequency, see :func:`passivenet.delay.delay_evaluator`), forward-delay y
   by d_i, step the node (its command filter, when set, then its impedance)
   and backward-delay its force by d_i to the hub port: the raw feedback u_i[n]
4. observer ingest of y and the summed raw feedback -> observable energy E_obs[n]
5. hold ledger -> the energy to cancel: E_obs[n], or more where the exact
   held-force energy needs it (see :class:`passivenet.observer.HoldLedger`)
6. allocator -> damping gains A[n] for that energy
7. u_hat_i = u_i + alpha_i * y
8. the step's one finiteness check, on E_obs and the hub force (inputs are
   validated where they enter, so only overflow in the loop can trip it)
9. record the injected dissipation in the ledger
10. book the exact work of the held net force sum(u_hat) in the hold ledger
    and advance the hub with the hub force u_ext - sum(u_hat)
11. append the step's row to the trace
"""

from __future__ import annotations

import math
import struct
from array import array
from dataclasses import dataclass
from typing import NamedTuple

from .allocator import WeightMatrix, allocate
from .delay import DelayLine, DelayProfile, delay_evaluator
from .errors import ConfigurationError, SimulationFault, check_positive_finite, fold
from .lti import ContinuousTF, ImpedanceTriple, NodeState, estimate_osp_index, make_hub_admittance
from .observer import EnergyLedger, HoldLedger

# run() stops, diverged, once |y| or -E_obs exceeds these.
VELOCITY_LIMIT = 1e6
ENERGY_LIMIT = 1e6

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
    receives, inside the node (None disables).
    """

    hub: ContinuousTF
    nodes: tuple[ImpedanceTriple, ...]
    delays: tuple[DelayProfile, ...]
    weights: WeightMatrix
    stabilizer_enabled: bool = True
    xi: float | None = None
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
        for name, cut in (
            ("inertia_filter_cutoff", self.inertia_filter_cutoff),
            ("command_filter_cutoff", self.command_filter_cutoff),
        ):
            if cut is not None:
                object.__setattr__(self, name, check_positive_finite(cut, name))

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
        check_positive_finite(self.duration, "scenario duration")
        object.__setattr__(self, "dt", check_positive_finite(self.dt))
        if not 0.5 < self.duration / self.dt < math.inf:  # num_steps >= 1, and finite
            raise ConfigurationError("scenario must run at least one step, and finitely many")
        if not math.isfinite(self.amplitude):
            raise ConfigurationError("scenario amplitude must be finite")
        object.__setattr__(self, "amplitude", float(self.amplitude))
        if self.kind == "impulse" and not math.isfinite(self.amplitude / self.dt):
            raise ConfigurationError(f"impulse scenario height amplitude/dt = {self.amplitude!r}"
                                     f"/{self.dt!r} overflows float range")
        if self.kind == "external":
            if self.samples is None:
                raise ConfigurationError("external scenario requires a samples array")
            if not all(math.isfinite(s) for s in self.samples):
                raise ConfigurationError("external samples must be finite")
            object.__setattr__(self, "samples", tuple(map(float, self.samples)))
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


class StepRecord(NamedTuple):
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


class Trace:
    """A run's steps as packed doubles, one row of ``6 + 4M`` per step.

    A row is t, u_ext, y, x, then the groups u[M], u_hat[M], alpha[M],
    D[M], then E_obs, E_hat; the step number n is the row's index.  All rows
    live in one growable ``array('d')``, ``data``, at 8 bytes a value.
    ``records`` is a read-only sequence view that builds a
    :class:`StepRecord` of builtin numbers for each row it is asked for.
    """

    def __init__(self, dt: float = 0.0, xi: float = 0.0, num_nodes: int = 0):
        self.dt = dt
        self.xi = xi
        self.num_nodes = num_nodes
        self.width = 6 + 4 * num_nodes
        self.data = array("d")
        self._pack = struct.Struct(f"{self.width}d").pack
        self.records = _Records(self)

    def __len__(self) -> int:
        return len(self.data) // self.width

    def append(self, t, u_ext, y, x, u, u_hat, alpha, dissipated, e_obs, e_hat) -> None:
        """Add one step's row; ``u``, ``u_hat``, ``alpha`` and ``dissipated`` hold M values each."""
        self.data.frombytes(
            self._pack(t, u_ext, y, x, *u, *u_hat, *alpha, *dissipated, e_obs, e_hat)
        )


class _Records:
    """Read-only sequence of a Trace's rows as StepRecords, built on access."""

    def __init__(self, trace: Trace):
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace)

    def __getitem__(self, n: int) -> StepRecord:
        trace, m = self._trace, self._trace.num_nodes
        if n < 0:
            n += len(trace)
        if not 0 <= n < len(trace):
            raise IndexError("trace row index out of range")
        row = trace.data[n * trace.width:(n + 1) * trace.width].tolist()
        return StepRecord._make((
            n, *row[:4], tuple(row[4:4 + m]), tuple(row[4 + m:4 + 2 * m]),
            tuple(row[4 + 2 * m:4 + 3 * m]), tuple(row[4 + 3 * m:4 + 4 * m]), *row[-2:],
        ))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, _Records):
            return NotImplemented
        a, b = self._trace, other._trace
        return a.num_nodes == b.num_nodes and a.data == b.data


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
        dt = scenario.dt
        self.xi = topology.xi if topology.xi is not None else estimate_osp_index(topology.hub)
        self.hub = make_hub_admittance(topology.hub, dt)
        legs = [delay.halved() for delay in topology.delays]
        self.delays_at = delay_evaluator(legs)  # t -> every port's one-leg delay d, in order
        # per node, bound once: forward push, node step, backward push (d from self.delays_at)
        self.ports = []
        for z, leg in zip(topology.nodes, legs):
            if not math.isfinite(leg.frequency * (scenario.num_steps * dt)):
                raise ConfigurationError(f"delay frequency {leg.frequency!r} overflows phase f*t")
            # a delay longer than the run only ever reads the cold-start 0
            length = min(leg.max_delay, scenario.duration)
            node = NodeState(z, dt, topology.inertia_filter_cutoff, topology.command_filter_cutoff)
            self.ports.append((DelayLine(length, dt).push_and_sample, node.step,
                               DelayLine(length, dt).push_and_sample))
        self.ledger = EnergyLedger(dt, self.xi, topology.num_nodes)
        self.hold_ledger = HoldLedger(
            self.xi if topology.xi is None else _hold_credit(topology.hub), self.hub
        )
        self._next_input = scenario.input_at(0)
        self.num_steps = scenario.num_steps
        self.n = 0
        self.trace = Trace(dt, self.xi, topology.num_nodes)
        self.fault: str | None = None  # the message of the SimulationFault that ended run()

    def step(self) -> bool:
        """Advance one sample period and append its row to ``self.trace``.

        Returns whether the step crossed a divergence limit (|y| above
        VELOCITY_LIMIT or E_obs below -ENERGY_LIMIT).  A step that faults
        raises SimulationFault and appends no row.
        """
        n = self.n
        if n >= self.num_steps:
            raise SimulationFault("simulation already ran past its duration")
        topo, scen = self.topology, self.scenario
        dt = scen.dt
        t = n * dt

        u_ext = self._next_input
        self._next_input = scen.input_at(n + 1)
        y = self.hub.velocity

        u = [backward(node(forward(y, d)), d)
             for d, (forward, node, backward) in zip(self.delays_at(t), self.ports)]

        raw = fold(u)
        e_obs = self.ledger.ingest_step(y, raw)
        if topo.stabilizer_enabled:
            target = self.hold_ledger.target(raw, e_obs, u_ext, self._next_input)
            gains = allocate(target, [y * y] * len(u), topo.weights, dt).gains
            u_hat = [ui + a * y for ui, a in zip(u, gains)]
            net = fold(u_hat)
        else:
            gains = [0.0] * len(u)
            u_hat, net = u, raw  # bit-exact pass-through, no -0.0 flips in the trace

        force = u_ext - net
        if not (math.isfinite(e_obs) and math.isfinite(force)):
            raise SimulationFault(
                f"non-finite step at n={n}: E_obs={e_obs!r}, hub force={force!r}"
            )
        self.ledger.record_injection(gains)
        self.hold_ledger.record(force, net)
        _, pos = self.hub.step(force)
        self.n = n + 1
        self.trace.append(
            t, u_ext, y, pos, u, u_hat, gains, self.ledger.dissipated,
            e_obs, self.ledger.controlled_energy,
        )
        return abs(y) > VELOCITY_LIMIT or e_obs < -ENERGY_LIMIT

    def run(self) -> tuple[Trace, SummaryMetrics]:
        """Step to the configured duration or until a divergence limit trips.

        The step that crosses a limit is recorded, then the run stops.  A step
        that faults ends the run unrecorded, so every recorded cell is finite,
        and leaves its message in ``fault``.
        """
        diverged = False
        try:
            while not diverged and self.n < self.num_steps:
                diverged = self.step()
        except SimulationFault as exc:
            diverged, self.fault = True, str(exc)
        return self.trace, summarize(self.trace, diverged)


def summarize(trace: Trace, diverged: bool) -> SummaryMetrics:
    if not len(trace):
        zeros = (0.0,) * trace.num_nodes
        return SummaryMetrics(diverged, 0.0, 0.0, zeros, zeros, 0.0, 0)
    last = trace.records[-1]
    dissipated = last.dissipated
    total = fold(dissipated)
    shares = tuple(d / total for d in dissipated) if total > 0.0 else (0.0,) * len(dissipated)
    return SummaryMetrics(
        diverged=diverged,
        min_e_hat=min(trace.data[trace.width - 1::trace.width]),
        final_abs_y=abs(last.y),
        dissipated=dissipated,
        shares=shares,
        total_injected=total,
        steps=len(trace),
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
