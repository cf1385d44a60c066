"""Optimal dissipation allocator: minimum-weighted-norm damping injection.

When the observable energy goes negative the allocator solves

    min_A  (1/2) A' Q A   subject to   A' S = -E_obs / dt

for the per-port damping gains A, with Q a positive diagonal penalty and
S the per-port squared outputs.  The closed form is the weighted
pseudoinverse direction A = Q^{-1} S (S' Q^{-1} S)^{-1} (-E_obs/dt),
computed elementwise in floats as S_i/q_i, so Q^{-1} is never formed.
The equality constraint makes the controlled energy land exactly on zero;
positive observable energy yields A = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul

from .errors import ConfigurationError, SimulationFault, check_positive_finite, fold

# S'Q^{-1}S at or below this fraction of max(S)^2 * sum(1/q) defers the deficit.
# In the loop every port sees the one hub output, so the two are equal and only
# an S'Q^{-1}S that underflows to zero defers; the value matters for a general S.
EPSILON_SINGULAR = 1e-12


@dataclass(frozen=True)
class WeightMatrix:
    """Diagonal of the symmetric positive definite penalty matrix Q."""

    diagonal: tuple[float, ...]
    inverse: tuple[float, ...] = field(init=False, repr=False, compare=False)  # 1/q_i
    inverse_sum: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.diagonal) == 0:
            raise ConfigurationError("weight matrix diagonal must be nonempty")
        diagonal = tuple(
            check_positive_finite(q, "weight matrix diagonal entry") for q in self.diagonal
        )
        inverse = tuple(1.0 / q for q in diagonal)
        object.__setattr__(self, "diagonal", diagonal)  # builtin floats, as the gains are
        object.__setattr__(self, "inverse", inverse)
        object.__setattr__(self, "inverse_sum", fold(inverse))

    def __len__(self) -> int:
        return len(self.diagonal)


@dataclass(frozen=True)
class AllocationResult:
    """Damping gains, whether the deficit branch fired, and A'S + E_obs/dt."""

    gains: tuple[float, ...]
    fired: bool
    constraint_residual: float


def allocate(e_obs: float, squared_outputs, weights: WeightMatrix, dt: float) -> AllocationResult:
    """Compute the per-port damping gain vector for one step.

    The singularity guard is scale-relative: the deficit branch defers
    (gains stay zero, the deficit rides forward in the ledger) only when
    S' Q^{-1} S is negligible against max(S)^2 * sum(1/q), which keeps the
    decision invariant under rescaling of Q or of the output units and
    means any genuinely nonzero S fires.
    """
    dt = check_positive_finite(dt)
    if not math.isfinite(e_obs):
        raise SimulationFault(f"non-finite observable energy: {e_obs!r}")
    e_obs, m = float(e_obs), len(weights)
    try:  # a flat sequence of numbers; a scalar, a string or a nested one raises TypeError
        s = list(squared_outputs)
        finite = all(map(math.isfinite, s))
    except TypeError:
        finite = None
    if finite is None or len(s) != m:
        raise SimulationFault(
            f"squared-output vector must be a flat sequence of {m} numbers, "
            f"got {squared_outputs!r}"
        )
    if not finite:
        raise SimulationFault(f"non-finite squared-output vector: {s!r}")
    s = list(map(float, s))  # builtin floats, so the gains are too
    if min(s) < 0.0:
        raise SimulationFault("squared-output vector has a negative entry")

    if e_obs < 0.0:
        s_over_q = [si * r for si, r in zip(s, weights.inverse)]
        denom = math.fsum(map(mul, s, s_over_q))  # S' Q^{-1} S, exactly rounded
        scale = max(s) ** 2 * weights.inverse_sum
        if scale > 0.0 and denom > EPSILON_SINGULAR * scale:
            lam = (-e_obs / dt) / denom
            gains = tuple([v * lam for v in s_over_q])
            residual = math.fsum(map(mul, gains, s)) + e_obs / dt
            return AllocationResult(gains, True, residual)
    return AllocationResult((0.0,) * m, False, e_obs / dt)
