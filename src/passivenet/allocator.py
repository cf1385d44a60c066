"""Optimal dissipation allocator: minimum-weighted-norm damping injection.

When the observable energy goes negative the allocator solves

    min_A  (1/2) A' Q A   subject to   A' S = -E_obs / dt

for the per-port damping gains A, with Q a positive diagonal penalty and
S the per-port squared outputs.  The closed form is the weighted
pseudoinverse direction A = Q^{-1} S (S' Q^{-1} S)^{-1} (-E_obs/dt),
computed elementwise as S_i/q_i so Q^{-1} is never formed as a matrix.
The equality constraint makes the controlled energy land exactly on zero;
positive observable energy yields A = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SimulationFault, check_positive_finite

# S'Q^{-1}S at or below this fraction of max(S)^2 * sum(1/q) defers the deficit.
# In the loop every port sees the one hub output, so the two are equal and only
# an S'Q^{-1}S that underflows to zero defers; the value matters for a general S.
EPSILON_SINGULAR = 1e-12


@dataclass(frozen=True)
class WeightMatrix:
    """Diagonal of the symmetric positive definite penalty matrix Q."""

    diagonal: tuple[float, ...]

    def __post_init__(self):
        if len(self.diagonal) == 0:
            raise ConfigurationError("weight matrix diagonal must be nonempty")
        for q in self.diagonal:
            check_positive_finite(q, "weight matrix diagonal entry")
        inverse = 1.0 / np.asarray(self.diagonal, dtype=float)
        inverse.setflags(write=False)
        object.__setattr__(self, "_inverse", inverse)

    def __len__(self) -> int:
        return len(self.diagonal)

    def inverse_diagonal(self) -> np.ndarray:
        """1/q_i as a read-only array, computed once."""
        return self._inverse


@dataclass(frozen=True)
class AllocationResult:
    """Damping gains, whether the deficit branch fired, and A'S + E_obs/dt."""

    gains: np.ndarray
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
    check_positive_finite(dt)
    if not math.isfinite(e_obs):
        raise SimulationFault(f"non-finite observable energy: {e_obs!r}")
    s = np.asarray(squared_outputs, dtype=float)
    if s.shape != (len(weights),):
        raise SimulationFault(
            f"squared-output vector has shape {s.shape}, expected ({len(weights)},)"
        )
    if not np.isfinite(s).all():
        raise SimulationFault(f"non-finite squared-output vector: {s!r}")
    if s.min() < 0.0:
        raise SimulationFault("squared-output vector has a negative entry")

    zero = np.zeros(len(weights))
    if e_obs >= 0.0:
        return AllocationResult(zero, False, e_obs / dt)

    inv_q = weights.inverse_diagonal()
    s_over_q = s * inv_q
    denom = math.fsum((s * s_over_q).tolist())  # S' Q^{-1} S, exactly rounded
    scale = float(s.max()) ** 2 * float(inv_q.sum())
    if scale <= 0.0 or denom <= EPSILON_SINGULAR * scale:
        return AllocationResult(zero, False, e_obs / dt)

    gains = s_over_q * ((-e_obs / dt) / denom)
    residual = math.fsum((gains * s).tolist()) + e_obs / dt
    return AllocationResult(gains, True, residual)
