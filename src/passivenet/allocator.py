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

from .errors import ConfigurationError, SimulationFault


@dataclass(frozen=True)
class WeightMatrix:
    """Diagonal of the symmetric positive definite penalty matrix Q."""

    diagonal: tuple[float, ...]

    def __post_init__(self):
        if len(self.diagonal) == 0:
            raise ConfigurationError("weight matrix diagonal must be nonempty")
        for q in self.diagonal:
            if not math.isfinite(q) or q <= 0.0:
                raise ConfigurationError(
                    f"weight matrix diagonal entries must be positive and finite, got {q!r}"
                )
        inverse = 1.0 / np.asarray(self.diagonal, dtype=float)
        inverse.setflags(write=False)
        object.__setattr__(self, "_inverse", inverse)

    def __len__(self) -> int:
        return len(self.diagonal)

    def inverse_diagonal(self) -> np.ndarray:
        """1/q_i as a read-only array, computed once."""
        return self._inverse


def check_allocator_knobs(epsilon_singular: float, alpha_max: float | None) -> None:
    """Reject a deferral threshold outside [0, 1) or a gain cap that is not None or > 0.

    S'Q^{-1}S <= max(S)^2 * sum(1/q), so a threshold >= 1 would defer every
    step; a cap <= 0 would make the gains inject energy.
    """
    if not 0.0 <= epsilon_singular < 1.0:
        raise ConfigurationError("epsilon_singular must be in [0, 1)")
    if alpha_max is not None and not 0.0 < alpha_max < math.inf:
        raise ConfigurationError("alpha_max must be None or a finite value > 0")


@dataclass(frozen=True)
class AllocationResult:
    """Damping gains, whether the deficit branch fired, and A'S + E_obs/dt."""

    gains: np.ndarray
    fired: bool
    constraint_residual: float


def allocate(
    e_obs: float,
    squared_outputs,
    weights: WeightMatrix,
    dt: float,
    *,
    epsilon_singular: float = 1e-12,
    alpha_max: float | None = None,
) -> AllocationResult:
    """Compute the per-port damping gain vector for one step.

    The singularity guard is scale-relative: the deficit branch defers
    (gains stay zero, the deficit rides forward in the ledger) only when
    S' Q^{-1} S is negligible against max(S)^2 * sum(1/q), which keeps the
    decision invariant under rescaling of Q or of the output units and
    means any genuinely nonzero S fires.
    """
    if dt <= 0.0:
        raise ConfigurationError("sample period must be positive")
    check_allocator_knobs(epsilon_singular, alpha_max)
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
    denom = float(np.dot(s, s_over_q))          # S' Q^{-1} S
    scale = float(s.max()) ** 2 * float(inv_q.sum())
    if scale <= 0.0 or denom <= epsilon_singular * scale:
        return AllocationResult(zero, False, e_obs / dt)

    gains = s_over_q * ((-e_obs / dt) / denom)
    if alpha_max is not None:
        gains = np.minimum(gains, alpha_max)
    residual = float(np.dot(gains, s)) + e_obs / dt
    return AllocationResult(gains, True, residual)
