"""Optimal dissipation allocator: minimum-weighted-norm damping injection.

When the observable energy goes negative the allocator solves

    min_A  (1/2) A' Q A   subject to   A' S = -E_obs / dt

for the per-port damping gains A, with Q a positive diagonal penalty and
S the per-port squared outputs (one number y^2 where every port sees the
one hub output y).  The closed form is the weighted pseudoinverse direction
A = Q^{-1} S (S' Q^{-1} S)^{-1} (-E_obs/dt), computed elementwise in
floats as S_i/q_i, so Q^{-1} is never formed.
The equality constraint (its residual: :func:`constraint_residual`) makes the
controlled energy land exactly on zero; positive observable energy yields A = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul
from typing import NamedTuple

from .errors import ConfigurationError, SimulationFault, check_positive_finite


@dataclass(frozen=True)
class WeightMatrix:
    """Diagonal of the symmetric positive definite penalty matrix Q."""

    diagonal: tuple[float, ...]
    inverse: tuple[float, ...] = field(init=False, repr=False, compare=False)  # 1/q_i

    def __post_init__(self):
        if len(self.diagonal) == 0:
            raise ConfigurationError("weight matrix diagonal must be nonempty")
        diagonal = tuple(
            check_positive_finite(q, "weight matrix diagonal entry") for q in self.diagonal
        )
        inverse = tuple(check_positive_finite(1.0 / q, "inverse weight 1/q") for q in diagonal)
        object.__setattr__(self, "diagonal", diagonal)  # builtin floats, as the gains are
        object.__setattr__(self, "inverse", inverse)

    def __len__(self) -> int:
        return len(self.diagonal)


class AllocationResult(NamedTuple):
    """Damping gains A, which the step reads, and whether the deficit branch fired."""

    gains: tuple[float, ...]
    fired: bool


def constraint_residual(gains, squared_outputs, e_obs: float, dt: float) -> float:
    """A'S + E_obs/dt, the equality constraint's residual, its dot product exactly rounded."""
    return math.fsum(map(mul, gains, squared_outputs)) + e_obs / dt


def allocate(e_obs: float, squared_outputs, weights: WeightMatrix, dt: float) -> AllocationResult:
    """Compute the per-port damping gain vector for one step.

    ``squared_outputs`` is S as M numbers, or one builtin float s for S_i = s at every
    port, checked once and then the vector (s,) * M, so the gains are the vector's bits.
    With Q diagonal and S >= 0 every term of S' Q^{-1} S is nonnegative, so
    the sum cancels nothing and needs no conditioning threshold: a deficit
    fires whenever S' Q^{-1} S > 0 and defers (gains stay zero, the deficit
    rides forward in the ledger) only when it is 0, that is S = 0 or every
    S_i^2/q_i underflows.  An S' Q^{-1} S past float range, or a gain that is
    not finite (lambda = (-E_obs/dt)/(S' Q^{-1} S) overflows), is a SimulationFault.
    """
    if not 0.0 < dt < math.inf:  # errors.check_positive_finite, inline on the step path
        raise ConfigurationError(f"sample period must be positive and finite, got {dt!r}")
    if not math.isfinite(e_obs):
        raise SimulationFault(f"non-finite observable energy: {e_obs!r}")
    inverse = weights.inverse
    dt, e_obs, m = float(dt), float(e_obs), len(inverse)
    if type(squared_outputs) is float and 0.0 <= squared_outputs < math.inf:
        s = (squared_outputs,) * m  # S_i = s at every port: one number, checked once
    else:  # a sequence, or a refused float S, checked as the vector [S] * M it stands for
        try:  # a flat sequence of numbers; a scalar, a string or a nested one raises TypeError
            s = (squared_outputs,) * m if type(squared_outputs) is float else tuple(squared_outputs)
            finite = all(map(math.isfinite, s))
        except TypeError:
            finite = None
        if finite is None or len(s) != m:
            raise SimulationFault(
                f"squared-output vector must be a flat sequence of {m} numbers, "
                f"got {squared_outputs!r}"
            )
        if not finite:
            raise SimulationFault(f"non-finite squared-output vector: {list(s)!r}")
        s = tuple(map(float, s))  # builtin floats, so the gains are too
        if min(s) < 0.0:
            raise SimulationFault("squared-output vector has a negative entry")

    if e_obs < 0.0:
        s_over_q = list(map(mul, s, inverse))
        try:  # S' Q^{-1} S, exactly rounded; fsum raises on finite terms that sum past range
            denom = math.fsum(map(mul, s, s_over_q))
        except OverflowError:
            denom = math.inf
        if denom == math.inf:
            raise SimulationFault(f"S'Q^-1 S overflows float range for S = {s!r}")
        if denom > 0.0:
            lam = (-e_obs / dt) / denom
            gains = tuple([v * lam for v in s_over_q])
            if not math.isfinite(max(gains)):  # an inf gain, and a NaN only beside one
                raise SimulationFault(f"gains overflow float range: lambda = {lam!r} "
                                      f"for E_obs = {e_obs!r}, S'Q^-1 S = {denom!r}")
            return AllocationResult(gains, True)
    return AllocationResult((0.0,) * m, False)
