import numpy as np
import pytest

import passivenet as pn
from passivenet.allocator import allocate
from passivenet.selfcheck import random_allocation


def test_surplus_branch_returns_zero():
    res = allocate(0.5, np.ones(3), pn.WeightMatrix((1.0, 1.0, 1.0)), 0.001)
    assert not res.fired
    assert np.all(res.gains == 0.0)


def test_symmetric_split():
    res = allocate(-3.0, np.ones(3), pn.WeightMatrix((1.0, 1.0, 1.0)), 1.0)
    assert res.fired
    np.testing.assert_allclose(res.gains, [1.0, 1.0, 1.0], rtol=1e-12)
    assert float(res.gains @ np.ones(3)) == pytest.approx(3.0, rel=1e-12)


def test_focused_weighting_closed_form():
    # Q = diag(1, 1e-4, 1), S = 1s, E_obs = -1, dt = 1 -> A = (1, 1e4, 1)/10002
    res = allocate(-1.0, np.ones(3), pn.WeightMatrix((1.0, 1e-4, 1.0)), 1.0)
    want = np.array([1.0, 1e4, 1.0]) / 10002.0
    np.testing.assert_allclose(res.gains, want, rtol=1e-12)
    assert float(res.gains @ np.ones(3)) == pytest.approx(1.0, rel=1e-9)


def test_zero_output_defers():
    res = allocate(-1.0, np.zeros(3), pn.WeightMatrix((1.0, 1.0, 1.0)), 0.001)
    assert not res.fired
    assert np.all(res.gains == 0.0)


def test_alpha_max_clamp():
    res = allocate(
        -3.0, np.ones(3), pn.WeightMatrix((1.0, 1.0, 1.0)), 1.0, alpha_max=0.5
    )
    assert res.fired
    assert np.all(res.gains <= 0.5)
    assert res.constraint_residual < 0.0  # clamped short of the deficit


def test_invalid_weights_rejected():
    with pytest.raises(pn.ConfigurationError):
        pn.WeightMatrix((1.0, 0.0, 1.0))
    with pytest.raises(pn.ConfigurationError):
        pn.WeightMatrix((1.0, -2.0))
    with pytest.raises(pn.ConfigurationError):
        pn.WeightMatrix(())


def test_nonfinite_inputs_fault():
    q = pn.WeightMatrix((1.0,))
    with pytest.raises(pn.SimulationFault):
        allocate(float("nan"), np.ones(1), q, 0.001)
    with pytest.raises(pn.SimulationFault):
        allocate(-1.0, np.array([float("inf")]), q, 0.001)
    with pytest.raises(pn.SimulationFault):
        allocate(-1.0, np.array([-1.0]), q, 0.001)


def test_bad_knobs_are_rejected():
    # the same ranges Topology enforces: a negative cap gives energy-injecting
    # gains, and a threshold >= 1 defers a real deficit
    q = pn.WeightMatrix((1.0, 1.0, 1.0))
    for knobs in (
        {"alpha_max": -1.0},
        {"alpha_max": 0.0},
        {"alpha_max": float("nan")},
        {"alpha_max": float("inf")},
        {"epsilon_singular": 2.0},
        {"epsilon_singular": 1.0},
        {"epsilon_singular": -1e-12},
        {"epsilon_singular": float("nan")},
    ):
        with pytest.raises(pn.ConfigurationError, match=next(iter(knobs))):
            allocate(-1.0, np.ones(3), q, 1e-3, **knobs)


def test_randomized_kkt_residual():
    # stationarity: Q A + lambda S = 0 with lambda = (S'Q^{-1}S)^{-1} E_obs/dt
    rng = np.random.default_rng(33)
    for _ in range(500):
        e_obs, s, q, dt = random_allocation(rng)
        res = allocate(e_obs, s, q, dt)
        if not res.fired:
            continue
        qd = np.asarray(q.diagonal)
        lam = (e_obs / dt) / float(np.dot(s, s / qd))
        resid = qd * res.gains + lam * s
        scale = max(float(np.max(np.abs(qd * res.gains))), 1e-300)
        assert float(np.max(np.abs(resid))) <= 1e-9 * scale


def test_randomized_perturbation_optimality():
    rng = np.random.default_rng(34)
    for _ in range(50):
        e_obs, s, q, dt = random_allocation(rng)
        res = allocate(e_obs, s, q, dt)
        if not res.fired:
            continue
        qd = np.asarray(q.diagonal)
        m = len(qd)
        base = float(res.gains @ (qd * res.gains))
        z = rng.normal(size=(200, m))
        ss = float(np.dot(s, s))
        if ss > 0.0:
            z = z - np.outer(z @ s / ss, s)  # feasible directions: z.s = 0
        perturbed = res.gains + z
        vals = np.einsum("ij,j,ij->i", perturbed, qd, perturbed)
        assert np.all(vals >= base - 1e-9 * max(1.0, base))


def test_identity_weight_gives_pseudoinverse_direction():
    rng = np.random.default_rng(36)
    for _ in range(200):
        m = int(rng.integers(2, 7))
        s = rng.uniform(0.0, 5.0, m)
        if not np.any(s > 0.0):
            continue
        res = allocate(-1.0, s, pn.WeightMatrix((1.0,) * m), 1e-3)
        # A parallel to S: the cross terms vanish
        a = res.gains
        cross = np.outer(a, s) - np.outer(s, a)
        assert float(np.max(np.abs(cross))) <= 1e-12 * max(1.0, float(np.max(a)) * float(np.max(s)))
