import math
import random

import numpy as np
import pytest

import passivenet as pn
from passivenet.allocator import allocate, constraint_residual
from passivenet.selfcheck import random_allocation


def test_surplus_branch_returns_zero():
    res = allocate(0.5, np.ones(3), pn.WeightMatrix((1.0, 1.0, 1.0)), 0.001)
    assert not res.fired
    assert res.gains == (0.0, 0.0, 0.0)


def test_symmetric_split():
    res = allocate(-3.0, np.ones(3), pn.WeightMatrix((1.0, 1.0, 1.0)), 1.0)
    assert res.fired
    np.testing.assert_allclose(res.gains, [1.0, 1.0, 1.0], rtol=1e-12)
    assert float(np.asarray(res.gains) @ np.ones(3)) == pytest.approx(3.0, rel=1e-12)


def test_focused_weighting_closed_form():
    # Q = diag(1, 1e-4, 1), S = 1s, E_obs = -1, dt = 1 -> A = (1, 1e4, 1)/10002;
    # Q = diag(1e-8, 1e8), S = (0, 1), E_obs = -1, dt = 1e-3 -> A = (0, 1000), an extreme
    # ratio whose S'Q^{-1}S = 1e-8 is far below max(S)^2 * sum(1/q) = 1e8
    for s, q, dt, want in (
        (np.ones(3), (1.0, 1e-4, 1.0), 1.0, np.array([1.0, 1e4, 1.0]) / 10002.0),
        (np.array([0.0, 1.0]), (1e-8, 1e8), 1e-3, np.array([0.0, 1000.0])),
    ):
        res = allocate(-1.0, s, pn.WeightMatrix(q), dt)
        assert res.fired
        np.testing.assert_allclose(res.gains, want, rtol=1e-12)
        assert float(np.asarray(res.gains) @ s) == pytest.approx(1.0 / dt, rel=1e-9)
        assert abs(constraint_residual(res.gains, s, -1.0, dt)) <= 1e-9 / dt


def test_zero_output_defers():
    res = allocate(-1.0, np.zeros(3), pn.WeightMatrix((1.0, 1.0, 1.0)), 0.001)
    assert not res.fired
    assert res.gains == (0.0, 0.0, 0.0)


def test_invalid_weights_rejected():
    with pytest.raises(pn.ConfigurationError):
        pn.WeightMatrix((1.0, 0.0, 1.0))
    with pytest.raises(pn.ConfigurationError):
        pn.WeightMatrix((1.0, -2.0))
    with pytest.raises(pn.ConfigurationError):
        pn.WeightMatrix(())
    with pytest.raises(pn.ConfigurationError, match="inverse"):  # 1/5e-324 overflows
        pn.WeightMatrix((1.0, 5e-324))


def test_nonfinite_inputs_fault():
    q = pn.WeightMatrix((1.0,))
    for s in ([1e200], [1e154, 1e154]):  # an infinite S_i^2/q_i, or finite ones summing past range
        with pytest.raises(pn.SimulationFault, match="overflows float range"):
            allocate(-1.0, s, pn.WeightMatrix((1.0,) * len(s)), 0.001)
    with pytest.raises(pn.SimulationFault):
        allocate(float("nan"), np.ones(1), q, 0.001)
    with pytest.raises(pn.SimulationFault):
        allocate(-1.0, np.array([float("inf")]), q, 0.001)
    with pytest.raises(pn.SimulationFault):
        allocate(-1.0, np.array([-1.0]), q, 0.001)


@pytest.mark.parametrize("s, q", [
    ([1e-160], (1.0,)),  # lambda = 1e303/1e-320 overflows
    ([1e-160, 0.0], (1.0, 1.0)),  # and the S_i = 0 port would get 0*inf = NaN
    ([1e-10], (1e-300,)),  # lambda = 1e23 is finite, its gain 1e290*lambda is not
])
def test_gain_past_float_range_faults(s, q):
    with pytest.raises(pn.SimulationFault, match="gains overflow float range"):
        allocate(-1e300, s, pn.WeightMatrix(q), 1e-3)


def test_residual_is_formed_when_read_bit_for_bit():
    rng = random.Random(37)
    fired = []
    for _ in range(300):
        e_obs, s, q, dt = random_allocation(rng)
        if rng.random() < 0.3:
            e_obs = -e_obs if rng.random() < 0.5 else e_obs
            s = [0.0] * len(s) if e_obs < 0.0 else s  # deferred: no deficit, or S = 0
        res = allocate(e_obs, s, q, dt)
        want = math.fsum(g * si for g, si in zip(res.gains, s)) + e_obs / dt
        assert constraint_residual(res.gains, s, e_obs, dt).hex() == want.hex()
        assert type(res.fired) is bool and type(res.gains) is tuple
        assert all(type(g) is float for g in res.gains)
        fired.append(res.fired)
    assert 100 < sum(fired) < 300


def test_identity_weight_gives_pseudoinverse_direction():
    rng = np.random.default_rng(36)
    for _ in range(200):
        m = int(rng.integers(2, 7))
        s = rng.uniform(0.0, 5.0, m)
        if not np.any(s > 0.0):
            continue
        res = allocate(-1.0, s, pn.WeightMatrix((1.0,) * m), 1e-3)
        # A parallel to S: the cross terms vanish
        a = np.asarray(res.gains)
        cross = np.outer(a, s) - np.outer(s, a)
        assert float(np.max(np.abs(cross))) <= 1e-12 * max(1.0, float(np.max(a)) * float(np.max(s)))


def _outcome(e_obs, s, q, dt):
    """allocate's result as bits, or the message of the SimulationFault it raised."""
    try:
        res = allocate(e_obs, s, q, dt)
    except pn.SimulationFault as exc:
        return str(exc)
    vector = [s] * len(q) if type(s) is float else s
    return ([g.hex() for g in res.gains], res.fired,
            constraint_residual(res.gains, vector, e_obs, dt).hex())


def test_broadcast_intake_equals_the_vector_bit_for_bit():
    rng = random.Random(41)
    seen = {"fired": 0, "deferred": 0, "surplus": 0, "overflow": 0}
    for k in range(420):
        e_obs, s, q, dt = random_allocation(rng)
        e_obs = -e_obs if k % 7 == 0 else e_obs  # a surplus as well as deficits
        # the draw's first S on even k; else 0 and -0.0, and an S whose S^2/q underflows,
        # defer, 1e200 overflows S'Q^-1 S, and a small S
        s = [s[0], 0.0, -0.0, 1e-200, 1e200, rng.uniform(0.0, 1e-3)][(k // 2) % 6 if k % 2 else 0]
        broadcast = _outcome(e_obs, s, q, dt)
        assert broadcast == _outcome(e_obs, [s] * len(q), q, dt), (e_obs, s, q, dt)
        if isinstance(broadcast, str):
            assert broadcast.startswith("S'Q^-1 S overflows float range"), broadcast
            seen["overflow"] += 1
        else:
            seen["fired" if broadcast[1] else "deferred" if e_obs < 0.0 else "surplus"] += 1
    assert seen["fired"] > 200 and min(seen.values()) > 10, seen


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
def test_broadcast_intake_refuses_what_the_vector_refuses(s):
    q = pn.WeightMatrix((1.0, 2.0))
    for e_obs in (-1.0, 1.0):
        with pytest.raises(pn.SimulationFault) as broadcast:
            allocate(e_obs, s, q, 1e-3)
        with pytest.raises(pn.SimulationFault) as vector:
            allocate(e_obs, [s, s], q, 1e-3)
        assert str(broadcast.value) == str(vector.value)
