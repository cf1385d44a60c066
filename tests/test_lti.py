import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import passivenet as pn
from passivenet.selfcheck import LINEAR_STATES, check_state_linearity

from conftest import TABLE1_HUB

INTEGRATOR = pn.ContinuousTF((1.0,), (1.0, 0.0))


def test_integrator_hold_equivalence():
    # y[n] = y[n-1] + dt*u[n-1]: after 100 steps of u=1 the returned velocity is 1.0
    hub = pn.make_hub_admittance(INTEGRATOR, 0.01)
    ys = [hub.step(1.0)[0] for _ in range(101)]
    assert ys[0] == 0.0
    assert ys[1] == pytest.approx(0.01, rel=1e-12)
    assert ys[100] == pytest.approx(1.0, rel=1e-12)
    for n in range(1, 101):
        assert ys[n] == pytest.approx(ys[n - 1] + 0.01, rel=1e-12)


def test_zero_input_zero_state():
    hub = pn.make_hub_admittance(TABLE1_HUB, 0.001)
    for _ in range(500):
        v, x = hub.step(0.0)
        assert v == 0.0 and x == 0.0


def test_step_force_final_value():
    # Z_local under constant unit force: velocity -> 0, position -> 1/k = 1.
    # The slow hub pole has tau ~ 15 s, so settle for 250 s.
    hub = pn.make_hub_admittance(TABLE1_HUB, 0.001)
    v = x = 0.0
    for _ in range(250_000):
        v, x = hub.step(1.0)
    assert abs(v) < 1e-6
    assert x == pytest.approx(1.0, abs=1e-3)


def _dense_ode_oracle(tf, dt, forces, refine=100):
    """Integrate the same held force with a step refine times finer."""
    from scipy.signal import tf2ss

    a, b, c, _ = tf2ss(list(tf.num), list(tf.den))
    a, b, c = np.asarray(a), np.asarray(b)[:, 0], np.asarray(c)[0]
    ad = expm(a * (dt / refine))
    # integral of expm over one fine step applied to b
    n = a.shape[0]
    blk = np.zeros((n + 1, n + 1))
    blk[:n, :n] = a * (dt / refine)
    blk[:n, n] = b * (dt / refine)
    bd = expm(blk)[:n, n]
    x = np.zeros(n)
    ys = []
    for f in forces:
        ys.append(float(c @ x))
        for _ in range(refine):
            x = ad @ x + bd * f
    return np.asarray(ys)


def test_impulse_response_matches_dense_ode():
    dt = 0.001
    n_steps = 2000
    forces = [1.0 / dt] + [0.0] * (n_steps - 1)
    hub = pn.make_hub_admittance(TABLE1_HUB, dt)
    got = np.asarray([hub.step(f)[0] for f in forces])
    want = _dense_ode_oracle(TABLE1_HUB, dt, forces)
    assert got[1] != 0.0  # impulse visible one step later
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
    assert np.abs(got[-200:]).max() < np.abs(got).max() / 10  # decaying


def test_constant_force_matches_dense_ode():
    dt = 0.001
    forces = [1.0] * 3000
    hub = pn.make_hub_admittance(TABLE1_HUB, dt)
    got = np.asarray([hub.step(f)[0] for f in forces])
    want = _dense_ode_oracle(TABLE1_HUB, dt, forces)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def _travel_oracle(tf, dt):
    """One held sample of the hub with its travelled distance as an extra state."""
    from scipy.signal import tf2ss

    a, b, c, _ = tf2ss(list(tf.num), list(tf.den))
    n = a.shape[0]
    blk = np.zeros((n + 2, n + 2))
    blk[:n, :n] = a
    blk[n, :n] = c[0]           # d(travel)/dt = velocity
    blk[:n, n + 1] = b[:, 0]    # last column: the held force
    step = expm(blk * dt)

    def advance(x, force):
        full = step @ np.concatenate([x, [0.0, force]])
        return full[:n], float(full[n])

    return advance, c[0]


@pytest.mark.parametrize("tf", [TABLE1_HUB, INTEGRATOR], ids=["table1", "integrator"])
def test_hold_preview_matches_dense_travel(tf):
    dt = 0.001
    rng = np.random.default_rng(11)
    hub = pn.make_hub_admittance(tf, dt)
    advance, c = _travel_oracle(tf, dt)
    x = np.zeros(len(c))
    for f in rng.normal(scale=50.0, size=30):
        hub.step(float(f))
        x, _ = advance(x, float(f))
    force, force_next = 1234.5, -321.0
    travel, next_velocity, next_travel = hub.hold_preview()
    x1, want_travel = advance(x, force)
    _, want_next_travel = advance(x1, force_next)
    assert travel + hub.hold_travel * force == pytest.approx(want_travel, rel=1e-9)
    assert next_velocity + hub.hold_velocity * force == pytest.approx(float(c @ x1), rel=1e-9)
    assert next_travel + hub.hold_carry * force + hub.hold_travel * force_next == (
        pytest.approx(want_next_travel, rel=1e-9)
    )
    hub.step(force)
    assert hub.velocity() == pytest.approx(float(c @ x1), rel=1e-9)


def _scipy_zoh(tf, dt):
    """The reference realization: scipy's tf2ss, then cont2discrete(zoh)."""
    from scipy.signal import cont2discrete, tf2ss

    ad, bd, cd, _, _ = cont2discrete(tf2ss(list(tf.num), list(tf.den)), dt, method="zoh")
    return ad, bd[:, 0], cd[0]


def _assert_realization_equals_scipy(tf, dt=0.001):
    hub = pn.make_hub_admittance(tf, dt)
    for got, want in zip((hub._a, hub._b, hub._c), _scipy_zoh(tf, dt)):
        assert np.array_equal(got, want), tf


def _stable_random_hubs(count):
    rng = np.random.default_rng(21)
    for _ in range(count):
        order = int(rng.integers(1, 6))
        poles = -(10.0 ** rng.uniform(-2.0, 3.0, size=order))
        den = float(rng.uniform(0.1, 5.0)) * np.poly(poles)
        num = rng.normal(size=int(rng.integers(1, order + 1)))
        yield pn.ContinuousTF(tuple(num.tolist()), tuple(den.tolist()))


@pytest.mark.filterwarnings("ignore:Badly conditioned")  # scipy trims the exact zero
@pytest.mark.parametrize(
    "tf",
    [
        TABLE1_HUB,
        INTEGRATOR,
        pn.ContinuousTF((3.0, -1.0), (-2.5, 4.0, 7.0)),   # non-monic, negative leading
        pn.ContinuousTF((0.0, 2.0), (1.0, 3.0, 2.0)),     # exact-zero leading numerator
    ],
    ids=["table1", "integrator", "non_monic", "zero_leading_num"],
)
def test_realization_equals_scipy(tf):
    _assert_realization_equals_scipy(tf)


def test_realization_equals_scipy_on_random_stable_hubs():
    for tf in _stable_random_hubs(200):
        _assert_realization_equals_scipy(tf)


def test_overflowing_realization_is_rejected():
    with pytest.raises(pn.ConfigurationError, match="not finite"):
        pn.make_hub_admittance(pn.ContinuousTF((1.0,), (1.0, -2e5)), 0.01)
    with pytest.raises(pn.ConfigurationError, match="not finite"):
        pn.make_hub_admittance(pn.ContinuousTF((1e300,), (1e-300, 1.0)), 0.01)


def test_building_a_run_leaves_scipy_signal_unloaded():
    # scipy.signal costs most of the import time; the package must not pull it in
    code = (
        "import sys, passivenet as pn\n"
        "cfg = pn.parse_config_file(pn.bundled_config_path('table1.cfg'))\n"
        "pn.build(cfg.topology, cfg.scenario)\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy.signal'))\n"
        "assert not loaded, loaded\n"
    )
    src = str(Path(pn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_hub_requires_strictly_proper():
    with pytest.raises(pn.ConfigurationError):
        pn.make_hub_admittance(pn.ContinuousTF((1.0, 0.0), (1.0, 1.0)), 0.001)


def test_node_difference_equation_worked_example():
    node = pn.NodeState(pn.ImpedanceTriple(10.0, 5.0, 400.0), 0.01)
    f0 = node.step(1.0)
    f1 = node.step(1.0)
    assert f0 == pytest.approx(1007.0, rel=1e-12)
    assert f1 == pytest.approx(11.0, rel=1e-12)
    # closed form f[n] = 5 + 400*dt*(n + 1/2) for constant unit velocity
    for n in range(2, 50):
        assert node.step(1.0) == pytest.approx(5.0 + 400.0 * 0.01 * (n + 0.5), rel=1e-12)


def test_node_rejects_nonpositive_sample_period():
    with pytest.raises(pn.ConfigurationError):
        pn.NodeState(pn.ImpedanceTriple(10.0, 5.0, 400.0), 0.0)


def test_node_zero_triple():
    node = pn.NodeState(pn.ImpedanceTriple(0.0, 0.0, 0.0), 0.01)
    rng = np.random.default_rng(3)
    assert all(node.step(float(v)) == 0.0 for v in rng.normal(size=100))


def test_node_negation_symmetry():
    pos = pn.NodeState(pn.ImpedanceTriple(10.0, 5.0, 400.0), 0.001)
    neg = pn.NodeState(pn.ImpedanceTriple(-10.0, -5.0, -400.0), 0.001)
    rng = np.random.default_rng(4)
    for v in rng.normal(size=500):
        assert neg.step(float(v)) == -pos.step(float(v))


@pytest.mark.parametrize("make_state", [make for _, make in LINEAR_STATES])
def test_linearity(make_state):
    check_state_linearity(make_state)


def test_node_passivity_over_whole_periods():
    # positive-real triple absorbs energy on a sinusoid spanning whole periods
    dt = 0.001
    n = 5000  # 5 periods at 1 Hz
    v = np.sin(2.0 * np.pi * 1.0 * dt * np.arange(n))
    node = pn.NodeState(pn.ImpedanceTriple(10.0, 5.0, 400.0), dt)
    forces = np.asarray([node.step(float(vi)) for vi in v])
    energy = dt * float(np.dot(forces, v))
    assert energy >= -1e-6
    # the negated triples produce exactly the negated energy
    node2 = pn.NodeState(pn.ImpedanceTriple(-10.0, -5.0, -400.0), dt)
    forces2 = np.asarray([node2.step(float(vi)) for vi in v])
    assert dt * float(np.dot(forces2, v)) == -energy


def test_filtered_inertia_stays_passive():
    dt = 0.001
    n = 5000
    v = np.sin(2.0 * np.pi * 1.0 * dt * np.arange(n))
    node = pn.NodeState(
        pn.ImpedanceTriple(10.0, 5.0, 400.0), dt, derivative_cutoff=20.0
    )
    forces = np.asarray([node.step(float(vi)) for vi in v])
    assert dt * float(np.dot(forces, v)) >= -1e-6


def test_osp_index_table1_hub():
    grid = np.logspace(-3, 4, 1000)
    assert pn.estimate_osp_index(TABLE1_HUB, grid) == pytest.approx(15.0, abs=1e-6)


def test_osp_index_first_order_lag():
    grid = np.logspace(-3, 4, 1000)
    xi = pn.estimate_osp_index(pn.ContinuousTF((1.0,), (1.0, 1.0)), grid)
    assert xi == pytest.approx(1.0, abs=1e-9)


def test_osp_index_lossless_clamps_to_zero():
    assert pn.estimate_osp_index(INTEGRATOR, np.logspace(-2, 2, 50)) == 0.0


def test_osp_index_rejects_unstable():
    with pytest.raises(pn.ConfigurationError):
        pn.estimate_osp_index(pn.ContinuousTF((1.0,), (1.0, -1.0)))


def test_osp_index_rejects_bad_grid():
    with pytest.raises(pn.ConfigurationError):
        pn.estimate_osp_index(TABLE1_HUB, [0.0, 1.0])
    with pytest.raises(pn.ConfigurationError):
        pn.estimate_osp_index(TABLE1_HUB, [])


def test_tf_validation():
    with pytest.raises(pn.ConfigurationError):
        pn.ContinuousTF((), (1.0,))
    with pytest.raises(pn.ConfigurationError):
        pn.ContinuousTF((1.0,), (0.0, 1.0))
