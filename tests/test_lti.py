import json
import math
import os
import random
import subprocess
import sys
from operator import mul
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import passivenet as pn
from passivenet.lti import _expm, _matmul, _rhp_root_count
from passivenet.observer import HoldLedger
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
    travel, (next_velocity, next_travel) = hub.travel, hub.next_sample()
    x1, want_travel = advance(x, force)
    _, want_next_travel = advance(x1, force_next)
    assert travel + hub.hold_travel * force == pytest.approx(want_travel, rel=1e-9)
    assert next_velocity + hub.hold_velocity * force == pytest.approx(float(c @ x1), rel=1e-9)
    assert next_travel + hub.hold_carry * force + hub.hold_travel * force_next == (
        pytest.approx(want_next_travel, rel=1e-9)
    )
    hub.step(force)
    assert hub.velocity == pytest.approx(float(c @ x1), rel=1e-9)


def test_velocity_is_the_output_of_the_current_state():
    # step() computes c x once, after it advances the state, and stores it as velocity
    # (c is the first of the hub's output rows)
    rng = np.random.default_rng(13)
    hub = pn.make_hub_admittance(TABLE1_HUB, 0.001)
    for f in rng.normal(scale=50.0, size=200):
        y = hub.velocity
        assert y == math.fsum(map(mul, hub._rows[0], hub._x))
        v, _ = hub.step(float(f))
        assert v == y
    assert hub.velocity == math.fsum(map(mul, hub._rows[0], hub._x)) != 0.0


@pytest.mark.parametrize("tf", [TABLE1_HUB, INTEGRATOR], ids=["table1", "integrator"])
def test_travel_is_the_previewed_travel_bit_for_bit(tf):
    # the hold ledger books the travel term that step() stored, plus hold_travel * force
    rng = np.random.default_rng(17)
    hub = pn.make_hub_admittance(tf, 0.001)
    ledger = HoldLedger(15.0, hub)
    for f in rng.normal(scale=50.0, size=100):
        force = float(rng.normal(scale=1e3))
        assert hub.travel == math.fsum(map(mul, hub._rows[1], hub._x))
        travel = hub.travel + hub.hold_travel * force
        want = ledger.energy + (15.0 * travel * travel / hub.dt + -2.0 * travel)
        assert ledger.record(force, -2.0) == want
        hub.step(float(f))


@pytest.mark.parametrize("tf", [TABLE1_HUB, INTEGRATOR], ids=["table1", "integrator"])
def test_next_sample_is_the_fsum_of_the_next_rows_bit_for_bit(tf):
    # next_sample() forms (c Ad x, travel_row Ad x) from the current state when it is read
    rng = np.random.default_rng(19)
    hub = pn.make_hub_admittance(tf, 0.001)
    assert hub.next_sample() == (0.0, 0.0)
    for f in rng.normal(scale=50.0, size=100):
        hub.step(float(f))
        rows = _matmul(hub._rows, hub._a)  # [c, travel_row] Ad, rows [2:4] of the realization
        assert hub.next_sample() == tuple(math.fsum(map(mul, row, hub._x)) for row in rows)


def test_next_sample_past_float_range_is_a_simulation_fault():
    hub = pn.make_hub_admittance(TABLE1_HUB, 0.001)
    hub._x = [9.25e307, -1e308]  # finite products whose c Ad x sum overflows
    with pytest.raises(pn.SimulationFault, match="hub state overflows float range"):
        hub.next_sample()


def test_hub_sample_period_is_a_builtin_float():
    dt = pn.make_hub_admittance(TABLE1_HUB, np.float64(1e-3)).dt
    assert type(dt) is float and dt == 1e-3


def _scipy_zoh(tf, dt):
    """The reference realization: scipy's tf2ss, then cont2discrete(zoh)."""
    from scipy.signal import cont2discrete, tf2ss

    ad, bd, cd, _, _ = cont2discrete(tf2ss(list(tf.num), list(tf.den)), dt, method="zoh")
    return ad, bd[:, 0], cd[0]


def _hold_integrals(exponential, tf, dt):
    """(once, twice) from ``exponential`` of the Van Loan block of scipy's realization."""
    from scipy.signal import tf2ss

    a = tf2ss(list(tf.num), list(tf.den))[0]
    n = a.shape[0]
    block = np.zeros((3 * n, 3 * n))
    block[:n, :n] = a * dt
    block[:n, n:2 * n] = np.eye(n) * dt
    block[n:2 * n, 2 * n:] = np.eye(n) * dt
    full = np.asarray(exponential(block))
    return full[:n, n:2 * n], full[:n, 2 * n:]


def _assert_realization_equals_scipy(tf, dt=0.001):
    """c exactly; Ad, bd, once and twice within 1e-13 of scipy's, normwise."""
    hub = pn.make_hub_admittance(tf, dt)
    want_ad, want_bd, want_c = _scipy_zoh(tf, dt)
    assert np.array_equal(hub._rows[0], want_c), tf
    mine = (hub._a, hub._b, *_hold_integrals(lambda block: _expm(block.tolist()), tf, dt))
    scipys = (want_ad, want_bd, *_hold_integrals(expm, tf, dt))
    for name, got, want in zip(("Ad", "bd", "once", "twice"), mine, scipys):
        err = np.abs(np.asarray(got) - want).max()
        assert err <= 1e-13 * np.abs(want).max(), (name, tf)


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


def _run_python(code, **env):
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(pn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **env)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_building_a_run_leaves_scipy_unloaded(tmp_path):
    # numpy and scipy are test-only dependencies: with numpy blocked, the CLI
    # runs, writes its files and self-checks, and loads neither
    case1 = json.loads(pn.bundled_config_path("case1.cfg").read_text())
    case1["scenario"]["duration"] = 2.0
    short = tmp_path / "case1_2s.cfg"
    short.write_text(json.dumps(case1))
    runs = [
        ["--config", "table1.cfg"],
        ["--config", str(short)],
        ["--config", "table1.cfg", "--seed-check"],
    ]
    _run_python(
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from passivenet.cli import main\n"
        f"for args in {runs!r}:\n"
        f"    assert main(args + ['--out', {str(tmp_path)!r}]) == 0, args\n"
        "loaded = sorted(m for m, mod in sys.modules.items()\n"
        "                if mod is not None and m.split('.')[0] in ('numpy', 'scipy'))\n"
        "assert not loaded, loaded\n"
    )
    for name in ("table1_trace.csv", "table1_summary.txt", "case1_trace.csv", "case1_summary.txt"):
        assert (tmp_path / name).stat().st_size > 0
    assert len((tmp_path / "case1_trace.csv").read_text().splitlines()) == 2001  # header + 2 s


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


class _ReferenceLowpass:
    """Backward-Euler one-pole low-pass, y[n] = y[n-1] + beta*(x[n] - y[n-1])."""

    def __init__(self, cutoff, dt):
        self._beta = (cutoff * dt) / (1.0 + cutoff * dt)
        self._y = 0.0

    def filter(self, x):
        self._y += self._beta * (x - self._y)
        return self._y


def _reference_filtered_node(triple, dt, command_cutoff, derivative_cutoff):
    """A node step composed of separate low-pass objects: the command filter in
    front of the node, the derivative filter on its backward difference."""
    command = None if command_cutoff is None else _ReferenceLowpass(command_cutoff, dt)
    derivative = None if derivative_cutoff is None else _ReferenceLowpass(derivative_cutoff, dt)
    state = {"prev": 0.0, "integral": 0.0}

    def step(v):
        if command is not None:
            v = command.filter(v)
        state["integral"] += dt * (v + state["prev"]) / 2.0
        dv = (v - state["prev"]) / dt
        if derivative is not None:
            dv = derivative.filter(dv)
        state["prev"] = v
        return triple.m * dv + triple.b * v + triple.k * state["integral"]

    return step


@pytest.mark.parametrize("command_cutoff, derivative_cutoff",
                         [(15.0, None), (None, 20.0), (15.0, 20.0), (None, None)])
def test_node_filters_match_the_lowpass_composition_bit_for_bit(command_cutoff,
                                                                 derivative_cutoff):
    rng = random.Random(14)
    triple, dt = pn.ImpedanceTriple(-2.0, 5.0, 400.0), 0.001
    node = pn.NodeState(triple, dt, derivative_cutoff=derivative_cutoff,
                        command_cutoff=command_cutoff)
    reference = _reference_filtered_node(triple, dt, command_cutoff, derivative_cutoff)
    for _ in range(5000):
        v = rng.gauss(0.0, 1.0) * 10.0 ** rng.uniform(-3.0, 3.0)
        assert node.step(v).hex() == reference(v).hex()


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
    for grid in ([[1.0, 2.0]], np.ones((3, 1)), "123", 5.0, [1.0, None]):
        with pytest.raises(pn.ConfigurationError, match="flat sequence"):
            pn.estimate_osp_index(TABLE1_HUB, grid)


def test_osp_index_rejects_grid_point_on_an_axis_pole_or_zero():
    axis_pole, axis_zero = ((1.0,), (1.0, 0.0, 1.0)), ((1.0, 0.0, 1.0), (1.0, 3.0, 3.0, 1.0))
    for num, den in (axis_pole, axis_zero):
        with pytest.raises(pn.ConfigurationError, match="1.0 is on an imaginary-axis pole or zero"):
            pn.estimate_osp_index(pn.ContinuousTF(num, den), [0.5, 1.0])
    # a response below or past float range fails closed instead of dividing by zero
    for tf in (pn.ContinuousTF((1e-200,), (1.0, 1.0)), pn.ContinuousTF((1e308,), (1.0, 0.1))):
        with pytest.raises(pn.ConfigurationError, match="overflows or vanishes"):
            pn.estimate_osp_index(tf, [1e-3])
    # off the pole, s^2 + 1 is accepted; its Re Y < 0 above 1 rad/s clamps the index
    assert pn.estimate_osp_index(pn.ContinuousTF((1.0,), (1.0, 0.0, 1.0)), [0.5, 2.0]) == 0.0


def test_default_osp_grid_is_numpys_logspace():
    grid = pn.default_osp_grid()
    assert len(grid) == 1000 and all(type(w) is float for w in grid)
    assert grid[0] == 1e-3 and grid[-1] == 1e4
    np.testing.assert_array_max_ulp(np.array(grid), np.logspace(-3.0, 4.0, 1000), maxulp=1)
    # the bundled hub's index is the one the bundled traces were recorded with
    assert pn.estimate_osp_index(TABLE1_HUB) == 14.999999999999991


@pytest.mark.parametrize("den, count", [
    ((1.0, 0.0), 0),  # integrator
    ((1.0, -1.0), 1),
    ((1.0, 0.0, 1.0), 0),  # s^2 + 1
    ((1.0, -1.0, 1.0, -1.0), 1),  # (s - 1)(s^2 + 1)
    ((0.5, 15.0, 1.0), 0),  # non-monic: the bundled hub
    ((-2.0, -3.0, -1.0), 0),  # negative leading coefficient
    ((-2.0, 3.0, -1.0), 2),
    ((1.0, 1.0, 0.0, 0.0), 0),  # s^2 (s + 1)
    ((1.0, 0.0, 2.0, 0.0, 1.0, 0.0, 0.0), 0),  # s^2 (s^2 + 1)^2: 2 unless s^2 is stripped
    ((1.0, 0.0, -1.0), 1),  # zero row with a real pair
    ((1.0, 1.0, 2.0, 2.0, 3.0), 2),  # zero lead in a nonzero row
    ((1.0, 3.0, 7.0, 13.0, 12.0, 4.0), 0),  # (s + 1)^3 (s^2 + 4): 2 in floating-point Routh
    ((3.0,), 0),
])
def test_rhp_root_count_exact_cases(den, count):
    assert _rhp_root_count(den) == count


def test_rhp_root_count_matches_numpy_roots():
    # random real polynomials of orders 1-6 with every root off the imaginary axis
    rng = np.random.default_rng(61)
    for _ in range(3000):
        order = int(rng.integers(1, 7))
        roots = []
        while len(roots) < order:
            re = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 2.0))
            if order - len(roots) >= 2 and rng.random() < 0.5:
                im = float(10.0 ** rng.uniform(-2.0, 2.0))
                roots += [complex(re, im), complex(re, -im)]
            else:
                roots.append(complex(re, 0.0))
        lead = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 2.0))
        den = lead * np.real(np.poly(roots))
        want = sum(r.real > 0.0 for r in roots)
        assert int(np.sum(np.roots(den).real > 0.0)) == want
        assert _rhp_root_count(den.tolist()) == want, den


def _polymul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_rhp_root_count_of_integer_factor_products_is_exact():
    # products of integer factors whose right-half-plane roots are known: real and
    # complex roots on either side, roots at 0, imaginary-axis pairs and roots
    # mirrored through 0 (+-a), each factor at times repeated
    rng = random.Random(23)
    for _ in range(2000):
        den, want = [rng.choice([-2, -1, 1, 3])], 0
        for _ in range(rng.randint(1, 4)):
            a, b = rng.randint(1, 4), rng.randint(1, 4)
            factor, count = rng.choice([
                ((1, a), 0), ((1, -a), 1), ((1, 0), 0), ((1, 0, b * b), 0),
                ((1, 2 * a, a * a + b * b), 0), ((1, -2 * a, a * a + b * b), 2), ((1, 0, -a * a), 1),
            ])
            for _ in range(rng.choice([1, 1, 1, 2])):
                den, want = _polymul(den, factor), want + count
        assert max(map(abs, den)) < 2**53  # every coefficient is exact as a float
        assert _rhp_root_count([float(c) for c in den]) == want, den


def test_tf_validation():
    with pytest.raises(pn.ConfigurationError):
        pn.ContinuousTF((), (1.0,))
    with pytest.raises(pn.ConfigurationError):
        pn.ContinuousTF((1.0,), (0.0, 1.0))
