import math
import random

import numpy as np
import pytest
from scipy.optimize import brentq

import passivenet as pn
from passivenet.delay import sine_terms


def test_delay_law_values():
    p = pn.DelayProfile(0.05, 0.0125, 20.0)
    assert p.delay_at(0.0) == 0.05
    p2 = pn.DelayProfile(0.1, 0.025, 20.0)
    assert p2.delay_at(math.pi / 40.0) == pytest.approx(0.125, rel=1e-12)
    p3 = pn.DelayProfile(0.2, 0.0, 5.0)
    assert all(p3.delay_at(t) == 0.2 for t in np.linspace(0.0, 10.0, 37))


def test_delay_profile_invariant():
    with pytest.raises(pn.ConfigurationError):
        pn.DelayProfile(0.05, 0.06, 20.0)
    pn.DelayProfile(0.05, 0.05, 20.0)  # boundary is allowed


def test_halved_profile():
    p = pn.DelayProfile(0.1, 0.025, 20.0).halved()
    assert (p.offset, p.amplitude, p.frequency) == (0.05, 0.0125, 20.0)


def test_sine_terms_give_the_bits_of_delay_at():
    # repeated, distinct and zero frequencies (-0.0 too, whose sine is -0.0) and
    # negative amplitudes, in interleaved port order; a zero offset lets a signed
    # zero show.  The step forms each port's d as below.
    rng = random.Random(15)
    for dt in (0.001, 0.0007, 0.013):
        pool = [20.0, 20.0, -20.0, 7.5, 0.0, -0.0, rng.uniform(-50.0, 50.0)]
        legs = [pn.DelayProfile(0.0, 0.0, -0.0), pn.DelayProfile(-0.0, -0.0, 0.0)]
        for _ in range(30):
            offset = rng.uniform(0.0, 0.2)
            legs.append(pn.DelayProfile(offset, rng.uniform(-offset, offset), rng.choice(pool)))
        rng.shuffle(legs)
        frequencies, terms = sine_terms(legs)
        assert len(frequencies) == len({(leg.frequency, math.copysign(1.0, leg.frequency))
                                        for leg in legs})
        for n in range(3000):
            sines = [math.sin(f * (n * dt)) for f in frequencies]
            got = [offset + amplitude * sines[j] for offset, amplitude, j in terms]
            want = [leg.delay_at(n * dt) for leg in legs]
            assert got == want and list(map(repr, got)) == list(map(repr, want))
    assert sine_terms([]) == ([], [])


def test_zero_delay_is_identity():
    line = pn.DelayLine(0.0, 0.001)
    rng = np.random.default_rng(12)
    for n, s in enumerate(rng.normal(size=200)):
        assert line.push_and_sample(float(s), 0.0) == float(s)


def test_step_arrival_matches_root_find_oracle():
    # First nonzero output index for a unit step through d(t) = 0.05 + 0.0125 sin(20 t):
    # the oracle solves t - d(t) = 0 (the gate t < d(t) keeps the output at 0 before it).
    dt = 0.001
    profile = pn.DelayProfile(0.05, 0.0125, 20.0)
    root = brentq(lambda t: t - profile.delay_at(t), 0.0, 1.0, xtol=1e-12)
    oracle_step = math.ceil(root / dt)
    assert oracle_step == 62  # frozen from the oracle

    line = pn.DelayLine(profile.max_delay, dt)
    first = None
    for n in range(200):
        t = n * dt
        out = line.push_and_sample(1.0, profile.delay_at(t))
        if out != 0.0 and first is None:
            first = n
    assert first == oracle_step


def test_line_time_is_its_push_count_times_dt():
    # dt = 0.0007 divides none of the delays.  Each push gates and reads as an
    # explicit read at t = n*dt would: 0 while t - d < 0, else sample k + 1.
    dt = 0.0007
    profile = pn.DelayProfile(0.0105, 0.0035, 40.0)
    line = pn.DelayLine(profile.max_delay, dt)
    gated = 0
    for n in range(600):
        t = n * dt
        d = profile.delay_at(t)
        k = math.floor((n - d / dt) + 0.5)
        gated += t - d < 0.0 <= k  # the gate, not the index, keeps the output at 0
        want = float(k + 1) if t - d >= 0.0 and k >= 0 else 0.0
        assert line.push_and_sample(float(n + 1), d) == want
    assert gated > 0


def test_causality():
    # feeding the sample index makes "returned value <= current index" check causality
    rng = np.random.default_rng(13)
    profile = pn.DelayProfile(0.03, 0.01, 35.0)
    line = pn.DelayLine(profile.max_delay, 0.001)
    for n in range(500):
        t = n * 0.001
        out = line.push_and_sample(float(n), profile.delay_at(t))
        assert out <= n


def test_zero_input_zero_output():
    profile = pn.DelayProfile(0.02, 0.005, 50.0)
    line = pn.DelayLine(profile.max_delay, 0.001)
    for n in range(300):
        t = n * 0.001
        assert line.push_and_sample(0.0, profile.delay_at(t)) == 0.0


def test_delay_beyond_capacity_faults():
    line = pn.DelayLine(0.05, 0.001)
    for n in range(100):
        line.push_and_sample(1.0, 0.05)
    with pytest.raises(pn.ConfigurationError):
        line.push_and_sample(1.0, 0.09)  # at t = 0.1
    for d in (math.inf, 1e308):  # d/dt is inf, which floor cannot take
        with pytest.raises(pn.ConfigurationError, match="capacity"):
            pn.DelayLine(0.05, 0.001).push_and_sample(1.0, d)


def test_negative_requested_delay_faults():
    line = pn.DelayLine(0.05, 0.001)
    for d in (-0.001, -math.inf, math.nan):
        with pytest.raises(pn.ConfigurationError, match="requested delay must be nonnegative"):
            line.push_and_sample(1.0, d)


def test_delay_at_line_capacity():
    line = pn.DelayLine(0.1, 0.01)
    assert line.capacity == 12
    for n in range(20):
        line.push_and_sample(float(n), 0.0)
    assert line.push_and_sample(20.0, 0.11) == 9.0  # at t = 0.2, pushed 11 samples back
    with pytest.raises(pn.ConfigurationError, match="capacity"):
        line.push_and_sample(21.0, 0.12)  # at t = 0.21
