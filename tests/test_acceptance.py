"""Acceptance suite: every criterion at its stated tolerance, one line each."""

import numpy as np
import pytest

import passivenet as pn
from passivenet.allocator import allocate, constraint_residual
from passivenet.cli import main

from conftest import per_node


def _report(name: str, ok: bool) -> None:
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion failed: {name}"


def test_criterion_1_allocator_randomized_suite():
    rng = np.random.default_rng(1001)
    instances = 0
    ok = True
    for m in range(1, 7):
        for _ in range(2000):
            equal_s = bool(rng.integers(0, 2))
            e_obs = -float(10.0 ** rng.uniform(-3.0, 3.0))
            if equal_s:
                s = np.full(m, float(rng.uniform(0.05, 10.0)))
            else:
                s = rng.uniform(0.0, 10.0, m)
                if not np.any(s > 0.0):
                    s[0] = 1.0
            qd = 10.0 ** rng.uniform(-4.0, 4.0, m)
            q = pn.WeightMatrix(tuple(qd))
            dt = float(10.0 ** rng.uniform(-4.0, 0.0))
            instances += 1

            res = allocate(e_obs, s, q, dt)
            ok &= res.fired
            gains = np.asarray(res.gains)
            # constraint A'S = -E_obs/dt to 1e-9 relative
            ok &= abs(constraint_residual(res.gains, s, e_obs, dt)) <= 1e-9 * abs(e_obs / dt)
            # nonnegativity
            ok &= bool(np.all(gains >= 0.0))
            # Q-scaling invariance to 1e-12
            c = float(10.0 ** rng.uniform(-3.0, 3.0))
            scaled = np.asarray(allocate(e_obs, s, pn.WeightMatrix(tuple(c * qd)), dt).gains)
            denom = np.maximum(np.abs(gains), 1e-300)
            ok &= float(np.max(np.abs(scaled - gains) / denom)) <= 1e-12
            # KKT stationarity: Q A + lambda S = 0
            lam = (e_obs / dt) / float(np.dot(s, s / qd))
            resid = qd * gains + lam * s
            scale = max(float(np.max(np.abs(qd * gains))), 1e-300)
            ok &= float(np.max(np.abs(resid))) <= 1e-9 * scale
            # 1000-perturbation optimality over the feasible subspace
            z = rng.normal(size=(1000, m))
            ss = float(np.dot(s, s))
            z -= np.outer(z @ s / ss, s)
            base = float(np.dot(gains, qd * gains))
            vals = np.einsum("ij,j,ij->i", gains + z, qd, gains + z)
            ok &= bool(np.all(vals >= base - 1e-9 * max(1.0, base)))
            # equal-S share law: alpha_i * q_i constant to 1e-12
            if equal_s:
                prods = gains * qd
                ref = float(np.max(np.abs(prods)))
                ok &= float(np.max(prods) - np.min(prods)) <= 1e-12 * max(1.0, ref)
            if not ok:
                break
        if not ok:
            break
    ok &= instances >= 10_000
    _report(f"criterion 1: allocator randomized suite ({instances} instances)", ok)


@pytest.mark.parametrize("name", [
    "table1.cfg", "table1_nostab.cfg", "case1.cfg", "case2.cfg", "case3.cfg",
    "passive_baseline.cfg",
])
def test_criterion_2_observer_oracle_equivalence(bundled_runs, name):
    # The ledger promises E_hat = sum dt*(xi*y^2 + u_hat.y) exactly, so this
    # audit holds on every scenario.  It once failed on case1/2/3 for two
    # reasons: the ledger formed E_hat as E + D, cancelling two sums that
    # grew to ~4e8 J, and they grew that large only because the stabilized
    # loop diverged: a held node force reversed a nearly resting hub within
    # one sample, handing it energy the sampled ledger booked as absorbed.
    _cfg, trace, _metrics = bundled_runs[name]
    worst = 0.0
    total = 0.0
    for y, u_hat, e_hat in zip(trace.column("y"), per_node(trace, "uhat"), trace.column("E_hat")):
        y_vec = np.full(trace.num_nodes, y)
        total += trace.dt * (
            trace.xi * y * y
            + float(np.dot(np.asarray(u_hat), y_vec))
        )
        worst = max(worst, abs(total - e_hat))
    _report(
        f"criterion 2: incremental E_hat equals re-summation on {name} "
        f"(worst |diff| = {worst:.3e})",
        worst <= 1e-9,
    )


def test_criterion_3_impulse_reproduction(bundled_runs):
    _, trace_on, metrics_on = bundled_runs["table1.cfg"]
    _, trace_off, metrics_off = bundled_runs["table1_nostab.cfg"]

    y_on = np.asarray(trace_on.column("y"))
    tail = np.abs(y_on[int(0.9 * len(y_on)):])
    on_ok = (
        bool(np.all(np.isfinite(y_on)))
        and float(tail.max()) < 1e-3
        and metrics_on.min_e_hat >= -1e-9
        and not metrics_on.diverged
    )

    e_off = np.asarray(trace_off.column("E_obs"))
    below = e_off < -1e3
    off_ok = metrics_off.diverged and bool(below.any())
    if off_ok:
        i0 = int(np.argmax(below))
        # decreasing past -1e3: never recovers above the threshold, ends lower
        off_ok &= bool(np.all(e_off[i0:] <= -1e3))
        off_ok &= e_off[-1] < e_off[i0]
    _report(
        f"criterion 3: impulse with stabilizer (tail max |y| = {tail.max():.3e}, "
        f"min E_hat = {metrics_on.min_e_hat:.3e}) and without "
        f"(diverged = {metrics_off.diverged})",
        on_ok and off_ok,
    )


def test_criterion_4_case_study_shares(bundled_runs):
    checks = {
        "case1.cfg": lambda s: all(abs(x - 1.0 / 3.0) <= 0.02 for x in s),
        "case2.cfg": lambda s: s[1] >= 0.99,
        "case3.cfg": lambda s: s[1] <= 0.01,
    }
    ok = True
    details = []
    for name, check in checks.items():
        _cfg, _trace, metrics = bundled_runs[name]
        ok &= metrics.total_injected > 0.0
        ok &= check(metrics.shares)
        ok &= metrics.min_e_hat >= -1e-9
        details.append(f"{name.split('.')[0]} shares={tuple(round(s, 6) for s in metrics.shares)}")
    _report("criterion 4: dissipation shares (" + "; ".join(details) + ")", ok)


def test_case_studies_run_bounded(bundled_runs):
    # The stabilized case studies must finish their 20 s; criterion 4 reads
    # only their shares.
    details = []
    ok = True
    for name in ("case1.cfg", "case2.cfg", "case3.cfg"):
        _cfg, _trace, metrics = bundled_runs[name]
        ok &= not metrics.diverged and metrics.steps == 20_000
        details.append(f"{name.split('.')[0]} steps={metrics.steps} diverged={metrics.diverged}")
    _report("case studies run bounded (" + "; ".join(details) + ")", ok)


def test_q_moves_only_the_books(bundled_runs):
    # case1-3 differ only in Q.  Every port sees the broadcast y, so S_i = y^2
    # and sum(alpha_i) = (-target/dt)/y^2 whatever Q is, and the hub feels only
    # sum(alpha_i)*y: the three runs move alike up to rounding (at most 5.4e-11
    # of scale, y on case2), and only the dissipation shares follow 1/q, on
    # every row: D_i*q_i agree to 1e-9 of the row's largest (at most 3.3e-14).
    _, reference, _ = bundled_runs["case1.cfg"]
    for name in ("case1.cfg", "case2.cfg", "case3.cfg"):
        cfg, trace, metrics = bundled_runs[name]
        assert len(trace) == len(reference)
        for column in ("y", "x", "E_obs"):
            want = np.asarray(reference.column(column))
            got = np.asarray(trace.column(column))
            assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))
        inverse = [1.0 / q for q in cfg.topology.weights.diagonal]
        law = [w / sum(inverse) for w in inverse]
        assert metrics.shares == pytest.approx(law, rel=0, abs=1e-12)
        weighted = np.asarray(per_node(trace, "D")) * cfg.topology.weights.diagonal
        spread = weighted.max(axis=1) - weighted.min(axis=1)
        assert np.all(spread <= 1e-9 * np.abs(weighted).max(axis=1)), name


def test_criterion_5_osp_index_values():
    xi_hub = pn.estimate_osp_index(pn.ContinuousTF((1.0, 0.0), (0.5, 15.0, 1.0)))
    xi_lag = pn.estimate_osp_index(pn.ContinuousTF((1.0,), (1.0, 1.0)))
    ok = abs(xi_hub - 15.0) <= 1e-6 and abs(xi_lag - 1.0) <= 1e-9
    _report(
        f"criterion 5: certified passivity index (hub = {xi_hub!r}, lag = {xi_lag!r})",
        ok,
    )


def test_criterion_6_passive_baseline(bundled_runs):
    _cfg, trace, metrics = bundled_runs["passive_baseline.cfg"]
    never_fired = all(all(a == 0.0 for a in alpha) for alpha in per_node(trace, "alpha"))
    ok = (
        not metrics.diverged
        and never_fired
        and metrics.total_injected == 0.0
        and metrics.steps == 20_000
    )
    _report(
        f"criterion 6: passive baseline (fired = {not never_fired}, "
        f"total injected = {metrics.total_injected!r}, diverged = {metrics.diverged})",
        ok,
    )


@pytest.mark.parametrize("name", [
    "table1.cfg", "table1_nostab.cfg", "case1.cfg", "case2.cfg", "case3.cfg",
    "passive_baseline.cfg",
])
def test_criterion_7_determinism(name, tmp_path):
    rc1 = main(["--config", name, "--out", str(tmp_path / "a")])
    rc2 = main(["--config", name, "--out", str(tmp_path / "b")])
    cfg = pn.parse_config_file(pn.bundled_config_path(name))
    ok = rc1 == 0 and rc2 == 0
    if ok:
        first = (tmp_path / "a" / cfg.trace_path).read_bytes()
        second = (tmp_path / "b" / cfg.trace_path).read_bytes()
        ok = first == second
    _report(f"criterion 7: byte-identical traces for {name}", ok)
