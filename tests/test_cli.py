import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import passivenet as pn
from passivenet import selfcheck
from passivenet.cli import main


def _short_doc(duration=1.0, kind="dual-sine", stabilizer=True, q=(1.0, 1.0, 1.0)):
    doc = json.loads(pn.bundled_config_path("table1.cfg").read_text())
    doc["scenario"]["kind"] = kind
    doc["scenario"]["amplitude"] = 20.0 if kind == "dual-sine" else 1.0
    doc["scenario"]["duration"] = duration
    doc["control"]["stabilizer"] = stabilizer
    doc["control"]["q_diag"] = list(q)
    doc["output"]["trace"] = "trace.csv"
    doc["output"]["summary"] = "summary.txt"
    return doc


def _write(tmp_path, doc, name="run.cfg"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_missing_config_nonzero_exit_no_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["--config", str(tmp_path / "missing.cfg"), "--out", str(out)])
    assert rc != 0
    assert not out.exists()
    assert "error" in capsys.readouterr().err


def test_run_writes_trace_and_summary(tmp_path):
    cfg = _write(tmp_path, _short_doc())
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert trace[0] == pn.trace_header(3)
    assert len(trace[0].split(",")) == 5 + 4 * 3 + 2
    assert len(trace) == 1 + 1000  # header + one row per step
    summary = pn.read_summary(tmp_path / "out" / "summary.txt")
    assert summary["diverged"] == "false"
    assert summary["steps"] == "1000"
    assert float(summary["min_E_hat"]) >= -1e-9


def test_nested_output_names_are_written(tmp_path):
    # each output file's own directory is made, so the summary is not lost after the trace
    doc = _short_doc(duration=0.05)
    doc["output"].update(trace="traces/run/trace.csv", summary="sub/s.txt")
    assert main(["--config", str(_write(tmp_path, doc)), "--out", str(tmp_path / "out")]) == 0
    assert len((tmp_path / "out" / "traces" / "run" / "trace.csv").read_text().splitlines()) == 51
    assert pn.read_summary(tmp_path / "out" / "sub" / "s.txt")["steps"] == "50"


def test_q_diag_override_equals_edited_file(tmp_path):
    base = _write(tmp_path, _short_doc(q=(1.0, 1.0, 1.0)), "base.cfg")
    edited = _write(tmp_path, _short_doc(q=(1.0, 0.0001, 1.0)), "edited.cfg")
    rc1 = main(["--config", str(base), "--out", str(tmp_path / "a"),
                "--q-diag", "1,0.0001,1"])
    rc2 = main(["--config", str(edited), "--out", str(tmp_path / "b")])
    assert rc1 == 0 and rc2 == 0
    assert (tmp_path / "a" / "trace.csv").read_bytes() == (
        tmp_path / "b" / "trace.csv"
    ).read_bytes()


def test_no_stabilizer_flag_equals_edited_file(tmp_path):
    base = _write(tmp_path, _short_doc(), "base.cfg")
    edited = _write(tmp_path, _short_doc(stabilizer=False), "edited.cfg")
    rc1 = main(["--config", str(base), "--out", str(tmp_path / "a"), "--no-stabilizer"])
    rc2 = main(["--config", str(edited), "--out", str(tmp_path / "b")])
    assert rc1 == 0 and rc2 == 0
    assert (tmp_path / "a" / "trace.csv").read_bytes() == (
        tmp_path / "b" / "trace.csv"
    ).read_bytes()


def test_scenario_override_equals_edited_file(tmp_path):
    base = _write(tmp_path, _short_doc(kind="dual-sine"), "base.cfg")
    edited_doc = _short_doc(kind="impulse")
    edited_doc["scenario"]["amplitude"] = 20.0  # override changes only the kind
    edited = _write(tmp_path, edited_doc, "edited.cfg")
    rc1 = main(["--config", str(base), "--out", str(tmp_path / "a"),
                "--scenario", "impulse"])
    rc2 = main(["--config", str(edited), "--out", str(tmp_path / "b")])
    assert rc1 == 0 and rc2 == 0
    assert (tmp_path / "a" / "trace.csv").read_bytes() == (
        tmp_path / "b" / "trace.csv"
    ).read_bytes()


def test_stabilizer_off_trace_columns_match(tmp_path):
    cfg = _write(tmp_path, _short_doc(stabilizer=False, duration=0.3))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    header = lines[0].split(",")
    for row in lines[1:]:
        cells = row.split(",")
        for i in range(1, 4):
            u = cells[header.index(f"u{i}")]
            uhat = cells[header.index(f"uhat{i}")]
            assert u == uhat
            assert cells[header.index(f"alpha{i}")] == "0.0"


def test_decimation_row_count(tmp_path):
    doc = _short_doc(duration=1.0)
    doc["output"]["decimation"] = 7
    cfg = _write(tmp_path, doc)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    kept = [n for n in range(1000) if n % 7 == 0]
    assert len(lines) == 1 + len(kept)


def test_trace_and_summary_on_one_path_is_refused(tmp_path, capsys):
    doc = _short_doc(duration=0.1)
    doc["output"]["trace"] = doc["output"]["summary"] = "out.txt"
    cfg = _write(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    assert "same file" in capsys.readouterr().err
    assert not out.exists()


def test_bundled_name_resolution(tmp_path):
    rc = main(["--config", "table1_nostab.cfg", "--out", str(tmp_path / "out")])
    assert rc == 0
    summary = pn.read_summary(tmp_path / "out" / "table1_nostab_summary.txt")
    assert summary["diverged"] == "true"


def test_focused_weighting_dominates_trace_dissipation(tmp_path):
    # q2 = 1e-4 concentrates the injected energy on node 2 in the written trace
    rc = main(["--config", "case2.cfg", "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "case2_trace.csv").read_text().splitlines()
    header = lines[0].split(",")
    last = lines[-1].split(",")
    d = [float(last[header.index(f"D{i}")]) for i in (1, 2, 3)]
    assert d[1] > 0.99 * sum(d)
    summary = pn.read_summary(tmp_path / "out" / "case2_summary.txt")
    assert float(summary["share2"]) >= 0.99


def test_invalid_q_diag_flag(tmp_path, capsys):
    cfg = _write(tmp_path, _short_doc())
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "out"),
               "--q-diag", "1,banana,1"])
    assert rc != 0
    assert "comma-separated" in capsys.readouterr().err


@pytest.mark.parametrize("seed_check", [False, True])
@pytest.mark.parametrize("den, xi, dt, error", [
    ([1.0, -1.0], None, 0.001, "passivity index is undefined for an unstable model"),
    ([1.0, -1000.0, 250000.0], 0.0, 1.0, "hub realization is not finite"),  # overflows in c Ad
    ([1.0, -360.0], 0.0, 1.0, "hub realization is not finite"),  # in travel_row Ad
    ([1.0, -2e5], 0.0, 0.01, "hub realization is not finite"),  # in Ad itself
], ids=["unstable", "c_Ad", "travel_row_Ad", "Ad"])
def test_unbuildable_run_exits_2_also_under_seed_check(tmp_path, capsys, den, xi, dt, error,
                                                       seed_check):
    doc = _short_doc()
    doc["topology"].update(hub={"num": [1.0], "den": den}, xi=xi)
    doc["scenario"]["dt"] = dt
    flags = ["--seed-check"] if seed_check else []
    rc = main(["--config", str(_write(tmp_path, doc)), "--out", str(tmp_path / "out"), *flags])
    assert rc == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"passivenet: error: {error}") and out == ""
    assert not (tmp_path / "out").exists()


def test_overflowing_impulse_is_a_configuration_error(tmp_path, capsys):
    doc = _short_doc(kind="impulse")
    doc["scenario"].update(amplitude=1e306, dt=0.001)
    rc = main(["--config", str(_write(tmp_path, doc)), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("passivenet: error: impulse scenario height")
    assert not (tmp_path / "out").exists()


def test_run_ended_by_a_fault_prints_its_message(tmp_path, capsys):
    # test_adversarial's 1e78 impulse, undelayed: S'Q^-1 S = 3*y^4 overflows at step 1
    doc = _short_doc(kind="impulse", duration=0.5)
    for delay in doc["topology"]["delays"]:
        delay.update(offset=0.0, amplitude=0.0, frequency=0.0)
    doc["topology"]["command_filter_cutoff"] = None
    doc["scenario"]["amplitude"] = 1e78
    rc = main(["--config", str(_write(tmp_path, doc)), "--out", str(tmp_path / "out")])
    assert rc == 0
    out, err = capsys.readouterr()
    assert out.startswith("steps=1 diverged=true")
    assert err.startswith("passivenet: fault: S'Q^-1 S overflows float range")
    assert pn.read_summary(tmp_path / "out" / "summary.txt")["diverged"] == "true"


def test_unwritable_output_is_reported(tmp_path, capsys, monkeypatch):
    cfg = _write(tmp_path, _short_doc(duration=0.05))
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    rc = main(["--config", str(cfg), "--out", str(blocker)])
    assert rc != 0
    assert capsys.readouterr().err
    # an output file name that is an existing directory: the run writes neither file
    for key in ("summary", "trace"):
        doc = _short_doc(duration=0.05)
        doc["output"][key] = "sub"
        out = tmp_path / f"out_{key}"
        (out / "sub").mkdir(parents=True)
        rc = main(["--config", str(_write(tmp_path, doc)), "--out", str(out)])
        assert rc == 2
        assert "is a directory" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["sub"] and not any((out / "sub").iterdir())
    # a NUL byte in an output file name is refused as the config is read: nothing is written
    for key in ("summary", "trace"):
        doc = _short_doc(duration=0.05)
        doc["output"][key] = "a\0b"
        out = tmp_path / f"nul_{key}"
        out.mkdir()
        rc = main(["--config", str(_write(tmp_path, doc)), "--out", str(out)])
        assert rc == 2
        assert f"output.{key} must be" in capsys.readouterr().err
        assert not any(out.iterdir())
    # a summary write that fails after the trace was written: neither file is left
    def refuse(metrics, path):
        raise OSError(f"no space left for {path}")

    monkeypatch.setattr("passivenet.cli.write_summary", refuse)
    out = tmp_path / "failed_summary"
    rc = main(["--config", str(_write(tmp_path, _short_doc(duration=0.05))), "--out", str(out)])
    assert rc == 2
    assert "no space left" in capsys.readouterr().err
    assert not any(out.iterdir())
    # the second rename fails after the first put the trace in place: it is taken back
    monkeypatch.undo()
    renames = []

    def replace_once(src, dst, real=os.replace):
        renames.append(dst)
        if len(renames) == 2:
            raise OSError(f"cannot rename onto {dst}")
        real(src, dst)

    monkeypatch.setattr("passivenet.cli.os.replace", replace_once)
    out = tmp_path / "failed_rename"
    rc = main(["--config", str(_write(tmp_path, _short_doc(duration=0.05))), "--out", str(out)])
    assert rc == 2 and len(renames) == 2
    assert "cannot rename onto" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_seed_check_passes(capsys):
    rc = main(["--config", "table1.cfg", "--seed-check"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"[seed-check] {name}: ok" for name, _ in selfcheck.CHECKS]


def test_runtime_needs_neither_numpy_nor_scipy():
    # a None entry in sys.modules makes every import of that name raise ImportError
    code = ("import sys\n"
            "sys.modules['numpy'] = sys.modules['scipy'] = None\n"
            "import passivenet as pn\n"
            "from passivenet.cli import main\n"
            "for name in pn.bundled_config_names():\n"
            "    cfg = pn.parse_config_file(pn.bundled_config_path(name))\n"
            "    pn.build(cfg.topology, cfg.scenario)\n"
            "sys.exit(main(['--config', 'table1.cfg', '--seed-check']))\n")
    src = Path(pn.__file__).resolve().parent.parent
    run = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 8 and lines == [f"[seed-check] {name}: ok" for name, _ in selfcheck.CHECKS]


def test_seed_check_reports_a_failing_check(monkeypatch, capsys):
    def broken():
        raise selfcheck.CheckFailed("planted")

    checks = list(selfcheck.CHECKS)
    name = checks[3][0]
    checks[3] = (name, broken)
    monkeypatch.setattr(selfcheck, "CHECKS", checks)
    rc = main(["--config", "table1.cfg", "--seed-check"])
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(checks)
    assert lines[3] == f"[seed-check] {name}: FAIL (planted)"
    assert all(line.endswith(": ok") for line in lines[:3] + lines[4:])
