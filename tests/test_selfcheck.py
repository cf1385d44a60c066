import json
import subprocess
import sys
from pathlib import Path

import pytest

import passivenet as pn
from passivenet import selfcheck
from passivenet.selfcheck import CHECKS


@pytest.mark.parametrize("check", [c for _, c in CHECKS], ids=[c.__name__ for _, c in CHECKS])
def test_invariant(check):
    check()


def test_baseline_check_runs_the_shipped_file(tmp_path, monkeypatch):
    # passive_baseline.cfg at dt = 2 ms diverges after 32 steps: a check that
    # reads the file must see it, one that restates the network cannot
    doc = json.loads(pn.bundled_config_path("passive_baseline.cfg").read_text())
    doc["scenario"]["dt"] = 0.002
    (tmp_path / "passive_baseline.cfg").write_text(json.dumps(doc))
    monkeypatch.setattr(selfcheck, "bundled_config_path", lambda name: tmp_path / name,
                        raising=False)
    with pytest.raises(selfcheck.CheckFailed, match="diverged"):
        selfcheck.check_passive_baseline()


def test_import_leaves_the_self_checks_unloaded():
    # `import passivenet` skips the suite; `passivenet.run_self_checks` loads it on first use
    code = ("import sys, passivenet\n"
            "print('passivenet.selfcheck' in sys.modules)\n"
            "print(passivenet.run_self_checks.__module__)\n")
    src = Path(pn.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True,
                         check=True).stdout.split()
    assert out == ["False", "passivenet.selfcheck"]
