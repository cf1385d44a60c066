"""Golden checkpoints: each bundled config against rows of a reference run.

``golden_checkpoints.json`` holds, per bundled config, every 1000th trace row
and the last one, the summary values, the step count, the ``diverged`` flag,
and ``scale``: the largest |value| of each trace column over the whole run.
Step count and ``diverged`` must match exactly; every other value within
TOLERANCE times the scale of its column.
"""

import hashlib
import json
from pathlib import Path

import pytest

GOLDEN = json.loads((Path(__file__).parent / "golden_checkpoints.json").read_text())
TOLERANCE = 1e-7


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_run_matches_golden_checkpoints(bundled_runs, name):
    golden = GOLDEN[name]
    _cfg, trace, metrics = bundled_runs[name]
    assert (metrics.steps, metrics.diverged) == (golden["steps"], golden["diverged"])

    scale = dict(zip(golden["columns"], golden["scale"]))
    assert golden["columns"][0] == "n"
    columns = {col: trace.column(col) for col in golden["columns"][1:]}
    for want in golden["rows"]:
        n = int(want[0])
        got = [n] + [columns[col][n] for col in golden["columns"][1:]]
        for col, g, w in zip(golden["columns"], got, want):
            assert abs(g - w) <= TOLERANCE * scale[col], f"row n={want[0]:.0f}, {col}"

    m = trace.num_nodes
    got = {"min_E_hat": metrics.min_e_hat, "final_abs_y": metrics.final_abs_y,
           "total_injected_energy": metrics.total_injected}
    summary_scale = {"min_E_hat": scale["E_hat"], "final_abs_y": scale["y"],
                     "total_injected_energy": sum(scale[f"D{i}"] for i in range(1, m + 1))}
    for i in range(1, m + 1):
        got[f"D{i}"], summary_scale[f"D{i}"] = metrics.dissipated[i - 1], scale[f"D{i}"]
        got[f"share{i}"], summary_scale[f"share{i}"] = metrics.shares[i - 1], 1.0
    assert sorted(got) == sorted(golden["summary"])
    for key, want in golden["summary"].items():
        assert abs(got[key] - want) <= TOLERANCE * summary_scale[key], key


# sha256 of each bundled run's ``trace.data.tobytes()``, every step's row bit for bit
TRACE_DIGESTS = {
    "case1.cfg": "e87042c603054dc3056effb501f191fccfc1a9523d910134e875fe5444c76b0a",
    "case2.cfg": "fa436d9ceac489ea3f9d89da637c61f584d98b0009c43f02103c5309af66f461",
    "case3.cfg": "c30432de6b243d63bd8bcf720e7bb116e7b22daf387be762aad2c6e81ccad06c",
    "passive_baseline.cfg": "9b9f6db2a07e21d0c953605c04f241a5f62e6a99751dd1aef48b49d742f21362",
    "table1.cfg": "b5cb661a766e71b9ff741a04b522acd64690806b0b767ec98fad44f9afbb5ce7",
    "table1_nostab.cfg": "6c6aff716912d004af13f54e0c53be1a7e9c3965b7fd67b4a2bde332f8490d3e",
}


def test_bundled_traces_keep_their_bits(bundled_runs):
    """Every bundled run's trace is the recorded one, bit for bit.

    A step rewrite that keeps every floating-point expression keeps these
    digests.  A change that moves the bits on purpose (closed-form gains,
    ROADMAP item 4, or the grid-free hub credit of item 9 step 2) changes
    them: re-record the digests in that change and log the re-record, with
    its reason, in CHANGES.md.
    """
    got = {name: hashlib.sha256(trace.data.tobytes()).hexdigest()
           for name, (_cfg, trace, _metrics) in bundled_runs.items()}
    assert got == TRACE_DIGESTS
