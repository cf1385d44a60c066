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
    "case1.cfg": "b19ba1f5d4247cecbbc4c58e4de170af3a15487eb3274073ce2ac3a3009187a6",
    "case2.cfg": "ce6b76131aeb19a62445c378002e9d330560a059ea230d94790d3f90a7cd14a8",
    "case3.cfg": "390b277728a42a9823bc349ae957e10cf01e632a0017402fbd233c408294c7c1",
    "passive_baseline.cfg": "d0c2360c7d31fc79840635d5ca86c22792f0d58d5f06b94f6ee462d3c7d679bb",
    "table1.cfg": "b5cb661a766e71b9ff741a04b522acd64690806b0b767ec98fad44f9afbb5ce7",
    "table1_nostab.cfg": "6c6aff716912d004af13f54e0c53be1a7e9c3965b7fd67b4a2bde332f8490d3e",
}


def test_bundled_traces_keep_their_bits(bundled_runs):
    """Every bundled run's trace is the recorded one, bit for bit.

    A step rewrite that keeps every floating-point expression keeps these
    digests.  A change that moves the bits on purpose (closed-form gains,
    ROADMAP item 4, say) changes them: re-record the digests in that change
    and log the re-record, with its reason, in CHANGES.md.
    """
    got = {name: hashlib.sha256(trace.data.tobytes()).hexdigest()
           for name, (_cfg, trace, _metrics) in bundled_runs.items()}
    assert got == TRACE_DIGESTS
