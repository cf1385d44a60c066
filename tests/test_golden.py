"""Golden checkpoints: each bundled config against rows of a reference run.

``golden_checkpoints.json`` holds, per bundled config, every 1000th trace row
and the last one, the summary values, the step count, the ``diverged`` flag,
and ``scale``: the largest |value| of each trace column over the whole run.
Step count and ``diverged`` must match exactly; every other value within
TOLERANCE times the scale of its column.
"""

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
