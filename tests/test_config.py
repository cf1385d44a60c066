import dataclasses
import json

import pytest

import passivenet as pn


def test_table1_config_reproduces_parameters():
    cfg = pn.parse_config_file(pn.bundled_config_path("table1.cfg"))
    topo = cfg.topology
    assert topo.hub.num == (1.0, 0.0)
    assert topo.hub.den == (0.5, 15.0, 1.0)
    assert [(z.m, z.b, z.k) for z in topo.nodes] == [
        (10.0, 5.0, 400.0),
        (-10.0, -5.0, -400.0),
        (-20.0, -10.0, -800.0),
    ]
    assert [(p.offset, p.amplitude, p.frequency) for p in topo.delays] == [
        (0.05, 0.0125, 20.0),
        (0.1, 0.025, 20.0),
        (0.15, 0.0375, 20.0),
    ]
    assert topo.stabilizer_enabled
    assert cfg.scenario.kind == "impulse"
    assert cfg.scenario.dt == 0.001
    assert cfg.scenario.duration == 20.0


def test_case_configs_q_diagonals():
    q = {
        "case1.cfg": (1.0, 1.0, 1.0),
        "case2.cfg": (1.0, 0.0001, 1.0),
        "case3.cfg": (1.0, 10000.0, 1.0),
    }
    for name, want in q.items():
        cfg = pn.parse_config_file(pn.bundled_config_path(name))
        assert cfg.topology.weights.diagonal == want
        assert cfg.scenario.kind == "dual-sine"
        assert cfg.scenario.amplitude == 20.0


def _table1_doc() -> dict:
    text = pn.bundled_config_path("table1.cfg").read_text()
    return json.loads(text)


def _parse(doc: dict):
    return pn.parse_config(json.dumps(doc))


def test_external_samples_parse_to_the_scenario():
    doc = _table1_doc()
    doc["scenario"] = {"kind": "external", "duration": 0.01, "dt": 0.001,
                       "samples": [0.5, -1.25, 3.0]}
    scen = pn.Scenario(kind="external", duration=0.01, dt=0.001, samples=(0.5, -1.25, 3.0))
    assert _parse(doc).scenario == scen


def test_negative_weight_entry_is_named_error():
    doc = _table1_doc()
    doc["control"]["q_diag"][0] = -1.0
    with pytest.raises(pn.ConfigurationError, match="positive"):
        _parse(doc)


def test_unknown_top_level_key_rejected():
    doc = _table1_doc()
    doc["extra"] = 1
    with pytest.raises(pn.ConfigurationError, match="unknown key"):
        _parse(doc)


def test_unknown_section_key_rejected():
    doc = _table1_doc()
    doc["scenario"]["ramp_rate"] = 2.0
    with pytest.raises(pn.ConfigurationError, match="unknown key"):
        _parse(doc)


def test_unknown_node_key_rejected():
    doc = _table1_doc()
    doc["topology"]["nodes"][1]["mass"] = 3.0
    with pytest.raises(pn.ConfigurationError, match="unknown key"):
        _parse(doc)


def test_parse_error_reports_line():
    with pytest.raises(pn.ConfigurationError, match="line"):
        pn.parse_config('{\n  "topology": [broken\n}')


def test_missing_required_key_reported():
    with pytest.raises(pn.ConfigurationError, match="missing required key"):
        pn.parse_config('{"scenario": {"kind": "impulse", "duration": 1.0, "dt": 0.001}}')


def test_weight_length_must_match_nodes():
    doc = _table1_doc()
    doc["control"]["q_diag"] = [1.0, 1.0]
    with pytest.raises(pn.ConfigurationError, match="weight diagonal"):
        _parse(doc)


def test_decimation_validation():
    doc = _table1_doc()
    doc["output"]["decimation"] = 0
    with pytest.raises(pn.ConfigurationError, match="decimation"):
        _parse(doc)
    doc["output"]["decimation"] = 1.5
    with pytest.raises(pn.ConfigurationError, match="decimation"):
        _parse(doc)


def test_run_config_checks_decimation_itself():
    cfg = pn.parse_config_file(pn.bundled_config_path("table1.cfg"))
    for decimation in (2.5, True, 1.0, 0, -1, "2"):
        with pytest.raises(pn.ConfigurationError, match="decimation must be an integer >= 1"):
            dataclasses.replace(cfg, decimation=decimation)
    assert dataclasses.replace(cfg, decimation=7).decimation == 7


def test_trace_and_summary_must_name_different_files():
    doc = _table1_doc()
    doc["output"]["trace"] = doc["output"]["summary"] = "out.txt"
    with pytest.raises(pn.ConfigurationError, match="same file"):
        _parse(doc)
    cfg = pn.parse_config_file(pn.bundled_config_path("table1.cfg"))
    for trace, summary in (("out.txt", "./out.txt"), ("a/../out.txt", "out.txt"),
                           ("runs/out.txt", "runs//out.txt")):
        with pytest.raises(pn.ConfigurationError, match="same file"):
            dataclasses.replace(cfg, trace_path=trace, summary_path=summary)
    assert dataclasses.replace(cfg, trace_path="out.csv", summary_path="out.txt")


def test_wrong_types_are_named_errors():
    for *path, value in (
        ("scenario", "duration", "abc"),
        ("scenario", "amplitude", None),
        ("topology", "nodes", 0, "m", [1]),
        ("topology", "nodes", 5),
        ("topology", "delays", 1, 0.05),
        ("topology", "hub", "num", 0, "1"),
        ("control", "q_diag", 0, True),
        ("scenario", "dt", 10**400),
        ("output", []),
        ("output", "trace", None),
        ("output", "summary", 5),
        ("output", "trace", ""),
        ("output", "trace", "a\0b"),  # a NUL byte names no file
        ("output", "summary", "a\0b"),
    ):
        doc = _table1_doc()
        section = doc
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        dotted = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")
        with pytest.raises(pn.ConfigurationError, match="must be") as err:
            _parse(doc)
        assert dotted in str(err.value), (dotted, str(err.value))


def test_duplicate_keys_are_rejected():
    text = pn.bundled_config_path("table1.cfg").read_text()
    for key, value, other in (("dt", "0.001", "0.002"), ("xi", "12.0", "0.0")):
        once = f'"{key}": {value}'
        assert text.count(once) == 1
        with pytest.raises(pn.ConfigurationError, match=f"duplicate key '{key}'"):
            pn.parse_config(text.replace(once, f'{once}, "{key}": {other}'))


def test_defaults_live_in_the_types():
    doc = _table1_doc()
    topo, scen = doc["topology"], doc["scenario"]
    bare = {"topology": {k: topo[k] for k in ("hub", "nodes", "delays")},
            "scenario": {k: scen[k] for k in ("kind", "duration", "dt")}}
    hub = pn.ContinuousTF(tuple(topo["hub"]["num"]), tuple(topo["hub"]["den"]))
    nodes = tuple(pn.ImpedanceTriple(**n) for n in topo["nodes"])
    delays = tuple(pn.DelayProfile(**d) for d in topo["delays"])
    want = pn.RunConfig(pn.Topology(hub, nodes, delays, pn.WeightMatrix((1.0,) * len(nodes))),
                        pn.Scenario(scen["kind"], scen["duration"], scen["dt"]))
    assert _parse(bare) == want


def test_removed_control_keys_parse_only_at_their_old_defaults():
    for key, value in (
        ("alpha_max", 5.0), ("alpha_max", 0.5), ("alpha_max", False),
        ("epsilon_singular", 0.0), ("epsilon_singular", 0.5), ("epsilon_singular", None),
    ):
        doc = _table1_doc()
        doc["control"][key] = value
        with pytest.raises(pn.ConfigurationError, match="removed"):
            _parse(doc)
    old, bare = _table1_doc(), _table1_doc()
    old["control"].update(alpha_max=None, epsilon_singular=1e-12)
    for key in ("alpha_max", "epsilon_singular"):
        bare["control"].pop(key, None)
    assert _parse(old) == _parse(bare)


def test_overflowing_hub_realization_is_rejected_at_build():
    # e^{2e5 * 0.01} overflows float range
    doc = _table1_doc()
    doc["topology"]["hub"] = {"num": [1.0], "den": [1.0, -2e5]}
    doc["topology"]["xi"] = 0.0
    doc["scenario"]["dt"] = 0.01
    cfg = _parse(doc)
    with pytest.raises(pn.ConfigurationError, match="hub realization is not finite"):
        pn.build(cfg.topology, cfg.scenario)


def test_impulse_whose_height_overflows_is_rejected_at_parse():
    # amplitude/dt = 1e309 is past float range; the run would fault at step 0
    doc = _table1_doc()
    doc["scenario"].update(kind="impulse", amplitude=1e306, dt=0.001)
    with pytest.raises(pn.ConfigurationError, match="impulse scenario height"):
        _parse(doc)
    doc["scenario"]["amplitude"] = -1e306
    with pytest.raises(pn.ConfigurationError, match="impulse scenario height"):
        _parse(doc)


def test_negative_delay_profile_rejected():
    doc = _table1_doc()
    doc["topology"]["delays"][0]["amplitude"] = 0.06
    with pytest.raises(pn.ConfigurationError, match="goes negative"):
        _parse(doc)


def test_overrides_match_edited_fields():
    path = pn.bundled_config_path("case1.cfg")
    cfg = pn.parse_config_file(path)
    doc = json.loads(path.read_text())
    doc["control"]["stabilizer"] = False
    assert cfg.with_overrides(stabilizer=False) == _parse(doc)
    over = cfg.with_overrides(q_diag=(1.0, 0.0001, 1.0))
    case2 = pn.parse_config_file(pn.bundled_config_path("case2.cfg"))
    assert over.topology == case2.topology


def test_resolve_config_path(tmp_path):
    assert pn.resolve_config_path("table1.cfg").is_file()
    local = tmp_path / "local.cfg"
    local.write_text(json.dumps(_table1_doc()))
    assert pn.resolve_config_path(str(local)) == local
    with pytest.raises(pn.ConfigurationError, match="neither an existing file"):
        pn.resolve_config_path("missing.cfg")


def test_bundled_names():
    names = pn.bundled_config_names()
    for want in (
        "table1.cfg",
        "table1_nostab.cfg",
        "case1.cfg",
        "case2.cfg",
        "case3.cfg",
        "passive_baseline.cfg",
    ):
        assert want in names
