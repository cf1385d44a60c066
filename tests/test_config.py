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


@pytest.mark.parametrize("name", [
    "table1.cfg", "table1_nostab.cfg", "case1.cfg", "case2.cfg", "case3.cfg",
    "passive_baseline.cfg",
])
def test_round_trip_stability(name):
    cfg = pn.parse_config_file(pn.bundled_config_path(name))
    assert pn.parse_config(pn.serialize_config(cfg)) == cfg


def test_round_trip_with_external_samples():
    cfg = pn.parse_config_file(pn.bundled_config_path("table1.cfg"))
    scen = pn.Scenario(
        kind="external", duration=0.01, dt=0.001, samples=(0.5, -1.25, 3.0)
    )
    cfg2 = dataclasses.replace(cfg, scenario=scen)
    assert pn.parse_config(pn.serialize_config(cfg2)) == cfg2


def _table1_doc() -> dict:
    text = pn.bundled_config_path("table1.cfg").read_text()
    return json.loads(text)


def _parse(doc: dict):
    return pn.parse_config(json.dumps(doc))


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


def test_wrong_types_are_named_errors():
    for *path, value in (
        ("scenario", "duration", "abc"),
        ("scenario", "amplitude", None),
        ("topology", "nodes", 0, "m", [1]),
        ("topology", "nodes", 5),
        ("topology", "delays", 1, 0.05),
        ("topology", "hub", "num", 0, "1"),
        ("control", "q_diag", 0, True),
        ("control", "alpha_max", False),
        ("control", "epsilon_singular", None),
        ("scenario", "dt", 10**400),
        ("output", []),
        ("output", "trace", None),
        ("output", "summary", 5),
        ("output", "trace", ""),
    ):
        doc = _table1_doc()
        section = doc
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        with pytest.raises(pn.ConfigurationError, match="must be"):
            _parse(doc)


def test_overflowing_hub_realization_is_rejected_at_build():
    # e^{2e5 * 0.01} overflows float range
    doc = _table1_doc()
    doc["topology"]["hub"] = {"num": [1.0], "den": [1.0, -2e5]}
    doc["topology"]["xi"] = 0.0
    doc["scenario"]["dt"] = 0.01
    cfg = _parse(doc)
    with pytest.raises(pn.ConfigurationError, match="hub realization is not finite"):
        pn.build(cfg.topology, cfg.scenario)


def test_negative_delay_profile_rejected():
    doc = _table1_doc()
    doc["topology"]["delays"][0]["amplitude"] = 0.06
    with pytest.raises(pn.ConfigurationError, match="goes negative"):
        _parse(doc)


def test_overrides_match_edited_fields():
    cfg = pn.parse_config_file(pn.bundled_config_path("case1.cfg"))
    doc = json.loads(pn.serialize_config(cfg))
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
