import json

import pytest
import yaml

from slosim import scenario as scenario_module
from slosim.scenario import (
    ScenarioError,
    apply_overrides,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    write_scenario,
)


def test_minimal_scenario_loads(scenario_dict):
    scenario = scenario_from_dict(scenario_dict())
    assert scenario.name == "fixture"
    assert scenario.graph.node_map["label"].microtask_count == 20
    assert scenario.node_domains["label"] == ("a", "b", "c")


def test_zero_budget_names_the_field(scenario_dict):
    raw = scenario_dict(slo={"accuracy_target": 0.6, "budget": 0, "deadline": 300})
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(raw)
    assert any("slo" in p and "budget" in p for p in exc.value.problems)


def test_human_only_without_workers_is_unresolved(scenario_dict):
    raw = scenario_dict(workers=[])
    raw["workflow"]["nodes"][0]["agent_tag"] = "human_only"
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(raw)
    assert any("worker class" in p for p in exc.value.problems)


def test_machine_only_without_machines_is_unresolved(scenario_dict):
    raw = scenario_dict(machines=[])
    raw["workflow"]["nodes"][0]["agent_tag"] = "machine_only"
    with pytest.raises(ScenarioError):
        scenario_from_dict(raw)


def test_unknown_controller_field_flagged(scenario_dict):
    raw = scenario_dict()
    raw["controller"]["turbo"] = True
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(raw)
    assert any("controller.turbo" in p for p in exc.value.problems)


def _with_script(raw):
    raw["script"] = [{"at": 1, "action": "set_arrival_rate", "worker_class": "crowd", "rate": 0.0}]
    return raw


def _with_node_slo(raw):
    raw["workflow"]["nodes"][0]["slo"] = {"accuracy_target": 0.6, "budget": 1.0, "deadline": 100}
    return raw


@pytest.mark.parametrize(
    "section, prepare",
    [
        ("", None),
        ("slo", None),
        ("controller", None),
        ("workers[0]", None),
        ("machines[0]", None),
        ("workflow", None),
        ("workflow.nodes[0]", None),
        ("workflow.nodes[0].slo", _with_node_slo),
        ("script[0]", _with_script),
    ],
)
def test_unknown_key_flagged_in_every_section(scenario_dict, section, prepare):
    raw = scenario_dict()
    if prepare is not None:
        prepare(raw)
    target = raw
    for part in section.replace("[", ".").replace("]", "").split(".") if section else ():
        target = target[int(part)] if part.isdigit() else target[part]
    target["retension"] = 0.9
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(raw)
    where = f"{section}.retension" if section else "retension"
    assert exc.value.problems == [f"{where}: unknown field"]


def test_worker_typo_in_shipped_scenario_is_rejected(scenarios_dir):
    with pytest.raises(ScenarioError) as exc:
        load_scenario(scenarios_dir / "minimal.yaml", overrides=["workers.0.retension=0.9"])
    assert exc.value.problems == ["workers[0].retension: unknown field"]


@pytest.mark.parametrize("capacity", [2.5, "2", True, None])
def test_machine_capacity_must_be_an_integer(scenario_dict, capacity):
    raw = scenario_dict()
    raw["machines"][0]["capacity"] = capacity
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(raw)
    assert exc.value.problems[0] == f"machines[0].capacity: must be an integer, got {capacity!r}"


def test_controller_integer_fields_are_the_int_annotated_ones():
    assert scenario_module.CONTROLLER_INT_FIELDS == (
        "polling_intervals", "replication_w", "machine_replication",
    )


@pytest.mark.parametrize(
    "override, problem",
    [
        ("seed=true", "seed: must be a non-negative integer, got True"),
        (
            "workflow.nodes.0.microtask_count=true",
            "workflow.nodes[0].microtask_count: must be an integer >= 1, got True",
        ),
        ("controller.replication_w=true", "controller.replication_w: must be an integer, got True"),
        ("controller.polling_intervals=true", "controller.polling_intervals: must be an integer, got True"),
        (
            "controller.machine_replication=true",
            "controller.machine_replication: must be an integer, got True",
        ),
        ("controller.polling_intervals=2.5", "controller.polling_intervals: must be an integer, got 2.5"),
        (
            "controller.machine_replication=1.5",
            "controller.machine_replication: must be an integer, got 1.5",
        ),
    ],
)
def test_integer_fields_reject_booleans_and_floats(scenario_dict, override, problem):
    raw = apply_overrides(scenario_dict(), [override])
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(raw)
    assert exc.value.problems == [problem]


def test_bad_agent_tag_flagged(scenario_dict):
    raw = scenario_dict()
    raw["workflow"]["nodes"][0]["agent_tag"] = "cyborg"
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(raw)
    assert any("agent_tag" in p for p in exc.value.problems)


def test_single_label_domain_flagged(scenario_dict):
    raw = scenario_dict()
    raw["workflow"]["nodes"][0]["answer_domain"] = ["only"]
    with pytest.raises(ScenarioError):
        scenario_from_dict(raw)


def test_cycle_reported_through_scenario(scenario_dict):
    raw = scenario_dict()
    raw["workflow"]["nodes"].append(
        {
            "id": "second",
            "agent_tag": "either",
            "microtask_count": 5,
            "answer_domain": ["a", "b"],
        }
    )
    raw["workflow"]["edges"] = [["label", "second"], ["second", "label"]]
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(raw)
    assert any("cycle" in p for p in exc.value.problems)


def test_script_validation(scenario_dict):
    raw = scenario_dict(script=[{"at": 10, "action": "teleport"}])
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(raw)
    assert any("script[0].action" in p for p in exc.value.problems)


def test_node_slo_beyond_task_deadline_flagged(scenario_dict):
    raw = scenario_dict()
    raw["workflow"]["nodes"][0]["slo"] = {
        "accuracy_target": 0.5,
        "budget": 1.0,
        "deadline": 10_000,
    }
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(raw)
    assert any("exceeds task deadline" in p for p in exc.value.problems)


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        load_scenario("/nonexistent/path.yaml")


def test_round_trip(tmp_path, scenario_dict):
    raw = scenario_dict(
        script=[{"at": 10.0, "action": "set_arrival_rate", "worker_class": "crowd", "rate": 0.0}]
    )
    scenario = scenario_from_dict(raw)
    path = tmp_path / "round.yaml"
    write_scenario(scenario, path)
    assert load_scenario(path) == scenario


def test_round_trip_bundled_scenarios(scenarios_dir, tmp_path):
    for name in ("minimal.yaml", "starvation.yaml", "three_crowds.yaml", "pipeline.yaml"):
        scenario = load_scenario(scenarios_dir / name)
        write_scenario(scenario, tmp_path / name)
        assert load_scenario(tmp_path / name) == scenario


def test_overrides_reach_nested_fields(scenario_dict):
    raw = scenario_dict()
    apply_overrides(raw, ["controller.initial_hm_ratio=2.5", "seed=9"])
    scenario = scenario_from_dict(raw)
    assert scenario.controller.initial_hm_ratio == 2.5
    assert scenario.seed == 9


def test_override_must_have_equals(scenario_dict):
    with pytest.raises(ScenarioError):
        apply_overrides(scenario_dict(), ["controller.initial_hm_ratio"])


def test_overrides_index_into_lists(scenario_dict):
    raw = scenario_dict()
    apply_overrides(raw, ["workers.0.accuracy=0.95", "workflow.nodes.0.microtask_count=7"])
    scenario = scenario_from_dict(raw)
    assert scenario.workers[0].accuracy == 0.95
    assert scenario.graph.nodes[0].microtask_count == 7


def test_override_bad_list_index(scenario_dict):
    with pytest.raises(ScenarioError):
        apply_overrides(scenario_dict(), ["workers.3.accuracy=0.9"])
    with pytest.raises(ScenarioError):
        apply_overrides(scenario_dict(), ["workers.first.accuracy=0.9"])


def test_digest_stable_and_sensitive(scenario_dict):
    a = scenario_from_dict(scenario_dict())
    b = scenario_from_dict(scenario_dict())
    assert a.digest() == b.digest()
    c = scenario_from_dict(scenario_dict(seed=6))
    assert a.digest() != c.digest()


def test_to_dict_matches_source(scenario_dict):
    raw = scenario_dict()
    scenario = scenario_from_dict(raw)
    assert scenario_from_dict(scenario_to_dict(scenario)) == scenario


# -- libyaml and pure-Python loaders ----------------------------------------------

YAML_EDGE_CASES = {
    "anchors": "base: &b {x: 1, y: [a, b]}\ncopy: *b\nlist: [*b, *b]\n",
    "merge_keys": "base: &b {x: 1, y: 2}\nchild:\n  <<: *b\n  y: 3\nmulti:\n  <<: [*b, {z: 4}]\n",
    "booleans": "a: yes\nb: no\nc: on\nd: off\ne: Yes\nf: OFF\ng: true\nh: y\ni: n\n",
    "ints": "under: 1_000\noctal_o: 0o17\noctal: 017\nhex: 0x1F\nbin: 0b101\nsigned: -0\n",
    "sexagesimal": "t: 1:30\nf: 1:30.5\nneg: -2:05\n",
    "floats": "a: .inf\nb: -.Inf\nc: .nan\nd: 1e3\ne: 1.0e+3\nf: 6.8523015e+5\ng: 1_0.5\n",
    "dates": "d: 2001-12-14\nts: 2001-12-14t21:59:43.10-05:00\nspace: 2001-12-14 21:59:43.10 -5\n",
    "empty": "a:\nb: ~\nc: null\nd: ''\ne: []\nf: {}\n? g\n",
    "block_scalars": (
        "lit: |\n  one\n   two\n\nfold: >-\n  one\n  two\n\n  three\nkeep: |+\n  end\n\n"
    ),
    "quoting": "a: '1'\nb: \"yes\"\nc: 'it''s'\nd: \"tab\\there\"\ne: !!str 12\nf: !!float 3\n",
}


def _as_json(text: str, loader: type) -> str:
    return json.dumps(yaml.load(text, Loader=loader), sort_keys=True, default=repr)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_libyaml_loader_matches_pure_python(scenarios_dir):
    assert scenario_module.YAML_LOADER is yaml.CSafeLoader
    paths = sorted(scenarios_dir.glob("*.yaml"))
    texts = {path.name: path.read_text(encoding="utf-8") for path in paths}
    assert texts
    texts.update(YAML_EDGE_CASES)
    for name, text in texts.items():
        assert _as_json(text, yaml.CSafeLoader) == _as_json(text, yaml.SafeLoader), name


def test_pure_python_fallback_loads_equal_scenarios(scenarios_dir, monkeypatch):
    paths = sorted(scenarios_dir.glob("*.yaml"))
    assert paths
    loaded = [load_scenario(path) for path in paths]
    monkeypatch.setattr(scenario_module, "YAML_LOADER", yaml.SafeLoader)
    for path, scenario in zip(paths, loaded):
        fallback = load_scenario(path)
        assert fallback == scenario, path.name
        assert fallback.digest() == scenario.digest(), path.name


def test_controller_fields_round_trip_and_omit_unset_window(scenario_dict):
    raw = scenario_dict()
    scenario = scenario_from_dict(raw)
    assert "assignment_window" not in scenario_to_dict(scenario)["controller"]
    raw["controller"]["assignment_window"] = 4.0
    windowed = scenario_from_dict(raw)
    controller = scenario_to_dict(windowed)["controller"]
    assert controller["assignment_window"] == 4.0
    assert set(controller) == set(scenario_module.CONTROLLER_FIELDS)
    assert scenario_from_dict(scenario_to_dict(windowed)) == windowed
