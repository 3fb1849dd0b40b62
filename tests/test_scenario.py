import dataclasses
import math
import pickle
from dataclasses import dataclass, fields

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st
from yaml.constructor import SafeConstructor

from slosim import scenario as scenario_module
from slosim.agents import MachineAgentProfile, ServiceTime, WorkerClass
from slosim.controller import ControllerConfig
from slosim.runner import run
from slosim.scenario import (
    Scenario,
    ScenarioError,
    _yaml_error_line,
    apply_overrides,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    write_scenario,
)
from slosim.slo import SloSpec
from slosim.workflow import WorkflowNode

from conftest import SCENARIOS_DIR
from test_acceptance import _random_budget_scenario
from test_random_graphs import _scenarios as _random_graph_scenarios

SECTION_CLASSES = (
    SloSpec, ControllerConfig, WorkerClass, ServiceTime, MachineAgentProfile, WorkflowNode,
    scenario_module.ScriptEvent,
)


def test_minimal_scenario_loads(scenario_dict):
    scenario = scenario_from_dict(scenario_dict())
    assert scenario.name == "fixture"
    assert scenario.graph.node_map["label"].microtask_count == 20
    assert scenario.graph.node_map["label"].answer_domain == ("a", "b", "c")


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



def test_scenario_error_survives_pickling():
    # a pool of worker processes sends a raised error back pickled
    error = ScenarioError(["slo.budget: must be > 0", "workers[0].accuracy: must be <= 1"])
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is ScenarioError
    assert str(copy) == str(error)
    assert copy.problems == error.problems

def _at(raw, section):
    """The mapping at a problem's `where` path, e.g. `workers[0].service_time`."""
    for part in section.replace("[", ".").replace("]", "").split(".") if section else ():
        raw = raw[int(part)] if part.isdigit() else raw[part]
    return raw


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
        ("workers[0].service_time", None),
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
    _at(raw, section)["retension"] = 0.9
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


@pytest.mark.parametrize("cls", SECTION_CLASSES, ids=lambda cls: cls.__name__)
def test_every_section_annotation_is_one_the_reader_knows(cls):
    spec, _ = scenario_module._field_spec(cls)
    assert list(spec) == [f.name for f in fields(cls)]
    for annotation, _, read in spec.values():
        assert read is not None or annotation in SECTION_CLASSES


# A valid instance of each section class that has a float field.
FLOAT_SECTIONS = (
    SloSpec(accuracy_target=0.5, budget=1.0, deadline=10.0),
    ControllerConfig(assignment_window=2.0),
    WorkerClass(name="a", accuracy=0.5, arrival_rate=1.0, service_time=ServiceTime("fixed", value=1.0)),
    ServiceTime("lognormal", median=1.0, sigma=0.5),
    MachineAgentProfile(name="m", accuracy=0.5, service_time_per_item=1.0),
    scenario_module.ScriptEvent(at=1.0, action="set_arrival_rate", worker_class="a", rate=1.0),
)


def _float_fields(cls: type) -> list[str]:
    spec, _ = scenario_module._field_spec(cls)
    return [name for name, (annotation, _, _) in spec.items() if annotation is float]


def test_every_section_with_a_float_field_is_probed():
    probed = {type(section) for section in FLOAT_SECTIONS}
    assert probed == {cls for cls in SECTION_CLASSES if _float_fields(cls)}


@pytest.mark.parametrize(
    "section, name, value",
    [
        pytest.param(section, name, value, id=f"{type(section).__name__}.{name}={value}")
        for section in FLOAT_SECTIONS
        for name in _float_fields(type(section))
        for value in (math.inf, -math.inf, math.nan)
    ],
)
def test_a_section_built_in_code_refuses_a_non_finite_number(section, name, value):
    # a scenario file never gets here: its reader refuses the number first
    with pytest.raises(ValueError, match=f"^{name} must be finite: {value}$"):
        dataclasses.replace(section, **{name: value})


# A valid instance of each section class that has an int field.
INT_SECTIONS = (
    ControllerConfig(),
    MachineAgentProfile(name="m", accuracy=0.5, service_time_per_item=1.0),
    WorkflowNode(id="n", microtask_count=1, answer_domain=("a", "b")),
)


def _int_fields(cls: type) -> list[str]:
    spec, _ = scenario_module._field_spec(cls)
    return [name for name, (annotation, _, _) in spec.items() if annotation is int]


def test_every_section_with_an_int_field_is_probed():
    probed = {type(section) for section in INT_SECTIONS}
    assert probed == {cls for cls in SECTION_CLASSES if _int_fields(cls)}


@pytest.mark.parametrize(
    "section, name, value",
    [
        pytest.param(section, name, value, id=f"{type(section).__name__}.{name}={value}")
        for section in INT_SECTIONS
        for name in _int_fields(type(section))
        for value in (3.0, 2.5, True)
    ],
)
def test_a_section_built_in_code_refuses_a_non_integer(section, name, value):
    # a scenario file never gets here: its reader refuses the value first
    with pytest.raises(ValueError, match=f"^{name} must be an integer: {value!r}$"):
        dataclasses.replace(section, **{name: value})


@pytest.mark.parametrize("seed", [True, 1.0])
def test_a_scenario_built_in_code_refuses_a_non_integer_seed(seed):
    # seed=True would run as seed 1 but write "seed": true into the header
    # and give the scenario another digest
    scenario = load_scenario(SCENARIOS_DIR / "minimal.yaml")
    with pytest.raises(ValueError, match=f"^seed must be an integer: {seed!r}$"):
        dataclasses.replace(scenario, seed=seed)


def test_a_service_time_parameter_of_another_family_is_a_problem():
    with pytest.raises(ScenarioError) as exc:
        load_scenario(SCENARIOS_DIR / "minimal.yaml", ["workers.0.service_time.mean=-3"])
    assert exc.value.problems == ["workers[0].service_time: lognormal service time takes no mean"]


def test_reader_refuses_an_annotation_it_cannot_check():
    @dataclass(frozen=True)
    class Tagged:
        tags: list[str]

    with pytest.raises(TypeError, match="Tagged.tags"):
        scenario_module._field_spec(Tagged)


@pytest.mark.parametrize(
    "override, problem",
    [
        ("controller.initial_hm_ratio=true", "controller.initial_hm_ratio: must be a number, got True"),
        ("controller.corrections_enabled=0", "controller.corrections_enabled: must be a boolean, got 0"),
        (
            "controller.assignment_window=true",
            "controller.assignment_window: must be a number or null, got True",
        ),
        ("slo.budget=true", "slo.budget: must be a number, got True"),
        ("workers.0.accuracy=true", "workers[0].accuracy: must be a number, got True"),
        (
            "workers.0.service_time.median=true",
            "workers[0].service_time.median: must be a number or null, got True",
        ),
        ("script.0.rate=true", "script[0].rate: must be a number, got True"),
        ("script.0.at=true", "script[0].at: must be a number, got True"),
        ("machines.0.name=7", "machines[0].name: must be a string, got 7"),
        ("workers.0.service_time=3", "workers[0].service_time: must be a mapping, got 3"),
    ],
)
def test_wrong_typed_value_is_rejected(scenario_dict, override, problem):
    raw = apply_overrides(_with_script(scenario_dict()), [override])
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(raw)
    assert exc.value.problems == [problem]


@pytest.mark.parametrize(
    "section, key",
    [("slo", "budget"), ("workers[0]", "name"), ("workers[0].service_time", "family"), ("machines[0]", "name")],
)
def test_field_without_a_default_is_required(scenario_dict, section, key):
    raw = scenario_dict()
    del _at(raw, section)[key]
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(raw)
    assert exc.value.problems == [f"{section}.{key}: required"]


def test_left_out_field_takes_its_dataclass_default(scenario_dict):
    raw = scenario_dict()
    del raw["workers"][0]["retention"]
    del raw["machines"][0]["capacity"]
    scenario = scenario_from_dict(raw)
    assert scenario.workers[0].retention == WorkerClass.retention
    assert scenario.machines[0].capacity == MachineAgentProfile.capacity


@pytest.mark.parametrize(
    "as_int, as_float",
    [
        ("controller.initial_hm_ratio=4", "controller.initial_hm_ratio=4.0"),
        ("workers.0.service_time.median=5", "workers.0.service_time.median=5.0"),
        ("script.0.rate=0", "script.0.rate=0.0"),
    ],
)
def test_integer_in_a_float_field_gives_the_float_trace(scenarios_dir, tmp_path, as_int, as_float):
    traces = []
    for override in (as_int, as_float):
        scenario = load_scenario(scenarios_dir / "starvation.yaml", overrides=[override])
        path = tmp_path / f"{override}.jsonl"
        run(scenario, trace_path=path)
        traces.append(path.read_bytes())
    assert traces[0] == traces[1]


@pytest.mark.parametrize(
    "override, problem",
    [
        ("seed=true", "seed: must be a non-negative integer, got True"),
        (
            "workflow.nodes.0.microtask_count=true",
            "workflow.nodes[0].microtask_count: must be an integer, got True",
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


def test_a_dangling_self_edge_is_reported_once(scenarios_dir):
    with pytest.raises(ScenarioError) as exc:
        load_scenario(scenarios_dir / "pipeline.yaml", overrides=["workflow.edges=[[nope, nope]]"])
    assert exc.value.problems == [
        "workflow: dangling-edge: edge ('nope', 'nope') references unknown node 'nope'"
    ]


def test_a_bad_field_and_a_cycle_are_both_reported(scenario_dict):
    raw = scenario_dict()
    raw["workers"][0]["accuracy"] = "high"
    raw["workflow"]["nodes"].append({"id": "second", "microtask_count": 5, "answer_domain": ["a", "b"]})
    raw["workflow"]["edges"] = [["label", "second"], ["second", "label"]]
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(raw)
    assert exc.value.problems == [
        "workers[0].accuracy: must be a number, got 'high'",
        "workflow: cycle: dependency cycle: second -> label",
    ]


def test_a_script_problem_names_the_event_by_its_place_in_the_file(scenario_dict):
    events = [(20.0, "crowd"), (10.0, "feld")]
    raw = scenario_dict(
        script=[{"at": at, "action": "set_arrival_rate", "worker_class": name, "rate": 0.0} for at, name in events]
    )
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(raw)
    assert exc.value.problems == ["script[1].worker_class: 'feld' is not a declared worker class"]
    raw["script"][1]["worker_class"] = "crowd"
    assert [event.at for event in scenario_from_dict(raw).script] == [10.0, 20.0]


def test_a_scenario_built_in_code_is_checked_as_a_file_is(scenario_dict):
    scenario = scenario_from_dict(scenario_dict())
    controller = dataclasses.replace(scenario.controller, corrections_enabled=False)
    assert dataclasses.replace(scenario, controller=controller).controller == controller
    with pytest.raises(ScenarioError) as exc:
        dataclasses.replace(scenario, workers=scenario.workers * 2)
    assert exc.value.problems == ["workers[1].name: 'crowd' is already declared"]
    graph = dataclasses.replace(scenario.graph, edges=frozenset({("label", "label")}))
    with pytest.raises(ScenarioError) as exc:
        Scenario(
            name="self-loop", seed=1, time_unit="minute", graph=graph,
            workers=scenario.workers, machines=scenario.machines, controller=scenario.controller,
        )
    assert exc.value.problems == ["workflow: cycle: dependency cycle: label"]


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
    "typed_keys": "1: int\n2.5: float\ntrue: bool\n~: null\n1.0: float one\n.nan: nan\n2001-12-14: date\n",
    "custom_tag": "a: !foo bar\n",
    "unhashable_key": "? [1]\n: x\n",
    "value_key": "a: {=: 1, b: 2}\n",
    "value_scalar": "a: =\n",
    "binary": "b: !!binary aGVsbG8=\n",
    "set": "s: !!set {a, b, 1}\n",
    "omap": "o: !!omap [a: 1, b: 2]\n",
    "duplicate_keys": "a: 1\nb: [x]\na: {c: 3}\n",
    "long_int": "a: " + "1" * 5000 + "\n",
    "month_13": "d: 2001-13-14\n",
    # PyYAML fills nested collections after their parent, so the date error
    # is raised before the one of the int inside the earlier mapping
    "two_errors": "a: {x: " + "1" * 5000 + "}\nb: 2001-13-14\n",
    "undefined_alias": "a: [1, *x]\n",
    "nested_aliases": "base: &b {x: &l [1, 2], y: &s seven}\ncopy: *b\nl: *l\ns: *s\nk: {*s : 1}\n",
    "recursive_alias": "a: &r [1, *r]\n",
    "collection_aliases": "a: &l [1, [2]]\nb: *l\nc: &e {}\nd: [*e, *e]\n",
    "merge_inline": "a:\n  <<: {x: 1, y: 2}\n  y: 3\n",
    "scalar_document": "3.5\n",
}
# libyaml's composer words this error without the alias name, so there the
# reference is the libyaml loader that the builder's loader is built on
PARSER_WORDED = {"undefined_alias"}
# the loader makes the ValueError that PyYAML's constructor raises on these
# scalars a YAML error at the node, so there the reference is the base loader
# with the loader's constructors: PyYAML's constructor, not the plain builder
SCALAR_ERRORS = {"long_int", "month_13", "two_errors"}


def _reference(base: type, name: str) -> type:
    """The loader whose outcome the scenario loader must match on `name`."""
    if name in SCALAR_ERRORS:
        constructors = scenario_module.YAML_LOADER.yaml_constructors
        return type(base.__name__, (base,), {"yaml_constructors": constructors})
    return base


def _sharing(value, seen=None) -> list:
    """Which containers of `value` are one object: each container's first
    visit gets the next number, and a later visit repeats it."""
    seen = {} if seen is None else seen
    if not isinstance(value, (dict, list, set)):
        return []
    if id(value) in seen:
        return [seen[id(value)]]
    seen[id(value)] = len(seen)
    shape = [seen[id(value)]]
    for item in value.values() if isinstance(value, dict) else value:
        shape += _sharing(item, seen)
    return shape


def _outcome(text: str, loader: type) -> tuple:
    """The typed value and its sharing, or the error's class and one-line text."""
    try:
        value = yaml.load(text, Loader=loader)
    except scenario_module.YAML_ERRORS as exc:
        return type(exc).__name__, _yaml_error_line(exc)
    return "value", repr(value), _sharing(value)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_libyaml_loader_matches_pure_python(scenarios_dir):
    assert scenario_module.YAML_LOADER.__bases__ == (yaml.CSafeLoader,)
    paths = sorted(scenarios_dir.glob("*.yaml"))
    texts = {path.name: path.read_text(encoding="utf-8") for path in paths}
    assert texts
    texts.update(YAML_EDGE_CASES)
    for name, text in texts.items():
        reference = _reference(yaml.CSafeLoader if name in PARSER_WORDED else yaml.SafeLoader, name)
        assert _outcome(text, scenario_module.YAML_LOADER) == _outcome(text, reference), name


@pytest.mark.parametrize("name", sorted(YAML_EDGE_CASES))
def test_yaml_loader_matches_its_base_loader(name):
    """On either base, libyaml's or pure Python's, the loader gives the value,
    sharing and error of the PyYAML loader that it is built on (given the
    loader's scalar constructors where a scalar cannot be built)."""
    (base,) = scenario_module.YAML_LOADER.__bases__
    text = YAML_EDGE_CASES[name]
    assert _outcome(text, scenario_module.YAML_LOADER) == _outcome(text, _reference(base, name))


def test_aliases_share_one_object():
    anchors = yaml.load(YAML_EDGE_CASES["anchors"], Loader=scenario_module.YAML_LOADER)
    assert anchors["copy"] is anchors["base"]
    assert anchors["list"][0] is anchors["list"][1] is anchors["base"]
    nested = yaml.load(YAML_EDGE_CASES["nested_aliases"], Loader=scenario_module.YAML_LOADER)
    assert nested["copy"] is nested["base"]
    assert nested["l"] is nested["base"]["x"]
    assert nested["k"] == {"seven": 1}
    recursive = yaml.load(YAML_EDGE_CASES["recursive_alias"], Loader=scenario_module.YAML_LOADER)
    assert recursive["a"][1] is recursive["a"]


_plain_keys = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
_plain_documents = st.recursive(
    _plain_keys | st.text(max_size=12) | st.dates() | st.binary(max_size=6),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_plain_keys, children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(document=_plain_documents)
def test_plain_documents_are_built_as_pyyaml_builds_them(document):
    """yaml.safe_dump writes these documents plain: the builder takes each one
    without falling back, and builds PyYAML's value."""
    text = yaml.safe_dump(document)
    loader = scenario_module.YAML_LOADER(text)
    try:
        node = loader.get_single_node()
    finally:
        loader.dispose()
    built = loader._construct_plain(node, set())
    assert repr(built) == repr(yaml.load(text, Loader=yaml.SafeLoader))


def test_shipped_and_fuzz_scenarios_never_reach_pyyaml_constructor(scenarios_dir, tmp_path, monkeypatch):
    """Every shipped scenario and a C05 fuzz scenario is a plain document, so
    none of them is built by PyYAML's generic constructor."""
    calls = []
    construct_document = SafeConstructor.construct_document

    def spy(self, node):
        calls.append(node)
        return construct_document(self, node)

    monkeypatch.setattr(SafeConstructor, "construct_document", spy)
    fuzz = tmp_path / "fuzz.yaml"
    fuzz.write_text(yaml.safe_dump(_random_budget_scenario(np.random.default_rng(424242))), "utf-8")
    paths = sorted(scenarios_dir.glob("*.yaml")) + [fuzz]
    for path in paths:
        load_scenario(path)
    load_scenario(paths[0], overrides=["seed=3", "controller.replication_w=5"])
    assert calls == []
    yaml.load(YAML_EDGE_CASES["anchors"], Loader=scenario_module.YAML_LOADER)
    assert len(calls) == 1, "the spy does not see PyYAML's constructor"


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
    assert set(controller) == {f.name for f in fields(ControllerConfig)}
    assert scenario_from_dict(scenario_to_dict(windowed)) == windowed


# -- writing a scenario -----------------------------------------------------------


def _noted(item):
    """`item` as an instance of a subclass of its dataclass that adds the
    optional field `note`, left at None."""
    cls = dataclasses.make_dataclass(
        f"Noted{type(item).__name__}", [("note", str | None, None)], bases=(type(item),), frozen=True
    )
    return cls(**{f.name: getattr(item, f.name) for f in fields(item)})


def _noted_first(items: tuple) -> tuple:
    return (_noted(items[0]),) + items[1:]


def _noted_service_time(worker: WorkerClass) -> WorkerClass:
    return dataclasses.replace(worker, service_time=_noted(worker.service_time))


# each gives the scenario with one item of one section noted
NOTED_SECTIONS = {
    "workers": lambda s: dataclasses.replace(s, workers=_noted_first(s.workers)),
    "machines": lambda s: dataclasses.replace(s, machines=_noted_first(s.machines)),
    "script": lambda s: dataclasses.replace(s, script=_noted_first(s.script)),
    "controller": lambda s: dataclasses.replace(s, controller=_noted(s.controller)),
    "nodes": lambda s: dataclasses.replace(
        s, graph=dataclasses.replace(s.graph, nodes=_noted_first(s.graph.nodes))
    ),
    "slo": lambda s: dataclasses.replace(s, graph=dataclasses.replace(s.graph, task_slo=_noted(s.slo))),
    "service_time": lambda s: dataclasses.replace(
        s, workers=(_noted_service_time(s.workers[0]),) + s.workers[1:]
    ),
}


@pytest.mark.parametrize("section", sorted(NOTED_SECTIONS))
def test_an_unset_optional_field_leaves_the_digest_alone(section):
    """A field at None is written absent, so a section dataclass that gains
    an optional field moves no digest until a scenario sets it."""
    scenario = load_scenario(SCENARIOS_DIR / "starvation.yaml")
    noted = NOTED_SECTIONS[section](scenario)
    assert noted != scenario
    assert scenario_to_dict(noted) == scenario_to_dict(scenario)
    assert noted.digest() == scenario.digest()


def _nulls(value, path: str = ""):
    """The paths in the plain data `value` that hold None."""
    if value is None:
        yield path
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _nulls(item, f"{path}.{key}")
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _nulls(item, f"{path}[{index}]")


def test_a_written_scenario_holds_no_null_and_reads_back_equal():
    """Over the shipped scenarios, the first 30 C05 fuzz scenarios and the
    random graphs, each with its unset optional fields."""
    rng = np.random.default_rng(424242)
    corpus = [load_scenario(path) for path in sorted(SCENARIOS_DIR.glob("*.yaml"))]
    corpus += [scenario_from_dict(_random_budget_scenario(rng)) for _ in range(30)]
    corpus += _random_graph_scenarios()
    assert any(s.controller.assignment_window is None for s in corpus)
    assert any(n.slo is not None for s in corpus for n in s.graph.nodes)
    for index, scenario in enumerate(corpus):
        raw = scenario_to_dict(scenario)
        assert list(_nulls(raw)) == [], (index, scenario.name)
        assert scenario_from_dict(raw) == scenario, (index, scenario.name)
