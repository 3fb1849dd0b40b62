"""Scenario files: the single declarative input for a run.

A scenario is a versioned YAML document declaring the workflow graph, the
agent supply, the controller tuning, the task SLO and an optional script of
timed perturbations.  Validation reports every violation with its field
path; loading never partially succeeds.
"""

from __future__ import annotations

import functools
import hashlib
import json
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Iterable

import yaml

from .agents import MachineAgentProfile, ServiceTime, WorkerClass
from .controller import ControllerConfig
from .slo import SloSpec
from .workflow import AgentTag, WorkflowGraph, WorkflowNode, validate

SCHEMA_VERSION = 1

# libyaml's scanner and parser when PyYAML was built with them; the resolver
# and constructor are PyYAML's Python code either way, so values are equal.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# the keys of the sections that no dataclass declares; a dataclass section
# takes its field names.  Any other key is reported as unknown.
TOP_FIELDS = (
    "schema_version", "name", "seed", "time_unit", "slo", "controller",
    "workflow", "workers", "machines", "script",
)
WORKFLOW_FIELDS = ("nodes", "edges")
NODE_FIELDS = ("id", "label", "agent_tag", "microtask_count", "answer_domain", "slo")
SCRIPT_FIELDS = {"set_arrival_rate": ("at", "action", "worker_class", "rate")}  # by action
CONTROLLER_FIELDS = tuple(f.name for f in fields(ControllerConfig))

# the exact types a field of each annotation takes, and how a problem names it;
# a float field also takes an int, stored as a float, and only bool takes a bool
SCALARS: dict[type, tuple[tuple[type, ...], str]] = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    bool: ((bool,), "a boolean"),
}


class ScenarioError(ValueError):
    """Scenario failed schema validation; carries per-field messages."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class ScriptEvent:
    at: float
    action: str
    params: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    time_unit: str
    graph: WorkflowGraph
    node_domains: dict[str, tuple[str, ...]]
    workers: tuple[WorkerClass, ...]
    machines: tuple[MachineAgentProfile, ...]
    controller: ControllerConfig
    script: tuple[ScriptEvent, ...] = ()
    schema_version: int = SCHEMA_VERSION

    @property
    def slo(self) -> SloSpec:
        return self.graph.task_slo

    def digest(self) -> str:
        canonical = json.dumps(scenario_to_dict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_scenario(path: str | Path, overrides: list[str] | None = None) -> Scenario:
    """Parse and validate a scenario file, applying `key.path=value` overrides."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"scenario file not found: {path}")
    with open(path, "r", encoding="utf-8") as stream:
        try:
            raw = yaml.load(stream, Loader=YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ScenarioError([f"{path}: not valid YAML: {_yaml_error_line(exc)}"]) from exc
    if not isinstance(raw, dict):
        raise ScenarioError([f"{path}: top level must be a mapping"])
    if overrides:
        apply_overrides(raw, overrides)
    return scenario_from_dict(raw)


def _yaml_error_line(exc: yaml.YAMLError) -> str:
    """A YAML error on one line; str(exc) spans several and may quote the source."""
    mark = getattr(exc, "problem_mark", None)
    if mark is None:
        return " ".join(str(exc).split())
    what = ": ".join(part for part in (exc.context, exc.problem) if part)
    return f"{what} (line {mark.line + 1}, column {mark.column + 1})"


def write_scenario(scenario: Scenario, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as stream:
        yaml.safe_dump(scenario_to_dict(scenario), stream, sort_keys=False)


def apply_overrides(raw: dict[str, Any], overrides: list[str]) -> dict[str, Any]:
    """Set dotted-path scalar fields in the raw scenario mapping.

    Path segments index mappings by key and lists by integer position, so
    `controller.initial_hm_ratio=2` and `workers.0.accuracy=0.9` both work.
    """
    for item in overrides:
        if "=" not in item:
            raise ScenarioError([f"override must look like key.path=value: {item!r}"])
        dotted, _, text = item.partition("=")
        try:
            value = yaml.load(text, Loader=YAML_LOADER)
        except yaml.YAMLError as exc:
            problem = f"override {item!r}: not valid YAML: {_yaml_error_line(exc)}"
            raise ScenarioError([problem]) from exc
        cursor: Any = raw
        parts = dotted.split(".")
        for part in parts[:-1]:
            cursor = _descend(cursor, part, dotted)
        last = parts[-1]
        if isinstance(cursor, list):
            index = _list_index(cursor, last, dotted)
            cursor[index] = value
        elif isinstance(cursor, dict):
            cursor[last] = value
        else:
            raise ScenarioError([f"override path not addressable: {dotted}"])
    return raw


def _descend(cursor: Any, part: str, dotted: str) -> Any:
    """The list item or mapping value at `part`; a missing key gets a mapping."""
    if isinstance(cursor, list):
        return cursor[_list_index(cursor, part, dotted)]
    if isinstance(cursor, dict):
        return cursor.setdefault(part, {})
    raise ScenarioError([f"override path not addressable: {dotted}"])


def _list_index(items: list, part: str, dotted: str) -> int:
    try:
        index = int(part)
    except ValueError:
        raise ScenarioError([f"override path needs a list index at {part!r}: {dotted}"]) from None
    if not -len(items) <= index < len(items):
        raise ScenarioError([f"override index {index} out of range: {dotted}"])
    return index


# -- dict <-> Scenario --------------------------------------------------------


def scenario_from_dict(raw: dict[str, Any]) -> Scenario:
    problems: list[str] = []
    _unknown_keys(raw, TOP_FIELDS, "", problems)

    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        problems.append(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")

    name = raw.get("name")
    if not _is(name, str):
        problems.append(f"name: must be a string, got {name!r}")
    seed = raw.get("seed", 0)
    if not _is(seed, int) or seed < 0:
        problems.append(f"seed: must be a non-negative integer, got {seed!r}")
        seed = 0
    time_unit = raw.get("time_unit", "minute")
    if not isinstance(time_unit, str) or not time_unit:
        problems.append(f"time_unit: must be a non-empty string, got {time_unit!r}")
        time_unit = "minute"

    slo = _section(SloSpec, raw.get("slo"), "slo", problems)
    controller = _section(ControllerConfig, raw.get("controller", {}), "controller", problems)
    workers = _sections(WorkerClass, raw.get("workers", []), "workers", problems)
    machines = _sections(MachineAgentProfile, raw.get("machines", []), "machines", problems)
    graph, node_domains = _parse_workflow(raw.get("workflow"), slo, problems)
    script = _parse_script(raw.get("script", []), problems)

    if graph is not None:
        for violation in validate(graph).violations:
            problems.append(f"workflow: {violation.kind}: {violation.detail}")
    if not problems:  # so a class that failed to read is not also reported missing
        assert graph is not None
        _check_references(graph, workers, machines, script, problems)
    if problems:
        raise ScenarioError(problems)
    return Scenario(
        name=name,
        seed=seed,
        time_unit=time_unit,
        graph=graph,
        node_domains=node_domains,
        workers=tuple(workers),
        machines=tuple(machines),
        controller=controller,
        script=tuple(sorted(script, key=lambda e: e.at)),
    )


def _check_references(
    graph: WorkflowGraph,
    workers: list[WorkerClass],
    machines: list[MachineAgentProfile],
    script: list[ScriptEvent],
    problems: list[str],
) -> None:
    deadline = graph.task_slo.deadline
    for node in graph.nodes:
        where = f"workflow.nodes[{node.id}]"
        if node.agent_tag in (AgentTag.HUMAN_ONLY, AgentTag.EITHER) and not workers:
            problems.append(f"{where}: tag {node.agent_tag.value} needs at least one worker class")
        if node.agent_tag in (AgentTag.MACHINE_ONLY, AgentTag.EITHER) and not machines:
            problems.append(f"{where}: tag {node.agent_tag.value} needs at least one machine profile")
        if node.node_slo is not None and node.node_slo.deadline > deadline:
            problems.append(
                f"{where}: node deadline {node.node_slo.deadline} exceeds task deadline {deadline}"
            )
    classes = {w.name for w in workers}
    for i, event in enumerate(script):
        name = event.params.get("worker_class")
        if name is not None and name not in classes:
            problems.append(f"script[{i}].worker_class: {name!r} is not a declared worker class")


def _unknown_keys(raw: dict[str, Any], known: Iterable[str], where: str, problems: list[str]) -> None:
    unknown = raw.keys() - known
    prefix = f"{where}." if where else ""
    for key in sorted(unknown, key=str) if unknown else ():
        problems.append(f"{prefix}{key}: unknown field")


def _is(value: Any, annotation: type) -> bool:
    """True when `value` has a type that a field of `annotation` takes."""
    return type(value) in SCALARS[annotation][0]


@functools.cache
def _field_spec(cls: type) -> tuple[dict[str, tuple[type, bool, tuple]], tuple[str, ...]]:
    """Dataclass `cls`'s fields as name -> (type, optional, exact types taken),
    the type being the annotation less any `| None`, and the names of those
    without a default.  Raises TypeError on a type the reader cannot check.
    """
    hints = typing.get_type_hints(cls)
    spec, required = {}, []
    for f in fields(cls):
        annotation = hints[f.name]
        args = typing.get_args(annotation)
        optional = type(None) in args
        if optional and len(args) == 2:
            annotation = args[args[0] is type(None)]
        if annotation not in SCALARS and not is_dataclass(annotation):
            raise TypeError(f"{cls.__name__}.{f.name}: no scenario reader for {hints[f.name]}")
        spec[f.name] = (annotation, optional, SCALARS[annotation][0] if annotation in SCALARS else ())
        if f.default is MISSING and f.default_factory is MISSING:
            required.append(f.name)
    return spec, tuple(required)


def _section(cls: type, raw: Any, where: str, problems: list[str]) -> Any:
    """Dataclass `cls` read from the mapping `raw`, or None once its problems
    are in `problems`.  The keys are the field names, a value must fit its
    field's annotation by exact type, and a field left out takes its default
    or, lacking one, is required.  The dataclass checks ranges itself.
    """
    if not isinstance(raw, dict):
        problems.append(f"{where}: must be a mapping, got {raw!r}")
        return None
    spec, required = _field_spec(cls)
    _unknown_keys(raw, spec, where, problems)
    found = len(problems)
    problems.extend(f"{where}.{name}: required" for name in required if name not in raw)
    values = {}
    for name, value in raw.items():
        if name not in spec:
            continue
        annotation, optional, taken = spec[name]
        if type(value) in taken:
            values[name] = float(value) if annotation is float else value
        elif value is None and optional:
            values[name] = None
        elif not taken:
            values[name] = _section(annotation, value, f"{where}.{name}", problems)
        else:
            kind = SCALARS[annotation][1] + (" or null" if optional else "")
            problems.append(f"{where}.{name}: must be {kind}, got {value!r}")
    if len(problems) > found:
        return None
    try:
        return cls(**values)
    except ValueError as exc:
        problems.append(f"{where}: {exc}")
        return None


def _sections(cls: type, raw: Any, where: str, problems: list[str]) -> list:
    """The list `raw` read item by item with `_section`, dropping bad items."""
    if not isinstance(raw, list):
        problems.append(f"{where}: must be a list, got {raw!r}")
        return []
    items = (_section(cls, entry, f"{where}[{i}]", problems) for i, entry in enumerate(raw))
    return [item for item in items if item is not None]


def _parse_workflow(
    raw: Any, slo: SloSpec | None, problems: list[str]
) -> tuple[WorkflowGraph | None, dict[str, tuple[str, ...]]]:
    if not isinstance(raw, dict):
        problems.append("workflow: missing or not a mapping")
        return None, {}
    _unknown_keys(raw, WORKFLOW_FIELDS, "workflow", problems)
    nodes_raw = raw.get("nodes")
    if not isinstance(nodes_raw, list) or not nodes_raw:
        problems.append("workflow.nodes: must be a non-empty list")
        return None, {}

    nodes: list[WorkflowNode] = []
    domains: dict[str, tuple[str, ...]] = {}
    for i, entry in enumerate(nodes_raw):
        where = f"workflow.nodes[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: must be a mapping")
            continue
        _unknown_keys(entry, NODE_FIELDS, where, problems)
        node_id = entry.get("id")
        if not isinstance(node_id, str) or not node_id:
            problems.append(f"{where}.id: must be a non-empty string")
            continue
        tag_text = entry.get("agent_tag", "either")
        try:
            tag = AgentTag(tag_text)
        except ValueError:
            problems.append(
                f"{where}.agent_tag: {tag_text!r} is not one of "
                f"{[t.value for t in AgentTag]}"
            )
            continue
        count = entry.get("microtask_count")
        if not _is(count, int) or count < 1:
            problems.append(f"{where}.microtask_count: must be an integer >= 1, got {count!r}")
            continue
        domain_raw = entry.get("answer_domain")
        if (
            not isinstance(domain_raw, list)
            or len(domain_raw) < 2
            or len(set(domain_raw)) != len(domain_raw)
            or not all(isinstance(label, str) for label in domain_raw)
        ):
            problems.append(
                f"{where}.answer_domain: must be a list of >= 2 distinct label strings"
            )
            continue
        node_slo = None
        if "slo" in entry:
            node_slo = _section(SloSpec, entry["slo"], f"{where}.slo", problems)
        try:
            nodes.append(
                WorkflowNode(
                    id=node_id,
                    label=str(entry.get("label", node_id)),
                    agent_tag=tag,
                    microtask_count=count,
                    node_slo=node_slo,
                )
            )
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
            continue
        domains[node_id] = tuple(domain_raw)

    edges_raw = raw.get("edges", [])
    edges: set[tuple[str, str]] = set()
    if not isinstance(edges_raw, list):
        problems.append("workflow.edges: must be a list of [from, to] pairs")
    else:
        for i, pair in enumerate(edges_raw):
            if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(p, str) for p in pair)):
                problems.append(f"workflow.edges[{i}]: must be a [from, to] pair of node ids")
                continue
            edges.add((pair[0], pair[1]))

    if slo is None or not nodes:
        return None, domains
    graph = WorkflowGraph(nodes=tuple(nodes), edges=frozenset(edges), task_slo=slo)
    return graph, domains


def _parse_script(raw: Any, problems: list[str]) -> list[ScriptEvent]:
    """The script's events in file order."""
    if not isinstance(raw, list):
        problems.append("script: must be a list")
        return []
    events = []
    for i, entry in enumerate(raw):
        where = f"script[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: must be a mapping")
            continue
        at = entry.get("at")
        if not _is(at, float) or at < 0:
            problems.append(f"{where}.at: must be a non-negative number, got {at!r}")
            continue
        action = entry.get("action")
        if action not in SCRIPT_FIELDS:
            problems.append(f"{where}.action: {action!r} not one of {sorted(SCRIPT_FIELDS)}")
            continue
        _unknown_keys(entry, SCRIPT_FIELDS[action], where, problems)
        params = {k: v for k, v in entry.items() if k not in ("at", "action")}
        if action == "set_arrival_rate":
            worker_class = params.get("worker_class")
            if not _is(worker_class, str):
                problems.append(f"{where}.worker_class: must be a string, got {worker_class!r}")
            rate = params.get("rate")
            if not _is(rate, float) or rate < 0:
                problems.append(f"{where}.rate: must be a non-negative number, got {rate!r}")
            else:
                params["rate"] = float(rate)
        events.append(ScriptEvent(at=float(at), action=str(action), params=params))
    return events


def controller_to_dict(config: ControllerConfig) -> dict[str, Any]:
    """Every ControllerConfig field by name, in declaration order."""
    return {name: getattr(config, name) for name in CONTROLLER_FIELDS}


def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    """Inverse of scenario_from_dict; load(write(s)) == s."""
    nodes = []
    for node in scenario.graph.nodes:
        entry: dict[str, Any] = {
            "id": node.id,
            "label": node.label,
            "agent_tag": node.agent_tag.value,
            "microtask_count": node.microtask_count,
            "answer_domain": list(scenario.node_domains[node.id]),
        }
        if node.node_slo is not None:
            entry["slo"] = asdict(node.node_slo)
        nodes.append(entry)

    workers = []
    for worker in scenario.workers:
        entry = asdict(worker)
        # a family's unused parameters are absent, not null
        entry["service_time"] = {k: v for k, v in entry["service_time"].items() if v is not None}
        workers.append(entry)

    controller = controller_to_dict(scenario.controller)
    if controller["assignment_window"] is None:
        # absent, not null: the key set feeds Scenario.digest
        del controller["assignment_window"]

    raw: dict[str, Any] = {
        "schema_version": scenario.schema_version,
        "name": scenario.name,
        "seed": scenario.seed,
        "time_unit": scenario.time_unit,
        "slo": asdict(scenario.slo),
        "controller": controller,
        "workflow": {
            "nodes": nodes,
            "edges": sorted([list(edge) for edge in scenario.graph.edges]),
        },
        "workers": workers,
        "machines": [asdict(m) for m in scenario.machines],
    }
    if scenario.script:
        raw["script"] = [
            {"at": event.at, "action": event.action, **event.params}
            for event in scenario.script
        ]
    return raw
