"""Scenario files: the single declarative input for a run.

A scenario is a versioned YAML document declaring the workflow graph, the
agent supply, the controller tuning, the task SLO and an optional script of
timed perturbations.  Validation reports every violation with its field
path; loading never partially succeeds.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

import yaml

from .agents import MachineAgentProfile, ServiceTime, WorkerClass
from .controller import ControllerConfig
from .slo import SloSpec
from .workflow import AgentTag, WorkflowGraph, WorkflowNode, validate

SCHEMA_VERSION = 1

SCRIPT_ACTIONS = {"set_arrival_rate"}

# libyaml's scanner and parser when PyYAML was built with them; the resolver
# and constructor are PyYAML's Python code either way, so values are equal.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

CONTROLLER_FIELDS = tuple(f.name for f in fields(ControllerConfig))


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
            cursor = _descend(cursor, part, dotted, create=True)
        last = parts[-1]
        if isinstance(cursor, list):
            index = _list_index(cursor, last, dotted)
            cursor[index] = value
        elif isinstance(cursor, dict):
            cursor[last] = value
        else:
            raise ScenarioError([f"override path not addressable: {dotted}"])
    return raw


def _descend(cursor: Any, part: str, dotted: str, create: bool) -> Any:
    if isinstance(cursor, list):
        return cursor[_list_index(cursor, part, dotted)]
    if isinstance(cursor, dict):
        if part not in cursor:
            if not create:
                raise ScenarioError([f"override path missing: {dotted}"])
            cursor[part] = {}
        return cursor[part]
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

    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        problems.append(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")

    name = _expect(raw, "name", str, problems) or "unnamed"
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        problems.append(f"seed: must be a non-negative integer, got {seed!r}")
        seed = 0
    time_unit = raw.get("time_unit", "minute")
    if not isinstance(time_unit, str) or not time_unit:
        problems.append(f"time_unit: must be a non-empty string, got {time_unit!r}")
        time_unit = "minute"

    slo = _parse_slo(raw.get("slo"), "slo", problems)
    controller = _parse_controller(raw.get("controller", {}), problems)
    workers = _parse_workers(raw.get("workers", []), problems)
    machines = _parse_machines(raw.get("machines", []), problems)
    graph, node_domains = _parse_workflow(raw.get("workflow"), slo, problems)
    script = _parse_script(raw.get("script", []), problems)

    if graph is not None and slo is not None:
        report = validate(graph)
        for violation in report.violations:
            problems.append(f"workflow: {violation.kind}: {violation.detail}")
        _check_references(graph, workers, machines, slo, problems)

    if problems:
        raise ScenarioError(problems)
    assert graph is not None
    return Scenario(
        name=name,
        seed=seed,
        time_unit=time_unit,
        graph=graph,
        node_domains=node_domains,
        workers=tuple(workers),
        machines=tuple(machines),
        controller=controller,
        script=tuple(script),
    )


def _check_references(
    graph: WorkflowGraph,
    workers: list[WorkerClass],
    machines: list[MachineAgentProfile],
    slo: SloSpec,
    problems: list[str],
) -> None:
    for node in graph.nodes:
        where = f"workflow.nodes[{node.id}]"
        if node.agent_tag in (AgentTag.HUMAN_ONLY, AgentTag.EITHER) and not workers:
            problems.append(f"{where}: tag {node.agent_tag.value} needs at least one worker class")
        if node.agent_tag in (AgentTag.MACHINE_ONLY, AgentTag.EITHER) and not machines:
            problems.append(f"{where}: tag {node.agent_tag.value} needs at least one machine profile")
        if node.node_slo is not None and node.node_slo.deadline > slo.deadline:
            problems.append(
                f"{where}: node deadline {node.node_slo.deadline} exceeds task deadline {slo.deadline}"
            )


def _expect(raw: dict[str, Any], key: str, cls: type, problems: list[str]) -> Any:
    value = raw.get(key)
    if not isinstance(value, cls):
        problems.append(f"{key}: expected {cls.__name__}, got {value!r}")
        return None
    return value


def _parse_slo(raw: Any, where: str, problems: list[str]) -> SloSpec | None:
    if not isinstance(raw, dict):
        problems.append(f"{where}: missing or not a mapping")
        return None
    try:
        return SloSpec(
            accuracy_target=float(raw.get("accuracy_target", 0.0)),
            budget=float(raw.get("budget", 0.0)),
            deadline=float(raw.get("deadline", 0.0)),
        )
    except (TypeError, ValueError) as exc:
        problems.append(f"{where}: {exc}")
        return None


def _parse_controller(raw: Any, problems: list[str]) -> ControllerConfig:
    if not isinstance(raw, dict):
        problems.append("controller: must be a mapping")
        return ControllerConfig()
    for key in sorted(set(raw) - set(CONTROLLER_FIELDS)):
        problems.append(f"controller.{key}: unknown field")
    try:
        return ControllerConfig(**{k: v for k, v in raw.items() if k in CONTROLLER_FIELDS})
    except (TypeError, ValueError) as exc:
        problems.append(f"controller: {exc}")
        return ControllerConfig()


def _parse_service_time(raw: Any, where: str, problems: list[str]) -> ServiceTime:
    fallback = ServiceTime(family="fixed", value=1.0)
    if not isinstance(raw, dict):
        problems.append(f"{where}: must be a mapping with a family")
        return fallback
    try:
        return ServiceTime(**raw)
    except (TypeError, ValueError) as exc:
        problems.append(f"{where}: {exc}")
        return fallback


def _parse_workers(raw: Any, problems: list[str]) -> list[WorkerClass]:
    if not isinstance(raw, list):
        problems.append("workers: must be a list")
        return []
    workers = []
    for i, entry in enumerate(raw):
        where = f"workers[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: must be a mapping")
            continue
        service = _parse_service_time(entry.get("service_time"), f"{where}.service_time", problems)
        try:
            workers.append(
                WorkerClass(
                    name=entry.get("name", f"class{i}"),
                    accuracy=float(entry.get("accuracy", -1)),
                    arrival_rate=float(entry.get("arrival_rate", 0)),
                    service_time=service,
                    min_reward=float(entry.get("min_reward", 0.0)),
                    retention=float(entry.get("retention", 0.5)),
                )
            )
        except (TypeError, ValueError) as exc:
            problems.append(f"{where}: {exc}")
    return workers


def _parse_machines(raw: Any, problems: list[str]) -> list[MachineAgentProfile]:
    if not isinstance(raw, list):
        problems.append("machines: must be a list")
        return []
    machines = []
    for i, entry in enumerate(raw):
        where = f"machines[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: must be a mapping")
            continue
        try:
            machines.append(
                MachineAgentProfile(
                    name=entry.get("name", f"machine{i}"),
                    accuracy=float(entry.get("accuracy", -1)),
                    service_time_per_item=float(entry.get("service_time_per_item", 0)),
                    cost_per_item=float(entry.get("cost_per_item", 0.0)),
                    capacity=int(entry.get("capacity", 1)),
                )
            )
        except (TypeError, ValueError) as exc:
            problems.append(f"{where}: {exc}")
    return machines


def _parse_workflow(
    raw: Any, slo: SloSpec | None, problems: list[str]
) -> tuple[WorkflowGraph | None, dict[str, tuple[str, ...]]]:
    if not isinstance(raw, dict):
        problems.append("workflow: missing or not a mapping")
        return None, {}
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
        if not isinstance(count, int) or count < 1:
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
            node_slo = _parse_slo(entry["slo"], f"{where}.slo", problems)
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
        if not isinstance(at, (int, float)) or at < 0:
            problems.append(f"{where}.at: must be a non-negative number")
            continue
        action = entry.get("action")
        if action not in SCRIPT_ACTIONS:
            problems.append(f"{where}.action: {action!r} not one of {sorted(SCRIPT_ACTIONS)}")
            continue
        params = {k: v for k, v in entry.items() if k not in ("at", "action")}
        if action == "set_arrival_rate":
            if not isinstance(params.get("worker_class"), str):
                problems.append(f"{where}.worker_class: required string")
            rate = params.get("rate")
            if not isinstance(rate, (int, float)) or rate < 0:
                problems.append(f"{where}.rate: must be a non-negative number")
        events.append(ScriptEvent(at=float(at), action=str(action), params=params))
    events.sort(key=lambda e: e.at)
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
            entry["slo"] = {
                "accuracy_target": node.node_slo.accuracy_target,
                "budget": node.node_slo.budget,
                "deadline": node.node_slo.deadline,
            }
        nodes.append(entry)

    workers = []
    for worker in scenario.workers:
        service: dict[str, Any] = {"family": worker.service_time.family}
        for key in ("median", "sigma", "mean", "value"):
            value = getattr(worker.service_time, key)
            if value is not None:
                service[key] = value
        workers.append(
            {
                "name": worker.name,
                "accuracy": worker.accuracy,
                "arrival_rate": worker.arrival_rate,
                "service_time": service,
                "min_reward": worker.min_reward,
                "retention": worker.retention,
            }
        )

    machines = [
        {
            "name": m.name,
            "accuracy": m.accuracy,
            "service_time_per_item": m.service_time_per_item,
            "cost_per_item": m.cost_per_item,
            "capacity": m.capacity,
        }
        for m in scenario.machines
    ]

    controller = controller_to_dict(scenario.controller)
    if controller["assignment_window"] is None:
        # absent, not null: the key set feeds Scenario.digest
        del controller["assignment_window"]

    raw: dict[str, Any] = {
        "schema_version": scenario.schema_version,
        "name": scenario.name,
        "seed": scenario.seed,
        "time_unit": scenario.time_unit,
        "slo": {
            "accuracy_target": scenario.slo.accuracy_target,
            "budget": scenario.slo.budget,
            "deadline": scenario.slo.deadline,
        },
        "controller": controller,
        "workflow": {
            "nodes": nodes,
            "edges": sorted([list(edge) for edge in scenario.graph.edges]),
        },
        "workers": workers,
        "machines": machines,
    }
    if scenario.script:
        raw["script"] = [
            {"at": event.at, "action": event.action, **event.params}
            for event in scenario.script
        ]
    return raw
