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
import math
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, Literal

import yaml
from yaml.constructor import ConstructorError, SafeConstructor
from yaml.nodes import MappingNode, ScalarNode, SequenceNode

from .agents import MachineAgentProfile, ServiceTime, WorkerClass
from .controller import ControllerConfig
from .slo import SloSpec
from .units import check_finite, check_integers
from .workflow import AgentTag, WorkflowGraph, WorkflowNode, validate

SCHEMA_VERSION = 1

_TAG = "tag:yaml.org,2002:"
_STR, _MAP, _SEQ = _TAG + "str", _TAG + "map", _TAG + "seq"
_KEY_TAGS = frozenset(_TAG + kind for kind in ("str", "int", "float", "bool", "null"))


class _NotPlain(Exception):
    """The document holds a node that the plain builder leaves to PyYAML."""


def _checked_scalar(construct: Callable) -> Callable:
    """`construct`, with the errors it raises on a scalar that it cannot
    build made a YAML error at the node.  A ValueError (`!!int abc`, a date
    with month 13) keeps PyYAML's text as the problem; SafeConstructor's
    KeyError on `!!bool maybe`, AttributeError on `!!timestamp abc` and
    IndexError on `!!int ''` say nothing useful, so the problem names the
    tag and the scalar."""

    def build(loader, node):
        try:
            return construct(loader, node)
        except ValueError as exc:
            raise ConstructorError(None, None, str(exc), node.start_mark) from exc
        except (LookupError, AttributeError) as exc:
            tag = node.tag.replace(_TAG, "!!")
            problem = f"cannot build a {tag} from {node.value!r}"
            raise ConstructorError(None, None, problem, node.start_mark) from exc

    return build


class _PlainDocumentLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """PyYAML's safe loader, on libyaml's scanner and parser when PyYAML was
    built with them, that builds a plain document itself.

    A plain document is maps and lists, each node reached once (no alias),
    whose keys are str, int, float, bool or null scalars (so no `<<` or `=`
    key).  Its str scalars are the node's text and its other scalars come
    from SafeConstructor's own functions, so the value is the one PyYAML
    builds.  Any other document, and any exception on the way, goes to
    PyYAML's constructor from the start, which gives its value, its shared
    alias objects and its errors.  Parsing and tag resolution are PyYAML's
    either way.  On both paths a scalar that SafeConstructor fails to build
    is a YAML error at its node.
    """

    plain_scalars = {
        _TAG + kind: _checked_scalar(SafeConstructor.yaml_constructors[_TAG + kind])
        for kind in ("null", "bool", "int", "float", "binary", "timestamp")
    }
    yaml_constructors = {**SafeConstructor.yaml_constructors, **plain_scalars}

    def construct_document(self, node):
        try:
            return self._construct_plain(node, set())
        except Exception:
            # PyYAML builds a parent before its nested collections, so of two
            # errors it may raise another one first; building again lets it
            # raise its own.  The builder changed no node.
            return super().construct_document(node)

    def _construct_plain(self, node, seen: set):
        """The value of `node`, built from the nodes not in `seen`; raises
        _NotPlain at a node that only PyYAML's constructor builds."""
        if node in seen:
            raise _NotPlain
        seen.add(node)
        kind = node.__class__
        tag = node.tag
        if kind is ScalarNode:
            return node.value if tag == _STR else self.plain_scalars[tag](self, node)
        if kind is MappingNode and tag == _MAP:
            mapping = {}
            for key_node, value_node in node.value:
                tag = key_node.tag
                if tag not in _KEY_TAGS or key_node.__class__ is not ScalarNode or key_node in seen:
                    raise _NotPlain
                seen.add(key_node)
                key = key_node.value if tag == _STR else self.plain_scalars[tag](self, key_node)
                mapping[key] = self._construct_plain(value_node, seen)
            return mapping
        if kind is SequenceNode and tag == _SEQ:
            return [self._construct_plain(child, seen) for child in node.value]
        raise _NotPlain


YAML_LOADER = _PlainDocumentLoader


# PyYAML's constructors raise ValueError for a scalar they cannot build, such
# as an int of more digits than int() converts or a date with month 13; the
# loader makes that a YAML error at the scalar, and PyYAML's own loaders do not.
YAML_ERRORS = (yaml.YAMLError, ValueError)

# the keys of the sections that no dataclass declares; a dataclass section
# takes its field names.  Any other key is reported as unknown.
TOP_FIELDS = (
    "schema_version", "name", "seed", "time_unit", "slo", "controller",
    "workflow", "workers", "machines", "script",
)
WORKFLOW_FIELDS = ("nodes", "edges")

# how a field of each annotation is read: the exact types it takes, how a
# problem names it, and what turns a taken value into the field's value
# (None: the value itself).  A float field also takes an int, stored as a
# float, but no infinity or NaN, and only bool takes a bool.
Read = tuple[tuple[type, ...], str, Callable[[Any], Any] | None]


def _finite(value: int | float) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(value)
    return number


SCALARS: dict[type, Read] = {
    int: ((int,), "an integer", None),
    float: ((int, float), "a number", _finite),
    str: ((str,), "a string", None),
    bool: ((bool,), "a boolean", None),
}


class ScenarioError(ValueError):
    """Scenario failed schema validation; carries per-field messages."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems

    def __reduce__(self):
        # the default rebuilds from args, the joined message, as a problem list
        return type(self), (self.problems,)


@dataclass(frozen=True)
class ScriptEvent:
    """At time `at`, set worker class `worker_class`'s base arrival rate."""

    at: float
    action: Literal["set_arrival_rate"]
    worker_class: str
    rate: float

    def __post_init__(self) -> None:
        check_finite(self)
        if self.at < 0:
            raise ValueError(f"at must be >= 0: {self.at}")
        if self.rate < 0:
            raise ValueError(f"rate must be >= 0: {self.rate}")


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    time_unit: str
    graph: WorkflowGraph
    workers: tuple[WorkerClass, ...]
    machines: tuple[MachineAgentProfile, ...]
    controller: ControllerConfig
    script: tuple[ScriptEvent, ...] = ()
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        """Check the sections against each other; keep the script in time order."""
        check_integers(self, "seed")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative: {self.seed}")
        problems = _graph_problems(self.graph) or _check_references(self)
        if problems:
            raise ScenarioError(problems)
        object.__setattr__(self, "script", tuple(sorted(self.script, key=lambda e: e.at)))

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
        except YAML_ERRORS as exc:
            raise ScenarioError([f"{path}: not valid YAML: {_yaml_error_line(exc)}"]) from exc
    if not isinstance(raw, dict):
        raise ScenarioError([f"{path}: top level must be a mapping"])
    if overrides:
        apply_overrides(raw, overrides)
    return scenario_from_dict(raw)


def _yaml_error_line(exc: Exception) -> str:
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
        except YAML_ERRORS as exc:
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
    graph = _parse_workflow(raw.get("workflow"), slo, problems)
    script = _sections(ScriptEvent, raw.get("script", []), "script", problems)

    if problems:  # a clean read leaves the graph and the references to Scenario's checks
        graph_problems = _graph_problems(graph) if graph is not None else []
        raise ScenarioError(problems + graph_problems)
    return Scenario(
        name=name,
        seed=seed,
        time_unit=time_unit,
        graph=graph,
        workers=tuple(workers),
        machines=tuple(machines),
        controller=controller,
        script=tuple(script),
    )


def _graph_problems(graph: WorkflowGraph) -> list[str]:
    return [f"workflow: {v.kind}: {v.detail}" for v in validate(graph).violations]


def _check_references(scenario: Scenario) -> list[str]:
    problems: list[str] = []
    deadline = scenario.slo.deadline
    for node in scenario.graph.nodes:
        where = f"workflow.nodes[{node.id}]"
        if node.agent_tag in (AgentTag.HUMAN_ONLY, AgentTag.EITHER) and not scenario.workers:
            problems.append(f"{where}: tag {node.agent_tag.value} needs at least one worker class")
        if node.agent_tag in (AgentTag.MACHINE_ONLY, AgentTag.EITHER) and not scenario.machines:
            problems.append(f"{where}: tag {node.agent_tag.value} needs at least one machine profile")
        if node.slo is not None and node.slo.deadline > deadline:
            problems.append(
                f"{where}: node deadline {node.slo.deadline} exceeds task deadline {deadline}"
            )
    for where, items in (("workers", scenario.workers), ("machines", scenario.machines)):
        declared: set[str] = set()
        for i, item in enumerate(items):
            if item.name in declared:
                problems.append(f"{where}[{i}].name: {item.name!r} is already declared")
            declared.add(item.name)
    classes = {w.name for w in scenario.workers}
    for i, event in enumerate(scenario.script):
        if event.worker_class not in classes:
            problems.append(
                f"script[{i}].worker_class: {event.worker_class!r} is not a declared worker class"
            )
    return problems


def _unknown_keys(raw: dict[str, Any], known: Iterable[str], where: str, problems: list[str]) -> None:
    unknown = raw.keys() - known
    prefix = f"{where}." if where else ""
    for key in sorted(unknown, key=str) if unknown else ():
        problems.append(f"{prefix}{key}: unknown field")


def _is(value: Any, annotation: type) -> bool:
    """True when `value` has a type that a field of `annotation` takes."""
    return type(value) in SCALARS[annotation][0]


def _read_spec(annotation: Any) -> Read | None:
    """How a field of `annotation` is read, when it is a scalar, an Enum, a
    Literal or `tuple[str, ...]` (read from a list)."""
    if annotation in SCALARS:
        return SCALARS[annotation]
    if isinstance(annotation, type) and issubclass(annotation, Enum):
        return (str,), f"one of {[member.value for member in annotation]}", annotation
    if typing.get_origin(annotation) is Literal:
        allowed = typing.get_args(annotation)
        taken = tuple({type(value) for value in allowed})
        return taken, f"one of {list(allowed)}", functools.partial(_member, allowed)
    if annotation == tuple[str, ...]:
        return (list,), "a list of strings", _strings
    return None


def _member(allowed: tuple, value: Any) -> Any:
    if value not in allowed:
        raise ValueError(value)
    return value


def _strings(items: list) -> tuple[str, ...]:
    if not all(type(item) is str for item in items):
        raise ValueError(items)
    return tuple(items)


@functools.cache
def _field_spec(cls: type) -> tuple[dict[str, tuple[Any, bool, Read | None]], tuple[str, ...]]:
    """Dataclass `cls`'s fields as name -> (type, optional, read), the type
    being the annotation less any `| None` and read its `_read_spec` (None
    for a dataclass), and the names of those without a default.  Raises
    TypeError on a type the reader cannot check.
    """
    hints = typing.get_type_hints(cls)
    spec, required = {}, []
    for f in fields(cls):
        annotation = hints[f.name]
        args = typing.get_args(annotation)
        optional = type(None) in args
        if optional and len(args) == 2:
            annotation = args[args[0] is type(None)]
        read = _read_spec(annotation)
        if read is None and not is_dataclass(annotation):
            raise TypeError(f"{cls.__name__}.{f.name}: no scenario reader for {hints[f.name]}")
        spec[f.name] = (annotation, optional, read)
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
        annotation, optional, read = spec[name]
        if value is None and optional:
            values[name] = None
        elif read is None:
            values[name] = _section(annotation, value, f"{where}.{name}", problems)
        else:
            taken, kind, convert = read
            try:
                if type(value) not in taken:
                    raise TypeError(value)
                values[name] = value if convert is None else convert(value)
            except (TypeError, ValueError, OverflowError):
                kind += " or null" if optional else ""
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


def _parse_workflow(raw: Any, slo: SloSpec | None, problems: list[str]) -> WorkflowGraph | None:
    if not isinstance(raw, dict):
        problems.append("workflow: missing or not a mapping")
        return None
    _unknown_keys(raw, WORKFLOW_FIELDS, "workflow", problems)
    nodes_raw = raw.get("nodes")
    if not isinstance(nodes_raw, list) or not nodes_raw:
        problems.append("workflow.nodes: must be a non-empty list")
        return None

    nodes: list[WorkflowNode] = []
    for i, entry in enumerate(nodes_raw):
        where = f"workflow.nodes[{i}]"
        node = _section(WorkflowNode, entry, where, problems)
        if node is None:
            continue
        if node.microtask_count < 1:
            count = node.microtask_count
            problems.append(f"{where}.microtask_count: must be an integer >= 1, got {count}")
        nodes.append(node)

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
        return None
    return WorkflowGraph(nodes=tuple(nodes), edges=frozenset(edges), task_slo=slo)


def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    """Inverse of scenario_from_dict; load(write(s)) == s.  Each section is
    written by `_plain`, so a field at None is absent, not null: the key set
    feeds Scenario.digest, and an unset optional field leaves it alone."""
    raw: dict[str, Any] = {
        "schema_version": scenario.schema_version,
        "name": scenario.name,
        "seed": scenario.seed,
        "time_unit": scenario.time_unit,
        "slo": _plain(scenario.slo),
        "controller": _plain(scenario.controller),
        "workflow": {
            "nodes": _plain(scenario.graph.nodes),
            "edges": sorted([list(edge) for edge in scenario.graph.edges]),
        },
        "workers": _plain(scenario.workers),
        "machines": _plain(scenario.machines),
    }
    if scenario.script:
        raw["script"] = _plain(scenario.script)
    return raw


def _plain(value: Any) -> Any:
    """`value` as YAML data: a dataclass as the mapping of its fields that
    are not None, in field order, an Enum as its value, a tuple as a list."""
    if is_dataclass(value):
        items = ((f.name, getattr(value, f.name)) for f in fields(value))
        return {name: _plain(item) for name, item in items if item is not None}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value
