"""Task-dependency graph: nodes tagged by agent kind, validated as a DAG.

A workflow is a set of nodes (each a data-parallel microtask set) and
directed edges encoding execution order.  Validation reports violations as
data; ordering helpers refuse to run on an invalid graph.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum

from .slo import SloSpec
from .units import check_integers


class AgentTag(Enum):
    HUMAN_ONLY = "human_only"
    MACHINE_ONLY = "machine_only"
    EITHER = "either"


@dataclass(frozen=True)
class WorkflowNode:
    """One activity: `microtask_count` independent microtasks, each answered
    with one label of `answer_domain`.  `label` defaults to the id, and
    `slo`, when present, overrides the targets derived from the task SLO.
    A zero count is a degenerate node that completes at once; scenario
    files require at least one.
    """

    id: str
    microtask_count: int
    answer_domain: tuple[str, ...]
    label: str | None = None
    agent_tag: AgentTag = AgentTag.EITHER
    slo: SloSpec | None = None

    def __post_init__(self) -> None:
        check_integers(self, "microtask_count")
        if not self.id:
            raise ValueError("node id must be non-empty")
        if self.label is None:
            object.__setattr__(self, "label", self.id)
        if self.microtask_count < 0:
            raise ValueError(f"microtask_count must be >= 0: {self.microtask_count}")
        if len(self.answer_domain) < 2 or len(set(self.answer_domain)) != len(self.answer_domain):
            raise ValueError(
                f"answer_domain must hold >= 2 distinct labels: {list(self.answer_domain)}"
            )
        if not isinstance(self.agent_tag, AgentTag):
            raise ValueError(f"agent_tag must be an AgentTag: {self.agent_tag!r}")


@dataclass(frozen=True)
class WorkflowGraph:
    nodes: tuple[WorkflowNode, ...]
    edges: frozenset[tuple[str, str]]
    task_slo: SloSpec

    @property
    def node_map(self) -> dict[str, WorkflowNode]:
        return {node.id: node for node in self.nodes}

    def predecessors(self, node_id: str) -> set[str]:
        return {src for src, dst in self.edges if dst == node_id}


@dataclass(frozen=True)
class Violation:
    kind: str  # "duplicate-id" | "dangling-edge" | "cycle"
    detail: str
    subjects: tuple[str, ...]


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        if self.ok:
            return "OK"
        return "\n".join(f"{v.kind}: {v.detail}" for v in self.violations)


class GraphInvalid(ValueError):
    """Raised when an operation requires a graph that fails validation."""

    def __init__(self, report: ValidationReport):
        super().__init__(report.render())
        self.report = report


def validate(graph: WorkflowGraph) -> ValidationReport:
    """Check well-formedness; violations are reported, never raised."""
    report = ValidationReport()

    seen: set[str] = set()
    for node in graph.nodes:
        if node.id in seen:
            report.violations.append(
                Violation("duplicate-id", f"node id {node.id!r} declared more than once", (node.id,))
            )
        seen.add(node.id)

    for src, dst in sorted(graph.edges):
        for endpoint in dict.fromkeys((src, dst)):  # a self-edge names its node once
            if endpoint not in seen:
                report.violations.append(
                    Violation(
                        "dangling-edge",
                        f"edge ({src!r}, {dst!r}) references unknown node {endpoint!r}",
                        (src, dst, endpoint),
                    )
                )

    order, predecessors = _kahn(graph)
    left = predecessors.keys() - set(order)
    if left:
        # each node Kahn's algorithm left out has a predecessor it left out,
        # so walking back through those comes round to a node already seen
        path, nid = [], min(left)
        while nid not in path:
            path.append(nid)
            nid = min(pred for pred in predecessors[nid] if pred in left)
        cycle = path[path.index(nid):][::-1]
        report.violations.append(
            Violation("cycle", f"dependency cycle: {' -> '.join(cycle)}", tuple(cycle))
        )
    return report


def _kahn(graph: WorkflowGraph) -> tuple[list[str], dict[str, list[str]]]:
    """Kahn's algorithm, ties broken by ascending id: the nodes it reaches in
    order, and each node's predecessors.  Edges to unknown nodes are left
    out; the nodes it does not reach are those on or behind a cycle.
    """
    predecessors: dict[str, list[str]] = {node.id: [] for node in graph.nodes}
    successors: dict[str, list[str]] = {nid: [] for nid in predecessors}
    for src, dst in graph.edges:
        if src in predecessors and dst in predecessors:
            predecessors[dst].append(src)
            successors[src].append(dst)
    indegree = {nid: len(preds) for nid, preds in predecessors.items()}
    ready = [nid for nid, deg in indegree.items() if deg == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        nid = heapq.heappop(ready)
        order.append(nid)
        for succ in successors[nid]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(ready, succ)
    return order, predecessors


def topological_order(graph: WorkflowGraph) -> list[str]:
    """Dependency-respecting node order; ties broken by ascending node id."""
    report = validate(graph)
    if not report.ok:
        raise GraphInvalid(report)
    return _kahn(graph)[0]


def ready_nodes(graph: WorkflowGraph, completed: set[str]) -> set[str]:
    """Nodes whose every predecessor is completed and that are not done."""
    ids = {node.id for node in graph.nodes}
    unknown = completed - ids
    if unknown:
        raise ValueError(f"unknown node ids in completed set: {sorted(unknown)}")
    return {
        nid
        for nid in ids - completed
        if graph.predecessors(nid) <= completed
    }


def node_levels(graph: WorkflowGraph) -> dict[str, int]:
    """Longest-path depth of each node (sources are level 0)."""
    levels: dict[str, int] = {}
    for nid in topological_order(graph):
        preds = graph.predecessors(nid)
        levels[nid] = 0 if not preds else 1 + max(levels[p] for p in preds)
    return levels


def derive_node_slos(graph: WorkflowGraph) -> dict[str, SloSpec]:
    """Resolve the effective SLO for every node.

    Explicit node SLOs win.  Otherwise the task budget is split across nodes
    proportionally to microtask_count, the task deadline is split into equal
    shares per dependency level (a node at level d gets the end of share
    d+1 as its deadline), and the accuracy target is inherited unchanged.
    """
    levels = node_levels(graph)
    num_levels = (max(levels.values()) + 1) if levels else 1
    total_count = sum(node.microtask_count for node in graph.nodes)
    task = graph.task_slo

    resolved: dict[str, SloSpec] = {}
    for node in sorted(graph.nodes, key=lambda n: n.id):
        if node.slo is not None:
            resolved[node.id] = node.slo
            continue
        if total_count > 0:
            budget = task.budget * node.microtask_count / total_count
        else:
            budget = task.budget / len(graph.nodes)
        deadline = task.deadline * (levels[node.id] + 1) / num_levels
        resolved[node.id] = SloSpec(
            accuracy_target=task.accuracy_target,
            budget=max(budget, 1e-9),
            deadline=deadline,
        )
    return resolved
