import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slosim.slo import SloSpec
from slosim.workflow import (
    AgentTag,
    GraphInvalid,
    WorkflowGraph,
    WorkflowNode,
    derive_node_slos,
    node_levels,
    ready_nodes,
    topological_order,
    validate,
)

SLO = SloSpec(accuracy_target=0.8, budget=10.0, deadline=100.0)


def node(node_id, count=5, tag=AgentTag.EITHER, slo=None):
    return WorkflowNode(
        id=node_id, microtask_count=count, answer_domain=("yes", "no"), agent_tag=tag, slo=slo
    )


def graph(ids, edges):
    return WorkflowGraph(
        nodes=tuple(node(i) for i in ids),
        edges=frozenset(edges),
        task_slo=SLO,
    )


# -- validate ----------------------------------------------------------------


def test_validate_smallest_dag_ok():
    assert validate(graph("AB", {("A", "B")})).ok


def test_validate_two_cycle_lists_sequence():
    report = validate(graph("AB", {("A", "B"), ("B", "A")}))
    assert not report.ok
    cycle = next(v for v in report.violations if v.kind == "cycle")
    assert set(cycle.subjects) == {"A", "B"}


def test_validate_dangling_edge_names_missing_endpoint():
    report = validate(graph("A", {("A", "X")}))
    assert not report.ok
    dangling = next(v for v in report.violations if v.kind == "dangling-edge")
    assert "X" in dangling.subjects


def test_validate_duplicate_id():
    g = WorkflowGraph(nodes=(node("A"), node("A")), edges=frozenset(), task_slo=SLO)
    report = validate(g)
    assert any(v.kind == "duplicate-id" for v in report.violations)


# -- topological order ---------------------------------------------------------


def test_topological_order_ties_broken_by_id():
    assert topological_order(graph("ABCD", {("A", "B"), ("A", "C"), ("C", "D")})) == ["A", "B", "C", "D"]


def test_topological_order_single_node():
    assert topological_order(graph("A", set())) == ["A"]


def test_topological_order_forced_by_edge():
    assert topological_order(graph("AB", {("B", "A")})) == ["B", "A"]


def test_topological_order_rejects_cycle():
    with pytest.raises(GraphInvalid):
        topological_order(graph("AB", {("A", "B"), ("B", "A")}))


# -- ready_nodes ----------------------------------------------------------------


def test_ready_nodes_progression():
    g = graph("AB", {("A", "B")})
    assert ready_nodes(g, set()) == {"A"}
    assert ready_nodes(g, {"A"}) == {"B"}
    assert ready_nodes(g, {"A", "B"}) == set()


def test_ready_nodes_unknown_id_rejected():
    with pytest.raises(ValueError):
        ready_nodes(graph("A", set()), {"Z"})


# -- generated DAG properties ------------------------------------------------------


@st.composite
def small_dags(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    ids = [f"n{i}" for i in range(n)]
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.add((ids[i], ids[j]))
    return graph(ids, edges)


@settings(max_examples=120)
@given(small_dags())
def test_topological_order_respects_every_edge(g):
    order = topological_order(g)
    position = {nid: k for k, nid in enumerate(order)}
    assert sorted(order) == sorted(position)
    for src, dst in g.edges:
        assert position[src] < position[dst]


@settings(max_examples=120)
@given(small_dags(), st.sets(st.integers(min_value=0, max_value=7)))
def test_ready_nodes_disjoint_from_completed(g, picks):
    ids = sorted(n.id for n in g.nodes)
    completed = {ids[i % len(ids)] for i in picks}
    assert ready_nodes(g, completed) & completed == set()


def test_progressive_completion_stalls_on_cycle():
    g = graph("ABC", {("A", "B"), ("B", "C"), ("C", "B")})
    completed: set[str] = set()
    while True:
        batch = ready_nodes(g, completed)
        if not batch:
            break
        completed |= batch
    assert completed == {"A"}  # the B/C cycle is never ready


@settings(max_examples=120)
@given(small_dags())
def test_progressive_completion_visits_every_node_once(g):
    completed: set[str] = set()
    visited = []
    while True:
        batch = ready_nodes(g, completed)
        if not batch:
            break
        for nid in sorted(batch):
            visited.append(nid)
        completed |= batch
    assert sorted(visited) == sorted(n.id for n in g.nodes)
    assert len(visited) == len(set(visited))


@st.composite
def small_digraphs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    ids = [f"n{i}" for i in range(n)]
    edge = st.tuples(st.sampled_from(ids), st.sampled_from(ids))
    return graph(ids, draw(st.sets(edge, max_size=12)))


@settings(max_examples=200)
@given(small_digraphs())
def test_reported_cycle_is_a_cycle_of_the_graph(g):
    completed: set[str] = set()
    while batch := ready_nodes(g, completed):
        completed |= batch
    cycles = [v.subjects for v in validate(g).violations if v.kind == "cycle"]
    assert len(cycles) == (len(completed) < len(g.nodes))
    for cycle in cycles:
        assert len(set(cycle)) == len(cycle)
        for src, dst in zip(cycle, cycle[1:] + cycle[:1]):
            assert (src, dst) in g.edges


# -- SLO derivation ------------------------------------------------------------------


def test_derive_budget_proportional_to_microtask_count():
    g = WorkflowGraph(
        nodes=(node("A", count=30), node("B", count=10)),
        edges=frozenset({("A", "B")}),
        task_slo=SLO,
    )
    slos = derive_node_slos(g)
    assert slos["A"].budget == pytest.approx(7.5)
    assert slos["B"].budget == pytest.approx(2.5)


def test_derive_deadline_splits_along_critical_path():
    g = WorkflowGraph(
        nodes=(node("A"), node("B"), node("C")),
        edges=frozenset({("A", "B"), ("B", "C")}),
        task_slo=SLO,
    )
    assert node_levels(g) == {"A": 0, "B": 1, "C": 2}
    slos = derive_node_slos(g)
    assert slos["A"].deadline == pytest.approx(100 / 3)
    assert slos["B"].deadline == pytest.approx(200 / 3)
    assert slos["C"].deadline == pytest.approx(100.0)


def test_derive_explicit_node_slo_wins():
    override = SloSpec(accuracy_target=0.9, budget=1.0, deadline=42.0)
    g = WorkflowGraph(
        nodes=(node("A", slo=override), node("B")),
        edges=frozenset(),
        task_slo=SLO,
    )
    assert derive_node_slos(g)["A"] == override
