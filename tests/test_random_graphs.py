"""The engine's invariants on random workflow graphs.

Every other multi-node run in the suite is pipeline.yaml.  Here a seeded
generator draws scenarios of 2-5 nodes with forward edges and mixed agent
tags, one or two worker classes with a minimum reward, one or two machine
profiles of different cost and capacity, either vote rule, and an
assignment window in about 30% of them.  That reaches the shared ledger of
parallel nodes, node-id-order dispatch, two stations of different cost,
plurality votes and elasticity.  Each scenario is built in code through
`Scenario(...)`, so its cross-section checks run on every draw.
"""

import functools

import numpy as np
import pytest

from slosim.agents import MachineAgentProfile, ServiceTime, WorkerClass
from slosim.controller import ControllerConfig
from slosim.runner import run
from slosim.scenario import Scenario
from slosim.slo import SloSpec
from slosim.trace import dump_record
from slosim.workflow import AgentTag, WorkflowGraph, WorkflowNode

GENERATOR_SEED = 1
COUNT = 100
TAGS = tuple(AgentTag)


def _service_time(rng) -> ServiceTime:
    if rng.random() < 0.5:
        return ServiceTime(family="exponential", mean=float(rng.uniform(0.5, 4.0)))
    return ServiceTime(family="lognormal", median=float(rng.uniform(0.5, 3.0)), sigma=0.5)


def _random_scenario(rng, index: int) -> Scenario:
    deadline = float(rng.integers(40, 201))
    ids = [f"n{i}" for i in range(int(rng.integers(2, 6)))]
    nodes = tuple(
        WorkflowNode(
            id=node_id,
            microtask_count=int(rng.integers(1, 121)),
            answer_domain=("a", "b", "c")[: int(rng.integers(2, 4))],
            agent_tag=TAGS[int(rng.integers(len(TAGS)))],
        )
        for node_id in ids
    )
    edges = frozenset((a, b) for i, a in enumerate(ids) for b in ids[i + 1 :] if rng.random() < 0.4)
    reward = float(round(rng.uniform(0.005, 0.05), 3))
    workers = tuple(
        WorkerClass(
            name=f"crowd{i}",
            accuracy=float(rng.uniform(0.4, 0.95)),
            arrival_rate=float(rng.uniform(0.05, 2.0)),
            service_time=_service_time(rng),
            min_reward=float(round(rng.uniform(0.0, 0.04), 3)),
            retention=float(rng.uniform(0.2, 0.9)),
        )
        for i in range(int(rng.integers(1, 3)))
    )
    machines = tuple(
        MachineAgentProfile(
            name=f"m{i}",
            accuracy=float(rng.uniform(0.4, 0.9)),
            service_time_per_item=float(rng.uniform(0.3, 3.0)),
            cost_per_item=float(round(rng.uniform(0.001, 0.01), 4)) * i,  # m0 is free
            capacity=int(rng.integers(1, 9)),
        )
        for i in range(int(rng.integers(1, 3)))
    )
    window = float(round(rng.uniform(0.5, 5.0), 2)) if rng.random() < 0.3 else None
    controller = ControllerConfig(
        polling_intervals=int(rng.integers(1, 11)),
        initial_hm_ratio=float(round(rng.uniform(0.0, 4.0), 3)),
        replication_w=int(rng.choice([1, 3, 5])),
        reward_per_assignment=reward,
        vote_rule=str(rng.choice(["majority", "plurality"])),
        machine_replication=int(rng.choice([1, 1, 2])),
        incentive_elasticity=float(rng.uniform(0.0, 2.0)),
        assignment_window=window,
    )
    slo = SloSpec(
        accuracy_target=float(rng.uniform(0.3, 0.9)),
        budget=float(round(rng.uniform(0.05, 8.0), 2)),
        deadline=deadline,
    )
    return Scenario(
        name=f"random-graph-{index}",
        seed=int(rng.integers(0, 2**31)),
        time_unit="minute",
        graph=WorkflowGraph(nodes=nodes, edges=edges, task_slo=slo),
        workers=workers,
        machines=machines,
        controller=controller,
    )


@functools.cache
def _scenarios() -> tuple[Scenario, ...]:
    rng = np.random.default_rng(GENERATOR_SEED)
    return tuple(_random_scenario(rng, index) for index in range(COUNT))


@functools.cache
def _runs() -> tuple[tuple[dict, ...], ...]:
    return tuple(tuple(run(scenario).records) for scenario in _scenarios())


def test_the_draws_cover_what_the_generator_promises():
    scenarios = _scenarios()
    tags = {node.agent_tag for s in scenarios for node in s.graph.nodes}
    assert tags == set(AgentTag)
    assert {len(s.workers) for s in scenarios} == {1, 2}
    assert {len(s.machines) for s in scenarios} == {1, 2}
    assert any(s.graph.edges for s in scenarios)
    assert {s.controller.vote_rule for s in scenarios} == {"majority", "plurality"}
    windows = sum(s.controller.assignment_window is not None for s in scenarios)
    assert 0.2 * COUNT <= windows <= 0.4 * COUNT


def test_the_ledger_never_exceeds_the_budget():
    for index, records in enumerate(_runs()):
        budget = records[0]["task_slo"]["budget_micros"]
        for record in records:
            if "spent" in record:
                assert record["spent"] + record["committed"] <= budget, (index, record)


def test_each_node_starts_and_ends_once():
    for index, (scenario, records) in enumerate(zip(_scenarios(), _runs())):
        ids = sorted(node.id for node in scenario.graph.nodes)
        for kind in ("node_start", "node_end"):
            assert sorted(r["node"] for r in records if r["kind"] == kind) == ids, (index, kind)


def test_nothing_is_dispatched_after_its_node_ended():
    for index, records in enumerate(_runs()):
        ended: set[str] = set()
        for record in records:
            if record["kind"] == "node_end":
                ended.add(record["node"])
            elif record["kind"] in ("assignment_issued", "machine_dispatched"):
                assert record["node"] not in ended, (index, record)


def test_every_microtask_is_evaluated_or_incomplete():
    for index, records in enumerate(_runs()):
        started = {r["node"]: r["n"] for r in records if r["kind"] == "node_start"}
        for record in records:
            if record["kind"] == "node_end":
                total = record["evaluated"] + record["incomplete"]
                assert total == started[record["node"]], (index, record)


def test_each_run_replays_byte_for_byte():
    for index, (scenario, records) in enumerate(zip(_scenarios(), _runs())):
        replay = run(scenario).records
        assert [dump_record(r) for r in replay] == [dump_record(r) for r in records], index


@pytest.mark.xfail(
    strict=True, reason="ROADMAP item 6: reduce_ratio reroutes a w-task picked earlier in the same poll"
)
def test_nothing_stays_committed_at_the_end():
    committed = [index for index, records in enumerate(_runs()) if records[-1]["committed"]]
    assert committed == []
