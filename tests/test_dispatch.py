"""Worker dispatch and the open w-task list: the invariants that let one
sweep over the idle workers fill every slot they can take."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slosim.agents import AgentPool, ServiceTime, WorkerClass
from slosim.controller import BudgetLedger, ControllerConfig
from slosim.runner import ExecutionEngine, _NodeRun, run
from slosim.scenario import load_scenario, scenario_from_dict
from slosim.sim import Simulation
from slosim.slo import SloSpec
from slosim.trace import TraceWriter
from slosim.units import to_micros
from slosim.workflow import AgentTag, WorkflowGraph, WorkflowNode

from conftest import SCENARIOS_DIR


def _node() -> WorkflowNode:
    return WorkflowNode(id="n", label="n", agent_tag=AgentTag.HUMAN_ONLY, microtask_count=1)


def _engine(*, budget: float = 5.0, window: float | None = None) -> ExecutionEngine:
    """A one-node, human-only engine with no arrivals scheduled: callers
    admit the idle workers they want and activate the node themselves."""
    slo = SloSpec(accuracy_target=0.5, budget=budget, deadline=100.0)
    pool = AgentPool(
        workers=(
            WorkerClass(
                name="w", accuracy=0.9, arrival_rate=0.1,
                service_time=ServiceTime(family="fixed", value=0.5), retention=1.0,
            ),
        ),
        machines=(),
    )
    return ExecutionEngine(
        name="dispatch",
        graph=WorkflowGraph(nodes=(_node(),), edges=frozenset(), task_slo=slo),
        node_domains={"n": ("yes", "no")},
        config=ControllerConfig(replication_w=3, assignment_window=window),
        pool=pool,
        sim=Simulation(seed=1, horizon=slo.deadline_ticks),
        writer=TraceWriter(None),
    )


# -- the open list ----------------------------------------------------------------

# ids past 99999 are wider than the 05d padding: "n:100000" < "n:10001"
_IDS = [f"n:{i:05d}" for i in (0, 7, 9999, 10000, 10001, 99999, 100000, 100001, 123456)]


@settings(max_examples=200)
@given(st.lists(st.tuples(st.booleans(), st.sampled_from(_IDS)), max_size=60))
def test_open_list_stays_sorted_unique_and_equal_to_its_set(ops):
    slo = SloSpec(accuracy_target=0.5, budget=1.0, deadline=10.0)
    run_ = _NodeRun(_node(), slo, ControllerConfig(), ("yes", "no"), window_start=0)
    model: set[str] = set()
    for is_reopen, mt_id in ops:
        if is_reopen:
            run_.reopen(mt_id)
            model.add(mt_id)
        else:
            run_.close(mt_id)
            model.discard(mt_id)
        assert run_.open_wtasks == sorted(model)
        assert run_.open_set == model


def test_windowed_wtask_with_nothing_pending_leaves_open_list_at_its_sweep():
    engine = _engine(window=1.0)
    agent = engine.pool.admit("w")
    engine._activate_node("n")
    node_run = engine.runs["n"]
    wtask = node_run.wtasks["n:00000"]
    assert [a.agent_id for a in wtask.assignments] == [agent]
    assert node_run.open_wtasks == ["n:00000"]  # two of three slots still open

    while True:
        event = engine.sim.step()
        event.handler(engine, *event.args)
        if event.handler is ExecutionEngine._on_timeout_sweep:
            break
    assert engine.sim.now == wtask.completion_deadline + 1
    assert not wtask.pending()  # the one worker returned inside the window
    assert wtask.open_slots == 2
    assert node_run.open_wtasks == []
    assert node_run.open_set == set()


def test_check_conservation_raises_on_a_lost_microtask():
    engine = _engine()
    engine._activate_node("n")
    node_run = engine.runs["n"]
    node_run.check_conservation()
    node_run.microtasks.clear()
    with pytest.raises(RuntimeError, match="conservation broken on node n"):
        node_run.check_conservation()


# -- dispatch -----------------------------------------------------------------------


def _takeable(engine: ExecutionEngine) -> list[tuple[str, str]]:
    """Every (idle agent, microtask) placement the rules allow right now,
    found from the w-tasks themselves rather than from the open list."""
    now = engine.sim.now
    headroom = engine.ledger.headroom_micros
    found = []
    for agent_id in engine.pool.idle_workers():
        min_reward = engine.pool.class_of(agent_id).min_reward_micros
        for node_run in engine.runs.values():
            if node_run.finished or now >= node_run.deadline:
                continue
            reward = node_run.state.current_reward_micros(engine.config.reward_micros)
            if not min_reward <= reward <= headroom:
                continue
            for mt_id, wtask in node_run.wtasks.items():
                if (
                    mt_id not in node_run.final
                    and wtask.open_slots > 0
                    and now <= wtask.completion_deadline
                    and not wtask.has_live_assignment_for(agent_id)
                ):
                    found.append((agent_id, mt_id))
    return found


def _two_nodes_two_classes(scenario_dict, budget: float) -> dict:
    """Two nodes open at once, a completion window, and a worker class
    priced out until the incentive has been raised twice."""
    raw = scenario_dict()
    raw["slo"]["budget"] = budget
    raw["controller"]["assignment_window"] = 2.0
    first = raw["workflow"]["nodes"][0]
    raw["workflow"]["nodes"].append(dict(first, id="other", microtask_count=15))
    picky = dict(raw["workers"][0], name="picky", min_reward=0.03, arrival_rate=0.3)
    raw["workers"].append(picky)
    return raw


@pytest.mark.parametrize("source", ["minimal", "two-node", "two-node-tight-budget"])
def test_one_dispatch_fills_every_slot_the_idle_workers_can_take(
    source, scenario_dict, monkeypatch
):
    if source == "minimal":
        scenario = load_scenario(SCENARIOS_DIR / "minimal.yaml")
    else:
        budget = 0.6 if source == "two-node-tight-budget" else 4.0
        scenario = scenario_from_dict(_two_nodes_two_classes(scenario_dict, budget))
    dispatch = ExecutionEngine._dispatch_workers
    checked = []

    def dispatch_then_check(engine):
        dispatch(engine)
        assert _takeable(engine) == []
        checked.append(engine.sim.now)

    monkeypatch.setattr(ExecutionEngine, "_dispatch_workers", dispatch_then_check)
    result = run(scenario)
    assert checked
    assert any(r["kind"] == "assignment_issued" for r in result.records)


def test_exhausted_budget_dispatch_makes_no_commit_call(monkeypatch):
    engine = _engine(budget=0.01)  # below one 0.02 reward
    for _ in range(5):
        engine.pool.admit("w")
    commit = BudgetLedger.commit
    listing = AgentPool.idle_workers
    calls = {"commit": 0, "idle_workers": 0}

    def counted_commit(ledger, reward):
        calls["commit"] += 1
        return commit(ledger, reward)

    def counted_listing(pool):
        calls["idle_workers"] += 1
        return listing(pool)

    monkeypatch.setattr(BudgetLedger, "commit", counted_commit)
    monkeypatch.setattr(AgentPool, "idle_workers", counted_listing)
    engine._activate_node("n")
    engine._dispatch_workers()
    assert calls == {"commit": 0, "idle_workers": 0}
    assert engine.runs["n"].open_wtasks == ["n:00000"]
    assert not any(r["kind"] == "assignment_issued" for r in engine.writer.records)
    assert engine.ledger.headroom_micros == to_micros(0.01)
