"""Worker dispatch and the open w-task list: the invariants that let one
sweep over the idle workers fill every slot they can take."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slosim.agents import AgentPool, ServiceTime, WorkerClass
from slosim.controller import BudgetLedger, ControllerConfig, _scaled_reward_micros
from slosim.runner import ExecutionEngine, _NodeRun, run
from slosim.scenario import Scenario, load_scenario, scenario_from_dict
from slosim.slo import SloSpec
from slosim.trace import TraceWriter
from slosim.units import to_micros, to_ticks
from slosim.workflow import AgentTag, WorkflowGraph, WorkflowNode

from conftest import SCENARIOS_DIR


def _node() -> WorkflowNode:
    return WorkflowNode(
        id="n", microtask_count=1, answer_domain=("yes", "no"), agent_tag=AgentTag.HUMAN_ONLY
    )


def _engine(
    *,
    budget: float = 5.0,
    window: float | None = None,
    w: int = 3,
    service: float = 0.5,
    reject=None,
) -> ExecutionEngine:
    """A one-node, one-microtask, human-only engine with no arrivals
    scheduled: callers admit the idle workers they want and activate the
    node themselves.  Workers always stay after a return."""
    slo = SloSpec(accuracy_target=0.5, budget=budget, deadline=100.0)
    scenario = Scenario(
        name="dispatch",
        seed=1,
        time_unit="minute",
        graph=WorkflowGraph(nodes=(_node(),), edges=frozenset(), task_slo=slo),
        workers=(
            WorkerClass(
                name="w", accuracy=0.9, arrival_rate=0.1,
                service_time=ServiceTime(family="fixed", value=service), retention=1.0,
            ),
        ),
        machines=(),
        controller=ControllerConfig(replication_w=w, assignment_window=window),
    )
    return ExecutionEngine(scenario, writer=TraceWriter(None), reject=reject)


# -- the open list ----------------------------------------------------------------

# ids past 99999 are wider than the 05d padding: "n:100000" < "n:10001"
_IDS = [f"n:{i:05d}" for i in (0, 7, 9999, 10000, 10001, 99999, 100000, 100001, 123456)]


@settings(max_examples=200)
@given(st.lists(st.tuples(st.booleans(), st.sampled_from(_IDS)), max_size=60))
def test_open_list_stays_sorted_unique_and_equal_to_its_set(ops):
    slo = SloSpec(accuracy_target=0.5, budget=1.0, deadline=10.0)
    run_ = _NodeRun(_node(), slo, ControllerConfig(), window_start=0)
    model: set[str] = set()
    for is_reopen, mt_id in ops:
        if is_reopen:
            run_.reopen(mt_id)
            model.add(mt_id)
        else:
            run_.close(mt_id)
            model.discard(mt_id)
        assert run_.open_wtasks == sorted(model)


def test_windowed_wtask_with_nothing_pending_leaves_open_list_at_its_sweep():
    engine = _engine(window=1.0)
    agent = engine.pool.admit("w")
    engine._activate_node("n")
    node_run = engine.runs["n"]
    wtask = node_run.wtasks["n:00000"]
    assert list(wtask.pending) == [agent]
    assert node_run.open_wtasks == ["n:00000"]  # two of three slots still open

    while True:
        event = engine.sim.step()
        event.handler(engine, *event.args)
        if event.handler is ExecutionEngine._on_timeout_sweep:
            break
    assert engine.sim.now == wtask.completion_deadline + 1
    assert not wtask.pending  # the one worker returned inside the window
    assert list(wtask.answers) == [agent]
    assert wtask.open_slots == 2
    assert node_run.open_wtasks == []


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
            reward = _scaled_reward_micros(engine.config.reward_micros, node_run.incentive_multiplier)
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


# -- active runs ---------------------------------------------------------------------


def _z_a_m_engine(*, z_count: int, a_deadline: float) -> ExecutionEngine:
    """Nodes z -> a plus an independent m, all human-only: a's id sorts first
    but it activates last, when z ends.  Workers are slow enough that
    nothing returns before the task deadline, so z runs to its deadline."""
    task = SloSpec(accuracy_target=0.5, budget=5.0, deadline=100.0)

    def node(node_id: str, count: int, deadline: float) -> WorkflowNode:
        slo = SloSpec(accuracy_target=0.5, budget=1.0, deadline=deadline)
        return WorkflowNode(
            id=node_id, microtask_count=count, answer_domain=("yes", "no"),
            agent_tag=AgentTag.HUMAN_ONLY, slo=slo,
        )

    graph = WorkflowGraph(
        nodes=(node("z", z_count, 50.0), node("a", 2, a_deadline), node("m", 2, 20.0)),
        edges=frozenset({("z", "a")}),
        task_slo=task,
    )
    scenario = Scenario(
        name="active-runs",
        seed=1,
        time_unit="minute",
        graph=graph,
        workers=(
            WorkerClass(
                name="w", accuracy=0.9, arrival_rate=0.5,
                service_time=ServiceTime(family="fixed", value=1000.0), retention=1.0,
            ),
        ),
        machines=(),
        controller=ControllerConfig(replication_w=1),
    )
    return ExecutionEngine(scenario, writer=TraceWriter(None))


def test_an_idle_worker_is_offered_to_the_active_runs_in_node_id_order():
    engine = _z_a_m_engine(z_count=0, a_deadline=60.0)
    engine._activate_ready()  # m, then z, which has nothing to do, so a
    starts = [r["node"] for r in engine.writer.records if r["kind"] == "node_start"]
    assert starts == ["m", "z", "a"]
    agent = engine.pool.admit("w")
    engine._dispatch_workers()
    issued = [r for r in engine.writer.records if r["kind"] == "assignment_issued"]
    assert [(r["node"], r["microtask"], r["agent"]) for r in issued] == [("a", "a:00000", agent)]


def test_the_run_stops_when_the_last_node_finalizes_at_its_activation():
    # z ends at its deadline t=50, past a's own deadline t=10, so a is
    # finalized as it activates; worker arrivals are still queued then
    engine = _z_a_m_engine(z_count=1, a_deadline=10.0)
    engine.run()
    records = engine.writer.records
    ends = [(r["node"], r["time"]) for r in records if r["kind"] == "node_end"]
    assert ends == [("m", to_ticks(20.0)), ("z", to_ticks(50.0)), ("a", to_ticks(50.0))]
    a_start = next(i for i, r in enumerate(records) if r["kind"] == "node_start" and r["node"] == "a")
    assert [r["kind"] for r in records[a_start:]] == ["node_start", "node_end", "run_end"]
    assert records[-1]["time"] == to_ticks(50.0)
    assert engine.sim.peek_time() is not None  # the loop did not drain the queue


# -- machine stations -----------------------------------------------------------------


@pytest.mark.parametrize(
    "budget, costs, evaluated",
    [
        # a_pricey is free but past the budget after its first job: b_cheap takes the rest
        (0.05, {"a_pricey": 0.04, "b_cheap": 0.0}, 40),
        # both fit throughout: b_cheap takes a job only while a_pricey is full
        (5.0, {"a_pricey": 0.04, "b_cheap": 0.0}, 40),
        # after a_pricey's first job neither fits: the head of the queue waits
        (0.07, {"a_pricey": 0.04, "b_dear": 0.05}, 1),
    ],
    ids=["first-free-unpaid", "first-full", "none-fits"],
)
def test_a_machine_job_takes_the_first_free_station_it_can_pay_for(budget, costs, evaluated):
    machines = [
        {"name": name, "accuracy": 0.7, "service_time_per_item": 1.0, "cost_per_item": cost, "capacity": 1}
        for name, cost in costs.items()
    ]
    overrides = [
        "workflow.nodes.0.agent_tag=machine_only",
        f"slo.budget={budget}",
        f"machines={json.dumps(machines)}",
    ]
    records = run(load_scenario(SCENARIOS_DIR / "minimal.yaml", overrides)).records
    budget_micros = to_micros(budget)
    cost_micros = {name: to_micros(cost) for name, cost in costs.items()}
    in_flight = dict.fromkeys(costs, 0)
    headroom = budget_micros
    dispatched = []
    for record in records:
        if record["kind"] == "machine_dispatched":
            name = record["profile"]
            free_and_paid = [n for n in sorted(costs) if in_flight[n] < 1 and cost_micros[n] <= headroom]
            assert free_and_paid[:1] == [name], record
            in_flight[name] += 1
            dispatched.append(record["microtask"])
        elif record["kind"] == "machine_done":
            in_flight[record["profile"]] -= 1
        if "spent" in record:
            assert record["spent"] + record["committed"] <= budget_micros, record
            headroom = budget_micros - record["spent"] - record["committed"]
    # one node, one machine pass each: the queue holds the microtasks in id
    # order, and no item is dispatched ahead of one queued before it
    assert dispatched == [f"classify:{i:05d}" for i in range(len(dispatched))]
    (end,) = [r for r in records if r["kind"] == "node_end"]
    assert end["evaluated"] == evaluated
