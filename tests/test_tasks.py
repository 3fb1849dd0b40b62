"""Microtasks and w-tasks: the slot bookkeeping in `slosim.tasks`, and the
assignment outcomes the engine decides (a late or rejected answer becomes a
timeout, a timed-out worker may retry, escalation adds a slot)."""

import pytest

from slosim.agents import AgentPool
from slosim.controller import ControllerConfig
from slosim.runner import ExecutionEngine, run_node
from slosim.sim import Simulation
from slosim.slo import SloSpec
from slosim.tasks import (
    AssignmentOutcome,
    Microtask,
    Route,
    expire_overdue,
    issue_assignment,
    record_return,
    spawn_wtask,
)

from test_dispatch import _engine, _node


def microtask(route=Route.HUMAN):
    return Microtask(id="n:00001", route=route, truth="a")


def spawned(w=3, completion_deadline=100):
    return spawn_wtask(microtask(), w, completion_deadline)


def _step_until(engine: ExecutionEngine, handler) -> None:
    """Process events up to and including the next one handled by `handler`."""
    while True:
        event = engine.sim.step()
        event.handler(engine, *event.args)
        if event.handler is handler:
            return


def _kinds(engine: ExecutionEngine, *kinds: str) -> list[dict]:
    return [r for r in engine.writer.records if r["kind"] in kinds]


# -- spawn --------------------------------------------------------------------


@pytest.mark.parametrize("w", [3, 1, 5])
def test_spawn_expects_w_assignments(w):
    wtask = spawn_wtask(microtask(), w, 100)
    assert not wtask.done
    assert wtask.assignments == []
    assert wtask.want_votes == wtask.open_slots == w
    assert wtask.completion_deadline == 100


def test_spawn_rejects_machine_route():
    with pytest.raises(ValueError):
        spawn_wtask(microtask(route=Route.MACHINE), 3, 100)


def test_spawn_rejects_zero_replication():
    with pytest.raises(ValueError):
        spawn_wtask(microtask(), 0, 100)


# -- returns --------------------------------------------------------------------


def test_third_return_flips_done():
    wtask = spawned()
    records = [issue_assignment(wtask, agent, 10, 20_000) for agent in ("w1", "w2", "w3")]
    record_return(records[0], "a")
    record_return(records[1], "a")
    assert not wtask.done
    record_return(records[2], "b")
    assert wtask.done
    assert wtask.votes() == ["a", "a", "b"]


def test_late_return_becomes_timeout_and_discards_answer():
    engine = _engine(w=1)
    agent = engine.pool.admit("w")
    engine._activate_node("n")
    wtask = engine.runs["n"].wtasks["n:00000"]
    [record] = wtask.assignments
    # the window closes one tick before the answer comes back
    wtask.completion_deadline = engine.sim.peek_time() - 1
    _step_until(engine, ExecutionEngine._on_return)
    assert record.outcome is AssignmentOutcome.TIMED_OUT
    assert record.answer is None
    assert wtask.votes() == []
    assert not _kinds(engine, "assignment_returned")
    [timeout] = _kinds(engine, "assignment_timeout")
    assert (timeout["agent"], timeout["rejected"]) == (agent, False)
    assert engine.ledger.committed_micros == engine.ledger.spent_micros == 0


def test_duplicate_return_rejected():
    wtask = spawned(w=2)
    record = issue_assignment(wtask, "w1", 10, 20_000)
    record_return(record, "a")
    with pytest.raises(ValueError, match="duplicate"):
        record_return(record, "a")
    assert wtask.votes() == ["a"]


# -- expiry --------------------------------------------------------------------


def test_expire_past_deadline():
    wtask = spawned(w=1)
    record = issue_assignment(wtask, "w1", 10, 20_000)
    # completion deadline 100 < 501; the engine times each overdue record out
    assert expire_overdue(wtask, 501) == [record]


def test_expire_before_deadline_no_change():
    wtask = spawned(w=1, completion_deadline=500)
    issue_assignment(wtask, "w1", 10, 20_000)
    assert expire_overdue(wtask, 499) == []
    assert len(wtask.pending()) == 1


def test_expire_ignores_returned_work():
    wtask = spawned(w=2, completion_deadline=500)
    record_return(issue_assignment(wtask, "w1", 10, 20_000), "a")
    record_return(issue_assignment(wtask, "w2", 10, 20_000), "b")
    assert expire_overdue(wtask, 10_000) == []


def test_pending_for_finds_only_the_pending_record():
    wtask = spawned(w=2)
    first = issue_assignment(wtask, "w1", 10, 20_000)
    assert wtask.pending_for("w1") is first
    assert wtask.pending_for("w2") is None
    first.outcome = AssignmentOutcome.TIMED_OUT
    assert wtask.pending_for("w1") is None
    retry = issue_assignment(wtask, "w1", 102, 20_000)
    assert wtask.pending_for("w1") is retry
    record_return(retry, "a")
    assert wtask.pending_for("w1") is None


# -- slot bookkeeping ---------------------------------------------------------------


def test_no_concurrent_duplicate_agent():
    wtask = spawned()
    issue_assignment(wtask, "w1", 10, 20_000)
    assert wtask.has_live_assignment_for("w1")
    with pytest.raises(ValueError):
        issue_assignment(wtask, "w1", 11, 20_000)


def test_agent_may_retry_after_timeout():
    # the first answer is rejected, which times the assignment out inside its
    # window; the freed slot reopens and the same, now idle, worker takes it
    rejected = []

    def reject_first(mt_id, agent_id, answer):
        rejected.append(agent_id)
        return len(rejected) == 1

    engine = _engine(w=1, reject=reject_first)
    agent = engine.pool.admit("w")
    engine._activate_node("n")
    _step_until(engine, ExecutionEngine._on_return)
    wtask = engine.runs["n"].wtasks["n:00000"]
    assert [a.outcome for a in wtask.assignments] == [
        AssignmentOutcome.TIMED_OUT, AssignmentOutcome.PENDING,
    ]
    assert [a.agent_id for a in wtask.assignments] == [agent, agent]
    _step_until(engine, ExecutionEngine._on_return)
    assert wtask.done and len(wtask.votes()) == 1
    kinds = [r["kind"] for r in _kinds(
        engine, "assignment_issued", "assignment_timeout", "assignment_returned", "action"
    )]
    assert kinds == [
        "assignment_issued", "assignment_timeout", "action", "assignment_issued",
        "assignment_returned",
    ]


def test_timeout_frees_slot_and_escalation_adds_one():
    engine = _engine(w=3, service=5.0, window=1.0)
    for _ in range(3):
        engine.pool.admit("w")
    engine._activate_node("n")
    node_run = engine.runs["n"]
    wtask = node_run.wtasks["n:00000"]
    assert wtask.open_slots == 0 and node_run.open_wtasks == []
    engine._escalate(node_run, "n:00000")
    assert (wtask.want_votes, wtask.open_slots) == (4, 1)
    assert node_run.open_wtasks == ["n:00000"]
    assert _kinds(engine, "escalated")[0]["want_votes"] == 4
    _step_until(engine, ExecutionEngine._on_timeout_sweep)  # the window closes
    assert [a.outcome for a in wtask.assignments] == [AssignmentOutcome.TIMED_OUT] * 3
    assert wtask.open_slots == 4
    assert len(_kinds(engine, "assignment_timeout")) == 3


def test_reward_total_bounded_by_wanted_votes():
    wtask = spawned(w=3, completion_deadline=1_000)
    for agent in ("w1", "w2", "w3"):
        record_return(issue_assignment(wtask, agent, 10, 20_000), "a")
    with pytest.raises(ValueError, match="no open slots"):
        issue_assignment(wtask, "w4", 30, 20_000)
    paid = sum(a.reward_micros for a in wtask.returned())
    assert paid <= wtask.want_votes * 20_000
    assert wtask.done


def test_microtask_rejects_bad_domains():
    config = ControllerConfig()
    slo = SloSpec(accuracy_target=0.5, budget=1.0, deadline=10.0)
    pool = AgentPool(workers=(), machines=())
    with pytest.raises(ValueError, match="must be non-empty"):
        run_node(_node(), slo, config, pool, Simulation(1, slo.deadline_ticks), answer_domain=())
    with pytest.raises(ValueError, match=r"has duplicates: \['a', 'a'\]"):
        run_node(_node(), slo, config, pool, Simulation(1, slo.deadline_ticks), answer_domain=("a", "a"))
