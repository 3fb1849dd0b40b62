"""Microtasks and w-tasks: the slot bookkeeping in `slosim.tasks` (a w-task
is its pending assignments and its answers, each keyed by agent), and the
outcomes the engine decides (a rejected answer becomes a timeout, a
timed-out worker may retry, escalation adds a slot).  That no answer is
accepted after its window is checked on whole traces in
`test_trace_invariants`."""

import pytest

from slosim.agents import AgentPool
from slosim.controller import ControllerConfig
from slosim.runner import ExecutionEngine, run_node
from slosim.sim import Simulation
from slosim.slo import SloSpec
from slosim.tasks import (
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
    assert wtask.pending == {} and wtask.answers == {}
    assert wtask.first_issued_at is None
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
    for agent in ("w1", "w2", "w3"):
        issue_assignment(wtask, agent, 10, 20_000)
    record_return(wtask, "w1", "a")
    record_return(wtask, "w2", "a")
    assert not wtask.done
    record_return(wtask, "w3", "b")
    assert wtask.done
    assert wtask.votes() == ["a", "a", "b"]


def test_return_moves_the_record_from_pending_to_answers_in_return_order():
    wtask = spawned()
    issued = {
        agent: issue_assignment(wtask, agent, at, 20_000) for agent, at in (("w1", 10), ("w2", 12))
    }
    assert list(wtask.pending) == ["w1", "w2"]
    assert record_return(wtask, "w2", "b") is issued["w2"]
    assert list(wtask.pending) == ["w1"] and wtask.answers == {"w2": "b"}
    record_return(wtask, "w1", "a")
    assert wtask.pending == {}
    assert wtask.votes() == ["b", "a"]  # return order, not issue order
    assert wtask.first_issued_at == 10


def test_duplicate_return_rejected():
    wtask = spawned(w=2)
    issue_assignment(wtask, "w1", 10, 20_000)
    record_return(wtask, "w1", "a")
    with pytest.raises(ValueError, match="duplicate"):
        record_return(wtask, "w1", "a")
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
    assert len(wtask.pending) == 1


def test_expire_ignores_returned_work():
    wtask = spawned(w=2, completion_deadline=500)
    for agent, answer in (("w1", "a"), ("w2", "b")):
        issue_assignment(wtask, agent, 10, 20_000)
        record_return(wtask, agent, answer)
    assert expire_overdue(wtask, 10_000) == []


def test_pending_for_finds_only_the_pending_record():
    wtask = spawned(w=2)
    first = issue_assignment(wtask, "w1", 10, 20_000)
    assert wtask.pending.get("w1") is first
    assert wtask.pending.get("w2") is None
    del wtask.pending["w1"]  # what the engine does on a timeout
    assert wtask.pending.get("w1") is None
    assert not wtask.has_live_assignment_for("w1") and wtask.open_slots == 2
    retry = issue_assignment(wtask, "w1", 102, 20_000)
    assert wtask.pending.get("w1") is retry
    assert wtask.first_issued_at == 10  # the first issue, not the retry
    record_return(wtask, "w1", "a")
    assert wtask.pending.get("w1") is None


# -- slot bookkeeping ---------------------------------------------------------------


def test_no_concurrent_duplicate_agent():
    wtask = spawned()
    issue_assignment(wtask, "w1", 10, 20_000)
    assert wtask.has_live_assignment_for("w1")
    with pytest.raises(ValueError):
        issue_assignment(wtask, "w1", 11, 20_000)
    record_return(wtask, "w1", "a")
    assert wtask.has_live_assignment_for("w1")
    with pytest.raises(ValueError, match="already holds"):
        issue_assignment(wtask, "w1", 12, 20_000)


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
    # the rejected attempt is gone; the retry is the one pending record
    assert list(wtask.pending) == [agent] and wtask.answers == {}
    assert wtask.pending[agent].issued_at == engine.sim.now > wtask.first_issued_at
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
    assert wtask.pending == {} and wtask.answers == {}
    assert wtask.open_slots == 4
    assert len(_kinds(engine, "assignment_timeout")) == 3


def test_reward_total_bounded_by_wanted_votes():
    wtask = spawned(w=3, completion_deadline=1_000)
    paid = 0
    for agent in ("w1", "w2", "w3"):
        issue_assignment(wtask, agent, 10, 20_000)
        paid += record_return(wtask, agent, "a").reward_micros
    with pytest.raises(ValueError, match="no open slots"):
        issue_assignment(wtask, "w4", 30, 20_000)
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
