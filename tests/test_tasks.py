import pytest

from slosim.tasks import (
    AssignmentOutcome,
    Microtask,
    MicrotaskStatus,
    Route,
    WTaskState,
    expire_overdue,
    issue_assignment,
    record_return,
    spawn_wtask,
)


def microtask(route=Route.HUMAN):
    return Microtask(
        id="n:00001",
        node_id="n",
        payload_ref="n/item-00001",
        answer_domain=("a", "b"),
        route=route,
    )


def spawned(w=3, deadlines=(100, 500), reward=20_000):
    return spawn_wtask(microtask(), w, deadlines, reward)


# -- spawn --------------------------------------------------------------------


@pytest.mark.parametrize("w", [3, 1, 5])
def test_spawn_expects_w_assignments(w):
    mt = microtask()
    wtask = spawn_wtask(mt, w, (100, 500), 20_000)
    assert wtask.state is WTaskState.PICKED
    assert wtask.assignments == []
    assert wtask.open_slots == w
    assert mt.status is MicrotaskStatus.IN_FLIGHT


def test_spawn_rejects_machine_route():
    with pytest.raises(ValueError):
        spawn_wtask(microtask(route=Route.MACHINE), 3, (100, 500), 20_000)


def test_spawn_rejects_zero_replication():
    with pytest.raises(ValueError):
        spawn_wtask(microtask(), 0, (100, 500), 20_000)


def test_spawn_rejects_inverted_deadlines():
    with pytest.raises(ValueError):
        spawn_wtask(microtask(), 3, (500, 100), 20_000)


# -- returns --------------------------------------------------------------------


def test_third_return_flips_done():
    wtask = spawned()
    for agent in ("w1", "w2", "w3"):
        issue_assignment(wtask, agent, 10, 20_000)
    record_return(wtask, "w1", "a", 20)
    record_return(wtask, "w2", "a", 30)
    assert wtask.state is WTaskState.PICKED
    record_return(wtask, "w3", "b", 40)
    assert wtask.state is WTaskState.DONE
    assert wtask.votes() == ["a", "a", "b"]


def test_late_return_becomes_timeout_and_discards_answer():
    wtask = spawned(w=1)
    issue_assignment(wtask, "w1", 10, 20_000)
    record = record_return(wtask, "w1", "a", 101)  # completion deadline is 100
    assert record.outcome is AssignmentOutcome.TIMED_OUT
    assert record.answer is None
    assert record.returned_at is None
    assert wtask.votes() == []


def test_duplicate_return_rejected():
    wtask = spawned(w=2)
    issue_assignment(wtask, "w1", 10, 20_000)
    record_return(wtask, "w1", "a", 20)
    with pytest.raises(ValueError, match="duplicate"):
        record_return(wtask, "w1", "a", 30)


def test_unknown_agent_rejected():
    wtask = spawned()
    with pytest.raises(ValueError, match="unknown"):
        record_return(wtask, "ghost", "a", 20)


# -- expiry --------------------------------------------------------------------


def test_expire_past_deadline():
    wtask = spawned(w=1)
    issue_assignment(wtask, "w1", 10, 20_000)
    record = wtask.pending()[0]
    affected = expire_overdue(wtask, 501)
    # completion deadline 100 < 501
    assert affected == [record]
    assert record.outcome is AssignmentOutcome.TIMED_OUT
    assert wtask.pending() == []


def test_expire_before_deadline_no_change():
    wtask = spawned(w=1, deadlines=(500, 500))
    issue_assignment(wtask, "w1", 10, 20_000)
    assert expire_overdue(wtask, 499) == []
    assert len(wtask.pending()) == 1


def test_expire_ignores_returned_work():
    wtask = spawned(w=2, deadlines=(500, 500))
    issue_assignment(wtask, "w1", 10, 20_000)
    issue_assignment(wtask, "w2", 10, 20_000)
    record_return(wtask, "w1", "a", 20)
    record_return(wtask, "w2", "b", 30)
    assert expire_overdue(wtask, 10_000) == []


def test_pending_for_finds_only_the_pending_record():
    wtask = spawned(w=2)
    first = issue_assignment(wtask, "w1", 10, 20_000)
    assert wtask.pending_for("w1") is first
    assert wtask.pending_for("w2") is None
    expire_overdue(wtask, 101)
    assert wtask.pending_for("w1") is None
    wtask.completion_deadline = 500
    retry = issue_assignment(wtask, "w1", 102, 20_000)
    assert wtask.pending_for("w1") is retry
    record_return(wtask, "w1", "a", 110)
    assert wtask.pending_for("w1") is None


# -- slot bookkeeping ---------------------------------------------------------------


def test_no_concurrent_duplicate_agent():
    wtask = spawned()
    issue_assignment(wtask, "w1", 10, 20_000)
    with pytest.raises(ValueError):
        issue_assignment(wtask, "w1", 11, 20_000)


def test_agent_may_retry_after_timeout():
    wtask = spawned(w=1)
    issue_assignment(wtask, "w1", 10, 20_000)
    expire_overdue(wtask, 101)
    assert wtask.open_slots == 1
    issue_assignment(wtask, "w1", 102, 20_000)
    assert len(wtask.assignments) == 2


def test_timeout_frees_slot_and_escalation_adds_one():
    wtask = spawned(w=3)
    for agent in ("w1", "w2", "w3"):
        issue_assignment(wtask, agent, 10, 20_000)
    assert wtask.open_slots == 0
    expire_overdue(wtask, 101)
    assert wtask.open_slots == 3
    wtask.want_votes += 1
    assert wtask.open_slots == 4


def test_reward_total_bounded_by_wanted_votes():
    wtask = spawned(w=3, deadlines=(1_000, 1_000))
    for i, agent in enumerate(("w1", "w2", "w3")):
        issue_assignment(wtask, agent, 10, 20_000)
        record_return(wtask, agent, "a", 20 + i)
    paid = sum(a.reward_micros for a in wtask.returned())
    assert paid <= wtask.want_votes * 20_000
    assert wtask.state is WTaskState.DONE


def test_microtask_rejects_bad_domains():
    with pytest.raises(ValueError):
        Microtask(id="x", node_id="n", payload_ref="p", answer_domain=(), route=Route.HUMAN)
    with pytest.raises(ValueError):
        Microtask(id="x", node_id="n", payload_ref="p", answer_domain=("a", "a"), route=Route.HUMAN)


def test_microtask_status_never_regresses():
    mt = microtask()
    mt.mark_in_flight()
    mt.mark_evaluated()
    with pytest.raises(ValueError):
        mt.mark_in_flight()
