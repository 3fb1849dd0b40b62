"""Microtasks and replicated assignments (w-tasks).

A microtask carries its ground truth.  A human-routed
microtask is posted as a w-task: a bundle of `want_votes` parallel
assignment slots, filled as workers become available.  A w-task is its
pending assignments and its answers, each keyed by agent: an issued
assignment is pending until `record_return` moves it to the answers, or the
engine times it out (a late, rejected or overdue assignment), which deletes
it and so frees its slot for reassignment.  The trace keeps the timeout;
the w-task keeps nothing of it.  The w-task is done once every wanted vote
has been answered and nothing is pending.  A machine-routed microtask
collects its votes on the microtask itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Microtask:
    id: str
    truth: str
    machine_votes: list[str] = field(default_factory=list)
    machine_want: int = 0  # machine votes wanted: replication plus escalation extras


@dataclass
class AssignmentRecord:
    agent_id: str
    issued_at: int
    reward_micros: int

    def __post_init__(self) -> None:
        if self.reward_micros < 0:
            raise ValueError(f"reward must be >= 0: {self.reward_micros}")


@dataclass
class WTask:
    microtask_id: str
    want_votes: int  # the replication plus escalation extras
    completion_deadline: int
    pending: dict[str, AssignmentRecord] = field(default_factory=dict)  # by agent, issue order
    answers: dict[str, str] = field(default_factory=dict)  # by agent, return order
    first_issued_at: int | None = None  # when the first assignment was issued

    @property
    def open_slots(self) -> int:
        return self.want_votes - len(self.answers) - len(self.pending)

    @property
    def done(self) -> bool:
        return self.open_slots == 0 and not self.pending

    def votes(self) -> list[str]:
        return list(self.answers.values())

    def has_live_assignment_for(self, agent_id: str) -> bool:
        """True if the agent holds a pending assignment or has answered.

        A timed-out attempt is gone, so a worker may retry after a timeout,
        but never contributes two answers to the same w-task.
        """
        return agent_id in self.pending or agent_id in self.answers

    def drop_unfilled_slots(self) -> None:
        """Stop wanting more votes than are issued; used when a slot that
        timed out is not reissued because corrections are off."""
        self.want_votes = len(self.answers) + len(self.pending)


def spawn_wtask(microtask_id: str, w: int, completion_deadline: int) -> WTask:
    """Post a microtask to the crowd as a bundle of w parallel slots;
    assignments are issued later, as workers pick the task up."""
    if w < 1:
        raise ValueError(f"replication must be >= 1: {w}")
    return WTask(microtask_id=microtask_id, want_votes=w, completion_deadline=completion_deadline)


def issue_assignment(wtask: WTask, agent_id: str, at: int, reward_micros: int) -> AssignmentRecord:
    """Fill one open slot with a pending assignment for agent_id."""
    if wtask.open_slots <= 0:
        raise ValueError(f"w-task {wtask.microtask_id} has no open slots")
    if agent_id in wtask.pending or agent_id in wtask.answers:
        raise ValueError(f"agent {agent_id} already holds an assignment on {wtask.microtask_id}")
    record = AssignmentRecord(agent_id=agent_id, issued_at=at, reward_micros=reward_micros)
    wtask.pending[agent_id] = record
    if wtask.first_issued_at is None:
        wtask.first_issued_at = at
    return record


def record_return(wtask: WTask, agent_id: str, answer: str) -> AssignmentRecord:
    """Move the agent's pending assignment to the answers; return its record.

    A done w-task says nothing about correctness; that is the
    result-evaluation step's job.
    """
    record = wtask.pending.pop(agent_id, None)
    if record is None:
        raise ValueError(
            f"duplicate return: agent {agent_id} holds no pending assignment on {wtask.microtask_id}"
        )
    wtask.answers[agent_id] = answer
    return record


def expire_overdue(wtask: WTask, now: int) -> list[AssignmentRecord]:
    """The pending assignments to time out if now is past the completion
    deadline; the caller times each one out and releases its reward."""
    if now <= wtask.completion_deadline:
        return []
    return list(wtask.pending.values())
