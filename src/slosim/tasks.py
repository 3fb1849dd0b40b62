"""Microtasks and replicated assignments (w-tasks).

A microtask carries its ground truth and its route.  A human-routed
microtask is posted as a w-task: a bundle of `want_votes` parallel
assignment slots, filled as workers become available.  The engine decides
whether a returned answer is on time: `record_return` registers an on-time
answer, and a late, rejected or overdue assignment is timed out by the
engine, which frees its slot for reassignment.  The w-task is done once
every wanted vote has been returned and nothing is pending.  A machine-routed
microtask collects its votes on the microtask itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Route(Enum):
    HUMAN = "human"
    MACHINE = "machine"


class AssignmentOutcome(Enum):
    PENDING = "pending"
    RETURNED = "returned"
    TIMED_OUT = "timed_out"


@dataclass
class Microtask:
    id: str
    route: Route
    truth: str
    machine_votes: list[str] = field(default_factory=list)
    machine_want: int = 0  # machine votes wanted: replication plus escalation extras


@dataclass
class AssignmentRecord:
    agent_id: str
    issued_at: int
    reward_micros: int
    answer: str | None = None
    outcome: AssignmentOutcome = AssignmentOutcome.PENDING

    def __post_init__(self) -> None:
        if self.reward_micros < 0:
            raise ValueError(f"reward must be >= 0: {self.reward_micros}")


@dataclass
class WTask:
    microtask_id: str
    want_votes: int  # the replication plus escalation extras
    completion_deadline: int
    assignments: list[AssignmentRecord] = field(default_factory=list)

    # -- derived counts -----------------------------------------------------

    def returned(self) -> list[AssignmentRecord]:
        return [a for a in self.assignments if a.outcome is AssignmentOutcome.RETURNED]

    def pending(self) -> list[AssignmentRecord]:
        return [a for a in self.assignments if a.outcome is AssignmentOutcome.PENDING]

    @property
    def open_slots(self) -> int:
        return self.want_votes - len(self.returned()) - len(self.pending())

    @property
    def done(self) -> bool:
        return self.open_slots == 0 and not self.pending()

    def votes(self) -> list[str]:
        return [a.answer for a in self.returned()]

    def pending_for(self, agent_id: str) -> AssignmentRecord | None:
        """The agent's pending assignment on this w-task, if it holds one."""
        for a in self.assignments:
            if a.agent_id == agent_id and a.outcome is AssignmentOutcome.PENDING:
                return a
        return None

    def has_live_assignment_for(self, agent_id: str) -> bool:
        """True if the agent already holds a pending or returned assignment.

        Timed-out attempts do not count: a worker may retry after a timeout,
        but never contributes two live answers to the same w-task.
        """
        return any(
            a.agent_id == agent_id and a.outcome is not AssignmentOutcome.TIMED_OUT
            for a in self.assignments
        )

    def drop_unfilled_slots(self) -> None:
        """Stop wanting more votes than are issued; used at finalization."""
        self.want_votes = len(self.returned()) + len(self.pending())


def spawn_wtask(microtask: Microtask, w: int, completion_deadline: int) -> WTask:
    """Post a human-routed microtask as a bundle of w parallel slots;
    assignments are issued later, as workers pick the task up."""
    if microtask.route is not Route.HUMAN:
        raise ValueError(f"cannot spawn a w-task for a machine-routed microtask: {microtask.id}")
    if w < 1:
        raise ValueError(f"replication must be >= 1: {w}")
    return WTask(microtask_id=microtask.id, want_votes=w, completion_deadline=completion_deadline)


def issue_assignment(wtask: WTask, agent_id: str, at: int, reward_micros: int) -> AssignmentRecord:
    """Fill one open slot with a pending assignment for agent_id."""
    if wtask.open_slots <= 0:
        raise ValueError(f"w-task {wtask.microtask_id} has no open slots")
    if wtask.pending_for(agent_id) is not None:
        raise ValueError(f"agent {agent_id} already has a pending assignment on {wtask.microtask_id}")
    record = AssignmentRecord(agent_id=agent_id, issued_at=at, reward_micros=reward_micros)
    wtask.assignments.append(record)
    return record


def record_return(record: AssignmentRecord, answer: str) -> None:
    """Register an on-time answer on a pending assignment.

    A done w-task says nothing about correctness; that is the
    result-evaluation step's job.
    """
    if record.outcome is not AssignmentOutcome.PENDING:
        raise ValueError(
            f"duplicate return: agent {record.agent_id}'s assignment is {record.outcome.value}"
        )
    record.outcome = AssignmentOutcome.RETURNED
    record.answer = answer


def expire_overdue(wtask: WTask, now: int) -> list[AssignmentRecord]:
    """The pending assignments to time out if now is past the completion
    deadline; the caller times each one out and releases its reward."""
    if now <= wtask.completion_deadline:
        return []
    return wtask.pending()
