"""Microtask and replicated-assignment (w-task) lifecycle.

A human-routed microtask is posted as a w-task: a bundle of `want_votes`
parallel assignment slots.  Slots are filled as workers become available;
a timed-out assignment frees its slot for reassignment.  The w-task is
done once every wanted vote has been returned and nothing is pending.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Route(Enum):
    HUMAN = "human"
    MACHINE = "machine"


class MicrotaskStatus(Enum):
    UNASSIGNED = "unassigned"
    IN_FLIGHT = "in_flight"
    EVALUATED = "evaluated"


class AssignmentOutcome(Enum):
    PENDING = "pending"
    RETURNED = "returned"
    TIMED_OUT = "timed_out"


class WTaskState(Enum):
    PICKED = "picked"
    DONE = "done"


@dataclass
class Microtask:
    id: str
    node_id: str
    payload_ref: str
    answer_domain: tuple[str, ...]
    route: Route
    status: MicrotaskStatus = MicrotaskStatus.UNASSIGNED

    def __post_init__(self) -> None:
        if not self.answer_domain:
            raise ValueError("answer domain must be non-empty")
        if len(set(self.answer_domain)) != len(self.answer_domain):
            raise ValueError(f"answer domain has duplicates: {list(self.answer_domain)}")

    def mark_in_flight(self) -> None:
        if self.status is MicrotaskStatus.EVALUATED:
            raise ValueError(f"microtask {self.id} already evaluated")
        self.status = MicrotaskStatus.IN_FLIGHT

    def mark_evaluated(self) -> None:
        if self.status is not MicrotaskStatus.IN_FLIGHT:
            raise ValueError(
                f"microtask {self.id} must be in flight to evaluate (is {self.status.value})"
            )
        self.status = MicrotaskStatus.EVALUATED


@dataclass
class AssignmentRecord:
    agent_id: str
    issued_at: int
    reward_micros: int
    returned_at: int | None = None
    answer: str | None = None
    outcome: AssignmentOutcome = AssignmentOutcome.PENDING

    def __post_init__(self) -> None:
        if self.reward_micros < 0:
            raise ValueError(f"reward must be >= 0: {self.reward_micros}")


@dataclass
class WTask:
    microtask_id: str
    replication_w: int
    completion_deadline: int
    want_votes: int = 0  # replication_w plus escalation extras
    assignments: list[AssignmentRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.want_votes == 0:
            self.want_votes = self.replication_w

    # -- derived counts -----------------------------------------------------

    def returned(self) -> list[AssignmentRecord]:
        return [a for a in self.assignments if a.outcome is AssignmentOutcome.RETURNED]

    def pending(self) -> list[AssignmentRecord]:
        return [a for a in self.assignments if a.outcome is AssignmentOutcome.PENDING]

    @property
    def open_slots(self) -> int:
        return self.want_votes - len(self.returned()) - len(self.pending())

    @property
    def state(self) -> WTaskState:
        if self.open_slots == 0 and not self.pending():
            return WTaskState.DONE
        return WTaskState.PICKED

    def votes(self) -> list[str]:
        return [a.answer for a in self.returned() if a.answer is not None]

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


def spawn_wtask(
    microtask: Microtask,
    w: int,
    deadlines: tuple[int, int],
    reward_micros: int,
) -> WTask:
    """Post a human-routed microtask as a bundle of w parallel slots.

    The microtask becomes in-flight immediately; assignments are issued
    later, as workers pick the task up.
    """
    if microtask.route is not Route.HUMAN:
        raise ValueError(f"cannot spawn a w-task for a machine-routed microtask: {microtask.id}")
    if w < 1:
        raise ValueError(f"replication must be >= 1: {w}")
    completion, expiry = deadlines
    if completion > expiry:
        raise ValueError(f"deadlines inverted: completion {completion} > expiry {expiry}")
    if reward_micros < 0:
        raise ValueError(f"reward must be >= 0: {reward_micros}")
    microtask.mark_in_flight()
    return WTask(
        microtask_id=microtask.id,
        replication_w=w,
        completion_deadline=completion,
    )


def issue_assignment(wtask: WTask, agent_id: str, at: int, reward_micros: int) -> AssignmentRecord:
    """Fill one open slot with a pending assignment for agent_id."""
    if wtask.open_slots <= 0:
        raise ValueError(f"w-task {wtask.microtask_id} has no open slots")
    if any(
        a.agent_id == agent_id and a.outcome is AssignmentOutcome.PENDING
        for a in wtask.assignments
    ):
        raise ValueError(f"agent {agent_id} already has a pending assignment on {wtask.microtask_id}")
    record = AssignmentRecord(agent_id=agent_id, issued_at=at, reward_micros=reward_micros)
    wtask.assignments.append(record)
    return record


def record_return(wtask: WTask, agent_id: str, answer: str, at: int) -> AssignmentRecord:
    """Register an agent's answer.

    A return after the completion deadline is converted to a timeout and the
    answer discarded.  A done w-task says nothing about correctness; that is
    the result-evaluation step's job.
    """
    record = None
    for a in wtask.assignments:
        if a.agent_id == agent_id and a.outcome is AssignmentOutcome.PENDING:
            record = a
            break
    if record is None:
        if any(a.agent_id == agent_id for a in wtask.assignments):
            raise ValueError(
                f"duplicate return: agent {agent_id} has no pending assignment on {wtask.microtask_id}"
            )
        raise ValueError(f"unknown agent {agent_id} for w-task {wtask.microtask_id}")
    if at < record.issued_at:
        raise ValueError(f"return at {at} precedes issue at {record.issued_at}")

    if at > wtask.completion_deadline:
        record.outcome = AssignmentOutcome.TIMED_OUT
        return record
    record.outcome = AssignmentOutcome.RETURNED
    record.returned_at = at
    record.answer = answer
    return record


def expire_overdue(wtasks: list[WTask], now: int) -> list[tuple[str, list[str]]]:
    """Time out every pending assignment past its w-task's completion deadline.

    Returns (microtask_id, [agent_ids]) pairs for the affected w-tasks so the
    controller can reassign the freed slots.
    """
    affected: list[tuple[str, list[str]]] = []
    for wtask in wtasks:
        if now <= wtask.completion_deadline:
            continue
        timed_out = []
        for record in wtask.pending():
            record.outcome = AssignmentOutcome.TIMED_OUT
            timed_out.append(record.agent_id)
        if timed_out:
            affected.append((wtask.microtask_id, timed_out))
    return affected
