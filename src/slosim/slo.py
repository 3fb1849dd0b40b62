"""Service level objective triple: accuracy floor, budget cap, deadline."""

from __future__ import annotations

from dataclasses import dataclass

from .units import check_finite, to_micros, to_ticks


@dataclass(frozen=True)
class SloSpec:
    """Targets a task (or a single node) must meet.

    accuracy_target: minimum fraction of microtasks reaching a consensus
        decision, in (0, 1].
    budget: maximum total spend, currency units, > 0.
    deadline: absolute simulated-time instant by which work must finish, > 0.
    """

    accuracy_target: float
    budget: float
    deadline: float

    def __post_init__(self) -> None:
        check_finite(self)
        if not 0.0 < self.accuracy_target <= 1.0:
            raise ValueError(f"accuracy_target must be in (0, 1]: {self.accuracy_target}")
        if self.budget <= 0:
            raise ValueError(f"budget must be > 0: {self.budget}")
        if self.deadline <= 0:
            raise ValueError(f"deadline must be > 0: {self.deadline}")

    @property
    def budget_micros(self) -> int:
        return to_micros(self.budget)

    @property
    def deadline_ticks(self) -> int:
        return to_ticks(self.deadline)
