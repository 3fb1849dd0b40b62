"""SLO feedback control: work partitioning, completion-rate probing, risk
assessment, budget accounting and corrective-action planning.

The controller is a deterministic state machine advanced only at polling
instants and on exception events (timeouts).  Each poll reads one
`PollObservation`; every decision is a pure function of it and the config,
so traces are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .slo import SloSpec
from .units import check_finite, to_micros


class RiskFlag(Enum):
    TIME_RISK = "time_risk"
    ACCURACY_RISK = "accuracy_risk"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class ControllerConfig:
    """Tuning of the execution-management loop.

    polling_intervals: number K of equal subdivisions of a node's window;
        the controller polls at the end of each, the last poll at the
        node deadline.
    initial_hm_ratio: starting ratio of human-routed to machine-routed
        microtasks for nodes that may use either agent kind.
    replication_w: parallel human assignments per microtask (odd, so a
        full vote set cannot tie).
    reward_per_assignment: currency paid for one returned assignment.
    ewma_alpha: smoothing factor for the completion-rate probe.
    incentive_step: multiplicative raise applied to the incentive
        multiplier when completion is at risk.
    hm_ratio_decay: multiplicative cut applied to the ratio when time risk
        persists, shifting work toward machine agents.
    vote_rule: how a microtask's votes decide it: "majority" (more than
        half of the votes) or "plurality" (a unique top count).
    machine_replication: independent machine passes per machine-routed
        microtask.
    incentive_elasticity: e in rate = base * (1 + e * (multiplier - 1)),
        how much an incentive raise lifts every class's arrival rate.
    assignment_window: optional per-w-task completion window, in time
        units from the w-task's first pickup; by default returns are
        accepted until the node deadline.
    corrections_enabled: master switch for corrective actions; polling and
        risk probes stay on so a disabled controller still observes.
    """

    polling_intervals: int = 10
    initial_hm_ratio: float = 1.0
    replication_w: int = 3
    reward_per_assignment: float = 0.02
    ewma_alpha: float = 0.5
    incentive_step: float = 1.25
    hm_ratio_decay: float = 0.5
    vote_rule: str = "majority"
    machine_replication: int = 1
    incentive_elasticity: float = 1.0
    assignment_window: float | None = None
    corrections_enabled: bool = True

    def __post_init__(self) -> None:
        check_finite(self)
        if self.polling_intervals < 1:
            raise ValueError(f"polling_intervals must be >= 1: {self.polling_intervals}")
        if self.initial_hm_ratio < 0:
            raise ValueError(f"initial_hm_ratio must be >= 0: {self.initial_hm_ratio}")
        if self.replication_w < 1 or self.replication_w % 2 == 0:
            raise ValueError(f"replication_w must be odd and positive: {self.replication_w}")
        if self.reward_per_assignment < 0:
            raise ValueError(f"reward must be >= 0: {self.reward_per_assignment}")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1]: {self.ewma_alpha}")
        if self.incentive_step < 1.0:
            raise ValueError(f"incentive_step must be >= 1: {self.incentive_step}")
        if not 0.0 < self.hm_ratio_decay < 1.0:
            raise ValueError(f"hm_ratio_decay must be in (0, 1): {self.hm_ratio_decay}")
        if self.vote_rule not in ("majority", "plurality"):
            raise ValueError(f"unknown vote rule: {self.vote_rule!r}")
        if self.machine_replication < 1:
            raise ValueError(f"machine_replication must be >= 1: {self.machine_replication}")
        if self.incentive_elasticity < 0:
            raise ValueError(f"incentive_elasticity must be >= 0: {self.incentive_elasticity}")
        if self.assignment_window is not None and self.assignment_window <= 0:
            raise ValueError(f"assignment_window must be > 0: {self.assignment_window}")

    @property
    def reward_micros(self) -> int:
        return to_micros(self.reward_per_assignment)


@dataclass(frozen=True)
class PollObservation:
    """Every value the controller reads at one poll of one node."""

    now: float  # time units, capped at the node deadline
    total: int
    evaluated: int
    consensus_rate: float
    completion_rate: float  # EWMA, microtasks per time unit
    hm_ratio: float
    incentive_multiplier: float
    headroom_micros: int
    reward_micros: int  # the node's reward at its current multiplier
    timed_out_slots: int
    unresolved_human: int
    unpicked_human: int
    no_consensus_ids: tuple[str, ...]  # sorted
    reroutable: bool  # false for nodes pinned to one agent kind


def _scaled_reward_micros(base_reward_micros: int, multiplier: float) -> int:
    """The reward at an incentive multiplier, rounded half-up to a micro."""
    return int(math.floor(base_reward_micros * multiplier + 0.5))


class BudgetLedger:
    """Monotone spend accounting against a fixed budget.

    Money is reserved (committed) when an assignment is issued, becomes
    spend when the assignment returns, and is released on timeout.  The
    invariant spent + committed <= budget holds at every instant.
    """

    def __init__(self, budget_micros: int):
        if budget_micros <= 0:
            raise ValueError(f"budget must be > 0: {budget_micros}")
        self.budget_micros = budget_micros
        self.spent_micros = 0
        self.committed_micros = 0

    @property
    def headroom_micros(self) -> int:
        return self.budget_micros - self.spent_micros - self.committed_micros

    def commit(self, reward_micros: int) -> bool:
        """Reserve the reward if it fits; False means refusal, no change."""
        if reward_micros < 0:
            raise ValueError(f"reward must be >= 0: {reward_micros}")
        if reward_micros > self.headroom_micros:
            return False
        self.committed_micros += reward_micros
        return True

    def settle_return(self, reward_micros: int) -> None:
        """A committed assignment was returned: reservation becomes spend."""
        if reward_micros > self.committed_micros:
            raise ValueError("settling more than is committed")
        self.committed_micros -= reward_micros
        self.spent_micros += reward_micros

    def settle_timeout(self, reward_micros: int) -> None:
        """A committed assignment timed out: release the reservation."""
        if reward_micros > self.committed_micros:
            raise ValueError("releasing more than is committed")
        self.committed_micros -= reward_micros


def partition(n: int, hm_ratio: float) -> tuple[int, int]:
    """Split n microtasks into (human, machine) counts.

    Humans get hm_ratio times the machine share; the human count rounds
    half-up so ties favour the human side.  hm_ratio of 0 routes everything
    to machines.
    """
    if n < 0:
        raise ValueError(f"count must be >= 0: {n}")
    if hm_ratio < 0:
        raise ValueError(f"ratio must be >= 0: {hm_ratio}")
    n_human = int(math.floor(hm_ratio * n / (1.0 + hm_ratio) + 0.5))
    return n_human, n - n_human


def update_rho(previous: float | None, completed: int, interval_length: float, alpha: float) -> float:
    """The smoothed completion rate after folding in one interval's completions."""
    if interval_length <= 0:
        raise ValueError(f"interval length must be > 0: {interval_length}")
    instantaneous = completed / interval_length
    if previous is None:
        return instantaneous
    return alpha * instantaneous + (1.0 - alpha) * previous


def assess_risk(obs: PollObservation, slo: SloSpec) -> set[RiskFlag]:
    """Project completion and quality against the SLO at a polling instant.

    Time risk: linear projection of evaluated work at the current smoothed
    completion rate falls short of the total by the deadline.  Accuracy
    risk: the consensus rate trails the target, once enough results exist
    to trust the rate.  Budget exhaustion: not even one more assignment
    fits under the budget.
    """
    if obs.now > slo.deadline:
        raise ValueError(f"poll at {obs.now} past deadline {slo.deadline}")
    flags: set[RiskFlag] = set()

    if obs.evaluated < obs.total:
        projected = obs.evaluated + obs.completion_rate * (slo.deadline - obs.now)
        if projected < obs.total:
            flags.add(RiskFlag.TIME_RISK)

    warmup = max(10, math.ceil(0.05 * obs.total))
    if obs.evaluated >= warmup and obs.consensus_rate < slo.accuracy_target:
        flags.add(RiskFlag.ACCURACY_RISK)

    if obs.headroom_micros < obs.reward_micros:
        flags.add(RiskFlag.BUDGET_EXHAUSTED)

    return flags


@dataclass(frozen=True)
class Action:
    kind: str  # "reassign" | "raise_incentive" | "reduce_ratio" | "escalate"
    trigger: str
    params: dict


def plan_corrective_actions(
    obs: PollObservation, risks: set[RiskFlag], config: ControllerConfig
) -> list[Action]:
    """Deterministic escalation ladder for one polling instant.

    1. Reassign every slot freed by a timeout or rejected result.
    2. Under time risk, raise the incentive if the raised reward still fits
       the remaining budget.
    3. If the completion projection still falls short after (1) and (2)
       (neither changes the measured completion rate, so a raise cannot
       clear the projection at the same instant), cut the human/machine
       ratio and move unpicked human microtasks to machine agents.  Nodes
       pinned to one agent kind bypass the ratio, so this step is skipped
       for them (`obs.reroutable` false).
    4. Under accuracy risk, grant undecided microtasks one extra vote each,
       lowest microtask id first, while the budget allows.

    Every step degrades to a no-op when the budget blocks it.
    """
    actions: list[Action] = []
    if not config.corrections_enabled:
        return actions

    if obs.timed_out_slots > 0:
        actions.append(Action("reassign", "timeout", {"slots": obs.timed_out_slots}))

    if RiskFlag.TIME_RISK in risks:
        raised = obs.incentive_multiplier * config.incentive_step
        raised_reward = _scaled_reward_micros(config.reward_micros, raised)
        if obs.headroom_micros >= raised_reward:
            params = {"multiplier": raised, "reward_micros": raised_reward}
            actions.append(Action("raise_incentive", "time_risk", params))

        if obs.reroutable:
            # the projection is unchanged by (1)-(2) at this instant, so time
            # risk persisting means the ratio cut applies now
            new_ratio = obs.hm_ratio * config.hm_ratio_decay
            want_human, _ = partition(obs.total - obs.evaluated, new_ratio)
            moves = min(obs.unpicked_human, max(0, obs.unresolved_human - want_human))
            params = {"hm_ratio": new_ratio, "reroute": moves}
            actions.append(Action("reduce_ratio", "time_risk", params))

    ids = obs.no_consensus_ids
    if RiskFlag.ACCURACY_RISK in risks and ids:
        quota = len(ids) if obs.reward_micros == 0 else obs.headroom_micros // obs.reward_micros
        chosen = list(ids[: max(0, quota)])
        if chosen:
            actions.append(Action("escalate", "accuracy_risk", {"microtasks": chosen}))

    return actions


def poll_instants(window_start: int, deadline: int, polling_intervals: int) -> list[int]:
    """The K polling instants for a node window, last one at the deadline."""
    if deadline < window_start:
        raise ValueError(f"deadline {deadline} precedes window start {window_start}")
    span = deadline - window_start
    k = polling_intervals
    return [window_start + (span * (i + 1) + k // 2) // k for i in range(k)]
