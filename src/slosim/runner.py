"""End-to-end execution: scenario -> simulated run -> trace + summary.

The engine drives one deterministic event loop over all workflow nodes.
Each active node owns a control loop (partition, poll, risk, corrective
actions) while the engine owns the shared things: the clock, the worker
pool, the machine stations, the budget ledger and the trace.
"""

from __future__ import annotations

import bisect
import itertools
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from .agents import AgentPool, MachineAgentProfile, WorkerClass, answer_microtask
from .controller import (
    Action,
    BudgetLedger,
    ControllerConfig,
    ControllerState,
    assess_risk,
    partition,
    plan_corrective_actions,
    poll_instants,
    update_rho,
)
from .scenario import Scenario, controller_to_dict
from .sim import EmptyQueue, HorizonExceeded, SimEvent, Simulation
from .slo import SloSpec
from .tasks import (
    AssignmentOutcome,
    AssignmentRecord,
    Microtask,
    MicrotaskStatus,
    Route,
    WTask,
    WTaskState,
    expire_overdue,
    issue_assignment,
    record_return,
    spawn_wtask,
)
from .trace import NodeSummary, RunSummary, TraceWriter
from .units import TICKS_PER_UNIT, to_ticks, to_units
from .voting import ConsensusResult, ConsensusStatus, VoteSet, majority_vote, node_consensus_rate
from .workflow import AgentTag, WorkflowGraph, WorkflowNode, derive_node_slos, ready_nodes, validate

RejectPredicate = Callable[[str, str, str], bool]


@dataclass
class RunResult:
    records: list[dict[str, Any]] | None  # None when the records went to trace_path
    summary: RunSummary
    trace_path: Path | None = None


@dataclass
class NodeOutcome:
    summary: NodeSummary
    results: dict[str, ConsensusResult]
    records: list[dict[str, Any]] | None  # None when the records went to a trace file


class _NodeRun:
    """Execution state and control loop for one active workflow node."""

    def __init__(
        self,
        node: WorkflowNode,
        slo: SloSpec,
        config: ControllerConfig,
        domain: tuple[str, ...],
        window_start: int,
    ):
        self.node = node
        self.slo = slo
        self.domain = domain
        self.deadline = slo.deadline_ticks
        self.state = ControllerState(
            hm_ratio=config.initial_hm_ratio, ewma_alpha=config.ewma_alpha
        )
        self.microtasks: dict[str, Microtask] = {}
        self.truths: dict[str, str] = {}
        self.wtasks: dict[str, WTask] = {}
        self.open_wtasks: list[str] = []  # sorted, so dispatch scans in id order
        self.open_set: set[str] = set()  # the members of open_wtasks
        self.machine_votes: dict[str, list[str]] = {}
        self.machine_want: dict[str, int] = {}
        self.results: dict[str, ConsensusResult] = {}
        self.final: set[str] = set()
        self.no_consensus_pending: set[str] = set()
        self.evaluated_at_last_poll = 0
        self.last_poll_tick = window_start
        self.timed_out_since_poll = 0
        self.poll_events: list[SimEvent] = []
        self.spend_micros = 0
        self.finished = False
        self.finish_tick: int | None = None

    @property
    def evaluated_count(self) -> int:
        return len(self.final)

    def reopen(self, microtask_id: str) -> None:
        if microtask_id not in self.open_set:
            self.open_set.add(microtask_id)
            bisect.insort(self.open_wtasks, microtask_id)

    def close(self, microtask_id: str) -> None:
        if microtask_id in self.open_set:
            self.open_set.remove(microtask_id)
            del self.open_wtasks[bisect.bisect_left(self.open_wtasks, microtask_id)]

    def unpicked_human_ids(self) -> list[str]:
        return [
            mt_id
            for mt_id in self.open_wtasks
            if not self.wtasks[mt_id].assignments and mt_id not in self.final
        ]

    def check_conservation(self) -> None:
        # every microtask has exactly one status, so the tally sums to the count
        if len(self.microtasks) != self.node.microtask_count:
            counts = {status: 0 for status in MicrotaskStatus}
            for microtask in self.microtasks.values():
                counts[microtask.status] += 1
            raise RuntimeError(
                f"conservation broken on node {self.node.id}: {counts} != {self.node.microtask_count}"
            )


class _MachineStation:
    def __init__(self, profile: MachineAgentProfile):
        self.profile = profile
        self.cost_micros = profile.cost_micros
        self.in_flight: dict[int, tuple[str, SimEvent]] = {}  # ticket -> (node id, done event)
        self.tickets = itertools.count(1)

    @property
    def free_capacity(self) -> int:
        return self.profile.capacity - len(self.in_flight)


class ExecutionEngine:
    """One deterministic run of a workflow over simulated agents."""

    def __init__(
        self,
        *,
        name: str,
        graph: WorkflowGraph,
        node_domains: dict[str, tuple[str, ...]],
        config: ControllerConfig,
        pool: AgentPool,
        sim: Simulation,
        writer: TraceWriter,
        time_unit: str = "minute",
        digest: str = "",
        script: tuple = (),
        overrides: list[str] | None = None,
        reject: RejectPredicate | None = None,
    ):
        report = validate(graph)
        if not report.ok:
            raise ValueError(f"invalid workflow graph: {report.render()}")
        self.name = name
        self.graph = graph
        self.node_domains = node_domains
        self.config = config
        self.pool = pool
        self.sim = sim
        self.writer = writer
        self.time_unit = time_unit
        self.digest = digest
        self.script = script
        self.overrides = overrides or []
        self.reject = reject

        self.task_slo = graph.task_slo
        self.node_slos = derive_node_slos(graph)
        self.ledger = BudgetLedger(self.task_slo.budget_micros)
        self.base_reward_micros = config.reward_micros
        self.min_reward_by_class = {w.name: w.min_reward_micros for w in pool.workers}
        self.runs: dict[str, _NodeRun] = {}
        self.completed_nodes: set[str] = set()
        self._arrival_pending: dict[str, bool] = {}
        # keyed by profile name and in name order: dispatch takes the first free one
        self.stations = {
            profile.name: _MachineStation(profile)
            for profile in sorted(pool.machines, key=lambda m: m.name)
        }
        self.machine_queue: deque[tuple[str, str]] = deque()

    # -- helpers --------------------------------------------------------------

    def emit(self, kind: str, **fields: Any) -> None:
        self.writer.emit(self.sim.now, kind, fields)

    def _emit_ledger(self, kind: str, **fields: Any) -> None:
        """Emit a record that also carries the ledger's spent and committed."""
        fields["spent"] = self.ledger.spent_micros
        fields["committed"] = self.ledger.committed_micros
        self.writer.emit(self.sim.now, kind, fields)

    def _slo_fields(self, slo: SloSpec) -> dict[str, Any]:
        return {
            "accuracy": slo.accuracy_target,
            "budget_micros": slo.budget_micros,
            "deadline_ticks": slo.deadline_ticks,
        }

    def _active_runs(self) -> list[_NodeRun]:
        return [
            self.runs[node_id]
            for node_id in sorted(self.runs)
            if not self.runs[node_id].finished
        ]

    # -- run ------------------------------------------------------------------

    def run(self) -> RunSummary:
        self.emit(
            "header",
            schema=1,
            scenario=self.name,
            digest=self.digest,
            seed=self.sim.seed,
            time_unit=self.time_unit,
            config=controller_to_dict(self.config),
            task_slo=self._slo_fields(self.task_slo),
            overrides=list(self.overrides),
        )
        for event in self.script:
            self.sim.schedule(
                to_ticks(event.at), ExecutionEngine._on_script, event.action, event.params
            )
        for worker_class in self.pool.workers:
            self._schedule_arrival(worker_class.name)
        self._activate_ready()

        while not self._all_finished():
            try:
                event = self.sim.step()
            except (EmptyQueue, HorizonExceeded):
                break
            event.handler(self, *event.args)

        for run in self._active_runs():
            self._finalize_node(run)
        finish = max((r.finish_tick or 0 for r in self.runs.values()), default=0)
        self._emit_ledger(
            "run_end",
            finish=finish,
            events=self.sim.end_report(),
        )
        return self.writer.reducer.result()

    def _all_finished(self) -> bool:
        return len(self.completed_nodes) == len(self.graph.nodes)

    # -- node activation ------------------------------------------------------

    def _activate_ready(self) -> None:
        for node_id in sorted(ready_nodes(self.graph, self.completed_nodes)):
            if node_id in self.runs:
                continue
            self._activate_node(node_id)

    def _activate_node(self, node_id: str) -> None:
        now = self.sim.now
        node = self.graph.node_map[node_id]
        slo = self.node_slos[node_id]
        domain = self.node_domains.get(node_id, ("yes", "no"))
        run = _NodeRun(node, slo, self.config, domain, window_start=now)
        self.runs[node_id] = run

        n = node.microtask_count
        if node.agent_tag is AgentTag.HUMAN_ONLY:
            n_human, n_machine = n, 0
        elif node.agent_tag is AgentTag.MACHINE_ONLY:
            n_human, n_machine = 0, n
        else:
            n_human, n_machine = partition(n, run.state.hm_ratio)
        run.state.n_human = n_human

        self.emit(
            "node_start",
            node=node_id,
            n=n,
            n_human=n_human,
            n_machine=n_machine,
            hm_ratio=run.state.hm_ratio,
            window_start=now,
            deadline=run.deadline,
            slo=self._slo_fields(slo),
        )

        # one call for all n truths; it leaves the stream where n scalar draws would
        truth_rng = self.sim.rng(f"truth/{node_id}")
        truth_indices = truth_rng.integers(len(domain), size=n).tolist()
        for i, truth_index in enumerate(truth_indices):
            mt_id = f"{node_id}:{i:05d}"
            truth = domain[truth_index]
            route = Route.HUMAN if i < n_human else Route.MACHINE
            microtask = Microtask(
                id=mt_id,
                node_id=node_id,
                payload_ref=f"{node_id}/item-{i:05d}",
                answer_domain=domain,
                route=route,
            )
            run.microtasks[mt_id] = microtask
            run.truths[mt_id] = truth

        if run.deadline <= now or n == 0:
            # window already elapsed (a predecessor overran) or nothing to do
            self._finalize_node(run)
            return

        reward = run.state.current_reward_micros(self.base_reward_micros)
        for mt_id in sorted(run.microtasks):
            microtask = run.microtasks[mt_id]
            if microtask.route is Route.HUMAN:
                self._spawn_human(run, microtask, reward)
            else:
                self._enqueue_machine(run, microtask.id)

        for index, instant in enumerate(
            poll_instants(now, run.deadline, self.config.polling_intervals)
        ):
            run.poll_events.append(
                self.sim.schedule(instant, ExecutionEngine._on_poll, node_id, index)
            )

        run.check_conservation()
        self._dispatch_workers()
        self._dispatch_machines()

    def _spawn_human(self, run: _NodeRun, microtask: Microtask, reward: int) -> None:
        wtask = spawn_wtask(
            microtask,
            self.config.replication_w,
            (run.deadline, run.deadline),
            reward,
        )
        run.wtasks[microtask.id] = wtask
        run.reopen(microtask.id)
        self.emit(
            "wtask_spawned",
            node=run.node.id,
            microtask=microtask.id,
            w=wtask.replication_w,
            reward=reward,
            completion_deadline=wtask.completion_deadline,
            expiry_deadline=run.deadline,
        )

    def _enqueue_machine(self, run: _NodeRun, mt_id: str) -> None:
        copies = self.config.machine_replication
        run.machine_want[mt_id] = run.machine_want.get(mt_id, 0) + copies
        for _ in range(copies):
            self.machine_queue.append((run.node.id, mt_id))

    # -- event handling ---------------------------------------------------------
    # Each event's handler is one of the plain functions `ExecutionEngine._on_*`
    # and its args are plain values; see the event contract in `sim`.

    def _schedule_arrival(self, class_name: str) -> None:
        if self._arrival_pending.get(class_name):
            return
        rate = self.pool.effective_rate(class_name)
        if rate <= 0:
            return
        rng = self.sim.rng(f"arrivals/{class_name}")
        delay = max(1, to_ticks(self.pool.sample_interarrival(class_name, rng)))
        if self.sim.now + delay > self.sim.horizon:
            return
        self.sim.schedule(self.sim.now + delay, ExecutionEngine._on_arrival, class_name)
        self._arrival_pending[class_name] = True

    def _on_arrival(self, class_name: str) -> None:
        self._arrival_pending[class_name] = False
        agent_id = self.pool.admit(class_name)
        self.emit("worker_arrival", cls=class_name, agent=agent_id)
        self._schedule_arrival(class_name)
        self._dispatch_workers()

    def _dispatch_workers(self) -> None:
        # A placement only takes options away from the workers after it: a
        # slot fills, only the placed agent gains a live assignment, headroom
        # falls, and a first pickup's window ends at or after now.  So one
        # sweep over the idle workers fills every slot they can take.  For
        # the same reason a node whose reward exceeds the headroom now cannot
        # place anyone in this dispatch, and is left out before the sweep.
        now = self.sim.now
        headroom = self.ledger.headroom_micros
        candidates = []
        for run in self._active_runs():
            if now >= run.deadline or not run.open_wtasks:
                continue
            reward = run.state.current_reward_micros(self.base_reward_micros)
            if reward <= headroom:
                candidates.append((run, reward))
        if not candidates:
            return
        for agent_id in self.pool.idle_workers():
            placement = self._find_slot(agent_id, candidates)
            if placement is not None:
                run, mt_id, reward = placement
                self._issue(run, mt_id, agent_id, reward)

    def _find_slot(
        self, agent_id: str, candidates: list[tuple[_NodeRun, int]]
    ) -> tuple[_NodeRun, str, int] | None:
        min_reward = self.min_reward_by_class[self.pool.class_of(agent_id).name]
        now = self.sim.now
        for run, reward in candidates:
            if min_reward > reward:
                continue
            for mt_id in run.open_wtasks:
                wtask = run.wtasks[mt_id]
                if now > wtask.completion_deadline:
                    continue  # an earlier event this tick beat the window's sweep
                if wtask.has_live_assignment_for(agent_id):
                    continue
                if not self.ledger.commit(reward):
                    break  # this node's reward does not fit; try a cheaper node
                return run, mt_id, reward
        return None

    def _issue(self, run: _NodeRun, mt_id: str, agent_id: str, reward: int) -> None:
        wtask = run.wtasks[mt_id]
        worker_class = self.pool.class_of(agent_id)
        first_pickup = not wtask.assignments
        issue_assignment(wtask, agent_id, self.sim.now, reward)
        self.pool.mark_busy(agent_id)
        if first_pickup and self.config.assignment_window is not None:
            # the completion clock starts when work starts
            wtask.completion_deadline = min(
                run.deadline, self.sim.now + to_ticks(self.config.assignment_window)
            )
            if wtask.completion_deadline + 1 <= run.deadline:
                self.sim.schedule(
                    wtask.completion_deadline + 1, ExecutionEngine._on_timeout_sweep, run.node.id, mt_id
                )
        if wtask.open_slots == 0:
            run.close(mt_id)
        self._emit_ledger(
            "assignment_issued",
            node=run.node.id,
            microtask=mt_id,
            agent=agent_id,
            cls=worker_class.name,
            reward=reward,
        )
        service_rng = self.sim.rng(f"service/{worker_class.name}")
        service = max(1, to_ticks(worker_class.service_time.sample(service_rng)))
        self.sim.schedule(
            self.sim.now + service, ExecutionEngine._on_return, run.node.id, mt_id, agent_id
        )

    def _on_return(self, node_id: str, mt_id: str, agent_id: str) -> None:
        run = self.runs[node_id]
        worker_class = self.pool.class_of(agent_id)
        wtask = run.wtasks.get(mt_id)

        record = wtask.pending_for(agent_id) if wtask is not None else None
        if record is None:
            # assignment already timed out / node finalized; just free the worker
            self._release_worker(agent_id, worker_class)
            return

        answer_rng = self.sim.rng(f"answers/{worker_class.name}")
        answer = answer_microtask(
            worker_class.accuracy, run.domain, run.truths[mt_id], answer_rng
        )

        rejected = self.reject is not None and self.reject(mt_id, agent_id, answer)
        if not rejected:
            record_return(wtask, agent_id, answer, self.sim.now)

        if record.outcome is AssignmentOutcome.RETURNED:
            self.ledger.settle_return(record.reward_micros)
            run.spend_micros += record.reward_micros
            self._emit_ledger(
                "assignment_returned",
                node=node_id,
                microtask=mt_id,
                agent=agent_id,
                cls=worker_class.name,
                answer=answer,
                correct=answer == run.truths[mt_id],
                service=self.sim.now - record.issued_at,
                reward=record.reward_micros,
            )
            if wtask.state is WTaskState.DONE:
                self._evaluate_votes(run, mt_id)
        else:
            # late or rejected: discard, release the reservation, reopen the slot
            self._time_out(run, mt_id, record, rejected)
            self._after_slot_freed(run, wtask, mt_id)

        self._release_worker(agent_id, worker_class)
        self._dispatch_workers()
        self._dispatch_machines()

    def _time_out(
        self, run: _NodeRun, mt_id: str, record: AssignmentRecord, rejected: bool = False
    ) -> None:
        """Time out one assignment: release its reward and record why."""
        record.outcome = AssignmentOutcome.TIMED_OUT
        self.ledger.settle_timeout(record.reward_micros)
        run.timed_out_since_poll += 1
        self._emit_ledger(
            "assignment_timeout",
            node=run.node.id,
            microtask=mt_id,
            agent=record.agent_id,
            cls=self.pool.class_of(record.agent_id).name,
            reward=record.reward_micros,
            rejected=rejected,
        )

    def _release_worker(self, agent_id: str, worker_class: WorkerClass) -> None:
        retention_rng = self.sim.rng(f"retention/{worker_class.name}")
        stays = bool(retention_rng.random() < worker_class.retention)
        self.pool.release(agent_id, stays)

    def _after_slot_freed(self, run: _NodeRun, wtask: WTask, mt_id: str) -> None:
        if mt_id in run.final or run.finished:
            return
        if not self.config.corrections_enabled:
            wtask.drop_unfilled_slots()
            run.close(mt_id)
            if wtask.state is WTaskState.DONE and wtask.votes():
                self._evaluate_votes(run, mt_id)
            return
        if self.sim.now <= wtask.completion_deadline and wtask.open_slots > 0:
            run.reopen(mt_id)
            self.emit(
                "action",
                node=run.node.id,
                action="reassign",
                trigger="timeout",
                params={"microtask": mt_id},
            )
        else:
            run.close(mt_id)  # window passed; finalization reads what it has

    def _on_timeout_sweep(self, node_id: str, mt_id: str) -> None:
        run = self.runs[node_id]
        if run.finished:
            return
        wtask = run.wtasks.get(mt_id)
        if wtask is None or self.sim.now <= wtask.completion_deadline:
            return
        # nothing reopens a w-task after its window, so it leaves the open
        # list here even when no assignment was pending
        run.close(mt_id)
        overdue = expire_overdue(wtask, self.sim.now)
        for record in overdue:
            self._time_out(run, mt_id, record)
        if overdue:
            self._after_slot_freed(run, wtask, mt_id)
            self._dispatch_workers()

    # -- result evaluation -------------------------------------------------------

    def _evaluate_votes(self, run: _NodeRun, mt_id: str, final: bool = False) -> None:
        if mt_id in run.final:
            return
        microtask = run.microtasks[mt_id]
        if microtask.route is Route.HUMAN:
            wtask = run.wtasks.get(mt_id)
            votes = tuple(wtask.votes()) if wtask is not None else ()
        else:
            votes = tuple(run.machine_votes.get(mt_id, ()))
        result = majority_vote(
            VoteSet(mt_id, votes, run.domain), rule=self.config.vote_rule
        )
        if result.status is ConsensusStatus.EMPTY:
            return  # nothing to evaluate; stays incomplete unless votes arrive
        run.results[mt_id] = result
        is_final = final or result.status is ConsensusStatus.CONSENSUS
        if is_final:
            run.final.add(mt_id)
            run.no_consensus_pending.discard(mt_id)
            run.close(mt_id)
            microtask.mark_evaluated()
            if microtask.route is Route.HUMAN:
                run.state.n_human -= 1
        else:
            run.no_consensus_pending.add(mt_id)
        self.emit(
            "vote_result",
            node=run.node.id,
            microtask=mt_id,
            decision=result.decision,
            support=result.support,
            status=result.status.value,
            votes=len(votes),
            final=is_final,
        )
        if not run.finished and run.evaluated_count == run.node.microtask_count:
            self._finalize_node(run)

    # -- machines -----------------------------------------------------------------

    def _dispatch_machines(self) -> None:
        while self.machine_queue:
            node_id, mt_id = self.machine_queue[0]
            run = self.runs[node_id]
            if run.finished or mt_id in run.final:
                self.machine_queue.popleft()
                continue
            if self.sim.now >= run.deadline:
                self.machine_queue.popleft()
                continue
            station = next((s for s in self.stations.values() if s.free_capacity > 0), None)
            if station is None:
                return
            cost = station.cost_micros
            if not self.ledger.commit(cost):
                return  # head of line blocks until budget frees up
            self.machine_queue.popleft()
            microtask = run.microtasks[mt_id]
            if microtask.status is MicrotaskStatus.UNASSIGNED:
                microtask.mark_in_flight()
            service = max(1, to_ticks(station.profile.service_time_per_item))
            ticket = next(station.tickets)
            event = self.sim.schedule(
                self.sim.now + service,
                ExecutionEngine._on_machine_done,
                node_id,
                mt_id,
                station.profile.name,
                ticket,
            )
            station.in_flight[ticket] = (node_id, event)
            self._emit_ledger(
                "machine_dispatched",
                node=node_id,
                microtask=mt_id,
                profile=station.profile.name,
                cost=cost,
            )

    def _on_machine_done(self, node_id: str, mt_id: str, profile_name: str, ticket: int) -> None:
        station = self.stations[profile_name]
        station.in_flight.pop(ticket, None)
        run = self.runs[node_id]
        if run.finished:
            self._dispatch_machines()
            return
        profile = station.profile
        answer_rng = self.sim.rng(f"answers/machine/{profile.name}")
        answer = answer_microtask(
            profile.accuracy, run.domain, run.truths[mt_id], answer_rng
        )
        self.ledger.settle_return(station.cost_micros)
        run.spend_micros += station.cost_micros
        run.machine_votes.setdefault(mt_id, []).append(answer)
        self._emit_ledger(
            "machine_done",
            node=node_id,
            microtask=mt_id,
            profile=profile.name,
            answer=answer,
            correct=answer == run.truths[mt_id],
            cost=station.cost_micros,
        )
        if len(run.machine_votes[mt_id]) >= run.machine_want.get(mt_id, 1):
            self._evaluate_votes(run, mt_id)
        self._dispatch_machines()

    # -- polling / control ----------------------------------------------------------

    def _on_poll(self, node_id: str, index: int) -> None:
        run = self.runs[node_id]
        if run.finished:
            return
        now = self.sim.now
        run.check_conservation()

        interval_ticks = now - run.last_poll_tick
        completed = run.evaluated_count - run.evaluated_at_last_poll
        if interval_ticks > 0:
            update_rho(run.state, completed, interval_ticks / TICKS_PER_UNIT)
        elif run.state.completion_rate is None:
            run.state.completion_rate = 0.0

        now_units = min(to_units(now), run.slo.deadline)
        rate = node_consensus_rate(run.results.values())
        reward = run.state.current_reward_micros(self.base_reward_micros)
        risks = assess_risk(
            run.state,
            run.slo,
            now_units,
            run.node.microtask_count,
            run.evaluated_count,
            rate,
            self.ledger.headroom_micros,
            reward,
        )
        self._emit_ledger(
            "poll",
            node=run.node.id,
            index=index,
            hm_ratio=run.state.hm_ratio,
            completion_rate=run.state.completion_rate,
            risks=sorted(flag.value for flag in risks),
            evaluated=run.evaluated_count,
            total=run.node.microtask_count,
            consensus_rate=rate,
        )

        unresolved = run.node.microtask_count - run.evaluated_count
        unresolved_human = run.state.n_human
        unpicked = run.unpicked_human_ids()
        actions = plan_corrective_actions(
            run.state,
            risks,
            self.ledger,
            self.config,
            timed_out_slots=run.timed_out_since_poll,
            unresolved=unresolved,
            unresolved_human=unresolved_human,
            unpicked_human=len(unpicked),
            no_consensus_ids=sorted(run.no_consensus_pending),
            reroutable=run.node.agent_tag is AgentTag.EITHER,
        )
        for action in actions:
            self._apply_action(run, action, unpicked)

        run.timed_out_since_poll = 0
        run.evaluated_at_last_poll = run.evaluated_count
        run.last_poll_tick = now

        if not run.finished and now >= run.deadline:
            self._finalize_node(run)

    def _apply_action(self, run: _NodeRun, action: Action, unpicked: list[str]) -> None:
        self.emit(
            "action",
            node=run.node.id,
            action=action.kind,
            trigger=action.trigger,
            params=dict(action.params),
        )
        if action.kind == "reassign":
            self._dispatch_workers()
        elif action.kind == "raise_incentive":
            run.state.incentive_multiplier = action.params["multiplier"]
            peak = max(r.state.incentive_multiplier for r in self._active_runs())
            self.pool.apply_incentive(peak)
            self._dispatch_workers()  # idle workers may now meet their price
        elif action.kind == "reduce_ratio":
            run.state.hm_ratio = action.params["hm_ratio"]
            for mt_id in unpicked[: action.params["reroute"]]:
                self._reroute_to_machine(run, mt_id)
            self._dispatch_machines()
        elif action.kind == "escalate":
            for mt_id in action.params["microtasks"]:
                self._escalate(run, mt_id)
            self._dispatch_workers()
            self._dispatch_machines()

    def _reroute_to_machine(self, run: _NodeRun, mt_id: str) -> None:
        microtask = run.microtasks[mt_id]
        run.close(mt_id)
        run.wtasks.pop(mt_id, None)
        microtask.route = Route.MACHINE
        run.state.n_human -= 1
        self.emit("reroute", node=run.node.id, microtask=mt_id)
        self._enqueue_machine(run, mt_id)

    def _escalate(self, run: _NodeRun, mt_id: str) -> None:
        microtask = run.microtasks[mt_id]
        if microtask.route is Route.HUMAN:
            wtask = run.wtasks[mt_id]
            if self.sim.now > wtask.completion_deadline:
                return
            wtask.want_votes += 1
            run.reopen(mt_id)
            want = wtask.want_votes
        else:
            want = run.machine_want[mt_id] = run.machine_want.get(mt_id, 0) + 1
            self.machine_queue.append((run.node.id, mt_id))
        run.no_consensus_pending.discard(mt_id)
        self.emit("escalated", node=run.node.id, microtask=mt_id, want_votes=want)

    def _on_script(self, action: str, params: dict[str, Any]) -> None:
        if action == "set_arrival_rate":
            self.pool.set_base_rate(params["worker_class"], float(params["rate"]))
            self.emit("script_applied", action=action, params=params)
            self._schedule_arrival(params["worker_class"])

    # -- finalization -----------------------------------------------------------

    def _finalize_node(self, run: _NodeRun) -> None:
        now = self.sim.now
        run.finished = True
        run.finish_tick = now

        # kill outstanding human assignments; workers free themselves on return
        for mt_id in sorted(run.wtasks):
            for record in run.wtasks[mt_id].pending():
                self._time_out(run, mt_id, record)

        # cancel this node's machine work still in stations or queued
        for station in self.stations.values():
            for ticket in sorted(station.in_flight):
                node_id, event = station.in_flight[ticket]
                if node_id == run.node.id:
                    self.sim.cancel(event)
                    self.ledger.settle_timeout(station.cost_micros)
                    del station.in_flight[ticket]
        self.machine_queue = deque(
            item for item in self.machine_queue if item[0] != run.node.id
        )

        # evaluate whatever has votes; the rest is reported incomplete
        for mt_id in sorted(run.microtasks):
            if mt_id in run.final:
                continue
            self._evaluate_votes(run, mt_id, final=True)

        for event in run.poll_events:
            if event.fire_at > now:
                self.sim.cancel(event)

        agreed = sum(
            1
            for mt in run.final
            if run.results[mt].status is ConsensusStatus.CONSENSUS
        )
        self.emit(
            "node_end",
            node=run.node.id,
            evaluated=run.evaluated_count,
            consensus=agreed,
            no_consensus=run.evaluated_count - agreed,
            incomplete=run.node.microtask_count - run.evaluated_count,
            finish=now,
            spend=run.spend_micros,
        )
        self.completed_nodes.add(run.node.id)
        self._activate_ready()
        self._dispatch_workers()
        self._dispatch_machines()


# -- public entry points ---------------------------------------------------------


def run(
    scenario: Scenario,
    *,
    seed: int | None = None,
    trace_path: str | Path | None = None,
    overrides: list[str] | None = None,
    reject: RejectPredicate | None = None,
) -> RunResult:
    """Execute a scenario end to end; SLO misses are reported, never raised."""
    effective_seed = scenario.seed if seed is None else seed
    sim = Simulation(effective_seed, horizon=scenario.slo.deadline_ticks)
    pool = AgentPool(
        workers=scenario.workers,
        machines=scenario.machines,
        incentive_elasticity=scenario.controller.incentive_elasticity,
    )
    with TraceWriter(trace_path) as writer:
        engine = ExecutionEngine(
            name=scenario.name,
            graph=scenario.graph,
            node_domains=scenario.node_domains,
            config=scenario.controller,
            pool=pool,
            sim=sim,
            writer=writer,
            time_unit=scenario.time_unit,
            digest=scenario.digest(),
            script=scenario.script,
            overrides=overrides,
            reject=reject,
        )
        summary = engine.run()
    return RunResult(records=writer.records, summary=summary, trace_path=writer.path)


def run_node(
    node: WorkflowNode,
    slo: SloSpec,
    config: ControllerConfig,
    pool: AgentPool,
    sim: Simulation,
    *,
    answer_domain: tuple[str, ...] = ("yes", "no"),
    trace_path: str | Path | None = None,
    reject: RejectPredicate | None = None,
) -> NodeOutcome:
    """Execute a single node to completion or its deadline.

    Convenience wrapper over the engine for node-level experiments; the node
    is treated as a one-node workflow carrying the given SLO.
    """
    graph = WorkflowGraph(nodes=(node,), edges=frozenset(), task_slo=slo)
    with TraceWriter(trace_path) as writer:
        engine = ExecutionEngine(
            name=f"node:{node.id}",
            graph=graph,
            node_domains={node.id: answer_domain},
            config=config,
            pool=pool,
            sim=sim,
            writer=writer,
            reject=reject,
        )
        summary = engine.run()
    node_summary = next(ns for ns in summary.nodes if ns.node_id == node.id)
    node_run = engine.runs[node.id]
    results = {mt: node_run.results[mt] for mt in sorted(node_run.final)}
    return NodeOutcome(summary=node_summary, results=results, records=writer.records)
