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
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable

from .agents import AgentPool, MachineAgentProfile, WorkerClass, answer_microtask
from .controller import (
    Action,
    BudgetLedger,
    ControllerConfig,
    PollObservation,
    assess_risk,
    partition,
    plan_corrective_actions,
    poll_instants,
    update_rho,
)
from .scenario import Scenario
from .sim import EmptyQueue, HorizonExceeded, SimEvent, Simulation
from .slo import SloSpec
from .tasks import (
    AssignmentRecord,
    Microtask,
    WTask,
    expire_overdue,
    issue_assignment,
    record_return,
    spawn_wtask,
)
from .trace import TRACE_SCHEMA, NodeSummary, RunSummary, TraceWriter
from .units import TICKS_PER_UNIT, to_ticks, to_units
from .voting import ConsensusResult, ConsensusStatus, majority_vote
from .workflow import AgentTag, WorkflowGraph, WorkflowNode, derive_node_slos, ready_nodes

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
        window_start: int,
    ):
        self.node = node
        self.slo = slo
        self.deadline = slo.deadline_ticks
        self.hm_ratio = config.initial_hm_ratio
        self.incentive_multiplier = 1.0
        self.reward_micros = config.reward_micros  # at the current multiplier
        self.completion_rate: float | None = None  # EWMA, microtasks per time unit
        self.microtasks: dict[str, Microtask] = {}
        # a microtask is with the crowd, and undecided, exactly while it has a w-task here
        self.wtasks: dict[str, WTask] = {}
        self.open_wtasks: list[str] = []  # sorted, so dispatch scans in id order
        self.results: dict[str, ConsensusResult] = {}
        self.agreed = 0  # consensus results: the decided count until the node's end
        self.no_consensus_pending: set[str] = set()
        self.agreed_at_last_poll = 0
        self.last_poll_tick = window_start
        self.timed_out_since_poll = 0
        self.poll_events: list[SimEvent] = []
        self.spend_micros = 0
        self.finish_tick: int | None = None

    @property
    def finished(self) -> bool:
        return self.finish_tick is not None

    @property
    def consensus_rate(self) -> float:
        """`node_consensus_rate(self.results.values())`, from the running count."""
        return self.agreed / len(self.results) if self.results else 0.0

    def reopen(self, microtask_id: str) -> None:
        i = bisect.bisect_left(self.open_wtasks, microtask_id)
        if i == len(self.open_wtasks) or self.open_wtasks[i] != microtask_id:
            self.open_wtasks.insert(i, microtask_id)

    def close(self, microtask_id: str) -> None:
        i = bisect.bisect_left(self.open_wtasks, microtask_id)
        if i < len(self.open_wtasks) and self.open_wtasks[i] == microtask_id:
            del self.open_wtasks[i]

    def unpicked_human_ids(self) -> list[str]:
        return [mt_id for mt_id in self.open_wtasks if self.wtasks[mt_id].first_issued_at is None]

    def check_conservation(self) -> None:
        if len(self.microtasks) != self.node.microtask_count:
            raise RuntimeError(
                f"conservation broken on node {self.node.id}: "
                f"{len(self.microtasks)} microtasks != {self.node.microtask_count}"
            )


class _MachineStation:
    def __init__(self, profile: MachineAgentProfile):
        self.profile = profile
        self.capacity = profile.capacity
        self.cost_micros = profile.cost_micros
        self.service_ticks = max(1, to_ticks(profile.service_time_per_item))
        self.in_flight: dict[int, tuple[str, SimEvent]] = {}  # ticket -> (node id, done event)
        self.tickets = itertools.count(1)


class _Streams(dict):
    """The random streams of one kind, by worker class or machine profile
    name; each is taken from the simulation on its first draw.  Its label
    escapes "%" and "/" in the name, so no two kinds share a stream."""

    def __init__(self, sim: Simulation, prefix: str):
        super().__init__()
        self.sim = sim
        self.prefix = prefix

    def __missing__(self, name: str):
        label = self.prefix + name.replace("%", "%25").replace("/", "%2F")
        stream = self[name] = self.sim.rng(label)
        return stream


class ExecutionEngine:
    """One deterministic run of a workflow over simulated agents."""

    def __init__(
        self,
        scenario: Scenario,
        *,
        writer: TraceWriter,
        seed: int | None = None,
        overrides: list[str] | None = None,
        reject: RejectPredicate | None = None,
    ):
        """`seed` replaces the scenario's; the clock's horizon is the task
        deadline and the pool's elasticity the controller's."""
        graph = scenario.graph
        config = scenario.controller
        self.scenario = scenario
        self.config = config
        self.sim = sim = Simulation(
            scenario.seed if seed is None else seed, horizon=scenario.slo.deadline_ticks
        )
        self.pool = AgentPool(
            workers=scenario.workers,
            machines=scenario.machines,
            incentive_elasticity=config.incentive_elasticity,
        )
        self.writer = writer
        self.overrides = overrides or []
        self.reject = reject

        self.node_slos = derive_node_slos(graph)
        self.ledger = BudgetLedger(scenario.slo.budget_micros)
        self.min_reward_by_class = {w.name: w.min_reward_micros for w in scenario.workers}
        self.runs: dict[str, _NodeRun] = {}
        self._active: list[_NodeRun] = []  # the unfinished runs, in node-id order
        self._arrival_pending: dict[str, bool] = {}
        self._arrival_rngs = _Streams(sim, "arrivals/")
        self._service_rngs = _Streams(sim, "service/")
        self._answer_rngs = _Streams(sim, "answers/")
        self._retention_rngs = _Streams(sim, "retention/")
        self._machine_answer_rngs = _Streams(sim, "answers/machine/")
        # keyed by profile name and in name order: dispatch takes the first free one it can pay for
        self.stations = {
            profile.name: _MachineStation(profile)
            for profile in sorted(scenario.machines, key=lambda m: m.name)
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

    # -- run ------------------------------------------------------------------

    def run(self) -> RunSummary:
        """Run the scenario; a writer with a path has its file open only in here."""
        with self.writer:
            scenario = self.scenario
            self.emit(
                "header",
                schema=TRACE_SCHEMA,
                scenario=scenario.name,
                digest=scenario.digest(),
                seed=self.sim.seed,
                time_unit=scenario.time_unit,
                config=asdict(self.config),
                task_slo=self._slo_fields(scenario.slo),
                overrides=list(self.overrides),
            )
            for event in scenario.script:
                self.sim.schedule(
                    to_ticks(event.at), ExecutionEngine._on_script, event.worker_class, event.rate
                )
            for worker_class in scenario.workers:
                self._schedule_arrival(worker_class.name)
            self._activate_ready()

            sim = self.sim
            while self._active:  # a node activates once its predecessors finish
                try:
                    event = sim.step()
                except (EmptyQueue, HorizonExceeded):
                    break
                event.handler(self, *event.args)

            for run in list(self._active):
                self._finalize_node(run)
            finish = max((r.finish_tick or 0 for r in self.runs.values()), default=0)
            self._emit_ledger(
                "run_end",
                finish=finish,
                events=self.sim.end_report(),
            )
        return self.writer.reducer.result()

    # -- node activation ------------------------------------------------------

    def _activate_ready(self) -> None:
        completed = {node_id for node_id, run in self.runs.items() if run.finished}
        for node_id in sorted(ready_nodes(self.scenario.graph, completed)):
            if node_id in self.runs:
                continue
            self._activate_node(node_id)

    def _activate_node(self, node_id: str) -> None:
        now = self.sim.now
        node = self.scenario.graph.node_map[node_id]
        slo = self.node_slos[node_id]
        run = _NodeRun(node, slo, self.config, window_start=now)
        self.runs[node_id] = run
        bisect.insort(self._active, run, key=lambda r: r.node.id)

        n = node.microtask_count
        if node.agent_tag is AgentTag.HUMAN_ONLY:
            n_human, n_machine = n, 0
        elif node.agent_tag is AgentTag.MACHINE_ONLY:
            n_human, n_machine = 0, n
        else:
            n_human, n_machine = partition(n, run.hm_ratio)

        self.emit(
            "node_start",
            node=node_id,
            n=n,
            n_human=n_human,
            n_machine=n_machine,
            hm_ratio=run.hm_ratio,
            window_start=now,
            deadline=run.deadline,
            slo=self._slo_fields(slo),
        )

        domain = node.answer_domain
        # one call for all n truths; it leaves the stream where n scalar draws would
        truth_rng = self.sim.rng(f"truth/{node_id}")
        truth_indices = truth_rng.integers(len(domain), size=n).tolist()
        for i, truth_index in enumerate(truth_indices):
            mt_id = f"{node_id}:{i:05d}"
            run.microtasks[mt_id] = Microtask(id=mt_id, truth=domain[truth_index])

        if run.deadline <= now or n == 0:
            # window already elapsed (a predecessor overran) or nothing to do
            self._finalize_node(run)
            return

        # the first n_human by index go to the crowd; each side is taken in id
        # order, which past 99999 is not index order
        ids = list(run.microtasks)
        for mt_id in sorted(ids[:n_human]):
            self._spawn_human(run, mt_id)
        for mt_id in sorted(ids[n_human:]):
            self._enqueue_machine(run, run.microtasks[mt_id])

        for index, instant in enumerate(
            poll_instants(now, run.deadline, self.config.polling_intervals)
        ):
            run.poll_events.append(
                self.sim.schedule(instant, ExecutionEngine._on_poll, node_id, index)
            )

        run.check_conservation()
        self._dispatch_workers()
        self._dispatch_machines()

    def _spawn_human(self, run: _NodeRun, mt_id: str) -> None:
        wtask = spawn_wtask(mt_id, self.config.replication_w, run.deadline)
        run.wtasks[mt_id] = wtask
        run.reopen(mt_id)
        self.emit(
            "wtask_spawned",
            node=run.node.id,
            microtask=mt_id,
            w=self.config.replication_w,
            reward=run.reward_micros,
            completion_deadline=wtask.completion_deadline,
            expiry_deadline=run.deadline,
        )

    def _enqueue_machine(self, run: _NodeRun, microtask: Microtask) -> None:
        copies = self.config.machine_replication
        microtask.machine_want += copies
        for _ in range(copies):
            self.machine_queue.append((run.node.id, microtask.id))

    # -- event handling ---------------------------------------------------------
    # Each event's handler is one of the plain functions `ExecutionEngine._on_*`
    # and its args are plain values; see the event contract in `sim`.

    def _schedule_arrival(self, class_name: str) -> None:
        if self._arrival_pending.get(class_name):
            return
        rate = self.pool.effective_rate(class_name)
        if rate <= 0:
            return
        rng = self._arrival_rngs[class_name]
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
        if not self.pool.has_idle_workers():
            return
        now = self.sim.now
        headroom = self.ledger.headroom_micros
        candidates = [
            run
            for run in self._active
            if now < run.deadline and run.open_wtasks and run.reward_micros <= headroom
        ]
        if not candidates:
            return
        for agent_id in self.pool.idle_workers():
            placement = self._find_slot(agent_id, candidates)
            if placement is not None:
                run, mt_id = placement
                self._issue(run, mt_id, agent_id)

    def _find_slot(self, agent_id: str, candidates: list[_NodeRun]) -> tuple[_NodeRun, str] | None:
        min_reward = self.min_reward_by_class[self.pool.class_of(agent_id).name]
        now = self.sim.now
        for run in candidates:
            reward = run.reward_micros
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
                return run, mt_id
        return None

    def _issue(self, run: _NodeRun, mt_id: str, agent_id: str) -> None:
        reward = run.reward_micros
        wtask = run.wtasks[mt_id]
        worker_class = self.pool.class_of(agent_id)
        first_pickup = wtask.first_issued_at is None
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
        service_rng = self._service_rngs[worker_class.name]
        service = max(1, to_ticks(worker_class.service_time.sample(service_rng)))
        self.sim.schedule(
            self.sim.now + service, ExecutionEngine._on_return, run.node.id, mt_id, agent_id
        )

    def _on_return(self, node_id: str, mt_id: str, agent_id: str) -> None:
        run = self.runs[node_id]
        worker_class = self.pool.class_of(agent_id)
        wtask = run.wtasks.get(mt_id)

        if wtask is None or agent_id not in wtask.pending:
            # assignment already timed out / microtask decided / node finalized;
            # just free the worker
            self._release_worker(agent_id, worker_class)
            return

        truth = run.microtasks[mt_id].truth
        answer_rng = self._answer_rngs[worker_class.name]
        domain = run.node.answer_domain
        answer = answer_microtask(worker_class.accuracy, domain, truth, answer_rng)

        # A return past the window never gets here: the window's sweep at
        # completion_deadline + 1, or the node's last poll at its deadline,
        # was queued before it and timed the assignment out.
        if self.reject is not None and self.reject(mt_id, agent_id, answer):
            # discard and release the reservation; only corrections reissue the slot
            self._time_out(run, wtask, wtask.pending[agent_id], rejected=True)
            if self.config.corrections_enabled:
                run.reopen(mt_id)
                self.emit(
                    "action",
                    node=node_id,
                    action="reassign",
                    trigger="timeout",
                    params={"microtask": mt_id},
                )
            else:
                self._stop_reissuing(run, wtask, mt_id)
        else:
            record = record_return(wtask, agent_id, answer)
            self.ledger.settle_return(record.reward_micros)
            run.spend_micros += record.reward_micros
            self._emit_ledger(
                "assignment_returned",
                node=node_id,
                microtask=mt_id,
                agent=agent_id,
                cls=worker_class.name,
                answer=answer,
                correct=answer == truth,
                service=self.sim.now - record.issued_at,
                reward=record.reward_micros,
            )
            if wtask.done:
                self._evaluate_votes(run, mt_id)

        self._release_worker(agent_id, worker_class)
        self._dispatch_workers()
        self._dispatch_machines()

    def _time_out(
        self, run: _NodeRun, wtask: WTask, record: AssignmentRecord, rejected: bool = False
    ) -> None:
        """Time out one assignment: drop it, release its reward and record why."""
        del wtask.pending[record.agent_id]
        self.ledger.settle_timeout(record.reward_micros)
        run.timed_out_since_poll += 1
        self._emit_ledger(
            "assignment_timeout",
            node=run.node.id,
            microtask=wtask.microtask_id,
            agent=record.agent_id,
            cls=self.pool.class_of(record.agent_id).name,
            reward=record.reward_micros,
            rejected=rejected,
        )

    def _release_worker(self, agent_id: str, worker_class: WorkerClass) -> None:
        retention_rng = self._retention_rngs[worker_class.name]
        stays = bool(retention_rng.random() < worker_class.retention)
        self.pool.release(agent_id, stays)

    def _stop_reissuing(self, run: _NodeRun, wtask: WTask, mt_id: str) -> None:
        """With corrections off a freed slot is never reissued: decide the
        w-task on its votes once nothing is pending."""
        wtask.drop_unfilled_slots()
        run.close(mt_id)
        if wtask.done and wtask.votes():
            self._evaluate_votes(run, mt_id)

    def _on_timeout_sweep(self, node_id: str, mt_id: str) -> None:
        run = self.runs[node_id]
        if run.finished:
            return
        wtask = run.wtasks.get(mt_id)
        if wtask is None:
            return  # decided, or rerouted to a machine
        # nothing reopens a w-task after its window, so it leaves the open
        # list here even when no assignment was pending
        run.close(mt_id)
        overdue = expire_overdue(wtask, self.sim.now)
        for record in overdue:
            self._time_out(run, wtask, record)
        if overdue:
            if not self.config.corrections_enabled:
                self._stop_reissuing(run, wtask, mt_id)
            self._dispatch_workers()

    # -- result evaluation -------------------------------------------------------

    def _evaluate_votes(self, run: _NodeRun, mt_id: str, final: bool = False) -> None:
        wtask = run.wtasks.get(mt_id)
        votes = wtask.votes() if wtask is not None else run.microtasks[mt_id].machine_votes
        result = majority_vote(mt_id, votes, run.node.answer_domain, self.config.vote_rule)
        if result.status is ConsensusStatus.EMPTY:
            return  # no votes: stays incomplete unless votes arrive
        # a consensus is final, so this replaces at most an escalated NO_CONSENSUS
        run.results[mt_id] = result
        agreed = result.status is ConsensusStatus.CONSENSUS
        if agreed:
            run.agreed += 1
        is_final = final or agreed
        if is_final:
            # while the node runs a decided w-task is done, so not open, and escalation
            # took its id off the pending set; after the node's end neither is read
            run.wtasks.pop(mt_id, None)
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
        if not run.finished and run.agreed == run.node.microtask_count:
            self._finalize_node(run)

    # -- machines -----------------------------------------------------------------

    def _dispatch_machines(self) -> None:
        while self.machine_queue:
            node_id, mt_id = self.machine_queue[0]
            run = self.runs[node_id]
            if run.finished or self.sim.now >= run.deadline:
                self.machine_queue.popleft()
                continue
            for station in self.stations.values():
                if len(station.in_flight) < station.capacity and self.ledger.commit(station.cost_micros):
                    break
            else:
                return  # no free station fits, and a station charges every item the same
            self.machine_queue.popleft()
            ticket = next(station.tickets)
            event = self.sim.schedule(
                self.sim.now + station.service_ticks,
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
                cost=station.cost_micros,
            )

    def _on_machine_done(self, node_id: str, mt_id: str, profile_name: str, ticket: int) -> None:
        station = self.stations[profile_name]
        # _finalize_node cancels the done events of its node's machine work
        del station.in_flight[ticket]
        run = self.runs[node_id]
        profile = station.profile
        microtask = run.microtasks[mt_id]
        answer_rng = self._machine_answer_rngs[profile.name]
        domain = run.node.answer_domain
        answer = answer_microtask(profile.accuracy, domain, microtask.truth, answer_rng)
        self.ledger.settle_return(station.cost_micros)
        run.spend_micros += station.cost_micros
        microtask.machine_votes.append(answer)
        self._emit_ledger(
            "machine_done",
            node=node_id,
            microtask=mt_id,
            profile=profile.name,
            answer=answer,
            correct=answer == microtask.truth,
            cost=station.cost_micros,
        )
        if len(microtask.machine_votes) >= microtask.machine_want:
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
        if interval_ticks > 0:
            completed = run.agreed - run.agreed_at_last_poll
            run.completion_rate = update_rho(
                run.completion_rate, completed, interval_ticks / TICKS_PER_UNIT, self.config.ewma_alpha
            )
        elif run.completion_rate is None:
            run.completion_rate = 0.0

        unpicked = run.unpicked_human_ids()
        obs = PollObservation(
            now=min(to_units(now), run.slo.deadline),
            total=run.node.microtask_count,
            evaluated=run.agreed,
            consensus_rate=run.consensus_rate,
            completion_rate=run.completion_rate,
            hm_ratio=run.hm_ratio,
            incentive_multiplier=run.incentive_multiplier,
            headroom_micros=self.ledger.headroom_micros,
            reward_micros=run.reward_micros,
            timed_out_slots=run.timed_out_since_poll,
            unresolved_human=len(run.wtasks),
            unpicked_human=len(unpicked),
            no_consensus_ids=tuple(sorted(run.no_consensus_pending)),
            reroutable=run.node.agent_tag is AgentTag.EITHER,
        )
        risks = assess_risk(obs, run.slo)
        self._emit_ledger(
            "poll",
            node=run.node.id,
            index=index,
            hm_ratio=obs.hm_ratio,
            completion_rate=obs.completion_rate,
            risks=sorted(flag.value for flag in risks),
            evaluated=obs.evaluated,
            total=obs.total,
            consensus_rate=obs.consensus_rate,
        )
        actions = plan_corrective_actions(obs, risks, self.config)
        for action in actions:
            self._apply_action(run, action, unpicked)

        run.timed_out_since_poll = 0
        run.agreed_at_last_poll = run.agreed
        run.last_poll_tick = now

        # no action evaluates a vote, so none has finished the node
        if now >= run.deadline:
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
            run.incentive_multiplier = action.params["multiplier"]
            run.reward_micros = action.params["reward_micros"]
            peak = max(r.incentive_multiplier for r in self._active)
            self.pool.apply_incentive(peak)
            self._dispatch_workers()  # idle workers may now meet their price
        elif action.kind == "reduce_ratio":
            run.hm_ratio = action.params["hm_ratio"]
            rerouted = unpicked[: action.params["reroute"]]
            for mt_id in rerouted:
                del run.wtasks[mt_id]
                self.emit("reroute", node=run.node.id, microtask=mt_id)
                self._enqueue_machine(run, run.microtasks[mt_id])
            # one filter: closing each id would shift the list once per id
            gone = set(rerouted)
            run.open_wtasks = [mt_id for mt_id in run.open_wtasks if mt_id not in gone]
            self._dispatch_machines()
        elif action.kind == "escalate":
            for mt_id in action.params["microtasks"]:
                self._escalate(run, mt_id)
            self._dispatch_workers()
            self._dispatch_machines()

    def _escalate(self, run: _NodeRun, mt_id: str) -> None:
        wtask = run.wtasks.get(mt_id)
        if wtask is not None:
            if self.sim.now > wtask.completion_deadline:
                return
            wtask.want_votes += 1
            run.reopen(mt_id)
            want = wtask.want_votes
        else:
            microtask = run.microtasks[mt_id]
            microtask.machine_want += 1
            want = microtask.machine_want
            self.machine_queue.append((run.node.id, mt_id))
        run.no_consensus_pending.discard(mt_id)
        self.emit("escalated", node=run.node.id, microtask=mt_id, want_votes=want)

    def _on_script(self, worker_class: str, rate: float) -> None:
        self.pool.set_base_rate(worker_class, rate)
        self.emit(
            "script_applied",
            action="set_arrival_rate",
            params={"worker_class": worker_class, "rate": rate},
        )
        self._schedule_arrival(worker_class)

    # -- finalization -----------------------------------------------------------

    def _finalize_node(self, run: _NodeRun) -> None:
        now = self.sim.now
        run.finish_tick = now
        self._active.remove(run)

        # kill outstanding human assignments; workers free themselves on return
        for mt_id in sorted(run.wtasks):
            wtask = run.wtasks[mt_id]
            for record in list(wtask.pending.values()):
                self._time_out(run, wtask, record)

        # cancel this node's machine work in stations; _dispatch_machines
        # drops its queued work when that reaches the head of the queue
        for station in self.stations.values():
            for ticket in sorted(station.in_flight):
                node_id, event = station.in_flight[ticket]
                if node_id == run.node.id:
                    self.sim.cancel(event)
                    self.ledger.settle_timeout(station.cost_micros)
                    del station.in_flight[ticket]

        # evaluate whatever has votes; the rest is reported incomplete
        for mt_id in sorted(run.microtasks):
            result = run.results.get(mt_id)
            if result is None or result.status is not ConsensusStatus.CONSENSUS:
                self._evaluate_votes(run, mt_id, final=True)

        for event in run.poll_events:
            if event.fire_at > now:
                self.sim.cancel(event)

        # every result is final now, so the running count is the node's consensus count
        evaluated = len(run.results)
        self.emit(
            "node_end",
            node=run.node.id,
            evaluated=evaluated,
            consensus=run.agreed,
            no_consensus=evaluated - run.agreed,
            incomplete=run.node.microtask_count - evaluated,
            finish=now,
            spend=run.spend_micros,
        )
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
    """Execute a scenario end to end; SLO misses are reported, never raised.
    A run that cannot start raises before its trace file is created."""
    engine = ExecutionEngine(
        scenario, writer=TraceWriter(trace_path), seed=seed, overrides=overrides, reject=reject
    )
    summary = engine.run()
    writer = engine.writer
    return RunResult(records=writer.records, summary=summary, trace_path=writer.path)


def run_node(
    node: WorkflowNode,
    slo: SloSpec,
    config: ControllerConfig,
    *,
    workers: tuple[WorkerClass, ...],
    machines: tuple[MachineAgentProfile, ...],
    seed: int,
    trace_path: str | Path | None = None,
    reject: RejectPredicate | None = None,
) -> NodeOutcome:
    """Execute a single node to completion or its deadline.

    Convenience wrapper over the engine for node-level experiments: the node
    runs as a one-node scenario named `node:<id>` whose task SLO is `slo`.
    """
    scenario = Scenario(
        name=f"node:{node.id}",
        seed=seed,
        time_unit="minute",
        graph=WorkflowGraph(nodes=(node,), edges=frozenset(), task_slo=slo),
        workers=workers,
        machines=machines,
        controller=config,
    )
    engine = ExecutionEngine(scenario, writer=TraceWriter(trace_path), reject=reject)
    summary = engine.run()
    node_summary = next(ns for ns in summary.nodes if ns.node_id == node.id)
    node_run = engine.runs[node.id]
    results = dict(sorted(node_run.results.items()))
    return NodeOutcome(summary=node_summary, results=results, records=engine.writer.records)
