"""Per-layer tracing of slosim from outside the package.

`Tracer.install()` replaces the public functions, methods and properties
listed in TARGETS with wrappers that keep, per target, a call count, the
time spent in the call minus the time spent in nested timed calls (self
time) and the inclusive time.  The hot leaves in COUNT_ONLY, called up to
millions of times a pass and feeding only count metrics, get a wrapper that
only counts: it reads no clock, so their time and the counting cost fall to
the caller's self time.  Coarse calls (loading, running, summarising,
reporting, the CLI) also record a span.  Nothing in `src/` is changed:
module-level functions are rebound in every `slosim` module that imported
them, methods and properties are rebound on their class, and `uninstall()`
puts every original back.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

# (module, attribute path inside the module); keys are "<module>.<path>".
TARGETS = (
    ("runner", "run"),
    ("runner", "run_node"),
    ("runner", "ExecutionEngine.run"),
    ("sim", "seeded_rng"),
    ("sim", "Simulation.schedule"),
    ("sim", "Simulation.step"),
    ("sim", "Simulation.cancel"),
    ("sim", "Simulation.peek_time"),
    ("sim", "Simulation.rng"),
    ("agents", "ServiceTime.sample"),
    ("agents", "sample_interarrival"),
    ("agents", "answer_microtask"),
    ("agents", "MachineAgentProfile.cost_micros"),
    ("agents", "AgentPool.effective_rate"),
    ("agents", "AgentPool.set_base_rate"),
    ("agents", "AgentPool.apply_incentive"),
    ("agents", "AgentPool.sample_interarrival"),
    ("agents", "AgentPool.admit"),
    ("agents", "AgentPool.idle_workers"),
    ("agents", "AgentPool.class_of"),
    ("agents", "AgentPool.mark_busy"),
    ("agents", "AgentPool.release"),
    ("tasks", "WTask.has_live_assignment_for"),
    ("tasks", "spawn_wtask"),
    ("tasks", "issue_assignment"),
    ("tasks", "record_return"),
    ("tasks", "expire_overdue"),
    ("units", "to_micros"),
    ("controller", "ControllerConfig.reward_micros"),
    ("controller", "BudgetLedger.commit"),
    ("controller", "BudgetLedger.settle_return"),
    ("controller", "BudgetLedger.settle_timeout"),
    ("controller", "partition"),
    ("controller", "poll_instants"),
    ("controller", "update_rho"),
    ("controller", "assess_risk"),
    ("controller", "plan_corrective_actions"),
    ("voting", "majority_vote"),
    ("scenario", "load_scenario"),
    ("scenario", "scenario_from_dict"),
    ("scenario", "Scenario.digest"),
    ("workflow", "validate"),
    ("workflow", "derive_node_slos"),
    ("workflow", "ready_nodes"),
    ("trace", "TraceWriter.emit"),
    ("trace", "dump_record"),
    ("trace", "read_trace"),
    ("trace", "summarize"),
    ("reports", "report"),
    ("cli", "main"),
)

COUNT_ONLY = {
    "units.to_micros",
    "controller.ControllerConfig.reward_micros",
    "agents.AgentPool.class_of",
    "agents.AgentPool.idle_workers",
    "tasks.WTask.has_live_assignment_for",
}

SPAN_KEYS = {
    "cli.main",
    "scenario.load_scenario",
    "runner.run",
    "runner.ExecutionEngine.run",
    "trace.read_trace",
    "trace.summarize",
    "reports.report",
}

DRAWS = ("agents.ServiceTime.sample", "agents.sample_interarrival", "agents.answer_microtask")
POLL = ("controller.update_rho", "controller.assess_risk", "controller.plan_corrective_actions")
KERNEL = tuple(f"sim.Simulation.{m}" for m in ("schedule", "step", "cancel", "peek_time", "rng"))


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    incl_s: float = 0.0
    listed: int = 0  # total length of returned lists (idle_workers)
    refused: int = 0  # calls that returned False (BudgetLedger.commit)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {key: Stat() for key in (f"{m}.{p}" for m, p in TARGETS)}
        self.spans: list[dict[str, Any]] = []
        self.run_label = ""
        self._stack: list[float] = [0.0]  # child time of each open wrapped call
        self._open_spans: list[int] = []
        self._restore: list[Callable[[], None]] = []

    # -- wrapping -----------------------------------------------------------------

    def _wrap(self, key: str, fn: Callable) -> Callable:
        stat = self.stats[key]
        if key in COUNT_ONLY:
            return self._wrap_count(key, fn)
        stack = self._stack
        clock = time.perf_counter
        span = key in SPAN_KEYS
        refusals = key == "controller.BudgetLedger.commit"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if span:
                self._open_span(key)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                stat.calls += 1
                stat.self_s += elapsed - child
                stat.incl_s += elapsed
                if span:
                    self._close_span()
            if refusals and result is False:
                stat.refused += 1
            return result

        return wrapper

    def _wrap_count(self, key: str, fn: Callable) -> Callable:
        # slosim calls these with positional arguments only; leaving out
        # **kwargs makes each counted call about 40% cheaper.
        stat = self.stats[key]

        if key == "agents.AgentPool.idle_workers":

            @functools.wraps(fn)
            def listing(*args: Any) -> Any:
                result = fn(*args)
                stat.calls += 1
                stat.listed += len(result)
                return result

            return listing

        @functools.wraps(fn)
        def counting(*args: Any) -> Any:
            stat.calls += 1
            return fn(*args)

        return counting

    def _open_span(self, key: str) -> None:
        parent = self._open_spans[-1] if self._open_spans else None
        self.spans.append(
            {"id": len(self.spans), "name": key, "run": self.run_label, "parent": parent,
             "start": time.perf_counter(), "end": None}
        )
        self._open_spans.append(len(self.spans) - 1)

    def _close_span(self) -> None:
        self.spans[self._open_spans.pop()]["end"] = time.perf_counter()

    def install(self) -> None:
        modules = [mod for name, mod in sys.modules.items() if name == "slosim" or name.startswith("slosim.")]
        for module_name, path in TARGETS:
            key = f"{module_name}.{path}"
            owner = sys.modules[f"slosim.{module_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, property):
                    replacement = property(self._wrap(key, original.fget))
                else:
                    replacement = self._wrap(key, original)
                setattr(cls, attr, replacement)
                self._restore.append(functools.partial(setattr, cls, attr, original))
                continue
            original = getattr(owner, path)
            replacement = self._wrap(key, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, replacement)
                        self._restore.append(functools.partial(setattr, module, name, original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- metrics ------------------------------------------------------------------

    def _sum(self, keys: tuple[str, ...] | list[str], field: str) -> float:
        return sum(getattr(self.stats[k], field) for k in keys)

    def metrics(self, events: dict[str, int]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; times are self times unless the name says run."""
        s = self.stats
        runner = [k for k in s if k.startswith("runner.")]
        pool = [k for k in s if k.startswith("agents.AgentPool.")]
        probes = s["tasks.WTask.has_live_assignment_for"].calls
        placements = s["tasks.issue_assignment"].calls
        commits = s["controller.BudgetLedger.commit"]
        out: dict[str, tuple[float, str]] = {
            "runner.run.s": (s["runner.ExecutionEngine.run"].incl_s, "s"),
            "runner.self.s": (self._sum(runner, "self_s"), "s"),
            "tasks.slot_probes": (probes, "count"),
            "tasks.placements": (placements, "count"),
            "tasks.placement_ratio": (placements / probes if probes else 0.0, "ratio"),
            "agents.idle_workers.calls": (s["agents.AgentPool.idle_workers"].calls, "count"),
            "agents.idle_listed": (s["agents.AgentPool.idle_workers"].listed, "count"),
            "units.to_micros.calls": (s["units.to_micros"].calls, "count"),
            "controller.reward_micros.calls": (s["controller.ControllerConfig.reward_micros"].calls, "count"),
            "sim.schedule.calls": (s["sim.Simulation.schedule"].calls, "count"),
            "sim.step.calls": (s["sim.Simulation.step"].calls, "count"),
            "sim.kernel.s": (self._sum(KERNEL, "self_s"), "s"),
            "sim.cancelled_ratio": (
                events["cancelled"] / events["scheduled"] if events["scheduled"] else 0.0, "ratio"),
            "sim.seeded_rng.calls": (s["sim.seeded_rng"].calls, "count"),
            "sim.seeded_rng.s": (s["sim.seeded_rng"].self_s, "s"),
            "scenario.load.s": (self._sum(("scenario.load_scenario", "scenario.scenario_from_dict"), "self_s"), "s"),
            "scenario.digest.s": (s["scenario.Scenario.digest"].self_s, "s"),
            "workflow.validate.s": (s["workflow.validate"].self_s, "s"),
            "agents.draws": (self._sum(DRAWS, "calls"), "count"),
            "agents.draw.s": (self._sum(DRAWS, "self_s"), "s"),
            "agents.pool.s": (self._sum(pool, "self_s"), "s"),
            "voting.majority_vote.calls": (s["voting.majority_vote"].calls, "count"),
            "voting.majority_vote.s": (s["voting.majority_vote"].self_s, "s"),
            "controller.commit.calls": (commits.calls, "count"),
            "controller.commit_refused_ratio": (commits.refused / commits.calls if commits.calls else 0.0, "ratio"),
            "controller.poll.s": (self._sum(POLL, "self_s"), "s"),
            "trace.emit.calls": (s["trace.TraceWriter.emit"].calls, "count"),
            "trace.emit.s": (s["trace.TraceWriter.emit"].self_s, "s"),
            "trace.encode.s": (s["trace.dump_record"].self_s, "s"),
            "trace.read.s": (s["trace.read_trace"].self_s, "s"),
            "trace.summarize.s": (s["trace.summarize"].self_s, "s"),
            "reports.report.s": (s["reports.report"].self_s, "s"),
            "cli.main.calls": (s["cli.main"].calls, "count"),
        }
        return out

    def table(self) -> list[str]:
        rows = sorted(self.stats.items(), key=lambda kv: -kv[1].self_s)
        return [
            f"  {key:<44} calls {st.calls:>10}  "
            + ("(counted only)" if key in COUNT_ONLY else f"self {st.self_s:10.4f} s  incl {st.incl_s:10.4f} s")
            for key, st in rows
            if st.calls
        ]
