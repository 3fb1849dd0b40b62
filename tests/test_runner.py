import gc
import hashlib
import itertools
from collections import Counter

import numpy as np
import pytest

import slosim.runner
from slosim.agents import MachineAgentProfile, ServiceTime, WorkerClass
from slosim.controller import ControllerConfig, assess_risk, plan_corrective_actions
from slosim.runner import ExecutionEngine, _NodeRun, run, run_node
from slosim.scenario import ScenarioError, load_scenario, scenario_from_dict
from slosim.sim import SimEvent
from slosim.slo import SloSpec
from slosim.trace import TraceWriter, read_trace, summarize
from slosim.units import to_ticks
from slosim.voting import node_consensus_rate
from slosim.workflow import AgentTag, WorkflowNode

from conftest import SCENARIOS_DIR
from test_acceptance import _random_budget_scenario


def run_raw(raw, **kwargs):
    return run(scenario_from_dict(raw), **kwargs)


# -- degenerate paths -----------------------------------------------------------


def test_all_machine_zero_cost(scenario_dict):
    raw = scenario_dict()
    raw["workflow"]["nodes"][0]["agent_tag"] = "machine_only"
    raw["workflow"]["nodes"][0]["microtask_count"] = 100
    raw["machines"][0]["cost_per_item"] = 0.0
    raw["machines"][0]["capacity"] = 8
    result = run_raw(raw)
    assert result.summary.spent_micros == 0
    assert result.summary.evaluated == 100
    assert result.summary.budget.met


def test_empty_node_is_immediate_success():
    node = WorkflowNode(id="empty", microtask_count=0, answer_domain=("yes", "no"))
    slo = SloSpec(accuracy_target=0.5, budget=1.0, deadline=100.0)
    outcome = run_node(
        node, slo, ControllerConfig(),
        workers=(
            WorkerClass(
                name="w", accuracy=0.9, arrival_rate=0.5,
                service_time=ServiceTime(family="fixed", value=1.0),
            ),
        ),
        machines=(MachineAgentProfile(name="m", accuracy=0.9, service_time_per_item=1.0),),
        seed=1,
    )
    assert outcome.summary.evaluated == 0
    assert outcome.summary.incomplete == 0
    assert outcome.summary.spend_micros == 0
    assert outcome.results == {}


def test_run_node_returns_final_results(scenario_dict):
    node = WorkflowNode(
        id="n", microtask_count=10, answer_domain=("x", "y"), agent_tag=AgentTag.MACHINE_ONLY
    )
    slo = SloSpec(accuracy_target=0.5, budget=1.0, deadline=50.0)
    outcome = run_node(
        node, slo, ControllerConfig(),
        workers=(),
        machines=(MachineAgentProfile(name="m", accuracy=1.0, service_time_per_item=1.0, capacity=4),),
        seed=3,
    )
    assert len(outcome.results) == 10
    assert outcome.summary.consensus == 10  # perfect machine always reaches consensus


def _probe_node(elasticity: float, path) -> None:
    """The README's library example, with the deadline cut from 1000 to 150
    so that the controller raises the incentive, at the given elasticity."""
    node = WorkflowNode(
        id="label", microtask_count=200, answer_domain=("yes", "no"), agent_tag=AgentTag.EITHER
    )
    slo = SloSpec(accuracy_target=0.6, budget=20.0, deadline=150.0)
    run_node(
        node, slo, ControllerConfig(incentive_elasticity=elasticity),
        workers=(
            WorkerClass(
                "crowd", accuracy=0.548, arrival_rate=0.5,
                service_time=ServiceTime(family="exponential", mean=3.0),
            ),
        ),
        machines=(MachineAgentProfile("clf", accuracy=0.672, service_time_per_item=1.0),),
        seed=42,
        trace_path=path,
    )


def test_run_node_runs_the_config_it_records(tmp_path):
    """The engine builds the pool from the recorded config and the clock
    from the SLO, so a different elasticity in the header is a different
    run, and nothing happens past the deadline."""
    arrivals = {}
    for elasticity in (0.0, 1.0):
        path = tmp_path / f"{elasticity}.jsonl"
        _probe_node(elasticity, path)
        records = read_trace(path)
        header = records[0]
        assert header["config"]["incentive_elasticity"] == elasticity
        assert header["digest"]
        assert any(r["kind"] == "action" and r["action"] == "raise_incentive" for r in records)
        assert max(r["time"] for r in records) <= to_ticks(150.0)
        arrivals[elasticity] = sum(r["kind"] == "worker_arrival" for r in records)
    assert arrivals[0.0] != arrivals[1.0]


# -- determinism and replay -------------------------------------------------------


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_same_seed_byte_identical_traces(tmp_path, scenario_dict):
    scenario = scenario_from_dict(scenario_dict())
    run(scenario, trace_path=tmp_path / "a.jsonl")
    run(scenario, trace_path=tmp_path / "b.jsonl")
    assert digest(tmp_path / "a.jsonl") == digest(tmp_path / "b.jsonl")


def test_different_seed_changes_body_not_header_schema(tmp_path, scenario_dict):
    scenario = scenario_from_dict(scenario_dict())
    run(scenario, trace_path=tmp_path / "a.jsonl")
    run(scenario, seed=777, trace_path=tmp_path / "c.jsonl")
    a_lines = (tmp_path / "a.jsonl").read_text().splitlines()
    c_lines = (tmp_path / "c.jsonl").read_text().splitlines()
    assert a_lines[1:] != c_lines[1:]
    header_a = read_trace(tmp_path / "a.jsonl")[0]
    header_c = read_trace(tmp_path / "c.jsonl")[0]
    assert set(header_a) == set(header_c)
    assert header_a["seed"] != header_c["seed"]


def test_summary_replay_equals_live(tmp_path, scenario_dict):
    """A run that writes its trace to a file keeps no records in memory, and
    the summary folded from the file equals the live one: the fixture and
    every shipped scenario."""
    scenarios = [scenario_from_dict(scenario_dict())]
    scenarios += [load_scenario(path) for path in sorted(SCENARIOS_DIR.glob("*.yaml"))]
    for scenario in scenarios:
        path = tmp_path / f"{scenario.name}.jsonl"
        result = run(scenario, trace_path=path)
        assert result.records is None
        assert summarize(read_trace(path)) == result.summary


def _run_minimal(path, reject):
    run(load_scenario(SCENARIOS_DIR / "minimal.yaml"), trace_path=path, reject=reject)


def _run_human_node(path, reject):
    node = WorkflowNode(
        id="n", microtask_count=10, answer_domain=("yes", "no"), agent_tag=AgentTag.HUMAN_ONLY
    )
    slo = SloSpec(accuracy_target=0.5, budget=1.0, deadline=100.0)
    run_node(
        node, slo, ControllerConfig(),
        workers=(
            WorkerClass(
                name="w", accuracy=0.9, arrival_rate=0.5,
                service_time=ServiceTime(family="fixed", value=1.0),
            ),
        ),
        machines=(),
        seed=1, trace_path=path, reject=reject,
    )


@pytest.mark.parametrize("entry", [_run_minimal, _run_human_node])
def test_trace_file_is_closed_when_a_run_raises(entry, tmp_path, monkeypatch):
    emitted = []
    emit = TraceWriter.emit

    def counted_emit(writer, time, kind, fields):
        emitted.append(kind)
        return emit(writer, time, kind, fields)

    def reject(mt_id, agent_id, answer):
        raise RuntimeError("reject predicate failed")

    monkeypatch.setattr(TraceWriter, "emit", counted_emit)
    path = tmp_path / "trace.jsonl"
    with pytest.raises(RuntimeError, match="reject predicate failed") as raised:
        entry(path, reject)
    # `raised` holds the failed run's frames, so an unclosed stream stays unflushed
    assert raised.traceback
    assert len(read_trace(path)) == len(emitted)


_CROWD = WorkerClass(
    name="w", accuracy=0.9, arrival_rate=0.5, service_time=ServiceTime(family="fixed", value=1.0)
)
_HUMAN_NODE = WorkflowNode(
    id="n", microtask_count=5, answer_domain=("yes", "no"), agent_tag=AgentTag.HUMAN_ONLY
)


@pytest.mark.parametrize(
    "node, deadline, workers, problem",
    [
        (_HUMAN_NODE, 100.0, (), "workflow.nodes[n]: tag human_only needs at least one worker class"),
        (
            WorkflowNode(
                id="n", microtask_count=5, answer_domain=("yes", "no"),
                agent_tag=AgentTag.HUMAN_ONLY,
                slo=SloSpec(accuracy_target=0.5, budget=1.0, deadline=50.0),
            ),
            10.0,
            (_CROWD,),
            "workflow.nodes[n]: node deadline 50.0 exceeds task deadline 10.0",
        ),
        (_HUMAN_NODE, 100.0, (_CROWD, _CROWD), "workers[1].name: 'w' is already declared"),
    ],
    ids=["human_only_without_workers", "node_deadline_past_the_task", "worker_declared_twice"],
)
def test_run_node_checks_its_scenario_before_a_trace_exists(tmp_path, node, deadline, workers, problem):
    """run_node's one-node scenario is checked as a file's is, so a node
    that no scenario file could declare raises before any record."""
    slo = SloSpec(accuracy_target=0.5, budget=1.0, deadline=deadline)
    path = tmp_path / "out" / "trace.jsonl"
    with pytest.raises(ScenarioError) as raised:
        run_node(node, slo, ControllerConfig(), workers=workers, machines=(), seed=1, trace_path=path)
    assert raised.value.problems == [problem]
    assert not path.parent.exists()


def test_a_negative_seed_raises_before_a_trace_exists(tmp_path):
    path = tmp_path / "out" / "trace.jsonl"
    with pytest.raises(ValueError, match="seed must be non-negative: -1"):
        run(load_scenario(SCENARIOS_DIR / "minimal.yaml"), seed=-1, trace_path=path)
    assert not path.parent.exists()


def test_a_direct_engine_run_writes_the_trace_that_run_writes(tmp_path):
    """ExecutionEngine.run opens the writer it is given, so a direct run
    with a file writer needs no `with` block of its own."""
    scenario = load_scenario(SCENARIOS_DIR / "minimal.yaml")
    ExecutionEngine(scenario, writer=TraceWriter(tmp_path / "direct.jsonl")).run()
    run(scenario, trace_path=tmp_path / "run.jsonl")
    assert (tmp_path / "direct.jsonl").read_bytes() == (tmp_path / "run.jsonl").read_bytes()


def test_a_worker_class_never_shares_a_machine_profiles_answer_stream():
    """Worker class `machine/classifier` answers from `answers/` + its name
    and machine profile `classifier` from `answers/machine/` + its name;
    the escaped name keeps the two labels, and so the two streams, apart."""
    overrides = ["workers.0.name=machine/classifier"]
    scenario = load_scenario(SCENARIOS_DIR / "minimal.yaml", overrides=overrides)
    assert scenario.machines[0].name == "classifier"
    engine = ExecutionEngine(scenario, writer=TraceWriter(None))
    engine.run()
    assert len(engine.sim._streams) == 6
    human = engine._answer_rngs["machine/classifier"]
    assert human is not engine._machine_answer_rngs["classifier"]


def test_trace_times_non_decreasing(scenario_dict):
    result = run_raw(scenario_dict())
    times = [r["time"] for r in result.records]
    assert times == sorted(times)


# -- structural invariants ----------------------------------------------------------


def test_agents_never_double_booked(scenario_dict):
    raw = scenario_dict()
    raw["workflow"]["nodes"][0]["microtask_count"] = 60
    result = run_raw(raw)
    open_assignments: set[str] = set()
    for record in result.records:
        if record["kind"] == "assignment_issued":
            assert record["agent"] not in open_assignments
            open_assignments.add(record["agent"])
        elif record["kind"] in ("assignment_returned", "assignment_timeout"):
            open_assignments.discard(record["agent"])


def test_spent_is_monotone_and_commits_settle(scenario_dict):
    result = run_raw(scenario_dict())
    last_spent = 0
    for record in result.records:
        if "spent" in record:
            assert record["spent"] >= last_spent
            last_spent = record["spent"]
    end = next(r for r in result.records if r["kind"] == "run_end")
    assert end["committed"] == 0


def test_event_conservation_reported(scenario_dict):
    result = run_raw(scenario_dict())
    events = result.summary.events
    assert events["scheduled"] == events["fired"] + events["cancelled"] + events["unfired"]


def test_microtask_conservation_at_end(scenario_dict):
    raw = scenario_dict()
    raw["workflow"]["nodes"][0]["microtask_count"] = 35
    result = run_raw(raw)
    summary = result.summary
    assert summary.evaluated + summary.incomplete == summary.microtask_total


def _engine_objects() -> Counter:
    return Counter(
        type(o).__name__ for o in gc.get_objects() if isinstance(o, (ExecutionEngine, _NodeRun, SimEvent))
    )


def _run_hybrid_node() -> None:
    node = WorkflowNode(id="n", microtask_count=40, answer_domain=("yes", "no"))
    slo = SloSpec(accuracy_target=0.9, budget=1.0, deadline=50.0)
    run_node(
        node, slo, ControllerConfig(),
        workers=(
            WorkerClass(
                name="w", accuracy=0.7, arrival_rate=0.5,
                service_time=ServiceTime(family="exponential", mean=3.0),
            ),
        ),
        machines=(MachineAgentProfile("m", accuracy=0.6, service_time_per_item=2.0, capacity=2),),
        seed=3,
    )


def test_a_finished_run_leaves_no_cyclic_garbage(tmp_path):
    """Events hold plain functions and plain values, so nothing a run builds
    refers back to its engine.  With the cyclic collector off, dropping the
    result must free the engine, its node runs and every event, queued or
    not, by reference counting alone."""
    scenarios = [load_scenario(path) for path in sorted(SCENARIOS_DIR.glob("*.yaml"))]
    gc.collect()
    before = _engine_objects()
    gc.disable()
    try:
        for scenario in scenarios:
            run(scenario)
            run(scenario, trace_path=tmp_path / f"{scenario.name}.jsonl")
        _run_hybrid_node()
        after = _engine_objects()
    finally:
        gc.enable()
    assert after == before


# -- polling ----------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 5, 20])
def test_trace_contains_k_equally_spaced_polls(scenario_dict, k):
    raw = scenario_dict()
    raw["controller"]["polling_intervals"] = k
    # starve the run so no early finish eats polls
    raw["workers"][0]["arrival_rate"] = 0.001
    raw["workflow"]["nodes"][0]["agent_tag"] = "human_only"
    raw["slo"]["deadline"] = 300
    result = run_raw(raw)
    polls = [r for r in result.records if r["kind"] == "poll"]
    assert len(polls) == k
    times = [p["time"] for p in polls]
    assert times[-1] == to_ticks(300.0)
    gaps = {b - a for a, b in zip([0] + times[:-1], times)}
    assert len(gaps) == 1


# -- workflow gating -----------------------------------------------------------------


def test_successor_starts_after_predecessor_ends(scenario_dict):
    raw = scenario_dict()
    raw["workflow"]["nodes"] = [
        {
            "id": "first",
            "agent_tag": "machine_only",
            "microtask_count": 10,
            "answer_domain": ["a", "b"],
        },
        {
            "id": "second",
            "agent_tag": "machine_only",
            "microtask_count": 10,
            "answer_domain": ["a", "b"],
        },
    ]
    raw["workflow"]["edges"] = [["first", "second"]]
    result = run_raw(raw)
    end_first = next(r["time"] for r in result.records if r["kind"] == "node_end" and r["node"] == "first")
    start_second = next(
        r["time"] for r in result.records if r["kind"] == "node_start" and r["node"] == "second"
    )
    assert start_second >= end_first
    assert result.summary.evaluated == 20


# -- controller behaviour through the engine ------------------------------------------


def test_starvation_triggers_reroute_actions(scenarios_dir):
    from slosim.scenario import load_scenario

    result = run(load_scenario(scenarios_dir / "starvation.yaml"))
    kinds = {r["action"] for r in result.records if r["kind"] == "action"}
    assert "reduce_ratio" in kinds
    assert any(r["kind"] == "reroute" for r in result.records)
    assert result.summary.completion_fraction >= 0.99
    assert result.summary.nodes[0].actions.get("reduce_ratio", 0) > 0


def test_parallel_stages_share_the_worker_pool(scenario_dict):
    raw = scenario_dict()
    mk = lambda i: {
        "id": i,
        "agent_tag": "either",
        "microtask_count": 8,
        "answer_domain": ["a", "b"],
    }
    raw["workflow"]["nodes"] = [mk("head"), mk("left"), mk("right"), mk("tail")]
    raw["workflow"]["edges"] = [["head", "left"], ["head", "right"], ["left", "tail"], ["right", "tail"]]
    raw["slo"] = {"accuracy_target": 0.5, "budget": 10.0, "deadline": 600}
    result = run_raw(raw)
    starts = {r["node"]: r["time"] for r in result.records if r["kind"] == "node_start"}
    assert starts["left"] == starts["right"]  # both unlocked by head together
    assert result.summary.evaluated == 32
    # interleaved issuance: both middle stages received assignments
    issued_nodes = {r["node"] for r in result.records if r["kind"] == "assignment_issued"}
    assert {"left", "right"} <= issued_nodes


def test_incentive_raise_unlocks_priced_out_workers(scenario_dict):
    raw = scenario_dict()
    raw["workflow"]["nodes"][0].update({"agent_tag": "human_only", "microtask_count": 10})
    raw["slo"] = {"accuracy_target": 0.5, "budget": 10.0, "deadline": 400}
    raw["controller"].update({"incentive_step": 1.6, "polling_intervals": 8})
    raw["workers"][0].update({"arrival_rate": 1.0, "min_reward": 0.03})  # above base 0.02
    result = run_raw(raw)
    times_of = lambda kind: [r["time"] for r in result.records if r["kind"] == kind]
    raise_times = [
        r["time"]
        for r in result.records
        if r["kind"] == "action" and r["action"] == "raise_incentive"
    ]
    issues = times_of("assignment_issued")
    assert raise_times and issues
    assert min(issues) >= min(raise_times)  # nobody works until the pay clears 0.03
    assert result.summary.evaluated == 10
    first_issue = next(r for r in result.records if r["kind"] == "assignment_issued")
    assert first_issue["reward"] == 32_000  # 0.02 * 1.6 in micro-currency


def test_pipeline_stages_gate_and_meet_slos(scenarios_dir):
    from slosim.scenario import load_scenario

    result = run(load_scenario(scenarios_dir / "pipeline.yaml"))
    starts = {r["node"]: r["time"] for r in result.records if r["kind"] == "node_start"}
    ends = {r["node"]: r["time"] for r in result.records if r["kind"] == "node_end"}
    assert starts["classify"] >= ends["extract"]
    assert starts["review"] >= ends["classify"]
    summary = result.summary
    assert summary.evaluated == summary.microtask_total == 500
    for node in summary.nodes:
        assert node.accuracy.met and node.budget.met and node.time.met


def test_run_terminates_by_deadline(scenario_dict):
    # starved supply: work cannot finish, yet nothing outlives the horizon
    raw = scenario_dict()
    raw["workers"][0]["arrival_rate"] = 0.001
    raw["workflow"]["nodes"][0]["agent_tag"] = "human_only"
    result = run_raw(raw)
    deadline_ticks = to_ticks(raw["slo"]["deadline"])
    assert result.summary.finish_ticks <= deadline_ticks
    assert all(r["time"] <= deadline_ticks for r in result.records)
    assert result.summary.evaluated + result.summary.incomplete == 20


def _low_accuracy_crowd(scenario_dict) -> dict:
    """Workers barely better than chance against a 0.99 accuracy target, so
    the controller escalates NO_CONSENSUS microtasks for more votes."""
    raw = scenario_dict()
    raw["slo"] = {"accuracy_target": 0.99, "budget": 50.0, "deadline": 400}
    raw["workflow"]["nodes"][0].update(
        {"agent_tag": "human_only", "microtask_count": 40, "answer_domain": ["a", "b", "c"]}
    )
    raw["workers"][0].update({"accuracy": 0.34, "arrival_rate": 2.0, "retention": 0.9})
    return raw


def test_accuracy_risk_escalates_lowest_ids_first(scenario_dict):
    result = run_raw(_low_accuracy_crowd(scenario_dict))
    escalations = [r for r in result.records if r["kind"] == "escalated"]
    assert escalations, "low-accuracy crowd must trigger vote escalation"
    ids = [r["microtask"] for r in escalations]
    assert ids == sorted(ids) or len(set(ids)) < len(ids)  # ascending per round


def _replaced_after_escalation(records) -> set[str]:
    """Microtasks whose NO_CONSENSUS result was replaced by a later vote
    after an escalation."""
    pending: set[str] = set()
    escalated: set[str] = set()
    replaced: set[str] = set()
    for record in records:
        if record["kind"] == "escalated" and record["microtask"] in pending:
            escalated.add(record["microtask"])
        elif record["kind"] == "vote_result":
            microtask = record["microtask"]
            if microtask in escalated:
                replaced.add(microtask)
            if record["status"] == "no_consensus" and not record["final"]:
                pending.add(microtask)
            escalated.discard(microtask)
    return replaced


POLL_FIELDS = ("hm_ratio", "completion_rate", "evaluated", "total", "consensus_rate")


def _polls_with_actions(records) -> list[tuple[dict, list[dict]]]:
    """Each `poll` record with the `action` records that its poll wrote."""
    polls: list[tuple[dict, list[dict]]] = []
    for record in records:
        if record["kind"] == "poll":
            polls.append((record, []))
        elif record["kind"] == "action":
            polls[-1][1].append(record)
    return polls


def _human_recounts(records) -> list[tuple[int, int]]:
    """For each `poll` record, its node's human-routed microtasks not yet
    decided (spawned, less rerouted, less finally decided) and how many of
    those no assignment has been issued for, recounted from the records
    written before it."""
    with_crowd: dict[str, set[str]] = {}
    picked: set[str] = set()
    recounts = []
    for record in records:
        kind = record["kind"]
        if kind == "wtask_spawned":
            with_crowd.setdefault(record["node"], set()).add(record["microtask"])
        elif kind == "reroute" or (kind == "vote_result" and record["final"]):
            with_crowd.get(record["node"], set()).discard(record["microtask"])
        elif kind == "assignment_issued":
            picked.add(record["microtask"])
        elif kind == "poll":
            undecided = with_crowd.get(record["node"], set())
            recounts.append((len(undecided), len(undecided - picked)))
    return recounts


@pytest.mark.parametrize("source", [*sorted(p.stem for p in SCENARIOS_DIR.glob("*.yaml")), "c05", "escalation"])
def test_poll_consensus_rate_equals_a_recount_of_the_results(source, scenario_dict, monkeypatch):
    """Every poll replays from its observation alone: the `poll` record holds
    the observation's fields and the risks that `assess_risk` gives for it,
    planning again from it gives the poll's `action` records, and its
    consensus rate, which the engine keeps as a running count of agreed
    results, is a recount of the node's results.  Its unresolved and
    unpicked human counts, which the engine reads off the w-tasks it holds,
    are recounts of the records written before it."""
    polling: list[_NodeRun] = []
    observed = []
    on_poll = ExecutionEngine._on_poll

    def registering(engine, node_id, index):
        polling[:] = [engine.runs[node_id]]
        on_poll(engine, node_id, index)

    def observing(obs, slo):
        (node_run,) = polling
        assert obs.consensus_rate == node_consensus_rate(node_run.results.values())
        observed.append((obs, slo))
        return assess_risk(obs, slo)

    monkeypatch.setattr(ExecutionEngine, "_on_poll", registering)
    monkeypatch.setattr(slosim.runner, "assess_risk", observing)
    if source == "c05":
        rng = np.random.default_rng(424242)
        scenarios = [scenario_from_dict(_random_budget_scenario(rng)) for _ in range(30)]
    elif source == "escalation":
        scenarios = [scenario_from_dict(_low_accuracy_crowd(scenario_dict))]
    else:
        scenarios = [load_scenario(SCENARIOS_DIR / f"{source}.yaml")]
    replaced = set()
    rates = []
    for scenario in scenarios:
        observed.clear()
        records = run(scenario).records
        polls = _polls_with_actions(records)
        assert len(polls) == len(observed)
        recounts = _human_recounts(records)
        for (poll, actions), (obs, slo), recount in zip(polls, observed, recounts):
            assert [poll[name] for name in POLL_FIELDS] == [getattr(obs, name) for name in POLL_FIELDS]
            assert (obs.unresolved_human, obs.unpicked_human) == recount
            risks = assess_risk(obs, slo)
            assert poll["risks"] == sorted(flag.value for flag in risks)
            replanned = plan_corrective_actions(obs, risks, scenario.controller)
            assert [(a.kind, a.trigger, a.params) for a in replanned] == [
                (r["action"], r["trigger"], r["params"]) for r in actions
            ]
            rates.append(obs.consensus_rate)
        replaced |= _replaced_after_escalation(records)
    assert rates
    if source == "escalation":
        assert replaced, "an escalation must replace a NO_CONSENSUS result"
        assert 0.0 < min(rates) < 1.0


def test_plurality_rule_flows_through_scenario(scenario_dict):
    raw = scenario_dict()
    raw["controller"]["vote_rule"] = "plurality"
    result = run_raw(raw)
    header = result.records[0]
    assert header["config"]["vote_rule"] == "plurality"
    assert result.summary.evaluated + result.summary.incomplete == 20


def test_machine_replication_collects_multiple_votes(scenario_dict):
    raw = scenario_dict()
    raw["workflow"]["nodes"][0].update({"agent_tag": "machine_only", "microtask_count": 15})
    raw["controller"]["machine_replication"] = 2
    raw["machines"][0]["capacity"] = 4
    result = run_raw(raw)
    done = [r for r in result.records if r["kind"] == "machine_done"]
    assert len(done) == 30  # two passes per microtask
    per_result_votes = {
        r["microtask"]: r["votes"] for r in result.records if r["kind"] == "vote_result"
    }
    assert all(v == 2 for v in per_result_votes.values())


def test_reject_predicate_discards_answers(scenario_dict):
    raw = scenario_dict()
    raw["workflow"]["nodes"][0]["agent_tag"] = "human_only"
    raw["workflow"]["nodes"][0]["microtask_count"] = 5
    raw["slo"]["deadline"] = 60
    result = run_raw(raw, reject=lambda mt, agent, answer: True)
    assert result.summary.spent_micros == 0
    assert result.summary.evaluated == 0
    assert result.summary.incomplete == 5
    timeouts = [r for r in result.records if r["kind"] == "assignment_timeout" and r.get("rejected")]
    assert timeouts


def test_assignment_window_produces_timeouts(scenario_dict):
    raw = scenario_dict()
    raw["controller"]["assignment_window"] = 0.5  # far below mean service of 3
    raw["workers"][0]["service_time"] = {"family": "fixed", "value": 5.0}
    raw["workflow"]["nodes"][0]["agent_tag"] = "human_only"
    result = run_raw(raw)
    assert any(r["kind"] == "assignment_timeout" for r in result.records)
    end = next(r for r in result.records if r["kind"] == "run_end")
    assert end["committed"] == 0


def test_timeout_with_corrections_off_is_never_reassigned(scenarios_dir):
    overrides = ["controller.corrections_enabled=false", "controller.assignment_window=2.0"]
    records = run(load_scenario(scenarios_dir / "minimal.yaml", overrides=overrides)).records
    first_timeout: dict[str, int] = {}
    for i, record in enumerate(records):
        if record["kind"] == "assignment_timeout":
            first_timeout.setdefault(record["microtask"], i)
    assert len(first_timeout) == 20
    assert not any(record["kind"] == "action" for record in records)
    reissued = [
        record["microtask"]
        for i, record in enumerate(records)
        if record["kind"] == "assignment_issued" and i > first_timeout.get(record["microtask"], i)
    ]
    assert reissued == []
    # two of its three slots time out and are dropped, so the one answer
    # decides it then, not at the node's end
    mine = [record for record in records if record.get("microtask") == "classify:00001"]
    timed_out_at = max(r["time"] for r in mine if r["kind"] == "assignment_timeout")
    decided = [r for r in mine if r["kind"] == "vote_result"]
    assert [(r["final"], r["votes"], r["time"]) for r in decided] == [(True, 1, timed_out_at)]
    assert records[-1]["kind"] == "run_end" and records[-1]["committed"] == 0


@pytest.mark.parametrize("corrections", ["true", "false"])
@pytest.mark.parametrize("name", ["minimal", "starvation"])
def test_a_final_microtask_is_never_evaluated_again(scenarios_dir, monkeypatch, name, corrections):
    """A final decision drops its w-task, and a machine microtask is decided
    only once every queued and in-flight pass has returned, so no vote set is
    counted again after its decision is final: here on runs that reject
    every third answer inside a five-unit assignment window."""
    evaluate = ExecutionEngine._evaluate_votes
    entered = Counter()

    def checked(engine, node_run, mt_id, final=False):
        assert mt_id not in node_run.final
        entered["human" if mt_id in node_run.wtasks else "machine"] += 1
        evaluate(engine, node_run, mt_id, final)

    answers = itertools.count(1)

    def reject(mt_id, agent_id, answer):
        return next(answers) % 3 == 0

    monkeypatch.setattr(ExecutionEngine, "_evaluate_votes", checked)
    overrides = [f"controller.corrections_enabled={corrections}", "controller.assignment_window=5.0"]
    records = run(load_scenario(scenarios_dir / f"{name}.yaml", overrides=overrides), reject=reject).records
    assert any(r["kind"] == "assignment_timeout" and r["rejected"] for r in records)
    assert entered["human"] and entered["machine"]


# -- randomized budget safety (small; the acceptance suite scales this up) -------------


def test_budget_never_exceeded_quick_fuzz():
    import numpy as np

    rng = np.random.default_rng(2024)
    for _ in range(40):
        raw = _random_scenario(rng)
        result = run_raw(raw)
        budget = result.records[0]["task_slo"]["budget_micros"]
        for record in result.records:
            if "spent" in record:
                assert record["spent"] + record["committed"] <= budget


def test_multi_node_graphs_keep_engine_invariants():
    import numpy as np

    rng = np.random.default_rng(777)
    for _ in range(30):
        k = int(rng.integers(2, 4))
        nodes = [
            {
                "id": f"n{i}",
                "agent_tag": str(rng.choice(["either", "either", "human_only", "machine_only"])),
                "microtask_count": int(rng.integers(1, 40)),
                "answer_domain": ["a", "b", "c"],
            }
            for i in range(k)
        ]
        edges = [
            [f"n{i}", f"n{j}"]
            for i in range(k)
            for j in range(i + 1, k)
            if rng.random() < 0.5
        ]
        raw = _random_scenario(rng)
        raw["workflow"] = {"nodes": nodes, "edges": edges}
        result = run_raw(raw)

        budget = result.records[0]["task_slo"]["budget_micros"]
        horizon = result.records[0]["task_slo"]["deadline_ticks"]
        for record in result.records:
            assert record["time"] <= horizon
            if "spent" in record:
                assert record["spent"] + record["committed"] <= budget
        end = next(r for r in result.records if r["kind"] == "run_end")
        assert end["committed"] == 0
        for node in result.summary.nodes:
            assert node.evaluated + node.incomplete == node.microtask_count
        finals = [r["microtask"] for r in result.records if r["kind"] == "vote_result" and r["final"]]
        assert len(finals) == len(set(finals))  # one final verdict per microtask


def _random_scenario(rng):
    n = int(rng.integers(1, 120))
    w = int(rng.choice([1, 3, 5]))
    return {
        "schema_version": 1,
        "name": "fuzz",
        "seed": int(rng.integers(0, 2**31)),
        "time_unit": "minute",
        "slo": {
            "accuracy_target": float(rng.uniform(0.3, 0.9)),
            "budget": float(round(rng.uniform(0.05, 4.0), 2)),
            "deadline": float(rng.integers(20, 60)),
        },
        "controller": {
            "polling_intervals": int(rng.integers(1, 21)),
            "initial_hm_ratio": float(round(rng.uniform(0, 6), 2)),
            "replication_w": w,
            "reward_per_assignment": float(round(rng.uniform(0.005, 0.05), 3)),
            "machine_replication": int(rng.choice([1, 1, 2])),
        },
        "workflow": {
            "nodes": [
                {
                    "id": "fz",
                    "agent_tag": "either",
                    "microtask_count": n,
                    "answer_domain": ["a", "b", "c"],
                }
            ],
            "edges": [],
        },
        "workers": [
            {
                "name": "crowd",
                "accuracy": float(rng.uniform(0.3, 0.95)),
                "arrival_rate": float(rng.uniform(0.05, 2.0)),
                "service_time": {"family": "exponential", "mean": float(rng.uniform(0.5, 4.0))},
                "retention": float(rng.uniform(0.2, 0.8)),
            }
        ],
        "machines": [
            {
                "name": "m",
                "accuracy": float(rng.uniform(0.4, 0.9)),
                "service_time_per_item": float(rng.uniform(0.3, 3.0)),
                "cost_per_item": float(round(rng.uniform(0, 0.01), 4)),
                "capacity": int(rng.integers(1, 8)),
            }
        ],
    }
