import hashlib

import pytest

from slosim.agents import AgentPool, MachineAgentProfile, ServiceTime, WorkerClass
from slosim.controller import ControllerConfig
from slosim.runner import run, run_node
from slosim.scenario import load_scenario, scenario_from_dict
from slosim.sim import Simulation
from slosim.slo import SloSpec
from slosim.trace import TraceWriter, read_trace, summarize
from slosim.units import to_ticks
from slosim.workflow import AgentTag, WorkflowNode

from conftest import SCENARIOS_DIR


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
    node = WorkflowNode(
        id="empty", label="empty", agent_tag=AgentTag.EITHER, microtask_count=0
    )
    slo = SloSpec(accuracy_target=0.5, budget=1.0, deadline=100.0)
    pool = AgentPool(
        workers=(
            WorkerClass(
                name="w", accuracy=0.9, arrival_rate=0.5,
                service_time=ServiceTime(family="fixed", value=1.0),
            ),
        ),
        machines=(MachineAgentProfile(name="m", accuracy=0.9, service_time_per_item=1.0),),
    )
    sim = Simulation(seed=1, horizon=to_ticks(100.0))
    outcome = run_node(node, slo, ControllerConfig(), pool, sim)
    assert outcome.summary.evaluated == 0
    assert outcome.summary.incomplete == 0
    assert outcome.summary.spend_micros == 0
    assert outcome.results == {}


def test_run_node_returns_final_results(scenario_dict):
    node = WorkflowNode(id="n", label="n", agent_tag=AgentTag.MACHINE_ONLY, microtask_count=10)
    slo = SloSpec(accuracy_target=0.5, budget=1.0, deadline=50.0)
    pool = AgentPool(
        workers=(),
        machines=(MachineAgentProfile(name="m", accuracy=1.0, service_time_per_item=1.0, capacity=4),),
    )
    sim = Simulation(seed=3, horizon=to_ticks(50.0))
    outcome = run_node(node, slo, ControllerConfig(), pool, sim, answer_domain=("x", "y"))
    assert len(outcome.results) == 10
    assert outcome.summary.consensus == 10  # perfect machine always reaches consensus


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
    node = WorkflowNode(id="n", label="n", agent_tag=AgentTag.HUMAN_ONLY, microtask_count=10)
    slo = SloSpec(accuracy_target=0.5, budget=1.0, deadline=100.0)
    pool = AgentPool(
        workers=(
            WorkerClass(
                name="w", accuracy=0.9, arrival_rate=0.5,
                service_time=ServiceTime(family="fixed", value=1.0),
            ),
        ),
        machines=(),
    )
    sim = Simulation(seed=1, horizon=to_ticks(100.0))
    run_node(node, slo, ControllerConfig(), pool, sim, trace_path=path, reject=reject)


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


def test_accuracy_risk_escalates_lowest_ids_first(scenario_dict):
    raw = scenario_dict()
    raw["slo"] = {"accuracy_target": 0.99, "budget": 50.0, "deadline": 400}
    raw["workflow"]["nodes"][0].update(
        {"agent_tag": "human_only", "microtask_count": 40, "answer_domain": ["a", "b", "c"]}
    )
    raw["workers"][0].update({"accuracy": 0.34, "arrival_rate": 2.0, "retention": 0.9})
    result = run_raw(raw)
    escalations = [r for r in result.records if r["kind"] == "escalated"]
    assert escalations, "low-accuracy crowd must trigger vote escalation"
    ids = [r["microtask"] for r in escalations]
    assert ids == sorted(ids) or len(set(ids)) < len(ids)  # ascending per round


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
