"""Lifecycle guarantees read off whole traces: each microtask is decided at
most once, each issued assignment is settled exactly once, no microtask
collects more human votes than it wants, no answer is accepted after its
w-task's window, and no machine finishes work for a node that has ended.
They run over the shipped scenarios, the pinned C05 assignment_window
scenario, and pipeline with slow machines, whose first node ends at its
deadline with machine work in flight."""

import functools

import numpy as np
import pytest

from slosim.runner import run
from slosim.scenario import load_scenario, scenario_from_dict
from slosim.units import to_ticks

from conftest import SCENARIOS_DIR
from test_acceptance import _random_budget_scenario
from test_golden_traces import C05_INDEX, SHIPPED

SLOW_MACHINES = ["machines.0.service_time_per_item=100", "machines.1.service_time_per_item=100"]
RUNS = sorted(SHIPPED) + ["c05", "pipeline_slow_machines"]


@functools.lru_cache(maxsize=None)
def _records(name: str) -> tuple[dict, ...]:
    if name == "c05":
        rng = np.random.default_rng(424242)
        raws = [_random_budget_scenario(rng) for _ in range(C05_INDEX + 1)]
        scenario = scenario_from_dict(raws[C05_INDEX])
    elif name == "pipeline_slow_machines":
        scenario = load_scenario(SCENARIOS_DIR / "pipeline.yaml", SLOW_MACHINES)
    else:
        scenario = load_scenario(SCENARIOS_DIR / f"{name}.yaml")
    return tuple(run(scenario).records)


@pytest.mark.parametrize("name", RUNS)
def test_each_microtask_is_decided_at_most_once_with_votes(name):
    decided: set[str] = set()
    for record in _records(name):
        if record["kind"] != "vote_result":
            continue
        microtask = record["microtask"]
        assert microtask not in decided, f"{microtask} voted on after its final result"
        assert record["votes"] >= 1
        if record["final"]:
            decided.add(microtask)
    assert decided


# Known defect, kept visible: a poll's reduce_ratio reroutes from the unpicked
# list taken before its actions ran, so a w-task that the poll's own reassign
# dispatch picked is rerouted with its assignment pending.  That assignment is
# never settled and its reward stays committed (C05 scenario 29 ends with 20000
# micros committed).  Strict, so the fix must drop this mark.
REROUTE_DROPS_A_PENDING_ASSIGNMENT = pytest.mark.xfail(
    strict=True, reason="reduce_ratio reroutes a w-task picked earlier in the same poll"
)


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=REROUTE_DROPS_A_PENDING_ASSIGNMENT) if name == "c05" else name
        for name in RUNS
    ],
)
def test_each_issued_assignment_is_settled_exactly_once(name):
    pending: set[tuple[str, str]] = set()
    issued = 0
    for record in _records(name):
        kind = record["kind"]
        if kind not in ("assignment_issued", "assignment_returned", "assignment_timeout"):
            continue
        pair = (record["microtask"], record["agent"])
        if kind == "assignment_issued":
            assert pair not in pending, f"{pair} issued while still pending"
            pending.add(pair)
            issued += 1
        else:
            assert pair in pending, f"{pair} settled by {kind} without a pending issue"
            pending.remove(pair)
    assert not pending, f"never settled: {sorted(pending)}"
    assert issued


@pytest.mark.parametrize("name", RUNS)
def test_paid_votes_stay_within_the_wanted_votes(name):
    want: dict[str, int] = {}  # human votes wanted, while the microtask is human-routed
    returned: dict[str, list[int]] = {}
    rewards: dict[str, list[int]] = {}
    for record in _records(name):
        kind = record["kind"]
        microtask = record.get("microtask")
        if kind == "wtask_spawned":
            want[microtask] = record["w"]
        elif kind == "reroute":
            del want[microtask]
        elif kind == "escalated" and microtask in want:
            want[microtask] = record["want_votes"]
        elif kind == "assignment_issued":
            rewards.setdefault(microtask, []).append(record["reward"])
        elif kind == "assignment_returned":
            returned.setdefault(microtask, []).append(record["reward"])
            assert len(returned[microtask]) <= want[microtask]
    for microtask, paid in returned.items():
        assert sum(paid) <= want[microtask] * max(rewards[microtask])


@pytest.mark.parametrize("name", RUNS)
def test_no_answer_is_accepted_after_its_window(name):
    # The window ends at the node deadline or, with an assignment_window,
    # that long after the w-task's first issue if that comes sooner.  The
    # engine has no late-answer branch: the window's sweep, or the node's
    # last poll, times a pending assignment out before its return fires.
    window = None
    deadline: dict[str, int] = {}  # node -> deadline
    window_end: dict[str, int] = {}  # microtask -> last tick an answer is accepted
    returned = 0
    for record in _records(name):
        kind = record["kind"]
        if kind == "header":
            window = record["config"]["assignment_window"]
        elif kind == "node_start":
            deadline[record["node"]] = record["deadline"]
        elif kind == "assignment_issued" and record["microtask"] not in window_end:
            end = deadline[record["node"]]
            if window is not None:
                end = min(end, record["time"] + to_ticks(window))
            window_end[record["microtask"]] = end
        elif kind == "assignment_returned":
            assert record["time"] <= window_end[record["microtask"]], record
            returned += 1
    assert returned


@pytest.mark.parametrize("name", RUNS)
def test_no_machine_work_finishes_after_its_node_ended(name):
    # _finalize_node cancels the done events of its node's machine work, and
    # _dispatch_machines drops the node's work still queued
    ended: set[str] = set()
    for record in _records(name):
        if record["kind"] == "node_end":
            ended.add(record["node"])
        elif record["kind"] in ("machine_dispatched", "machine_done"):
            assert record["node"] not in ended, record
