"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run pytest with -s to see them)."""

import hashlib
import itertools
import time
from collections import Counter

import numpy as np
import pytest

from slosim.agents import answer_microtask, invert_majority_accuracy, sample_interarrival
from slosim.controller import partition
from slosim.runner import run
from slosim.scenario import load_scenario, scenario_from_dict
from slosim.sim import seeded_rng
from slosim.trace import read_trace
from slosim.units import to_ticks
from slosim.voting import ConsensusStatus, VoteSet, majority_accuracy_analytic, majority_vote

from conftest import SCENARIOS_DIR

LABELS = ("l1", "l2", "l3", "l4", "l5", "l6")


def _verdict(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def _simulated_majority_accuracy(p: float, w: int, labels: tuple, trials: int, seed: int) -> float:
    rng = seeded_rng(seed, "acceptance/majority-sim")
    truth = labels[0]
    hits = 0
    for _ in range(trials):
        votes = tuple(answer_microtask(p, labels, truth, rng) for _ in range(w))
        result = majority_vote(VoteSet("mt", votes, labels))
        if result.status is ConsensusStatus.CONSENSUS and result.decision == truth:
            hits += 1
    return hits / trials


def test_c01_voting_oracle_equivalence():
    """majority_vote matches brute force on every vote sequence of size <= 5
    over <= 6 labels (exact, ~10^4 cases, under 10 s)."""
    started = time.time()
    cases = 0
    for size in range(0, 6):
        for combo in itertools.product(LABELS, repeat=size):
            cases += 1
            got = majority_vote(VoteSet("mt", combo, LABELS))
            counts = Counter(combo)
            expected = None
            if combo:
                top, top_count = counts.most_common(1)[0]
                if top_count * 2 > len(combo):
                    expected = top
            if got.decision != expected:
                _verdict(1, False, f"mismatch on {combo}: {got.decision} != {expected}")
    elapsed = time.time() - started
    _verdict(1, elapsed < 10, f"{cases} vote sequences match the strict-majority oracle ({elapsed:.1f}s)")


def test_c02_analytic_vs_simulated_amplification():
    """Simulated 3-vote majority accuracy at p=0.55 lands on the enumeration
    oracle value 0.57475 within 0.01."""
    started = time.time()
    oracle = majority_accuracy_analytic(0.55, 3, 2)
    assert oracle == pytest.approx(0.57475, abs=1e-9)
    simulated = _simulated_majority_accuracy(0.55, 3, ("a", "b"), trials=100_000, seed=101)
    elapsed = time.time() - started
    ok = abs(simulated - oracle) <= 0.01 and elapsed < 60
    _verdict(2, ok, f"simulated {simulated:.4f} vs oracle {oracle:.5f} ({elapsed:.1f}s)")


def test_c03_calibration_round_trip():
    """Inverting an observed 0.572 3-vote accuracy gives p within 0.549+-0.001,
    and forward simulation with that p reproduces 0.572 within 0.01."""
    p = invert_majority_accuracy(0.572, 3, 2)
    ok_p = abs(p - 0.549) <= 0.001
    simulated = _simulated_majority_accuracy(p, 3, ("a", "b"), trials=100_000, seed=202)
    ok_sim = abs(simulated - 0.572) <= 0.01
    _verdict(3, ok_p and ok_sim, f"inverted p={p:.4f}, forward simulation {simulated:.4f}")


def test_c04_poisson_arrival_fidelity():
    """1e5 inter-arrivals at rate 0.039084: mean within 1% of 25.586 and
    coefficient of variation 1.0 +- 0.02 (exponentiality)."""
    started = time.time()
    rng = seeded_rng(303, "acceptance/arrivals")
    samples = np.array([sample_interarrival(0.039084, rng) for _ in range(100_000)])
    mean = samples.mean()
    cov = samples.std() / mean
    elapsed = time.time() - started
    ok = abs(mean - 25.586) / 25.586 <= 0.01 and abs(cov - 1.0) <= 0.02 and elapsed < 10
    _verdict(4, ok, f"mean {mean:.3f} (target 25.586), CoV {cov:.4f} ({elapsed:.1f}s)")


def _random_budget_scenario(rng) -> dict:
    n = int(rng.integers(1, 501))
    raw = {
        "schema_version": 1,
        "name": "budget-fuzz",
        "seed": int(rng.integers(0, 2**31)),
        "time_unit": "minute",
        "slo": {
            "accuracy_target": float(rng.uniform(0.3, 0.9)),
            "budget": float(round(rng.uniform(0.05, 6.0), 2)),
            "deadline": float(rng.integers(20, 61)),
        },
        "controller": {
            "polling_intervals": int(rng.integers(1, 21)),
            "initial_hm_ratio": float(round(rng.uniform(0.0, 8.0), 3)),
            "replication_w": int(rng.choice([1, 3, 5])),
            "reward_per_assignment": float(round(rng.uniform(0.005, 0.05), 3)),
            "machine_replication": int(rng.choice([1, 1, 1, 2])),
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
                "cost_per_item": float(round(rng.uniform(0.0, 0.01), 4)),
                "capacity": int(rng.integers(1, 9)),
            }
        ],
    }
    if rng.random() < 0.3:
        raw["controller"]["assignment_window"] = float(round(rng.uniform(0.5, 5.0), 2))
    if rng.random() < 0.25:
        raw["script"] = [
            {
                "at": float(rng.integers(1, 15)),
                "action": "set_arrival_rate",
                "worker_class": "crowd",
                "rate": float(rng.choice([0.0, 1.5])),
            }
        ]
    return raw


def test_c05_budget_invariant_fuzzing():
    """1000 randomized scenarios: spent + committed never exceeds the budget
    at any trace event, and spend is monotone."""
    rng = np.random.default_rng(424242)
    violations = 0
    runs = 1000
    for _ in range(runs):
        result = run(scenario_from_dict(_random_budget_scenario(rng)))
        budget = result.records[0]["task_slo"]["budget_micros"]
        last_spent = 0
        for record in result.records:
            if "spent" in record:
                if record["spent"] + record["committed"] > budget:
                    violations += 1
                if record["spent"] < last_spent:
                    violations += 1
                last_spent = record["spent"]
        final = result.summary
        if final.spent_micros > budget:
            violations += 1
    _verdict(5, violations == 0, f"{runs} randomized runs, {violations} ledger violations")


def test_c06_determinism(tmp_path):
    """Same (scenario, seed) twice gives byte-identical traces; a different
    seed changes the body but not the header schema."""
    scenario = load_scenario(SCENARIOS_DIR / "minimal.yaml")
    run(scenario, trace_path=tmp_path / "a.jsonl")
    run(scenario, trace_path=tmp_path / "b.jsonl")
    run(scenario, seed=scenario.seed + 1, trace_path=tmp_path / "c.jsonl")
    digest = lambda p: hashlib.sha256(p.read_bytes()).hexdigest()
    identical = digest(tmp_path / "a.jsonl") == digest(tmp_path / "b.jsonl")
    body_a = (tmp_path / "a.jsonl").read_text().splitlines()[1:]
    body_c = (tmp_path / "c.jsonl").read_text().splitlines()[1:]
    header_a = read_trace(tmp_path / "a.jsonl")[0]
    header_c = read_trace(tmp_path / "c.jsonl")[0]
    ok = identical and body_a != body_c and set(header_a) == set(header_c)
    _verdict(6, ok, "byte-identical replay; different seed varies body only")


def test_c07_partition_property():
    """Partition identity on 1e4 random inputs plus the pinned edge cases."""
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(10_000):
        n = int(rng.integers(0, 10_000))
        ratio = float(rng.uniform(0.0, 50.0))
        n_human, n_machine = partition(n, ratio)
        if n_human + n_machine != n or n_human < 0 or n_machine < 0:
            ok = False
            break
        if ratio == 0.0 and n_human != 0:
            ok = False
            break
    ok = ok and partition(100, 0.0) == (0, 100)
    ok = ok and partition(100, 1e6) == (100, 0)
    ok = ok and partition(300, 2.0) == (200, 100)
    _verdict(7, ok, "n_h + n_m == n on 10^4 draws; edge ratios pinned")


def test_c08_controller_intervention():
    """Scripted starvation: the managed run shifts work to machine agents and
    completes >= 99%; the unmanaged baseline strands > 50%."""
    started = time.time()
    managed = run(load_scenario(SCENARIOS_DIR / "starvation.yaml"))
    baseline = run(
        load_scenario(
            SCENARIOS_DIR / "starvation.yaml",
            overrides=["controller.corrections_enabled=false"],
        )
    )
    elapsed = time.time() - started
    managed_frac = managed.summary.completion_fraction
    baseline_frac = baseline.summary.completion_fraction
    rerouted = any(r["kind"] == "reroute" for r in managed.records)
    ok = managed_frac >= 0.99 and baseline_frac < 0.50 and rerouted and elapsed < 60
    _verdict(
        8,
        ok,
        f"managed {managed_frac:.3f} vs baseline {baseline_frac:.3f} ({elapsed:.1f}s)",
    )


@pytest.mark.parametrize("k", [1, 5, 20])
def test_c09_polling_schedule(k, scenario_dict):
    """Exactly K poll records, equally spaced, the last at the deadline."""
    raw = scenario_dict()
    raw["controller"]["polling_intervals"] = k
    raw["workers"][0]["arrival_rate"] = 0.001  # keep the node busy to the end
    raw["workflow"]["nodes"][0]["agent_tag"] = "human_only"
    raw["slo"]["deadline"] = 300
    result = run(scenario_from_dict(raw))
    polls = [r for r in result.records if r["kind"] == "poll"]
    times = [p["time"] for p in polls]
    gaps = {b - a for a, b in zip([0] + times[:-1], times)}
    ok = len(polls) == k and times[-1] == to_ticks(300.0) and len(gaps) == 1
    _verdict(9, ok, f"K={k}: {len(polls)} polls, last at deadline, uniform spacing")


def test_c10_desk_scale_reproduction(tmp_path):
    """Bundled three-crowds scenario: 1000 six-way microtasks, w=3 at $0.02
    against a $60 budget; spend stays at or under 60.00 exactly and the
    class-comparison table carries all three crowd rows."""
    from slosim.reports import class_comparison

    started = time.time()
    scenario = load_scenario(SCENARIOS_DIR / "three_crowds.yaml")
    result = run(scenario, trace_path=tmp_path / "trace.jsonl")
    elapsed = time.time() - started
    summary = result.summary
    rows = class_comparison(summary)
    crowd_rows = [row for row in rows if not row["class"].startswith("machine:")]
    ok = (
        summary.spent_micros <= 60_000_000
        and summary.microtask_total == 1000
        and len(crowd_rows) == 3
        and all(row["assignments"] > 0 for row in crowd_rows)
        and elapsed < 120
    )
    _verdict(
        10,
        ok,
        f"spend {summary.spent_micros / 1e6:.2f} <= 60.00, "
        f"{len(crowd_rows)} crowd rows, evaluated {summary.evaluated}/1000 ({elapsed:.1f}s)",
    )
