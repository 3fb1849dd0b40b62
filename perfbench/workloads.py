"""Input generators for the three benchmark workloads.

slosim only ever sees the scenario files written here.  Each generator is a
pure function of the bench seed, so the same seed gives the same files.  The
base scenarios are copies of `scenarios/three_crowds.yaml` and
`scenarios/starvation.yaml`, and the fuzz generator is a copy of the C05
generator in `tests/test_acceptance.py`, so that editing a shipped scenario
or a test never changes what the benchmark measures.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

# crowd_scale: CROWD_RUNS runs of n microtasks per pass, at the fixed sim
# seeds 20 (three_crowds' own) to 20 + CROWD_RUNS - 1.  The host time of one
# run is heavy-tailed in its sim seed (about 1 seed in 30 exhausts the budget
# and costs 4x), so seed-drawn inputs would swing a pass by up to 40%; the
# bench seed only permutes the run order.
CROWD_N = 1000
CROWD_RUNS = 4
# machine_backlog: BACKLOG_RUNS runs of n microtasks per pass, at the fixed sim
# seeds 11 (starvation's own) to 11 + BACKLOG_RUNS - 1; the bench seed only
# permutes the run order.
BACKLOG_N = 10_000
BACKLOG_RUNS = 2
# fuzz_corpus: the first FUZZ_N scenarios of C05, sim seeds included; the
# bench seed only permutes the run order.  Indices 24 and 29 are the heavy
# tail (assignment_window with a large idle pool) and take most of a pass.
FUZZ_N = 100
FUZZ_GENERATOR_SEED = 424242
# sha256 of the canonical JSON of the first FUZZ_N scenarios that
# tests/test_acceptance.py::_random_budget_scenario draws at seed 424242.
C05_PREFIX_SHA256 = "c11ce66587ceb5b4369c9a6855fbec60bd462ba29e5caa62631a4b7ea2cb128b"

THREE_CROWDS = {
    "schema_version": 1,
    "name": "three_crowds",
    "seed": 20,
    "time_unit": "minute",
    "slo": {"accuracy_target": 0.7, "budget": 60.0, "deadline": 25000},
    "controller": {
        "polling_intervals": 10,
        "initial_hm_ratio": 1.0,
        "replication_w": 3,
        "reward_per_assignment": 0.02,
    },
    "workflow": {
        "nodes": [
            {
                "id": "intent",
                "label": "Categorize intent",
                "agent_tag": "human_only",
                "microtask_count": 1000,
                "answer_domain": ["c1", "c2", "c3", "c4", "c5", "c6"],
            }
        ],
        "edges": [],
    },
    "workers": [
        {
            "name": "expert",
            "accuracy": 0.824,
            "arrival_rate": 0.012,
            "service_time": {"family": "lognormal", "median": 30.0, "sigma": 0.8},
            "retention": 0.7,
        },
        {
            "name": "untrained",
            "accuracy": 0.548,
            "arrival_rate": 0.039084,
            "service_time": {"family": "lognormal", "median": 8.0, "sigma": 0.8},
            "retention": 0.5,
        },
        {
            "name": "qualified",
            "accuracy": 0.716,
            "arrival_rate": 0.024,
            "service_time": {"family": "lognormal", "median": 15.0, "sigma": 0.8},
            "retention": 0.6,
        },
    ],
    "machines": [
        {
            "name": "text-classifier",
            "accuracy": 0.672,
            "service_time_per_item": 0.5,
            "cost_per_item": 0.002,
            "capacity": 4,
        }
    ],
}

STARVATION = {
    "schema_version": 1,
    "name": "starvation",
    "seed": 11,
    "time_unit": "minute",
    "slo": {"accuracy_target": 0.5, "budget": 20.0, "deadline": 1000},
    "controller": {
        "polling_intervals": 10,
        "initial_hm_ratio": 4.0,
        "replication_w": 3,
        "reward_per_assignment": 0.02,
        "ewma_alpha": 0.5,
        "incentive_step": 1.25,
        "hm_ratio_decay": 0.05,
    },
    "workflow": {
        "nodes": [
            {
                "id": "label",
                "label": "Label items",
                "agent_tag": "either",
                "microtask_count": 200,
                "answer_domain": ["pos", "neg", "neutral"],
            }
        ],
        "edges": [],
    },
    "workers": [
        {
            "name": "field",
            "accuracy": 0.8,
            "arrival_rate": 0.15,
            "service_time": {"family": "lognormal", "median": 5.0, "sigma": 0.4},
            "retention": 0.6,
        }
    ],
    "machines": [
        {
            "name": "batcher",
            "accuracy": 0.75,
            "service_time_per_item": 2.0,
            "cost_per_item": 0.0,
            "capacity": 4,
        }
    ],
    "script": [{"at": 200, "action": "set_arrival_rate", "worker_class": "field", "rate": 0.0}],
}


@dataclass(frozen=True)
class Input:
    """One generated scenario file; `index` orders digests independently of run order."""

    index: int
    label: str
    path: Path


@dataclass(frozen=True)
class Workload:
    name: str
    via_cli: bool  # True: slosim.cli.main run + report to files; False: in memory
    inputs: tuple[Input, ...]


def crowd_scale(n: int, seed: int) -> dict:
    """three_crowds as one human_only node of n microtasks.

    Budget and every class arrival rate scale with n while the deadline stays
    at 25000, so expected worker arrivals grow as n, not n^2.
    """
    raw = copy.deepcopy(THREE_CROWDS)
    scale = n / 1000
    raw["name"] = f"crowd_scale-{n}"
    raw["seed"] = seed
    raw["slo"]["budget"] = 60.0 * scale
    raw["workflow"]["nodes"][0]["microtask_count"] = n
    for worker in raw["workers"]:
        worker["arrival_rate"] = worker["arrival_rate"] * scale
    return raw


def machine_backlog(n: int, seed: int) -> dict:
    """starvation with n microtasks; budget and machine capacity scale with n.

    Worker supply is not scaled and still collapses at t=200, so ~30 workers
    arrive whatever n is and the controller reroutes the backlog to machines.
    """
    raw = copy.deepcopy(STARVATION)
    scale = n / 200
    raw["name"] = f"machine_backlog-{n}"
    raw["seed"] = seed
    raw["slo"]["budget"] = 20.0 * scale
    raw["workflow"]["nodes"][0]["microtask_count"] = n
    raw["machines"][0]["capacity"] = round(4 * scale)
    return raw


def random_budget_scenario(rng: np.random.Generator) -> dict:
    """Copy of the C05 generator; must stay draw-for-draw identical to it."""
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


def fuzz_corpus(count: int) -> list[dict]:
    rng = np.random.default_rng(FUZZ_GENERATOR_SEED)
    return [random_budget_scenario(rng) for _ in range(count)]


def canonical_sha256(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def expected_worker_arrivals(raw: dict) -> float:
    """Sum over classes of rate x the time the class is supplied."""
    deadline = float(raw["slo"]["deadline"])
    total = 0.0
    for worker in raw["workers"]:
        until = deadline
        for event in raw.get("script", []):
            if event["worker_class"] == worker["name"] and event["rate"] == 0.0:
                until = min(until, float(event["at"]))
        total += worker["arrival_rate"] * until
    return total


def self_check() -> list[str]:
    """Problems with the generators; empty when they behave as documented."""
    problems = []
    ladder = (CROWD_N // 2, CROWD_N, CROWD_N * 2)
    per_n = [expected_worker_arrivals(crowd_scale(n, 0)) / n for n in ladder]
    budget_per_n = [crowd_scale(n, 0)["slo"]["budget"] / n for n in ladder]
    if max(per_n) - min(per_n) > 1e-9 * per_n[0] or max(budget_per_n) - min(budget_per_n) > 1e-12:
        problems.append(f"crowd_scale arrivals or budget not linear in n: {per_n} {budget_per_n}")

    ladder = (BACKLOG_N // 2, BACKLOG_N, BACKLOG_N * 2)
    arrivals = [expected_worker_arrivals(machine_backlog(n, 0)) for n in ladder]
    machine_rate = []
    for n in ladder:
        machine = machine_backlog(n, 0)["machines"][0]
        machine_rate.append(machine["capacity"] / machine["service_time_per_item"] / n)
    if max(arrivals) - min(arrivals) > 1e-9 or max(machine_rate) - min(machine_rate) > 1e-12:
        problems.append(
            f"machine_backlog: worker arrivals {arrivals} should be fixed and machine "
            f"throughput per microtask {machine_rate} constant"
        )

    corpus = fuzz_corpus(FUZZ_N)
    if canonical_sha256(corpus) != C05_PREFIX_SHA256:
        problems.append("fuzz_corpus no longer reproduces the first C05 scenarios")
    return problems


def _write(raw: dict, path: Path) -> None:
    text = yaml.safe_dump(raw, sort_keys=False)
    if yaml.safe_load(text) != raw:
        raise ValueError(f"scenario does not survive the YAML round trip: {path.name}")
    path.write_text(text, encoding="utf-8")


def build(name: str, bench_seed: int, directory: Path) -> Workload:
    """Write the workload's scenario files for this seed, in run order."""
    directory.mkdir(parents=True, exist_ok=True)
    if name == "crowd_scale":
        raws = [crowd_scale(CROWD_N, THREE_CROWDS["seed"] + i) for i in range(CROWD_RUNS)]
    elif name == "machine_backlog":
        raws = [machine_backlog(BACKLOG_N, STARVATION["seed"] + i) for i in range(BACKLOG_RUNS)]
    elif name == "fuzz_corpus":
        raws = fuzz_corpus(FUZZ_N)
    else:
        raise ValueError(f"unknown workload {name!r}")
    # The inputs are fixed: the bench seed only shuffles the run order, which
    # must not change any trace.
    order = list(range(len(raws)))
    random.Random(f"{name}:{bench_seed}").shuffle(order)
    inputs = []
    for index in order:
        path = directory / f"{name}-{index:03d}.yaml"
        _write(raws[index], path)
        inputs.append(Input(index=index, label=f"{name}[{index}] seed={raws[index]['seed']}", path=path))
    return Workload(name=name, via_cli=name == "machine_backlog", inputs=tuple(inputs))


WORKLOADS = ("crowd_scale", "machine_backlog", "fuzz_corpus")
