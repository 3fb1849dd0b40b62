"""The paper's central claim: SLO management does no worse than running
unmanaged.

Each shipped scenario runs at seeds 1-30 in memory, once as shipped and once
with corrective actions off.  Random streams are named by worker class and
machine profile, so the two runs of a seed share their draws until the first
corrective action: the comparison is paired seed by seed (common random
numbers), not two independent samples.
"""

import dataclasses
import functools

import pytest

from slosim.runner import run
from slosim.scenario import Scenario, load_scenario
from slosim.trace import RunSummary

from conftest import SCENARIOS_DIR

SEEDS = range(1, 31)
NAMES = sorted(path.stem for path in SCENARIOS_DIR.glob("*.yaml"))

# ROADMAP item 7: at three_crowds seeds 7 and 19 the first poll raises the
# reward for good, the node exhausts its budget and stalls, and both seeds
# miss the time SLO that they meet with corrections off.
RAISE_STALLS = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 7: a raise leaves the budget unable to finish the node"
)
TIME_CASES = [pytest.param(name, marks=RAISE_STALLS) if name == "three_crowds" else name for name in NAMES]


@functools.cache
def _scenario(name: str) -> Scenario:
    return load_scenario(SCENARIOS_DIR / f"{name}.yaml")


@functools.cache
def _summaries(name: str, managed: bool) -> tuple[RunSummary, ...]:
    scenario = _scenario(name)
    if not managed:
        controller = dataclasses.replace(scenario.controller, corrections_enabled=False)
        scenario = dataclasses.replace(scenario, controller=controller)
    return tuple(run(scenario, seed=seed).summary for seed in SEEDS)


@pytest.mark.parametrize("name", NAMES)
def test_managed_runs_meet_accuracy_and_budget(name):
    missed = [
        seed
        for seed, summary in zip(SEEDS, _summaries(name, True))
        if not (summary.accuracy.met and summary.budget.met)
    ]
    assert missed == []


@pytest.mark.parametrize("name", TIME_CASES)
def test_managed_runs_meet_time_on_as_many_seeds(name):
    managed = sum(summary.time.met for summary in _summaries(name, True))
    unmanaged = sum(summary.time.met for summary in _summaries(name, False))
    assert managed >= unmanaged


@pytest.mark.parametrize("name", TIME_CASES)
def test_no_seed_meets_time_only_unmanaged(name):
    pairs = zip(SEEDS, _summaries(name, True), _summaries(name, False))
    harmed = [seed for seed, managed, unmanaged in pairs if unmanaged.time.met and not managed.time.met]
    assert harmed == []


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 8: a starved, partly voted w-task waits for the deadline",
)
def test_most_managed_starvation_runs_end_before_the_deadline():
    # today 1 of 30 seeds ends before t=1000: one w-task holding some human
    # votes waits for a worker who never comes, and is decided at the deadline
    deadline = _scenario("starvation").slo.deadline
    early = sum(summary.finish < deadline for summary in _summaries("starvation", True))
    assert early > len(SEEDS) // 2
