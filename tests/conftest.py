from pathlib import Path

import pytest

import slosim.trace

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIOS_DIR = REPO_ROOT / "scenarios"


@pytest.fixture
def scenarios_dir() -> Path:
    return SCENARIOS_DIR


@pytest.fixture
def reference_codec(monkeypatch):
    """Encode and decode trace records on the json reference path only, as
    when orjson is not installed."""
    monkeypatch.setattr(slosim.trace, "orjson", None)


@pytest.fixture(params=["fast", "reference"])
def codec(request):
    """Run the test once on each trace codec path: the orjson fast path (when
    orjson is importable) and the json reference path."""
    if request.param == "fast":
        if slosim.trace.orjson is None:
            pytest.skip("orjson is not importable")
    else:
        request.getfixturevalue("reference_codec")
    return request.param


@pytest.fixture
def scenario_dict():
    """Factory for a small, valid raw scenario; callers override fields."""

    def build(**kwargs):
        raw = {
            "schema_version": 1,
            "name": "fixture",
            "seed": 5,
            "time_unit": "minute",
            "slo": {"accuracy_target": 0.6, "budget": 4.0, "deadline": 300},
            "controller": {
                "polling_intervals": 5,
                "initial_hm_ratio": 1.0,
                "replication_w": 3,
                "reward_per_assignment": 0.02,
            },
            "workflow": {
                "nodes": [
                    {
                        "id": "label",
                        "label": "Label items",
                        "agent_tag": "either",
                        "microtask_count": 20,
                        "answer_domain": ["a", "b", "c"],
                    }
                ],
                "edges": [],
            },
            "workers": [
                {
                    "name": "crowd",
                    "accuracy": 0.8,
                    "arrival_rate": 0.5,
                    "service_time": {"family": "exponential", "mean": 3.0},
                    "retention": 0.6,
                }
            ],
            "machines": [
                {
                    "name": "solver",
                    "accuracy": 0.7,
                    "service_time_per_item": 1.0,
                    "cost_per_item": 0.001,
                    "capacity": 2,
                }
            ],
        }
        raw.update(kwargs)
        return raw

    return build
