"""Golden traces: the trace file of each pinned run must stay byte for byte
what it is.  A refactor or speed-up of the engine keeps every digest; a PR
that changes behaviour on purpose updates them and says so.

Each pinned scenario runs twice, once keeping its records in memory and once
writing them to a file, to check the round trip between the two: the file
holds exactly `dump_record` of each in-memory record, one per line (the bytes
the benchmark hashes for its in-memory workloads), `read_trace` of the file
gives back those records, and both runs have the same summary.  The summary
and the report read from a one-shot `iter_trace` generator equal those read
from the `read_trace` list, so each reads its input in one pass.

The tests ending in `_on_the_json_path` check the same digests with orjson
blocked, so the reference codec and the fast path write the same bytes."""

import hashlib

import numpy as np
import pytest

from slosim.reports import report
from slosim.runner import run
from slosim.scenario import load_scenario, scenario_from_dict
from slosim.trace import dump_record, iter_trace, read_trace, summarize

from conftest import SCENARIOS_DIR
from test_acceptance import _random_budget_scenario

SHIPPED = {
    "minimal": "281ef642efe1f785989f0a954b054b0baf3a1c4fcd28bd3088372af3f38b9950",
    "pipeline": "4eba42d10f13d2569c3a4a67c50b1d8636519b4c5baf0f73ae7b6edc04a88b75",
    "starvation": "44f9f7b74fdb40ec0352ae932642e768b138a20331096c6404b0f4c8991e9b9e",
    "three_crowds": "a149ce8d72a39c9864b86cd38b7dd9ec990ff68fc66e4ec03070f0ac08939c4a",
}

# C05 scenario 29 at generator seed 424242: an assignment_window run whose
# idle pool grows past a thousand workers while picked w-tasks expire.
C05_INDEX = 29
C05_SHA256 = "1256cfc507a776a3aaee7fa6c7fa6b861bae2730321e965bfe0cbdfb8c27c7eb"


def _trace_sha256(scenario, path) -> str:
    in_memory = run(scenario)
    to_file = run(scenario, trace_path=path)
    assert to_file.records is None
    data = path.read_bytes()
    assert data == "".join(dump_record(r) + "\n" for r in in_memory.records).encode("utf-8")
    records = read_trace(path)
    assert records == in_memory.records
    assert to_file.summary == in_memory.summary == summarize(records) == summarize(iter_trace(path))
    assert report(iter_trace(path)) == report(records)
    return hashlib.sha256(data).hexdigest()


def _shipped_sha256(name, path) -> str:
    return _trace_sha256(load_scenario(SCENARIOS_DIR / f"{name}.yaml"), path)


def _c05_sha256(path) -> str:
    rng = np.random.default_rng(424242)
    raws = [_random_budget_scenario(rng) for _ in range(C05_INDEX + 1)]
    raw = raws[C05_INDEX]
    assert raw["controller"].get("assignment_window") is not None
    return _trace_sha256(scenario_from_dict(raw), path)


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_scenario_trace_is_golden(name, tmp_path):
    assert _shipped_sha256(name, tmp_path / "trace.jsonl") == SHIPPED[name]


def test_c05_assignment_window_trace_is_golden(tmp_path):
    assert _c05_sha256(tmp_path / "trace.jsonl") == C05_SHA256


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_scenario_trace_is_golden_on_the_json_path(name, tmp_path, reference_codec):
    assert _shipped_sha256(name, tmp_path / "trace.jsonl") == SHIPPED[name]


def test_c05_assignment_window_trace_is_golden_on_the_json_path(tmp_path, reference_codec):
    assert _c05_sha256(tmp_path / "trace.jsonl") == C05_SHA256
