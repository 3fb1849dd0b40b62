"""Each trace record kind is declared once, in `trace.RECORD_FIELDS`.

Every record of the invariant runs, of the random-graph corpus and of a run
that rejects answers has exactly its kind's fields, in the order the engine
writes them, then `time` and `kind`; together the runs reach every declared
kind and every place the engine writes one.  The summary reducer folds only
declared kinds.
"""

from slosim.runner import run
from slosim.scenario import load_scenario
from slosim.trace import RECORD_FIELDS, SummaryReducer

from conftest import SCENARIOS_DIR
from test_random_graphs import _runs
from test_trace_invariants import RUNS, _records


def _rejecting_run() -> list[dict]:
    """minimal.yaml with every answer "a" rejected: the only run here that
    reissues a freed slot, which it records as a reassign action."""
    scenario = load_scenario(SCENARIOS_DIR / "minimal.yaml")
    return run(scenario, reject=lambda microtask, agent, answer: answer == "a").records


def test_every_record_has_exactly_its_kinds_fields_in_emit_order():
    runs = [_records(name) for name in RUNS] + list(_runs()) + [_rejecting_run()]
    seen: set[str] = set()
    for records in runs:
        for record in records:
            kind = record["kind"]
            assert kind in RECORD_FIELDS, record
            assert list(record) == [*RECORD_FIELDS[kind], "time", "kind"], record
            seen.add(kind)
    assert seen == set(RECORD_FIELDS)


def test_the_reducer_folds_only_declared_kinds():
    folded = {name.removeprefix("_fold_") for name in vars(SummaryReducer) if name.startswith("_fold_")}
    assert folded and folded <= set(RECORD_FIELDS)
