import pytest

from slosim.reports import (
    ARRIVAL_COLUMNS,
    CLASS_COLUMNS,
    arrival_histogram,
    class_comparison,
    control_series,
    render,
    report,
)
from slosim.runner import run
from slosim.scenario import scenario_from_dict
from slosim.trace import summarize


@pytest.fixture
def records(scenario_dict):
    return run(scenario_from_dict(scenario_dict())).records


def test_class_comparison_shape(records):
    rows = class_comparison(summarize(records))
    names = [row["class"] for row in rows]
    assert "crowd" in names
    assert "machine:solver" in names
    for row in rows:
        assert set(CLASS_COLUMNS) <= set(row)


def test_arrival_histogram_has_mean(records):
    rows = arrival_histogram(records)
    crowd_rows = [r for r in rows if r["class"] == "crowd"]
    assert crowd_rows
    arrivals = sum(1 for r in records if r["kind"] == "worker_arrival")
    assert sum(r["count"] for r in crowd_rows) == arrivals
    mean = crowd_rows[0]["mean_interarrival"]
    assert mean > 0
    assert all(r["mean_interarrival"] == mean for r in crowd_rows)


def test_control_series_one_row_per_poll(records):
    rows = control_series(records)
    polls = [r for r in records if r["kind"] == "poll"]
    assert len(rows) == len(polls)


def test_render_csv_and_table(records):
    rows = class_comparison(summarize(records))
    csv_text = render(rows, CLASS_COLUMNS, "csv")
    assert csv_text.splitlines()[0] == ",".join(CLASS_COLUMNS)
    table_text = render(rows, CLASS_COLUMNS, "table")
    assert "class" in table_text.splitlines()[0]


def test_unknown_format_rejected(records):
    with pytest.raises(ValueError):
        render([], CLASS_COLUMNS, "parquet")
    with pytest.raises(ValueError):
        report(records, fmt="xml")


@pytest.mark.parametrize("table", [arrival_histogram, control_series])
def test_record_without_a_kind_is_a_bad_record(table):
    with pytest.raises(ValueError, match=r"^bad trace record: record has no field 'kind'$"):
        table([{}])
    with pytest.raises(ValueError, match=r"^bad trace record: record has a field of the wrong type: "):
        table([[1]])


def test_empty_trace_renders_well_formed():
    rows = arrival_histogram([])
    text = render(rows, ARRIVAL_COLUMNS, "csv")
    assert text == ",".join(ARRIVAL_COLUMNS) + "\n"


def test_histogram_recovers_calibrated_arrival_rate():
    # synthetic arrival records at the calibrated rate: the histogram mean
    # matches the reciprocal rate and bin counts decay like an exponential
    from slosim.agents import sample_interarrival
    from slosim.sim import seeded_rng
    from slosim.units import to_ticks

    rng = seeded_rng(5, "reports/arrivals")
    now = 0
    synthetic = []
    for _ in range(50_000):
        now += to_ticks(sample_interarrival(0.039084, rng))
        synthetic.append({"time": now, "kind": "worker_arrival", "cls": "amt"})
    rows = arrival_histogram(synthetic)
    assert rows[0]["mean_interarrival"] == pytest.approx(25.586, rel=0.02)
    counts = [r["count"] for r in rows]
    assert counts[0] > counts[len(counts) // 2] > counts[-1]


def test_report_bundle(records):
    rendered = report(records, fmt="csv")
    assert set(rendered) == {"classes", "arrivals", "control"}
    for text in rendered.values():
        assert text.endswith("\n")
