"""Rendered outputs: per-class comparison, arrival histogram, control series.

All three render to delimited tabular text (csv) or aligned text (table)
with a stable column order, suitable for external plotting.
"""

from __future__ import annotations

import csv
import io
from typing import Any, Iterable

from .trace import RunSummary, SummaryReducer, bad_record
from .units import TICKS_PER_UNIT, to_money

FORMATS = ("table", "csv")

CLASS_COLUMNS = ["class", "assignments", "returned", "timed_out", "accuracy", "mean_service", "spend"]
ARRIVAL_COLUMNS = ["class", "bin_start", "bin_end", "count", "mean_interarrival"]
CONTROL_COLUMNS = ["time", "node", "poll", "hm_ratio", "completion_rate", "evaluated", "consensus_rate", "risks"]
DEFAULT_BINS = 20


def class_comparison(summary: RunSummary) -> list[dict[str, Any]]:
    """One row per agent class: quality, speed and cost side by side."""
    rows = []
    for stats in summary.classes:
        rows.append(
            {
                "class": stats.name,
                "assignments": stats.assignments,
                "returned": stats.returned,
                "timed_out": stats.timed_out,
                "accuracy": round(stats.accuracy, 6),
                "mean_service": round(stats.mean_service, 6),
                "spend": to_money(stats.spend_micros),
            }
        )
    for stats in summary.machines:
        rows.append(
            {
                "class": f"machine:{stats.name}",
                "assignments": stats.items,
                "returned": stats.items,
                "timed_out": 0,
                "accuracy": round(stats.accuracy, 6),
                "mean_service": "",
                "spend": to_money(stats.spend_micros),
            }
        )
    return rows


def arrival_histogram(records: Iterable[dict[str, Any]], bins: int = DEFAULT_BINS) -> list[dict[str, Any]]:
    """Inter-arrival histogram per worker class, from worker_arrival records."""
    arrivals: dict[str, list[int]] = {}
    for record in records:
        if record["kind"] == "worker_arrival":
            try:
                arrivals.setdefault(record["cls"], []).append(record["time"])
            except (KeyError, TypeError) as exc:
                raise bad_record(record, exc) from exc

    rows = []
    for cls in sorted(arrivals):
        times = arrivals[cls]
        gaps = [
            (t2 - t1) / TICKS_PER_UNIT
            for t1, t2 in zip([0] + times[:-1], times)
        ]
        if not gaps:
            continue
        mean = sum(gaps) / len(gaps)
        top = max(gaps)
        width = top / bins if top > 0 else 1.0
        counts = [0] * bins
        for gap in gaps:
            index = min(int(gap / width), bins - 1) if width > 0 else 0
            counts[index] += 1
        for i, count in enumerate(counts):
            rows.append(
                {
                    "class": cls,
                    "bin_start": round(i * width, 6),
                    "bin_end": round((i + 1) * width, 6),
                    "count": count,
                    "mean_interarrival": round(mean, 6),
                }
            )
    return rows


def control_series(records: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """Per-poll controller snapshot: routing ratio, completion rate, risks."""
    rows = []
    for record in records:
        if record["kind"] != "poll":
            continue
        try:
            rows.append(
                {
                    "time": record["time"] / TICKS_PER_UNIT,
                    "node": record["node"],
                    "poll": record["index"],
                    "hm_ratio": record["hm_ratio"],
                    "completion_rate": record["completion_rate"],
                    "evaluated": record["evaluated"],
                    "consensus_rate": record["consensus_rate"],
                    "risks": "|".join(record["risks"]),
                }
            )
        except (KeyError, TypeError) as exc:
            raise bad_record(record, exc) from exc
    return rows


def render(rows: list[dict[str, Any]], columns: list[str], fmt: str) -> str:
    """Render rows as csv or an aligned text table; empty input stays well formed."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({col: row.get(col, "") for col in columns})
        return buffer.getvalue()

    cells = [[str(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in cells)) if cells else len(col)
        for i, col in enumerate(columns)
    ]
    lines = ["  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))]
    for line in cells:
        lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines) + "\n"


def report(records: Iterable[dict[str, Any]], fmt: str = "table") -> dict[str, str]:
    """All three report artifacts rendered from one pass over a trace."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    reducer = SummaryReducer()
    plotted = []
    for record in records:
        reducer.add(record)
        if record["kind"] in ("worker_arrival", "poll"):
            plotted.append(record)
    return {
        "classes": render(class_comparison(reducer.result()), CLASS_COLUMNS, fmt),
        "arrivals": render(arrival_histogram(plotted), ARRIVAL_COLUMNS, fmt),
        "control": render(control_series(plotted), CONTROL_COLUMNS, fmt),
    }
