"""Run traces: newline-delimited records, plus the summary reducer.

A trace is an append-only, time-ordered list of flat JSON records.  The
run summary is always computed by reducing trace records, so a summary
recomputed from a persisted trace equals the one produced live.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, IO, Iterable, Iterator

from .units import TICKS_PER_UNIT, to_money

TRACE_SCHEMA = 1


# One encoder and one decoder for every record: json.dumps with non-default
# arguments builds a new encoder per call, and json.loads rescans for
# whitespace that read_trace has already stripped.  Records are flat dicts,
# so the encoder skips the circular-reference check.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode
_raw_decode = json.JSONDecoder().raw_decode


def dump_record(record: dict[str, Any]) -> str:
    return _encode(record)


class TraceWriter:
    """Folds each record into the run summary and keeps the record: in the
    file when the writer has a path, in `records` when it has none."""

    def __init__(self, path: str | Path | None = None):
        self.reducer = SummaryReducer()
        self._stream: IO[str] | None = None
        self.path = Path(path) if path is not None else None
        self.records: list[dict[str, Any]] | None = [] if self.path is None else None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = open(self.path, "w", encoding="utf-8", newline="\n")

    def emit(self, time: int, kind: str, fields: dict[str, Any]) -> dict[str, Any]:
        """Record `fields` plus time and kind.  `fields` itself becomes the
        record, so callers pass a dict of their own and do not reuse it."""
        fields["time"] = time
        fields["kind"] = kind
        self.reducer.add(fields)
        if self._stream is not None:
            self._stream.write(dump_record(fields) + "\n")
        else:
            self.records.append(fields)
        return fields

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def iter_trace(path: str | Path) -> Iterator[dict[str, Any]]:
    """Yield the records of a trace file one at a time, in file order."""
    with open(path, "r", encoding="utf-8") as stream:
        for line_no, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record, end = _raw_decode(line)
                if end != len(line):
                    raise json.JSONDecodeError("Extra data", line, end)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: bad trace record: {exc}") from exc
            yield record


def read_trace(path: str | Path) -> list[dict[str, Any]]:
    return list(iter_trace(path))


# -- summary ----------------------------------------------------------------


@dataclass(frozen=True)
class SloVerdict:
    met: bool
    margin: float


@dataclass(frozen=True)
class NodeSummary:
    node_id: str
    microtask_count: int
    evaluated: int
    consensus: int
    no_consensus: int
    incomplete: int
    consensus_rate: float
    spend_micros: int
    finish_ticks: int
    accuracy: SloVerdict
    budget: SloVerdict
    time: SloVerdict
    actions: dict[str, int]


@dataclass(frozen=True)
class ClassStats:
    name: str
    assignments: int
    returned: int
    timed_out: int
    correct: int
    accuracy: float
    mean_service: float  # time units
    spend_micros: int


@dataclass(frozen=True)
class MachineStats:
    name: str
    items: int
    correct: int
    accuracy: float
    spend_micros: int


@dataclass(frozen=True)
class RunSummary:
    scenario: str
    seed: int
    microtask_total: int
    evaluated: int
    consensus: int
    incomplete: int
    consensus_rate: float
    completion_fraction: float
    spent_micros: int
    finish_ticks: int
    accuracy: SloVerdict
    budget: SloVerdict
    time: SloVerdict
    nodes: tuple[NodeSummary, ...]
    classes: tuple[ClassStats, ...]
    machines: tuple[MachineStats, ...]
    events: dict[str, int] = field(default_factory=dict)

    @property
    def spent(self) -> float:
        return to_money(self.spent_micros)

    @property
    def finish(self) -> float:
        return self.finish_ticks / TICKS_PER_UNIT

    def to_dict(self) -> dict[str, Any]:
        payload = asdict(self)
        payload["spent"] = self.spent
        payload["finish"] = self.finish
        return payload


class SummaryReducer:
    """Folds trace records into the run summary one at a time, so the live run
    and a trace file read back give the same summary by the same code."""

    def __init__(self) -> None:
        self._header: dict[str, Any] | None = None
        self._node_start: dict[str, dict[str, Any]] = {}
        self._node_end: dict[str, dict[str, Any]] = {}
        self._node_actions: dict[str, dict[str, int]] = {}
        self._results: dict[str, dict[str, int]] = {}
        self._class_agg: dict[str, dict[str, float]] = {}
        self._machine_agg: dict[str, dict[str, int]] = {}
        self._run_end: dict[str, Any] | None = None

    def add(self, record: dict[str, Any]) -> None:
        kind = record["kind"]
        if kind == "header":
            self._header = record
        elif kind == "node_start":
            self._node_start[record["node"]] = record
            self._results.setdefault(record["node"], {"consensus": 0, "no_consensus": 0})
        elif kind == "vote_result" and record["final"]:
            bucket = self._results.setdefault(record["node"], {"consensus": 0, "no_consensus": 0})
            if record["status"] == "consensus":
                bucket["consensus"] += 1
            else:
                bucket["no_consensus"] += 1
        elif kind == "action":
            counts = self._node_actions.setdefault(record["node"], {})
            counts[record["action"]] = counts.get(record["action"], 0) + 1
        elif kind == "node_end":
            self._node_end[record["node"]] = record
        elif kind == "assignment_issued":
            agg = _class_bucket(self._class_agg, record["cls"])
            agg["assignments"] += 1
        elif kind == "assignment_returned":
            agg = _class_bucket(self._class_agg, record["cls"])
            agg["returned"] += 1
            agg["correct"] += 1 if record["correct"] else 0
            agg["service_ticks"] += record["service"]
            agg["spend"] += record["reward"]
        elif kind == "assignment_timeout":
            agg = _class_bucket(self._class_agg, record["cls"])
            agg["timed_out"] += 1
        elif kind == "machine_done":
            agg = self._machine_agg.setdefault(record["profile"], {"items": 0, "correct": 0, "spend": 0})
            agg["items"] += 1
            agg["correct"] += 1 if record["correct"] else 0
            agg["spend"] += record["cost"]
        elif kind == "run_end":
            self._run_end = record

    def result(self) -> RunSummary:
        """The run summary of the records added so far."""
        if self._header is None:
            raise ValueError("trace has no header record")
        if self._run_end is None:
            raise ValueError("trace has no run_end record")

        nodes = []
        for node in sorted(self._node_start):
            n = self._node_start[node]["n"]
            end = self._node_end.get(node, {})
            agreed = self._results[node]["consensus"]
            disagreed = self._results[node]["no_consensus"]
            evaluated = agreed + disagreed
            incomplete = n - evaluated
            rate = agreed / evaluated if evaluated else 0.0
            finish = end.get("finish", self._run_end["time"])
            spend = end.get("spend", 0)
            nodes.append(
                NodeSummary(
                    node_id=node,
                    microtask_count=n,
                    evaluated=evaluated,
                    consensus=agreed,
                    no_consensus=disagreed,
                    incomplete=incomplete,
                    consensus_rate=rate,
                    spend_micros=spend,
                    finish_ticks=finish,
                    **_verdicts(self._node_start[node]["slo"], rate, spend, incomplete, finish),
                    actions=dict(sorted(self._node_actions.get(node, {}).items())),
                )
            )

        classes = []
        for name in sorted(self._class_agg):
            agg = self._class_agg[name]
            returned = int(agg["returned"])
            classes.append(
                ClassStats(
                    name=name,
                    assignments=int(agg["assignments"]),
                    returned=returned,
                    timed_out=int(agg["timed_out"]),
                    correct=int(agg["correct"]),
                    accuracy=(agg["correct"] / returned) if returned else 0.0,
                    mean_service=(agg["service_ticks"] / returned / TICKS_PER_UNIT) if returned else 0.0,
                    spend_micros=int(agg["spend"]),
                )
            )

        machines = []
        for name in sorted(self._machine_agg):
            agg = self._machine_agg[name]
            machines.append(
                MachineStats(
                    name=name,
                    items=agg["items"],
                    correct=agg["correct"],
                    accuracy=(agg["correct"] / agg["items"]) if agg["items"] else 0.0,
                    spend_micros=agg["spend"],
                )
            )

        total = sum(start["n"] for start in self._node_start.values())
        evaluated = sum(ns.evaluated for ns in nodes)
        agreed = sum(ns.consensus for ns in nodes)
        incomplete = total - evaluated
        rate = agreed / evaluated if evaluated else 0.0
        spent = self._run_end["spent"]
        finish = self._run_end["finish"]

        return RunSummary(
            scenario=self._header["scenario"],
            seed=self._header["seed"],
            microtask_total=total,
            evaluated=evaluated,
            consensus=agreed,
            incomplete=incomplete,
            consensus_rate=rate,
            completion_fraction=(evaluated / total) if total else 1.0,
            spent_micros=spent,
            finish_ticks=finish,
            **_verdicts(self._header["task_slo"], rate, spent, incomplete, finish),
            nodes=tuple(nodes),
            classes=tuple(classes),
            machines=tuple(machines),
            events=dict(self._run_end["events"]),
        )


def summarize(records: Iterable[dict[str, Any]]) -> RunSummary:
    """Fold trace records, live or parsed back from a file, into the run summary."""
    reducer = SummaryReducer()
    for record in records:
        reducer.add(record)
    return reducer.result()


def _verdicts(
    slo: dict[str, Any], rate: float, spend: int, incomplete: int, finish: int
) -> dict[str, SloVerdict]:
    """The accuracy, budget and time verdicts of a node or the task against its SLO."""
    return {
        "accuracy": SloVerdict(rate >= slo["accuracy"], rate - slo["accuracy"]),
        "budget": SloVerdict(spend <= slo["budget_micros"], to_money(slo["budget_micros"] - spend)),
        "time": SloVerdict(
            incomplete == 0 and finish <= slo["deadline_ticks"],
            (slo["deadline_ticks"] - finish) / TICKS_PER_UNIT,
        ),
    }


def _class_bucket(agg: dict[str, dict[str, float]], name: str) -> dict[str, float]:
    return agg.setdefault(
        name,
        {"assignments": 0, "returned": 0, "timed_out": 0, "correct": 0, "service_ticks": 0, "spend": 0},
    )
