"""Run traces: newline-delimited records, plus the summary reducer.

A trace is an append-only, time-ordered list of JSON records, one object
per line.  The run summary is always computed by reducing trace records, so
a summary recomputed from a persisted trace equals the one produced live.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, IO, Iterable, Iterator

from .units import TICKS_PER_UNIT, to_money

try:
    import orjson
except ImportError:  # the optional `fast` extra; the json path below is the reference
    orjson = None

TRACE_SCHEMA = 1


# The reference codec: one encoder and one decoder for every record.
# json.dumps with non-default arguments builds a new encoder per call, and
# json.loads rescans for whitespace that iter_trace has already stripped.  A
# record's values are scalars or small acyclic containers, so the encoder
# skips the circular-reference check.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode
_raw_decode = json.JSONDecoder().raw_decode

# orjson writes the same bytes as `_encode` for a record whose values are all
# str, int, bool, None or float, provided each float is 0.0 or in [1e-4, 1e16)
# in absolute value (outside it repr uses exponent notation and orjson does
# not) and the output is printable ASCII (`_encode` escapes non-ASCII text and
# DEL, orjson writes them raw).  orjson raises TypeError on ints beyond 64
# bits, non-str keys and lone surrogates.  Containers are not checked, so a
# record holding one takes the reference path.
def dump_record(record: dict[str, Any]) -> str:
    """The canonical line of a record: sorted keys, no spaces, ASCII only."""
    if orjson is not None:
        for value in record.values():
            kind = type(value)
            if kind is str or kind is int:
                continue
            if kind is float:
                if not (1e-4 <= abs(value) < 1e16 or value == 0.0):
                    break
            elif kind is not bool and value is not None:
                break
        else:
            try:
                line = orjson.dumps(record, option=orjson.OPT_SORT_KEYS).decode()
            except TypeError:
                pass
            else:
                if line.isascii() and "\x7f" not in line:
                    return line
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
    """Yield the records of a trace file one at a time, in file order.

    A line that is not UTF-8, or not one JSON object with a "kind", raises
    ValueError naming the file and line."""
    loads = orjson.loads if orjson is not None else None
    # A byte that is not UTF-8 reads as a lone surrogate instead of failing
    # the read of the whole buffer, so the error below can name its line.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as stream:
        for line_no, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            record = None
            if loads is not None:
                # orjson rejects NaN, infinities and lone surrogates, which
                # json reads, and reads an int beyond 64 bits as a float.  The
                # json decoder reads again a line orjson rejects, a value that
                # is not an object and an object holding a float that large or
                # a container, which is not checked here.
                try:
                    record = loads(line)
                except orjson.JSONDecodeError:
                    pass
                if type(record) is dict:
                    for value in record.values():
                        kind = type(value)
                        if kind is float:
                            if abs(value) < 2**63:
                                continue
                        elif kind is not dict and kind is not list:
                            continue
                        record = None
                        break
                else:
                    record = None
            if record is None:
                try:
                    if not line.isascii():
                        # orjson rejects lone surrogates and json reads them, so
                        # decode the line's bytes again to raise for a bad one
                        line.encode("utf-8", "surrogateescape").decode("utf-8")
                    record, end = _raw_decode(line)
                    if end != len(line):
                        raise json.JSONDecodeError("Extra data", line, end)
                except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                    raise ValueError(f"{path}:{line_no}: bad trace record: {exc}") from exc
            if type(record) is not dict or "kind" not in record:
                raise ValueError(f"{path}:{line_no}: bad trace record: not an object with a 'kind'")
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
        data = asdict(self)
        data["spent"] = self.spent
        data["finish"] = self.finish
        return data


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
        """Fold one record in.  A record that lacks a field its kind needs, or
        holds one of the wrong type, raises ValueError naming its kind; the
        header, node_start and run_end records are kept whole and read by
        `result`, which checks them the same way."""
        kind = record["kind"]
        try:
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
        except (KeyError, TypeError) as exc:
            raise bad_record(record, exc) from exc

    def result(self) -> RunSummary:
        """The run summary of the records added so far."""
        if self._header is None:
            raise ValueError("trace has no header record")
        if self._run_end is None:
            raise ValueError("trace has no run_end record")

        scenario, seed, task_slo = _read(
            self._header, lambda r: (r["scenario"], r["seed"], _slo(r["task_slo"]))
        )
        end_time, spent, finish, events = _read(
            self._run_end, lambda r: (r["time"], r["spent"], r["finish"], dict(r["events"]))
        )
        starts = {
            node: _read(record, lambda r: (r["n"], _slo(r["slo"])))
            for node, record in self._node_start.items()
        }
        nodes = []
        for node in sorted(starts):
            n, slo = starts[node]
            end = self._node_end.get(node, {})
            agreed = self._results[node]["consensus"]
            disagreed = self._results[node]["no_consensus"]
            evaluated = agreed + disagreed
            incomplete = n - evaluated
            rate = agreed / evaluated if evaluated else 0.0
            node_finish = end.get("finish", end_time)
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
                    finish_ticks=node_finish,
                    **_verdicts(slo, rate, spend, incomplete, node_finish),
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

        total = sum(n for n, _ in starts.values())
        evaluated = sum(ns.evaluated for ns in nodes)
        agreed = sum(ns.consensus for ns in nodes)
        incomplete = total - evaluated
        rate = agreed / evaluated if evaluated else 0.0

        return RunSummary(
            scenario=scenario,
            seed=seed,
            microtask_total=total,
            evaluated=evaluated,
            consensus=agreed,
            incomplete=incomplete,
            consensus_rate=rate,
            completion_fraction=(evaluated / total) if total else 1.0,
            spent_micros=spent,
            finish_ticks=finish,
            **_verdicts(task_slo, rate, spent, incomplete, finish),
            nodes=tuple(nodes),
            classes=tuple(classes),
            machines=tuple(machines),
            events=events,
        )


def summarize(records: Iterable[dict[str, Any]]) -> RunSummary:
    """Fold trace records, live or parsed back from a file, into the run summary."""
    reducer = SummaryReducer()
    for record in records:
        reducer.add(record)
    return reducer.result()


def bad_record(record: dict[str, Any], exc: Exception) -> ValueError:
    """The error for a record that lacks a field its kind needs (`exc` is a
    KeyError) or holds a value of the wrong type."""
    if isinstance(exc, KeyError):
        problem = f"has no field {exc.args[0]!r}"
    else:
        problem = f"has a field of the wrong type: {exc}"
    return ValueError(f"bad trace record: {record['kind']!r} record {problem}")


def _read(record: dict[str, Any], fields: Callable[[dict[str, Any]], tuple]) -> tuple:
    """`fields(record)`, the fields `result` needs of a record it kept, with a
    missing or mistyped one raised as bad_record."""
    try:
        return fields(record)
    except (KeyError, TypeError, ValueError) as exc:
        raise bad_record(record, exc) from exc


def _slo(fields: dict[str, Any]) -> tuple[float, int, int]:
    """An SLO as recorded in a trace: (accuracy, budget_micros, deadline_ticks)."""
    return fields["accuracy"], fields["budget_micros"], fields["deadline_ticks"]


def _verdicts(
    slo: tuple[float, int, int], rate: float, spend: int, incomplete: int, finish: int
) -> dict[str, SloVerdict]:
    """The accuracy, budget and time verdicts of a node or the task against its SLO."""
    accuracy, budget_micros, deadline_ticks = slo
    return {
        "accuracy": SloVerdict(rate >= accuracy, rate - accuracy),
        "budget": SloVerdict(spend <= budget_micros, to_money(budget_micros - spend)),
        "time": SloVerdict(
            incomplete == 0 and finish <= deadline_ticks,
            (deadline_ticks - finish) / TICKS_PER_UNIT,
        ),
    }


def _class_bucket(agg: dict[str, dict[str, float]], name: str) -> dict[str, float]:
    return agg.setdefault(
        name,
        {"assignments": 0, "returned": 0, "timed_out": 0, "correct": 0, "service_ticks": 0, "spend": 0},
    )
