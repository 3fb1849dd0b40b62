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

# The payload fields of each record kind the engine emits, in emit order.  A
# record's keys are these, then "time" and "kind"; a ledger kind ends its
# payload with the ledger's spent and committed micros after the operation.
_LEDGER = ("spent", "committed")
RECORD_FIELDS: dict[str, tuple[str, ...]] = {
    "header": ("schema", "scenario", "digest", "seed", "time_unit", "config", "task_slo", "overrides"),
    "node_start": ("node", "n", "n_human", "n_machine", "hm_ratio", "window_start", "deadline", "slo"),
    "wtask_spawned": ("node", "microtask", "w", "reward", "completion_deadline", "expiry_deadline"),
    "worker_arrival": ("cls", "agent"),
    "assignment_issued": ("node", "microtask", "agent", "cls", "reward", *_LEDGER),
    "assignment_returned": (
        "node", "microtask", "agent", "cls", "answer", "correct", "service", "reward", *_LEDGER
    ),
    "assignment_timeout": ("node", "microtask", "agent", "cls", "reward", "rejected", *_LEDGER),
    "vote_result": ("node", "microtask", "decision", "support", "status", "votes", "final"),
    "machine_dispatched": ("node", "microtask", "profile", "cost", *_LEDGER),
    "machine_done": ("node", "microtask", "profile", "answer", "correct", "cost", *_LEDGER),
    "poll": (
        "node", "index", "hm_ratio", "completion_rate", "risks", "evaluated", "total", "consensus_rate", *_LEDGER
    ),
    "action": ("node", "action", "trigger", "params"),
    "reroute": ("node", "microtask"),
    "escalated": ("node", "microtask", "want_votes"),
    "script_applied": ("action", "params"),
    "node_end": ("node", "evaluated", "consensus", "no_consensus", "incomplete", "finish", "spend"),
    "run_end": ("finish", "events", *_LEDGER),
}


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
    file when the writer has a path, in `records` when it has none.  The
    file is created when the writer enters its `with` block, so a run whose
    engine cannot be built leaves none."""

    def __init__(self, path: str | Path | None = None):
        self.reducer = SummaryReducer()
        self._stream: IO[str] | None = None
        self.path = Path(path) if path is not None else None
        self.records: list[dict[str, Any]] | None = [] if self.path is None else None

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
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = open(self.path, "w", encoding="utf-8", newline="\n")
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


_BLOCK_BYTES = 64 * 1024

# The scan of a block: a digit reads "0", "." and "\n" read as themselves, any
# other printable ASCII byte reads " " and every other byte "!".
_SCAN = bytes(
    ord("0") if byte in b"0123456789" else byte if byte in b".\n" else 0x20 if 0x20 <= byte < 0x7F else ord("!")
    for byte in range(256)
)
_LONG_INT = b" " + b"0" * 19


def _is_clean(block: bytes) -> bool:
    """Whether each line of `block` is printable ASCII and each int on it has
    at most 18 digits, so fits in 64 bits (19 digits after "." are a
    fraction's, and at the start of a line are not inside an object).  On a
    clean line orjson gives json's value or rejects the line."""
    scan = block.translate(_SCAN)
    return b"!" not in scan and _LONG_INT not in scan


def iter_trace(path: str | Path) -> Iterator[dict[str, Any]]:
    """Yield the records of a trace file one at a time, in file order.

    Lines end as in text mode (at "\\n", "\\r\\n" or "\\r") and blank lines are
    skipped.  A line that is not UTF-8, or not one JSON object with a "kind",
    raises ValueError naming the file and line."""
    line_no = 0
    with open(path, "rb") as stream:
        for block in _blocks(stream):
            if orjson is not None and _is_clean(block):
                lines = block.split(b"\n")
                del lines[-1]
                for line_no, line in enumerate(lines, line_no + 1):
                    # orjson rejects NaN, infinities, lone surrogates and a
                    # blank line.  The json decoder reads again each such line,
                    # and a value that is not a record, to give json's value or
                    # error for it.
                    try:
                        record = orjson.loads(line)
                    except orjson.JSONDecodeError:
                        record = None
                    if type(record) is not dict or "kind" not in record:
                        line = line.strip()
                        if not line:
                            continue
                        record = _decode_line(path, line_no, line.decode("ascii"))
                    yield record
            else:
                # A byte that is not UTF-8 reads as a lone surrogate instead of
                # failing the whole block, so the error can name its line, and
                # line ends are converted as text mode converts them.
                text = block.decode("utf-8", "surrogateescape")
                lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
                del lines[-1]
                for line_no, line in enumerate(lines, line_no + 1):
                    line = line.strip()
                    if line:
                        yield _decode_line(path, line_no, line)


def _blocks(stream: IO[bytes]) -> Iterator[bytes]:
    """The stream's bytes as blocks of whole lines, each ending at a line end;
    a last line that has none is given a "\\n"."""
    start: list[bytes] = []  # the start of a line no block has ended yet
    while chunk := stream.read(_BLOCK_BYTES):
        # a "\r" that ends a chunk may start a "\r\n", so no cut follows it
        cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r", 0, -1)) + 1
        if cut:
            start.append(chunk[:cut])
            yield b"".join(start)
            start = []
        start.append(chunk[cut:])
    last = b"".join(start)
    if last:
        yield last + b"\n"


def _decode_line(path: str | Path, line_no: int, line: str) -> dict[str, Any]:
    """The record on a stripped, non-blank line, read by the json decoder."""
    try:
        if not line.isascii():
            # json reads a lone surrogate, so decode the line's bytes again
            # to raise for one that stands for a byte that is not UTF-8
            line.encode("utf-8", "surrogateescape").decode("utf-8")
        record, end = _raw_decode(line)
        if end != len(line):
            raise json.JSONDecodeError("Extra data", line, end)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}:{line_no}: bad trace record: {exc}") from exc
    if type(record) is not dict or "kind" not in record:
        raise ValueError(f"{path}:{line_no}: bad trace record: not an object with a 'kind'")
    return record


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
        holds one of the wrong type, raises ValueError naming its kind, and so
        does one whose kind is missing or not a string; the header,
        node_start and run_end records are kept whole and read by `result`,
        which checks them the same way."""
        try:
            kind = record["kind"]
            if type(kind) is not str:
                raise TypeError(f"'kind' is {kind!r}, not a string")
            fold = _FOLDS.get(kind)
            if fold is not None:
                fold(self, record)
        except (KeyError, TypeError) as exc:
            raise bad_record(record, exc) from exc

    def _fold_header(self, record: dict[str, Any]) -> None:
        self._header = record

    def _fold_node_start(self, record: dict[str, Any]) -> None:
        self._node_start[record["node"]] = record
        self._results.setdefault(record["node"], {"consensus": 0, "no_consensus": 0})

    def _fold_vote_result(self, record: dict[str, Any]) -> None:
        if record["final"]:
            bucket = self._results.setdefault(record["node"], {"consensus": 0, "no_consensus": 0})
            bucket["consensus" if record["status"] == "consensus" else "no_consensus"] += 1

    def _fold_action(self, record: dict[str, Any]) -> None:
        counts = self._node_actions.setdefault(record["node"], {})
        counts[record["action"]] = counts.get(record["action"], 0) + 1

    def _fold_node_end(self, record: dict[str, Any]) -> None:
        self._node_end[record["node"]] = record

    def _fold_assignment_issued(self, record: dict[str, Any]) -> None:
        _class_bucket(self._class_agg, record["cls"])["assignments"] += 1

    def _fold_assignment_returned(self, record: dict[str, Any]) -> None:
        agg = _class_bucket(self._class_agg, record["cls"])
        agg["returned"] += 1
        agg["correct"] += 1 if record["correct"] else 0
        agg["service_ticks"] += record["service"]
        agg["spend"] += record["reward"]

    def _fold_assignment_timeout(self, record: dict[str, Any]) -> None:
        _class_bucket(self._class_agg, record["cls"])["timed_out"] += 1

    def _fold_machine_done(self, record: dict[str, Any]) -> None:
        agg = self._machine_agg.get(record["profile"])
        if agg is None:
            agg = self._machine_agg[record["profile"]] = {"items": 0, "correct": 0, "spend": 0}
        agg["items"] += 1
        agg["correct"] += 1 if record["correct"] else 0
        agg["spend"] += record["cost"]

    def _fold_run_end(self, record: dict[str, Any]) -> None:
        self._run_end = record

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
            self._run_end,
            lambda r: (_int(r["time"]), _int(r["spent"]), _int(r["finish"]), dict(r["events"])),
        )
        starts = {
            node: _read(record, lambda r: (_int(r["n"]), _slo(r["slo"])))
            for node, record in self._node_start.items()
        }
        nodes = []
        for node in sorted(starts):
            n, slo = starts[node]
            end = self._node_end.get(node)
            node_finish, spend = (end_time, 0) if end is None else _read(
                end, lambda r: (_int(r["finish"]), _int(r["spend"]))
            )
            agreed = self._results[node]["consensus"]
            disagreed = self._results[node]["no_consensus"]
            evaluated = agreed + disagreed
            incomplete = n - evaluated
            rate = agreed / evaluated if evaluated else 0.0
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


# Each kind's fold: the reducer's `_fold_<kind>` as a plain function, since a
# bound method would make a reference cycle, or None for a kind it does not read.
_FOLDS = {kind: vars(SummaryReducer).get(f"_fold_{kind}") for kind in RECORD_FIELDS}


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
    kind = record.get("kind") if isinstance(record, dict) else None
    name = f"{kind!r} record" if type(kind) is str else "record"
    return ValueError(f"bad trace record: {name} {problem}")


def _read(record: dict[str, Any], fields: Callable[[dict[str, Any]], tuple]) -> tuple:
    """`fields(record)`, the fields `result` needs of a record it kept, with a
    missing or mistyped one raised as bad_record."""
    try:
        return fields(record)
    except (KeyError, TypeError, ValueError) as exc:
        raise bad_record(record, exc) from exc


def _slo(fields: dict[str, Any]) -> tuple[float, int, int]:
    """An SLO as recorded in a trace: (accuracy, budget_micros, deadline_ticks)."""
    accuracy = fields["accuracy"]
    if isinstance(accuracy, bool) or not isinstance(accuracy, (int, float)):
        raise TypeError(f"expected a number, got {accuracy!r}")
    return accuracy, _int(fields["budget_micros"]), _int(fields["deadline_ticks"])


def _int(value: Any) -> int:
    """A count, tick or micros field; any other value raises TypeError, so a
    mistyped field is reported before `result` does arithmetic with it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


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
    bucket = agg.get(name)
    if bucket is None:
        bucket = agg[name] = {
            "assignments": 0, "returned": 0, "timed_out": 0, "correct": 0, "service_ticks": 0, "spend": 0
        }
    return bucket
