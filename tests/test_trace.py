"""The trace codec.  `dump_record` writes one canonical JSON line per record
and `read_trace` reads one record per line, blank lines skipped, anything
else rejected with the file and line that broke.

`_encode` and the json decoder are the reference codec; orjson, when it is
importable, is a fast path that must give the same bytes and the same
values.  The tests named `..._on_each_codec` run once on each path."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import slosim.trace
from slosim.trace import TraceWriter, _encode, dump_record, iter_trace, read_trace


def _write(tmp_path, text):
    path = tmp_path / "trace.jsonl"
    path.write_text(text, encoding="utf-8")
    return path


def _typed(value):
    """`value` with each scalar replaced by its type and repr, so that 1 and
    1.0, 0.0 and -0.0, and NaN and NaN compare as JSON tells them apart."""
    if isinstance(value, dict):
        return {key: _typed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_typed(item) for item in value]
    return (type(value), repr(value))


def test_reads_one_record_per_line(tmp_path):
    path = _write(tmp_path, '{"kind":"header","time":0}\n{"kind":"run_end","time":5}\n')
    assert read_trace(path) == [{"kind": "header", "time": 0}, {"kind": "run_end", "time": 5}]


def test_blank_lines_are_skipped(tmp_path):
    path = _write(tmp_path, '\n{"kind":"a","time":0}\n   \n\t\n{"kind":"b","time":1}\n\n')
    assert read_trace(path) == [{"kind": "a", "time": 0}, {"kind": "b", "time": 1}]


def test_surrounding_whitespace_is_ignored(tmp_path):
    path = _write(tmp_path, '  {"kind":"a","time":0}  \r\n')
    assert read_trace(path) == [{"kind": "a", "time": 0}]


def test_empty_file_has_no_records(tmp_path):
    assert read_trace(_write(tmp_path, "")) == []


@pytest.mark.parametrize(
    "bad",
    [
        "{not json}",
        '{"time":',
        "[1, 2",
        '"unterminated',
    ],
)
def test_bad_line_names_path_and_line(tmp_path, bad):
    path = _write(tmp_path, f'{{"kind":"a"}}\n\n{bad}\n{{"kind":"b"}}\n')
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: bad trace record: "):
        read_trace(path)


def test_two_values_on_one_line_are_rejected(tmp_path):
    path = _write(tmp_path, '{"kind":"a"} {"kind":"b"}\n')
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:1: bad trace record: Extra data"):
        read_trace(path)


def test_trailing_garbage_is_rejected(tmp_path):
    path = _write(tmp_path, '{"kind":"a"}\n{"kind":"b"}x\n')
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: bad trace record: Extra data"):
        read_trace(path)


def test_record_split_across_lines_is_rejected(tmp_path):
    path = _write(tmp_path, '{"kind":"a"}\n{"kind":\n"header"}\n')
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: bad trace record: "):
        read_trace(path)


# Each bad line, on line 2 of a file, and the reference decoder's message for it.
BAD_LINES = [
    ("{not json}", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ('{"time":', "Expecting value: line 1 column 9 (char 8)"),
    ("[1, 2", "Expecting ',' delimiter: line 1 column 6 (char 5)"),
    ('"unterminated', "Unterminated string starting at: line 1 column 1 (char 0)"),
    ('{"kind":"a"} {"kind":"b"}', "Extra data: line 1 column 13 (char 12)"),
    ('{"kind":"b"}x', "Extra data: line 1 column 13 (char 12)"),
    ('{"kind":', "Expecting value: line 1 column 9 (char 8)"),
    ('{"kind":"a","n":01}', "Expecting ',' delimiter: line 1 column 18 (char 17)"),
    ("{}", "not an object with a 'kind'"),
    ('{"time":0}', "not an object with a 'kind'"),
    ("[1]", "not an object with a 'kind'"),
    ('[{"kind":"a"}]', "not an object with a 'kind'"),
    ("1", "not an object with a 'kind'"),
    ('"kind"', "not an object with a 'kind'"),
    ("null", "not an object with a 'kind'"),
    ("NaN", "not an object with a 'kind'"),
]


@pytest.mark.parametrize("bad, message", BAD_LINES)
def test_bad_line_is_rejected_on_each_codec(tmp_path, codec, bad, message):
    path = _write(tmp_path, f'{{"kind":"a"}}\n{bad}\n{{"kind":"b"}}\n')
    with pytest.raises(ValueError) as excinfo:
        read_trace(path)
    assert str(excinfo.value) == f"{path}:2: bad trace record: {message}"


def test_undecodable_line_names_path_and_line_on_each_codec(tmp_path, codec):
    path = tmp_path / "trace.jsonl"
    path.write_bytes(b'{"kind":"a"}\n{"kind":"\xff"}\n{"kind":"b"}\n')
    with pytest.raises(ValueError) as excinfo:
        read_trace(path)
    assert str(excinfo.value) == (
        f"{path}:2: bad trace record: 'utf-8' codec can't decode byte 0xff"
        " in position 9: invalid start byte"
    )


def test_raw_utf8_text_is_read_on_each_codec(tmp_path, codec):
    path = tmp_path / "trace.jsonl"
    path.write_bytes('{"kind":"café ☃"}\n {"kind":"b"}\n'.encode("utf-8"))
    assert read_trace(path) == [{"kind": "café ☃"}, {"kind": "b"}]


# Lines orjson does not read as json does: it rejects NaN, infinities and lone
# surrogates, and reads an int outside the 64-bit range as a float.
JSON_ONLY_LINES = [
    ('{"kind":"a","v":NaN}', {"kind": "a", "v": math.nan}),
    ('{"kind":"a","v":-Infinity}', {"kind": "a", "v": -math.inf}),
    ('{"kind":"a","v":1e400}', {"kind": "a", "v": math.inf}),
    ('{"kind":"a","v":"\\ud800"}', {"kind": "a", "v": "\ud800"}),
    ('{"kind":"a","v":18446744073709551616}', {"kind": "a", "v": 2**64}),
    ('{"kind":"a","v":-9223372036854775809}', {"kind": "a", "v": -(2**63) - 1}),
    ('{"kind":"a","v":1e+19}', {"kind": "a", "v": 1e19}),
    ('{"kind":"a","v":[18446744073709551616]}', {"kind": "a", "v": [2**64]}),
    ('{"kind":"a","v":{"w":-18446744073709551617}}', {"kind": "a", "v": {"w": -(2**64) - 1}}),
    ('{"kind":"a","v":18446744073709551615,"w":-9223372036854775808}', {"kind": "a", "v": 2**64 - 1, "w": -(2**63)}),
    ('{"kind":"a","v":-0.0,"w":-0,"x":1.0,"y":1,"z":true}', {"kind": "a", "v": -0.0, "w": 0, "x": 1.0, "y": 1, "z": True}),
]


@pytest.mark.parametrize("line, expected", JSON_ONLY_LINES)
def test_lines_are_read_as_json_reads_them_on_each_codec(tmp_path, codec, line, expected):
    assert _typed(read_trace(_write(tmp_path, line + "\n"))) == [_typed(expected)]


# One value per record, so that no other value sends the record to `_encode`.
EDGE_FLOATS = [1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0, 5e-324, -0.0, math.nan, math.inf, -math.inf]
EDGE_INTS = [edge + step for edge in (2**63, -(2**63), 2**64, -(2**64)) for step in (-1, 0, 1)]
EDGE_TEXT = ["é", "café ☃", " ", "\x7f", "\ud800", "a\udfffb", "\x00\x1f\b\n\"\\/"]


EDGE_RECORDS = [{"kind": "a", "v": value} for value in EDGE_FLOATS + EDGE_INTS + EDGE_TEXT]
EDGE_RECORDS += [{"kind": "a", key: 1} for key in EDGE_TEXT] + [{2: 0.5, 1: "a"}, {True: None}]


@pytest.mark.parametrize("record", EDGE_RECORDS)
def test_edge_values_encode_as_the_reference_does(record):
    assert dump_record(record) == _encode(record)


def test_writer_round_trip(tmp_path):
    path = tmp_path / "out" / "trace.jsonl"
    with TraceWriter(path) as writer:
        header = writer.emit(0, "header", {"scenario": "s", "nested": {"b": [1, 2.5], "a": None}})
        poll = writer.emit(7, "poll", {"risks": [], "rate": 0.1, "ok": True, "text": "café ☃"})
    assert writer.records is None  # a writer with a file keeps no records in memory
    text = path.read_text(encoding="utf-8")
    assert text == dump_record(header) + "\n" + dump_record(poll) + "\n"
    assert read_trace(path) == [header, poll]
    assert poll == {
        "time": 7,
        "kind": "poll",
        "risks": [],
        "rate": 0.1,
        "ok": True,
        "text": "café ☃",
    }


def test_writer_round_trip_on_each_codec(tmp_path, codec):
    path = tmp_path / "trace.jsonl"
    fields = [{"agent": "w-1", "n": 3, "ok": True, "none": None, "rate": 0.25}]
    fields += [{"v": value} for value in EDGE_FLOATS + EDGE_INTS + EDGE_TEXT]
    fields += [{"nested": {"b": [1, 2.5], "a": None}}, {"risks": []}]
    with TraceWriter(path) as writer:
        records = [writer.emit(time, "x", dict(f)) for time, f in enumerate(fields)]
    assert path.read_bytes() == "".join(_encode(r) + "\n" for r in records).encode("ascii")
    assert _typed(read_trace(path)) == _typed(records)


def test_dump_record_is_canonical():
    record = {"time": 3, "kind": "x", "b": 1.0, "a": "café", "c": {"z": 1, "y": [True, None]}}
    assert dump_record(record) == (
        '{"a":"caf\\u00e9","b":1.0,"c":{"y":[true,null],"z":1},"kind":"x","time":3}'
    )


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from(EDGE_INTS),
    st.floats(),
    st.sampled_from(EDGE_FLOATS),
    st.text(),
    st.sampled_from(EDGE_TEXT),
)
_keys = st.text(max_size=6) | st.sampled_from(EDGE_TEXT)
_records = st.builds(
    lambda flat, nested, kind: {**flat, **nested, "kind": kind},
    st.dictionaries(_keys, _scalars, max_size=8),
    st.fixed_dictionaries(
        {},
        optional={
            "nested": st.dictionaries(_keys, _scalars, max_size=3),
            "items": st.lists(_scalars, max_size=3),
        },
    ),
    st.text(max_size=6),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(record=_records)
def test_fast_and_reference_codecs_agree(tmp_path, record):
    assert dump_record(record) == _encode(record)
    path = _write(tmp_path, _encode(record) + "\n")
    assert _typed(list(iter_trace(path))) == [_typed(record)]


def test_trace_module_falls_back_to_json_without_orjson(tmp_path):
    script = """
import sys
sys.modules["orjson"] = None
import slosim.trace as trace
assert trace.orjson is None
record = {"kind": "x", "time": 3, "a": "caf\\u00e9", "b": 1e-05, "c": [1, None]}
line = trace.dump_record(record)
assert line == '{"a":"caf\\\\u00e9","b":1e-05,"c":[1,null],"kind":"x","time":3}', line
path = sys.argv[1]
with open(path, "w", encoding="utf-8") as stream:
    stream.write(line + "\\n")
assert trace.read_trace(path) == [record]
"""
    src = str(Path(slosim.trace.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "trace.jsonl")],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
