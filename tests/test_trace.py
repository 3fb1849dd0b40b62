"""read_trace: one JSON record per line, blank lines skipped, anything else
rejected with the file and line that broke."""

import re

import pytest

from slosim.trace import TraceWriter, dump_record, read_trace


def _write(tmp_path, text):
    path = tmp_path / "trace.jsonl"
    path.write_text(text, encoding="utf-8")
    return path


def test_reads_one_record_per_line(tmp_path):
    path = _write(tmp_path, '{"kind":"header","time":0}\n{"kind":"run_end","time":5}\n')
    assert read_trace(path) == [{"kind": "header", "time": 0}, {"kind": "run_end", "time": 5}]


def test_blank_lines_are_skipped(tmp_path):
    path = _write(tmp_path, '\n{"time":0}\n   \n\t\n{"time":1}\n\n')
    assert read_trace(path) == [{"time": 0}, {"time": 1}]


def test_surrounding_whitespace_is_ignored(tmp_path):
    path = _write(tmp_path, '  {"time":0}  \r\n')
    assert read_trace(path) == [{"time": 0}]


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
    path = _write(tmp_path, f'{{"time":0}}\n\n{bad}\n{{"time":1}}\n')
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: bad trace record: "):
        read_trace(path)


def test_two_values_on_one_line_are_rejected(tmp_path):
    path = _write(tmp_path, '{"a":1} {"b":2}\n')
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:1: bad trace record: Extra data"):
        read_trace(path)


def test_trailing_garbage_is_rejected(tmp_path):
    path = _write(tmp_path, '{"time":0}\n{"time":1}x\n')
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: bad trace record: Extra data"):
        read_trace(path)


def test_record_split_across_lines_is_rejected(tmp_path):
    path = _write(tmp_path, '{"time":0}\n{"kind":\n"header"}\n')
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: bad trace record: "):
        read_trace(path)


def test_writer_round_trip(tmp_path):
    path = tmp_path / "out" / "trace.jsonl"
    with TraceWriter(path) as writer:
        writer.emit(0, "header", {"scenario": "s", "nested": {"b": [1, 2.5], "a": None}})
        writer.emit(7, "poll", {"risks": [], "rate": 0.1, "ok": True, "text": "café ☃"})
    text = path.read_text(encoding="utf-8")
    assert text == "".join(dump_record(r) + "\n" for r in writer.records)
    assert read_trace(path) == writer.records
    assert writer.records[1] == {
        "time": 7,
        "kind": "poll",
        "risks": [],
        "rate": 0.1,
        "ok": True,
        "text": "café ☃",
    }


def test_dump_record_is_canonical():
    record = {"time": 3, "kind": "x", "b": 1.0, "a": "café", "c": {"z": 1, "y": [True, None]}}
    assert dump_record(record) == (
        '{"a":"caf\\u00e9","b":1.0,"c":{"y":[true,null],"z":1},"kind":"x","time":3}'
    )
