import json

import pytest
import yaml

from slosim.cli import main
from slosim.trace import read_trace, summarize


@pytest.fixture
def scenario_file(tmp_path, scenario_dict):
    path = tmp_path / "scn.yaml"
    path.write_text(yaml.safe_dump(scenario_dict()), encoding="utf-8")
    return path


def test_validate_ok(scenario_file, capsys):
    assert main(["validate", str(scenario_file)]) == 0
    assert "ok:" in capsys.readouterr().out


def test_validate_bad_scenario(tmp_path, scenario_dict, capsys):
    raw = scenario_dict(slo={"accuracy_target": 0.5, "budget": 0, "deadline": 10})
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert "invalid:" in capsys.readouterr().out


def test_missing_file_is_config_error(capsys):
    assert main(["run", "/no/such/file.yaml"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_yaml_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("schema_version: 1\nworkflow: [1,\n", encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"invalid: {path}: not valid YAML:")
    assert "line 3, column 1" in out
    assert len(out.splitlines()) == 1
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not valid YAML:")
    assert "line 3, column 1" in err
    assert len(err.splitlines()) == 1


def test_malformed_override_is_config_error(scenario_file, tmp_path, capsys):
    bad = "controller.replication_w=[1,"
    assert main(["run", str(scenario_file), "--out", str(tmp_path / "o"), "--set", bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: override {bad!r}: not valid YAML:")
    assert "line" in err
    assert len(err.splitlines()) == 1
    argv = ["sweep", str(scenario_file), "--param", "controller.replication_w", "--values", "[1"]
    assert main(argv + ["--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: override 'controller.replication_w=[1': not valid YAML:")
    assert "line" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "s").exists()


def test_run_writes_trace_and_summary(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(scenario_file), "--out", str(out)]) == 0
    assert (out / "trace.jsonl").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenario"] == "fixture"
    rebuilt = summarize(read_trace(out / "trace.jsonl"))
    assert summary == json.loads(json.dumps(rebuilt.to_dict()))
    stdout = capsys.readouterr().out
    assert "slo accuracy" in stdout


def test_run_exit_zero_even_when_slo_missed(tmp_path, scenario_dict):
    # a hopeless deadline misses the time SLO; the run itself still succeeds
    raw = scenario_dict()
    raw["slo"]["deadline"] = 2
    raw["workflow"]["nodes"][0]["agent_tag"] = "human_only"
    path = tmp_path / "miss.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert not summary["time"]["met"]


def test_run_records_overrides_in_header(scenario_file, tmp_path):
    out = tmp_path / "out"
    assert (
        main(
            [
                "run",
                str(scenario_file),
                "--out",
                str(out),
                "--set",
                "controller.initial_hm_ratio=0",
            ]
        )
        == 0
    )
    header = read_trace(out / "trace.jsonl")[0]
    assert header["overrides"] == ["controller.initial_hm_ratio=0"]
    assert header["config"]["initial_hm_ratio"] == 0


def test_seed_flag_changes_trace(scenario_file, tmp_path):
    main(["run", str(scenario_file), "--out", str(tmp_path / "a")])
    main(["run", str(scenario_file), "--out", str(tmp_path / "b"), "--seed", "321"])
    a = (tmp_path / "a" / "trace.jsonl").read_text()
    b = (tmp_path / "b" / "trace.jsonl").read_text()
    assert a != b


def test_report_to_stdout(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", str(scenario_file), "--out", str(out)])
    capsys.readouterr()
    assert main(["report", str(out / "trace.jsonl")]) == 0
    stdout = capsys.readouterr().out
    for section in ("# classes", "# arrivals", "# control"):
        assert section in stdout


def test_report_csv_files(scenario_file, tmp_path):
    out = tmp_path / "out"
    main(["run", str(scenario_file), "--out", str(out)])
    rep = tmp_path / "rep"
    assert main(["report", str(out / "trace.jsonl"), "--format", "csv", "--out", str(rep)]) == 0
    for name in ("classes", "arrivals", "control"):
        assert (rep / f"{name}.csv").exists()


def test_report_bad_trace_line_is_config_error(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", str(scenario_file), "--out", str(out)])
    trace = out / "trace.jsonl"
    lines = trace.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[-1] = "{not json}\n"  # the report has read every other record by then
    trace.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    rep = tmp_path / "rep"
    assert main(["report", str(trace), "--format", "csv", "--out", str(rep)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {trace}:{len(lines)}: bad trace record: ")
    assert not rep.exists()


@pytest.mark.parametrize("line", ["{}", "[1]", '{"time":0}'])
def test_report_line_that_is_not_a_record_is_config_error(scenario_file, tmp_path, capsys, codec, line):
    out = tmp_path / "out"
    main(["run", str(scenario_file), "--out", str(out)])
    trace = out / "trace.jsonl"
    lines = trace.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = line + "\n"
    trace.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", str(trace)]) == 2
    assert capsys.readouterr().err == f"error: {trace}:2: bad trace record: not an object with a 'kind'\n"


def _traced(scenario_file, tmp_path):
    out = tmp_path / "out"
    main(["run", str(scenario_file), "--out", str(out)])
    trace = out / "trace.jsonl"
    return trace, trace.read_text(encoding="utf-8").splitlines(keepends=True)


@pytest.mark.parametrize(
    "record, problem",
    [
        ({"kind": "vote_result", "time": 5}, "has no field 'final'"),
        ({"kind": "vote_result", "time": 5, "final": True, "node": "label"}, "has no field 'status'"),
        ({"kind": "assignment_returned", "time": 5, "cls": "crowd", "correct": True}, "has no field 'service'"),
        ({"kind": "machine_done", "time": 5, "profile": ["solver"]}, "has a field of the wrong type: "),
        ({"kind": "worker_arrival", "time": 5}, "has no field 'cls'"),
        ({"kind": "poll", "time": 5, "node": "label"}, "has no field 'index'"),
        ({"kind": "node_start", "time": 5, "node": "other", "n": 1}, "has no field 'slo'"),
    ],
)
def test_report_record_lacking_a_field_its_kind_needs_is_config_error(
    scenario_file, tmp_path, capsys, record, problem
):
    trace, lines = _traced(scenario_file, tmp_path)
    lines.insert(1, json.dumps(record) + "\n")  # right after the header
    trace.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    rep = tmp_path / "rep"
    assert main(["report", str(trace), "--format", "csv", "--out", str(rep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad trace record: {record['kind']!r} record {problem}")
    assert not rep.exists()


@pytest.mark.parametrize("kind, field", [("header", "seed"), ("run_end", "events")])
def test_report_kept_record_lacking_a_field_is_config_error(scenario_file, tmp_path, capsys, kind, field):
    trace, lines = _traced(scenario_file, tmp_path)
    index = 0 if kind == "header" else len(lines) - 1
    record = json.loads(lines[index])
    del record[field]
    lines[index] = json.dumps(record) + "\n"
    trace.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", str(trace)]) == 2
    assert capsys.readouterr().err == f"error: bad trace record: {kind!r} record has no field {field!r}\n"


def test_report_undecodable_line_is_config_error(scenario_file, tmp_path, capsys, codec):
    trace, lines = _traced(scenario_file, tmp_path)
    data = [line.encode("utf-8") for line in lines]
    data[1] = data[1].replace(b'"kind"', b'"\xffkind"')
    trace.write_bytes(b"".join(data))
    capsys.readouterr()
    rep = tmp_path / "rep"
    assert main(["report", str(trace), "--out", str(rep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {trace}:2: bad trace record: 'utf-8' codec can't decode byte 0xff")
    assert not rep.exists()


def test_out_dir_env_var(scenario_file, tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("SLOSIM_OUT_DIR", str(target))
    assert main(["run", str(scenario_file)]) == 0
    assert (target / "trace.jsonl").exists()


def test_sweep_runs_each_value(scenario_file, tmp_path):
    out = tmp_path / "sweep"
    assert (
        main(
            [
                "sweep",
                str(scenario_file),
                "--param",
                "controller.initial_hm_ratio",
                "--values",
                "0,2",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    index = (out / "sweep.csv").read_text().splitlines()
    assert len(index) == 3  # header + two runs
    assert (out / "controller_initial_hm_ratio=0" / "summary.json").exists()
    assert (out / "controller_initial_hm_ratio=2" / "summary.json").exists()
