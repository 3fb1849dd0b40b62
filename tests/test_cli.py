import json
import sys

import pytest
import yaml

from slosim.cli import main
from slosim.scenario import apply_overrides
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


def test_boolean_microtask_count_is_invalid(tmp_path, scenario_dict, capsys):
    raw = scenario_dict()
    raw["workflow"]["nodes"][0]["microtask_count"] = True
    path = tmp_path / "bool.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert "microtask_count: must be an integer, got True" in capsys.readouterr().out
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


HUGE = "1" + "0" * 400  # an integer no float can hold


@pytest.mark.parametrize(
    "dotted, where",
    [
        ("slo.budget", "slo.budget"),
        ("workers.0.accuracy", "workers[0].accuracy"),
        ("script.0.rate", "script[0].rate"),
    ],
)
def test_integer_too_large_for_a_float_is_invalid(scenarios_dir, tmp_path, capsys, dotted, where):
    source = scenarios_dir / "starvation.yaml"
    raw = apply_overrides(yaml.safe_load(source.read_text(encoding="utf-8")), [f"{dotted}={HUGE}"])
    path = tmp_path / "huge.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert f"{where}: must be a number, got {HUGE}" in capsys.readouterr().out
    assert main(["run", str(source), "--set", f"{dotted}={HUGE}", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: must be a number") and "Traceback" not in err


def test_script_naming_an_undeclared_worker_class_is_invalid(scenarios_dir, tmp_path, capsys):
    raw = yaml.safe_load((scenarios_dir / "starvation.yaml").read_text(encoding="utf-8"))
    raw["script"][0]["worker_class"] = "feld"
    path = tmp_path / "feld.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    problem = "script[0].worker_class: 'feld' is not a declared worker class"
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out == f"invalid: {problem}\n"
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {problem}\n"
    assert not (out / "trace.jsonl").exists()


@pytest.mark.parametrize("override", ["seed=true", "controller.polling_intervals=2.5"])
def test_non_integer_override_is_config_error(scenario_file, tmp_path, capsys, override):
    out = tmp_path / "o"
    assert main(["run", str(scenario_file), "--out", str(out), "--set", override]) == 2
    assert "integer, got" in capsys.readouterr().err
    assert not (out / "trace.jsonl").exists()


def test_missing_file_is_config_error(capsys):
    assert main(["run", "/no/such/file.yaml"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run", "report", "sweep"])
def test_directory_instead_of_a_file_is_config_error(tmp_path, capsys, command):
    argv = [command, str(tmp_path)]
    if command == "sweep":
        argv += ["--param", "seed", "--values", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err
    assert len(err.splitlines()) == 1


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


# scalars on which PyYAML's safe constructor raises KeyError, AttributeError
# and IndexError (the problem then names the tag), or ValueError (the problem
# is PyYAML's text), instead of a YAML error
UNBUILDABLE_SCALARS = {
    "!!bool maybe": "cannot build a !!bool from 'maybe'",
    "!!timestamp abc": "cannot build a !!timestamp from 'abc'",
    "!!int ''": "cannot build a !!int from ''",
    "!!int abc": "invalid literal for int() with base 10: 'abc'",
    "!!float abc": "could not convert string to float: 'abc'",
    "2001-13-14": "month must be in 1..12",
}


@pytest.mark.parametrize("scalar", sorted(UNBUILDABLE_SCALARS))
def test_unbuildable_tagged_scalar_is_not_valid_yaml(scenario_file, tmp_path, capsys, scalar):
    problem = UNBUILDABLE_SCALARS[scalar]
    path = tmp_path / "tagged.yaml"
    path.write_text(f"schema_version: 1\nname: {scalar}\n", encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert out == f"invalid: {path}: not valid YAML: {problem} (line 2, column 7)\n"
    override = f"name={scalar}"
    assert main(["run", str(scenario_file), "--out", str(tmp_path / "o"), "--set", override]) == 2
    err = capsys.readouterr().err
    assert err == f"error: override {override!r}: not valid YAML: {problem} (line 1, column 1)\n"
    assert not (tmp_path / "o").exists()


TOO_MANY_DIGITS = "1" + "0" * 5000  # more digits than int() converts from text


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="int() has no digit limit")
@pytest.mark.parametrize("source", ["file", "override"])
def test_integer_with_too_many_digits_is_not_valid_yaml(scenarios_dir, tmp_path, capsys, source):
    scenario = scenarios_dir / "minimal.yaml"
    if source == "file":
        path = tmp_path / "digits.yaml"
        text = scenario.read_text(encoding="utf-8").replace("budget: 5.00", f"budget: {TOO_MANY_DIGITS}")
        path.write_text(text, encoding="utf-8")
        line = next(i for i, row in enumerate(text.splitlines(), 1) if TOO_MANY_DIGITS in row)
        column = text.splitlines()[line - 1].index(TOO_MANY_DIGITS) + 1
        problem = f"{path}: not valid YAML: Exceeds the limit (4300 digits)"
        where = f"(line {line}, column {column})"
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"invalid: {problem}") and len(out.splitlines()) == 1
        assert out.endswith(f" {where}\n")
        argv = ["run", str(path)]
    else:
        override = f"slo.budget={TOO_MANY_DIGITS}"
        problem = f"override {override!r}: not valid YAML: Exceeds the limit (4300 digits)"
        where = "(line 1, column 1)"
        argv = ["run", str(scenario), "--set", override]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {problem}") and len(err.splitlines()) == 1
    assert err.endswith(f" {where}\n")


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


@pytest.mark.parametrize("kind", [[1], 7, None, {"k": "header"}], ids=["list", "int", "null", "object"])
def test_report_record_whose_kind_is_not_a_string_is_config_error(scenario_file, tmp_path, capsys, kind):
    trace, lines = _traced(scenario_file, tmp_path)
    lines.insert(1, json.dumps({"kind": kind, "time": 5}) + "\n")  # right after the header
    trace.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    rep = tmp_path / "rep"
    assert main(["report", str(trace), "--format", "csv", "--out", str(rep)]) == 2
    assert capsys.readouterr().err == (
        f"error: bad trace record: record has a field of the wrong type: 'kind' is {kind!r}, not a string\n"
    )
    assert not rep.exists()


@pytest.mark.parametrize(
    "times, problem",
    [
        ([50, 10], "at time 10 is earlier than the previous arrival of class 'a'"),
        ([50, -10**9], "at time -1000000000 is earlier than the previous arrival of class 'a'"),
        ([-5], "at time -5 is earlier than the run's start"),
    ],
    ids=["back", "far-back", "before-start"],
)
def test_report_arrival_earlier_than_the_last_is_config_error(scenario_file, tmp_path, capsys, times, problem):
    trace, lines = _traced(scenario_file, tmp_path)
    arrivals = [json.dumps({"kind": "worker_arrival", "time": time, "cls": "a"}) + "\n" for time in times]
    lines[1:1] = arrivals  # right after the header
    trace.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", str(trace)]) == 2
    assert capsys.readouterr().err == f"error: bad trace record: 'worker_arrival' record {problem}\n"


def test_report_of_two_traces_in_one_file_is_config_error(scenario_file, tmp_path, capsys):
    trace, lines = _traced(scenario_file, tmp_path)
    trace.write_text("".join(lines + lines), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad trace record: 'worker_arrival' record at time ")
    assert err.endswith(" is earlier than the previous arrival of class 'crowd'\n")


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


@pytest.mark.parametrize(
    "kind, field, value",
    [
        ("node_start", "n", "x"),
        ("node_start", "slo", {"accuracy": "x", "budget_micros": 1, "deadline_ticks": 1}),
        ("node_end", "spend", "x"),
        ("run_end", "finish", None),
        ("header", "task_slo", {"accuracy": 0.5, "budget_micros": 1.5, "deadline_ticks": 1}),
    ],
)
def test_report_kept_record_with_a_mistyped_field_is_config_error(
    scenario_file, tmp_path, capsys, kind, field, value
):
    trace, lines = _traced(scenario_file, tmp_path)
    index = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == kind)
    record = json.loads(lines[index])
    record[field] = value
    lines[index] = json.dumps(record) + "\n"
    trace.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad trace record: {kind!r} record has a field of the wrong type: ")


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


def test_sweep_over_seed_rejects_a_fixed_seed(scenario_file, tmp_path, capsys):
    # --seed would run every point at one seed, whatever value it names
    out = tmp_path / "sweep"
    argv = ["sweep", str(scenario_file), "--param", "seed", "--values", "1,2", "--seed", "3"]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --seed cannot be combined with --param seed\n"
    assert not out.exists()
