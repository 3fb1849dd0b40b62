"""The README's "Library" and "Trace and summary" examples run as written,
and its table of trace record kinds is `trace.RECORD_FIELDS`."""

import re

from slosim.trace import RECORD_FIELDS

from conftest import REPO_ROOT

README = REPO_ROOT / "README.md"


def python_block(section: str) -> str:
    """The first python block under the README heading `## <section>`."""
    text = README.read_text(encoding="utf-8")
    match = re.search(rf"^## {section}\n.*?^```python\n(.*?)^```", text, re.S | re.M)
    assert match is not None, f"README has no python block under '## {section}'"
    return match.group(1)


def test_readme_library_example_runs(capsys):
    code = python_block("Library")
    assert "invert_majority_accuracy" in code and "run_node" in code
    namespace: dict = {}
    exec(compile(code, f"{README}:Library", "exec"), namespace)
    assert abs(namespace["p"] - 0.548) < 1e-3  # the value the comment quotes
    outcome = namespace["outcome"]
    assert outcome.summary.evaluated > 0
    printed = capsys.readouterr().out.split()
    assert printed == [str(outcome.summary.consensus_rate), str(outcome.summary.spend_micros)]


def test_readme_trace_example_runs(tmp_path, monkeypatch):
    code = python_block("Trace and summary")
    assert "iter_trace" in code and "report" in code
    (tmp_path / "scenarios").symlink_to(REPO_ROOT / "scenarios")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(code, f"{README}:Trace and summary", "exec"), namespace)
    assert (tmp_path / "out" / "trace.jsonl").is_file()
    assert namespace["to_file"].records is None
    assert set(namespace["tables"]) == {"classes", "arrivals", "control"}


def record_table() -> list[tuple[str, list[str]]]:
    """The (kind, fields) rows of the README's table of record kinds."""
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^Record kinds,.*?\n\n((?:\|[^\n]*\n)+)", text, re.S | re.M)
    assert match is not None, "README has no table after 'Record kinds,'"
    rows = []
    for line in match.group(1).splitlines()[2:]:  # after the head and rule rows
        kind, fields = line.split(" | ")[:2]
        rows.append((kind.strip("| `"), [name.strip("`") for name in fields.split(", ")]))
    return rows


def test_readme_record_table_is_the_trace_record_fields():
    rows = record_table()
    assert [kind for kind, _ in rows] == list(RECORD_FIELDS)
    assert {kind: sorted(fields) for kind, fields in rows} == {
        kind: sorted(fields) for kind, fields in RECORD_FIELDS.items()
    }
