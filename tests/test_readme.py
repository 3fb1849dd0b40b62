"""The README's "Library" example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library\n+```python\n(.*?)^```", text, re.S | re.M)
    assert match is not None, "README has no python block under '## Library'"
    return match.group(1)


def test_readme_library_example_runs(capsys):
    code = library_block()
    assert "invert_majority_accuracy" in code and "run_node" in code
    namespace: dict = {}
    exec(compile(code, f"{README}:Library", "exec"), namespace)
    assert abs(namespace["p"] - 0.548) < 1e-3  # the value the comment quotes
    outcome = namespace["outcome"]
    assert outcome.summary.evaluated > 0
    printed = capsys.readouterr().out.split()
    assert printed == [str(outcome.summary.consensus_rate), str(outcome.summary.spend_micros)]
