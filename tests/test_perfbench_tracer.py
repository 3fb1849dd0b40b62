"""The benchmark's per-layer tracer (`perfbench/layers.py`) wraps slosim's
functions by name from outside the package.  A renamed or deleted traced
name must fail here, not only in the benchmark's traced run."""

import importlib.util
import sys

import slosim.cli  # noqa: F401  (the tracer rebinds names in every slosim module)
import slosim.reports  # noqa: F401
from slosim.runner import run
from slosim.scenario import load_scenario

from conftest import REPO_ROOT, SCENARIOS_DIR


def _layers(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_layers", REPO_ROOT / "perfbench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses looks the module up
    spec.loader.exec_module(module)
    return module


def _lookup(module_name: str, path: str):
    """The target as its owner holds it: a class attribute or property is
    read from the class dict, so a property is not called."""
    owner = sys.modules[f"slosim.{module_name}"]
    if "." in path:
        cls_name, attr = path.split(".")
        return vars(getattr(owner, cls_name))[attr]
    return getattr(owner, path)


def test_every_traced_name_resolves_and_uninstall_restores_it(monkeypatch):
    layers = _layers(monkeypatch)
    originals = {(m, p): _lookup(m, p) for m, p in layers.TARGETS}
    tracer = layers.Tracer()
    tracer.install()
    try:
        for target, original in originals.items():
            assert _lookup(*target) is not original, f"{'.'.join(target)} was not wrapped"
        records = run(load_scenario(SCENARIOS_DIR / "minimal.yaml")).records
    finally:
        tracer.uninstall()
    for target, original in originals.items():
        assert _lookup(*target) is original, f"{'.'.join(target)} was not restored"
    # tasks.placements counts issue_assignment: one call per placement
    issued = sum(1 for r in records if r["kind"] == "assignment_issued")
    assert tracer.stats["tasks.issue_assignment"].calls == issued > 0
    assert tracer.stats["runner.ExecutionEngine.run"].calls == 1
