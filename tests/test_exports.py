"""The package's public names: `slosim.__all__` lists each once, and each
resolves, so a name dropped from a module cannot stay exported."""

import slosim


def test_every_exported_name_resolves_once():
    assert len(slosim.__all__) == len(set(slosim.__all__))
    missing = [name for name in slosim.__all__ if not hasattr(slosim, name)]
    assert missing == []
