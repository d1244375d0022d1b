"""The benchmark's traced run wraps repfit functions by name; each name must
still be an attribute of the object it is looked up on."""

import importlib
from pathlib import Path


def test_every_traced_hook_names_a_live_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    patches = importlib.import_module("workloads").patches()
    assert len(patches) == 21
    for p in patches:
        assert p.attr in vars(p.owner), f"{p.name}: {p.owner!r} has no {p.attr!r}"
