"""The names the benchmark's tracer patches must exist in the package.

``bench/run.py --trace 1`` replaces each ``(owner, attr)`` of its
``layer_targets`` at the name its callers look it up by; a renamed or moved
function would make the traced run fail.  This keeps those names in view of
the unit tests.
"""

import importlib
import importlib.util
import os
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_runner(monkeypatch):
    # run.py imports its siblings by bare name and sets thread-count
    # variables at import; keep both changes local to the test
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(os, "environ", dict(os.environ))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layer_names_resolve(monkeypatch):
    runner = load_bench_runner(monkeypatch)
    targets = runner.layer_targets(importlib.import_module("fcshmc"))
    assert len(targets) == 22
    missing = []
    for owner, attr, span in targets:
        if isinstance(owner, types.ModuleType):
            found = hasattr(owner, attr)
        else:
            found = attr in owner.__dict__
        if not found:
            missing.append((span, attr))
    assert not missing
