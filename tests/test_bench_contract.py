"""The names the benchmark's tracer patches must exist in the package, and
a run must call each of them.

``bench/run.py --trace 1`` replaces each ``(owner, attr)`` of its
``layer_targets`` at the name its callers look it up by and reads every
span's calls; a renamed or moved function, or one no longer called through
that name, would make the traced run fail.  This keeps those names in view
of the unit tests.
"""

import ast
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


def traced_layers_not_called(monkeypatch, tmp_path, experiment, overrides):
    runner = load_bench_runner(monkeypatch)
    fc = importlib.import_module("fcshmc")
    config = fc.apply_overrides(fc.default_config(experiment, seed=0, out_dir=tmp_path),
                                overrides)
    tracer = runner.Tracer()
    targets = runner.layer_targets(fc)
    try:
        for owner, attr, name in targets:
            tracer.patch(owner, attr, name)
        fc.harness.EXPERIMENTS[experiment](config)
    finally:
        tracer.restore()
    layers = tracer.layers()
    return [name for _, _, name in targets if name not in layers]


def test_traced_infer_calls_every_layer(monkeypatch, tmp_path):
    assert traced_layers_not_called(monkeypatch, tmp_path, "infer",
                                    dict(N=2, K=3, updates=2)) == []


def test_traced_sweep_calls_every_layer(monkeypatch, tmp_path):
    # the efficiency sweep behind the sweep-tiny workload
    assert traced_layers_not_called(monkeypatch, tmp_path, "efficiency",
                                    dict(N=2, K=3, sweep="0.03", updates_per_point=2,
                                         L=4)) == []


def test_package_surface_resolves():
    # every exported name, and every name the benchmark reads outside its
    # traced layers, must resolve; a deleted or renamed one would break
    # importers and bench/run.py alike
    fc = importlib.import_module("fcshmc")
    unresolved = []
    for module in ("cli", "harness", "integrators", "model", "posterior", "rng",
                   "sampler", "tridiag"):
        mod = importlib.import_module(f"fcshmc.{module}")
        unresolved += [f"{module}.{name}" for name in mod.__all__ if not hasattr(mod, name)]
        # the package exposes every module's public names but the CLI's
        if module != "cli":
            unresolved += [f"fcshmc.{name}" for name in mod.__all__ if not hasattr(fc, name)]
    init = ast.parse(Path(fc.__file__).read_text())
    for node in ast.walk(init):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                # a * import re-exports its module's __all__
                names = (importlib.import_module(f"fcshmc.{node.module}").__all__
                         if alias.name == "*" else [alias.name])
                unresolved += [name for name in names if not hasattr(fc, name)]
    read_by_bench = {
        fc: ["apply_overrides", "default_config", "simulate", "RandomStream",
             "PosteriorProblem", "exp_infer", "exp_efficiency", "reflect_head",
             "reflect_tail"],
        fc.integrators: ["PhaseState", "svex_l_steps", "imex_l_steps",
                         "midpoint_prior_step", "MidpointSystem"],
        fc.integrators.MidpointSystem: ["build"],
        fc.posterior: ["v_like", "v_prior", "grad_v"],
    }
    for owner, names in read_by_bench.items():
        unresolved += [name for name in names if not hasattr(owner, name)]
    assert unresolved == []
