"""Every demo script runs to completion against the current package.

The demos call the public API directly, so a renamed function or a removed
argument breaks them; running each one keeps them in view of the tests.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("0*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(monkeypatch, tmp_path, script):
    monkeypatch.chdir(tmp_path)  # demos write their CSVs under ./runs
    runpy.run_path(str(script), run_name="__main__")
