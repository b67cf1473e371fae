"""Compare acceptance check 10's wall-time slopes between two source trees.

Check 10 (``test_criterion_10_linear_cost_in_trajectory_length``) fits the
log-log slope of one L-step integration's wall time against the mesh size K
for each scheme and asks for slopes in [0.7, 1.3].  One run is noisy, so a
change that touches the proposal drivers is judged over many runs: this
script runs the default ``complexity`` experiment in a fresh Python process
per run, alternating the two trees (the first tree goes first in even
pairs, the second in odd ones), and prints each tree's median explicit and
split slopes, their quartiles and the number of runs below 0.7.

    python3 tools/complexity_slopes.py PARENT_TREE CHANGED_TREE --runs 40

Each tree is a directory holding ``src/fcshmc``.  ``--json FILE`` also
writes every run and the summary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# one run, as check 10 makes it: default complexity config, seed 0, slopes by
# fit_loglog_slope over the K column and each wall-time column
RUN = """
import json, sys
import numpy as np
import fcshmc
from fcshmc.harness import default_config, exp_complexity, fit_loglog_slope
rows = np.array(exp_complexity(default_config("complexity", seed=0, out_dir=sys.argv[1])).rows)
print(json.dumps({"package": fcshmc.__file__,
                  "svex": fit_loglog_slope(rows[:, 0], rows[:, 1]),
                  "imex": fit_loglog_slope(rows[:, 0], rows[:, 2])}))
"""

SCHEMES = ("svex", "imex")
FLOOR = 0.7


def run_once(tree: Path) -> dict:
    """Slopes of one complexity run in a fresh process that imports tree's package."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryDirectory() as out:
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", RUN, out], env=env, cwd=out,
                              capture_output=True, text=True, check=True)
        elapsed = time.perf_counter() - t0
    result = json.loads(done.stdout)
    expected = (tree / "src" / "fcshmc" / "__init__.py").resolve()
    if Path(result.pop("package")).resolve() != expected:
        raise RuntimeError(f"run imported the wrong package, not {expected}")
    return {**result, "elapsed": elapsed}


def summary(runs: list[dict]) -> dict:
    out = {}
    for scheme in SCHEMES:
        slopes = [r[scheme] for r in runs]
        q1, med, q3 = statistics.quantiles(slopes, n=4, method="inclusive")
        out[scheme] = {"median": med, "q1": q1, "q3": q3, "n": len(slopes),
                       "below_0_7": sum(s < FLOOR for s in slopes)}
    out["either_below_0_7"] = sum(any(r[s] < FLOOR for s in SCHEMES) for r in runs)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs=2, type=Path, help="two directories holding src/fcshmc")
    ap.add_argument("--runs", type=int, default=40, help="runs per tree (default 40)")
    ap.add_argument("--json", type=Path, default=None, help="write every run and the summary")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")
    trees = [tree.resolve() for tree in args.trees]
    for tree in trees:
        if not (tree / "src" / "fcshmc" / "__init__.py").is_file():
            ap.error(f"{tree} holds no src/fcshmc package")

    runs = []
    for pair in range(args.runs):
        order = (0, 1) if pair % 2 == 0 else (1, 0)
        for which in order:
            run = run_once(trees[which])
            runs.append({"pair": pair, "tree": which, "first": order[0], **run})
            print(f"pair {pair:3d} tree {which}: explicit {run['svex']:.3f}, "
                  f"split {run['imex']:.3f}", file=sys.stderr)

    report = {"trees": [str(t) for t in trees], "runs": runs,
              "summary": [summary([r for r in runs if r["tree"] == which]) for which in (0, 1)]}
    for which, tree in enumerate(trees):
        s = report["summary"][which]
        print(f"tree {which} ({tree}), {args.runs} runs:")
        for scheme, label in zip(SCHEMES, ("explicit", "split")):
            t = s[scheme]
            print(f"  {label:8s} slope median {t['median']:.3f} "
                  f"(quartiles {t['q1']:.3f}-{t['q3']:.3f}), {t['below_0_7']} runs below {FLOOR}")
        print(f"  runs with either slope below {FLOOR}: {s['either_below_0_7']}")
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
