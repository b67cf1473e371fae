"""Run the benchmark in alternating pairs on two source trees and compare them.

For each workload and pair i this script runs

    python3 bench/run.py --workload W --seed S+i --seconds T --trace 0

from the root of each tree, with T the ``run_seconds`` of the first tree's
BENCHMARK.json, alternating which tree runs first (the first tree goes
first in even pairs, the second in odd ones), as
``tools/complexity_slopes.py`` does.  For each end-to-end metric that
BENCHMARK.json declares it reports each side's runs, median and quartiles
(numpy.percentile 25/50/75), the number of pairs the change wins, and
whether the change stays within the metric's bound:

    python3 tools/bench_pairs.py PARENT_TREE CHANGED_TREE --pairs 5 \\
        --workload infer-421 --workload sweep-tiny --seed 19000 --json FILE

Each tree is a directory holding ``bench/run.py`` and ``src/fcshmc``; the
metric table and the run length are read from the first tree's
BENCHMARK.json.  ``--json FILE`` writes the ``workloads`` record of the
BENCH files.  The script exits 1 if any run exits non-zero or prints
``"correct": false``.  It writes nothing under either tree: the runs write
no bytecode, and ``bench/run.py`` removes its own outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seed: int, seconds) -> dict:
    """One benchmark run from tree's root: its exit code and printed record."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"), capture_output=True,
        text=True)
    lines = done.stdout.strip().splitlines()
    record = json.loads(lines[-1]) if done.returncode == 0 and lines else {}
    if done.stderr.strip():
        print(done.stderr.strip(), file=sys.stderr)
    return {"exit_code": done.returncode, **record}


def side_summary(values: list[float]) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3), "n": len(values),
            "runs": values}


def compare(metric: dict, runs: dict) -> dict:
    """One metric's record: both sides, the change's wins and its bound."""
    values = {side: [r["metrics"][metric["name"]]["value"] for r in runs[side]]
              for side in SIDES}
    parent, change = (side_summary(values[side]) for side in SIDES)
    ratio = change["median"] / parent["median"]
    lower = metric["better"] == "lower"
    worse_by = ratio - 1.0 if lower else 1.0 - ratio
    wins = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
    return {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent": parent, "change": change, "change_over_parent": ratio,
            "worse_by": worse_by, "within_bound": worse_by <= metric["bound"],
            "change_wins": wins,
            "parent_iqr_over_median": (parent["q3"] - parent["q1"]) / parent["median"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs=2, type=Path, help="parent and changed source trees")
    ap.add_argument("--pairs", type=int, default=5, help="pairs per workload (default 5)")
    ap.add_argument("--workload", action="append", default=None,
                    help="workload to run; repeat for more (default: every workload)")
    ap.add_argument("--seed", type=int, default=0, help="seed of the first pair (default 0)")
    ap.add_argument("--json", type=Path, default=None, help="write the workloads record")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    trees = [tree.resolve() for tree in args.trees]
    for tree in trees:
        if not (tree / "bench" / "run.py").is_file():
            ap.error(f"{tree} holds no bench/run.py")
    bench = json.loads((trees[0] / "BENCHMARK.json").read_text())
    known = [w["name"] for w in bench["workloads"]]
    workloads = args.workload or known
    for workload in workloads:
        if workload not in known:
            ap.error(f"unknown workload {workload!r}; BENCHMARK.json has {known}")

    report, failed = {}, False
    for workload in workloads:
        runs = {side: [] for side in SIDES}
        seeds, firsts = [], []
        for pair in range(args.pairs):
            seed = args.seed + pair
            order = (0, 1) if pair % 2 == 0 else (1, 0)
            seeds.append(seed)
            firsts.append(SIDES[order[0]])
            for which in order:
                run = run_once(trees[which], workload, seed, bench["run_seconds"])
                ok = run["exit_code"] == 0 and run.get("correct") is True
                failed |= not ok
                print(f"{workload} seed {seed} {SIDES[which]}: "
                      f"{'ok' if ok else 'FAILED'} (exit {run['exit_code']}, "
                      f"correct {run.get('correct')})", file=sys.stderr)
                runs[SIDES[which]].append(run)
        if failed:
            break
        all_runs = runs["parent"] + runs["change"]
        entry = {"seeds": seeds, "first_in_pair": firsts,
                 "correct_all": all(r["correct"] for r in all_runs),
                 "failed_all": sum(r["failed"] for r in all_runs),
                 "attempted_all": sum(r["attempted"] for r in all_runs)}
        for metric in bench["end_to_end"]:
            entry[metric["name"]] = compare(metric, runs)
        report[workload] = entry
        for name in (m["name"] for m in bench["end_to_end"]):
            m = entry[name]
            print(f"{workload} {name}: parent {m['parent']['median']:.6g}, change "
                  f"{m['change']['median']:.6g}, change/parent {m['change_over_parent']:.4f}, "
                  f"wins {m['change_wins']}/{args.pairs}, "
                  f"{'within' if m['within_bound'] else 'OUTSIDE'} bound {m['bound']}")
    if failed:
        print("bench_pairs: a run exited non-zero or was not correct", file=sys.stderr)
        return 1
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
