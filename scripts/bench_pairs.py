#!/usr/bin/env python3
"""Alternating pairs of benchmark runs of two source trees on one workload.

    python3 scripts/bench_pairs.py TREE_A TREE_B WORKLOAD [--seed N] [--pairs P]

Each pair runs ``bench/run.py --workload WORKLOAD --seed N --trace 0`` once
in each tree, each in a fresh process; which tree runs first alternates
from pair to pair.  Before the first run every ``__pycache__`` under both
trees' ``src/`` is removed.  With bytecode writing switched off
(``PYTHONDONTWRITEBYTECODE``) a stale cache is never refreshed, so a tree
whose cache is stale (a copy made with ``cp -r`` has new file times)
compiles its modules again at every set-up, and its ``setup_s`` and
``peak_rss_mib`` read higher than those of a tree with a valid cache.

For each end-to-end metric the summary gives each tree's median, its
quartiles and its range, and in how many pairs TREE_B read lower.  A run
with ``correct`` false or ``failed`` above 0 is flagged.
"""

import argparse
import json
import pathlib
import shutil
import statistics
import subprocess
import sys


def run_once(tree: pathlib.Path, workload: str, seed: int) -> str:
    """The result line (the last line of output) of one benchmark run."""
    cmd = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    return done.stdout.splitlines()[-1]


def _spread(values: list) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}] ({min(values):.6g}-{max(values):.6g})"


def summary(pairs: list) -> list:
    """Summary lines of ``pairs``, each (result line of TREE_A, result
    line of TREE_B): the flagged runs, then one line per metric."""
    results = [tuple(map(json.loads, pair)) for pair in pairs]
    lines = []
    for i, pair in enumerate(results):
        for tree, result in zip("AB", pair):
            if not result["correct"] or result["failed"]:
                lines.append(f"FLAGGED pair {i} tree {tree}: correct {result['correct']}, "
                             f"failed {result['failed']}")
    for name in results[0][0]["metrics"]:
        a, b = ([pair[side]["metrics"][name]["value"] for pair in results] for side in (0, 1))
        lower = sum(y < x for x, y in zip(a, b))
        lines.append(f"{name}: A {_spread(a)}  B {_spread(b)}  "
                     f"B lower in {lower} of {len(results)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=pathlib.Path)
    parser.add_argument("tree_b", type=pathlib.Path)
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("need at least 2 pairs")
    trees = (args.tree_a.resolve(), args.tree_b.resolve())
    for tree in trees:
        for cache in (tree / "src").rglob("__pycache__"):
            shutil.rmtree(cache)
    pairs = []
    for i in range(args.pairs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        lines = {side: run_once(trees[side], args.workload, args.seed) for side in order}
        pairs.append((lines[0], lines[1]))
        print(f"pair {i}: A {lines[0]}\n        B {lines[1]}", flush=True)
    print("\n".join(summary(pairs)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
