"""Run-to-run spread of the end-to-end metrics over several runs.

    python3 bench/steady.py [--workload NAME ...] [--seeds 10] [--first-seed 1] [--seconds 20]

Runs ``run.py`` once per seed and workload, each in a fresh process; a
seed only changes the order of the suite's models, so every run issues
the same queries.  Prints per metric the median of the runs and the
distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the metric's bound from ``BENCHMARK.json`` and the value of every
run, and the failed and attempted counts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import suites  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=suites.WORKLOADS)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in
              json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    for workload in args.workload or suites.WORKLOADS:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, capture_output=True, text=True, check=True)
            runs.append(json.loads(done.stdout.splitlines()[-1]))
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in runs})
        print(f"{workload}: {len(runs)} runs, failed/attempted {', '.join(shares)}, "
              f"correct {all(r['correct'] for r in runs)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            print(f"  {name:<14} median {median:10.4f}  spread {(q3 - q1) / median:6.1%}"
                  f"  bound {bounds[name]:.0%}  runs {' '.join(f'{v:.4g}' for v in values)}",
                  flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
