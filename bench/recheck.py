"""Recompute, with larger bounds, the verdicts the benchmark's check leaves open.

    python3 bench/recheck.py relay [--nodes 5] [--depth 10]
    python3 bench/recheck.py suite WORKLOAD [--nodes 4] [--depth 8]

``relay`` searches for a covering run of relay ``q4(0)`` under each fixed
topology the workloads query, with the bounded explorer: the check takes
the negative verdict there as a recorded fact, and this is the
independent route that backs it (a hit would refute it).  ``suite``
rebuilds and runs a workload's suite untimed and checks it with the given
explorer bounds instead of the check's defaults (3 nodes, 8 broadcasts),
listing every query that stays unsettled and every failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import env  # noqa: E402
import suites  # noqa: E402

RELAY_CLASSES = ("path-bounded:2", "path-bounded:3", "path-bounded:4", "clique",
                 "diam-deg:2,2,3", "diam-deg:2,2,4")


def recheck_relay(nodes: int, depth: int) -> int:
    from bncover import parse_model
    from bncover.explore import explore

    import check

    model = parse_model(suites.gen.bundled(
        "relay.bn", ["query cover state=q4 vector=(0) semantics=rbn"]))
    target = model.queries[0].target(model.process)
    refuted = False
    for semantics in RELAY_CLASSES:
        cls, n_max = check.explore_class(semantics)
        for n in range(1, min(nodes, n_max) + 1):
            hit = explore(model.process, cls, n, depth, target)
            print(f"relay q4(0) {semantics}, {n} nodes, depth {depth}: "
                  f"{'COVERING RUN FOUND' if hit else 'no covering run'}", flush=True)
            refuted |= hit is not None
    return 1 if refuted else 0


def recheck_suite(workload: str, nodes: int, depth: int) -> int:
    import run

    suite, models = run.setup(workload, 1)  # imports bncover afresh
    _, texts, _, _ = run.run_suite(suite, models)
    outcomes = run.check_suite(suite, models, texts, explore_nodes=nodes, explore_depth=depth)
    counts: dict = {}
    for (_, name, index), o in sorted(outcomes.items()):
        counts[o.status] = counts.get(o.status, 0) + 1
        if o.status != "confirmed":
            query = models[name].queries[index]
            print(f"{o.status} {name} query {index} [{query.semantics_text}]: {o.reason}")
    print(f"{workload}: {counts}")
    return 1 if any(o.status == "failed" and not o.fault for o in outcomes.values()) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_relay = sub.add_parser("relay")
    p_relay.add_argument("--nodes", type=int, default=5)
    p_relay.add_argument("--depth", type=int, default=10)
    p_suite = sub.add_parser("suite")
    p_suite.add_argument("workload", choices=suites.WORKLOADS)
    p_suite.add_argument("--nodes", type=int, default=4)
    p_suite.add_argument("--depth", type=int, default=8)
    args = parser.parse_args(argv)
    env.require_src()
    if args.cmd == "relay":
        return recheck_relay(args.nodes, args.depth)
    return recheck_suite(args.workload, args.nodes, args.depth)


if __name__ == "__main__":
    raise SystemExit(main())
