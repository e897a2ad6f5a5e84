"""Rescan the model generators and print the suites of ``gen.SUITES``.

    python3 bench/pool.py scan FAMILY FIRST LAST > bench/out/FAMILY.jsonl
    python3 bench/pool.py select bench/out/FAMILY.jsonl [--by-model] \
        [--min-query S] [--max-query S] [--min-total S] [--max-total S] [--budget S]

A suite entry is a (model seed, target state) pair for the counter
families, whose queries are the workload's semantics on that target, and
a model seed for the pushdown family, whose queries the generator draws.
``scan`` runs every query of each entry once, the way the workload does
(``run_query`` with its witness setting, default limits), and prints one
JSON line per entry: query times, verdicts and whether a requested witness
came back.  A query still running after ``--budget`` seconds is abandoned
and its entry marked incomplete.  ``select`` goes through the entries in
model-seed order and keeps the complete ones whose every query time lies
within ``[--min-query, --max-query]`` and whose total time lies within
``[--min-total, --max-total]``, until the kept entries' times add up to
``--budget`` seconds; with ``--by-model`` the unit is a whole model seed,
all of whose entries must pass.  Verdicts and witnesses play no part in
the choice: a query that ends ``resource-exhausted`` or without a
requested witness stays in and fails in every run.  The windows used are
listed in the README.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import env  # noqa: E402
import gen  # noqa: E402


class _Budget(Exception):
    pass


def _entries(family: str, seed: int):
    """(target, model text) per entry of one model seed."""
    if family == "pushdown":
        yield None, "\n".join(gen.pushdown(seed))
        return
    if family == "vass":
        lines, targets = gen.vass_counter(seed)
        if len(targets) < gen.VASS_QUERIES:
            return
        for t in targets:
            yield t, "\n".join(lines + gen.cover_lines(t, "(0,0,0)", ("rbn",)))
        return
    semantics = gen.PATH_SEMANTICS if family == "static-path" else gen.DIAM_SEMANTICS
    lines, targets = gen.chain_protocol(seed)
    for t in targets:
        yield t, "\n".join(lines + gen.cover_lines(t, "(0)", semantics))


def _alarm(signum, frame):
    raise _Budget()


def scan(family: str, first: int, last: int, budget_s: float) -> None:
    env.require_src()
    from bncover import parse_model
    from bncover.cli import run_query
    from bncover.order import ResourceLimits

    want_witness = family != "pushdown"
    signal.signal(signal.SIGALRM, _alarm)
    for seed in range(first, last):
        for target, text in _entries(family, seed):
            model = parse_model(text)
            row = {"family": family, "seed": seed, "target": target, "complete": True,
                   "times": [], "verdicts": [], "witnessed": []}
            for i, query in enumerate(model.queries):
                t = time.perf_counter()
                signal.setitimer(signal.ITIMER_REAL, budget_s)
                try:
                    r = run_query(model, query, i, ResourceLimits(), want_witness)
                except _Budget:
                    row["complete"] = False
                    break
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                row["times"].append(round(time.perf_counter() - t, 6))
                row["verdicts"].append(r.verdict)
                row["witnessed"].append(r.witness is not None or not want_witness)
            print(json.dumps(row), flush=True)


def passes(row: dict, min_query: float, max_query: float) -> bool:
    return row["complete"] and all(min_query <= t <= max_query for t in row["times"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_scan = sub.add_parser("scan")
    p_scan.add_argument("family", choices=("static-path", "static-diam", "vass", "pushdown"))
    p_scan.add_argument("first", type=int)
    p_scan.add_argument("last", type=int)
    p_scan.add_argument("--budget", type=float, default=5.0,
                        help="abandon a query after this many seconds")
    p_sel = sub.add_parser("select")
    p_sel.add_argument("scan_file")
    p_sel.add_argument("--min-query", type=float, default=0.0)
    p_sel.add_argument("--max-query", type=float, default=float("inf"))
    p_sel.add_argument("--min-total", type=float, default=0.0)
    p_sel.add_argument("--max-total", type=float, default=float("inf"))
    p_sel.add_argument("--budget", type=float, default=float("inf"),
                       help="stop once the kept entries' times add up to this")
    p_sel.add_argument("--by-model", action="store_true")
    args = parser.parse_args(argv)
    if args.cmd == "scan":
        scan(args.family, args.first, args.last, args.budget)
        return 0
    rows = [json.loads(line) for line in Path(args.scan_file).read_text().splitlines() if line]
    units: dict = {}
    for r in rows:
        key = r["seed"] if args.by_model or r["target"] is None else (r["seed"], r["target"])
        units.setdefault(key, []).append(r)
    kept, total = [], 0.0
    for key, group in units.items():
        unit_total = sum(sum(r["times"]) for r in group)
        if total >= args.budget:
            break
        if all(passes(r, args.min_query, args.max_query) for r in group) \
                and args.min_total <= unit_total <= args.max_total:
            kept.append(key)
            total += unit_total
    print(f"# {len(kept)} of {len(units)} kept, total {total:.1f} s", file=sys.stderr)
    print(tuple(kept))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
