#!/usr/bin/env python3
"""Write the ``repr`` of every decider result and witness of a benchmark suite.

    python3 scripts/dump_results.py WORKLOAD SEED OUT

Builds the suite that ``bench/run.py --workload WORKLOAD --seed SEED``
runs (``bench/suites.py``), passes each query to
``bncover.cli.run_query`` in the suite's order, and writes to OUT one line
per decider result (the ``Verdict`` with its basis and chain, or the rbn
result with its trace) and one per witness run.  Saved reports carry only
``basis_size``; these lines carry the bases, chains and traces
themselves, so the files two source trees write compare with ``cmp``.
The ``repr`` of a set depends on string hashing, so the script runs
itself again under ``PYTHONHASHSEED=0`` when that is not already set.
The ``bncover`` it imports is the one under this checkout's ``src/``.
"""

import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DECIDERS = ("static_coverable", "rbn_coverable")


def result_lines(name: str, model, want_witness: bool) -> list:
    """One line per decider result and one per witness of ``model``'s
    queries, each prefixed by the model name and the query index."""
    from bncover import cli
    from bncover.order import ResourceLimits

    results: list = []
    originals = {d: getattr(cli, d) for d in DECIDERS}

    def recording(decider):
        def run(*args, **kwargs):
            result = decider(*args, **kwargs)
            results.append(result)
            return result
        return run

    lines = []
    try:
        for d, decider in originals.items():
            setattr(cli, d, recording(decider))
        for i, query in enumerate(model.queries):
            del results[:]
            report = cli.run_query(model, query, i, ResourceLimits(), want_witness)
            where = f"{name} {i} {query.semantics_text} {report.verdict}"
            lines += [f"{where} result: {r!r}" for r in results]
            if report.witness is not None:
                lines.append(f"{where} witness: {report.witness!r}")
    finally:
        for d, decider in originals.items():
            setattr(cli, d, decider)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("out", type=pathlib.Path)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        rerun = [sys.executable, __file__, args.workload, str(args.seed), str(args.out)]
        return subprocess.run(rerun, env=env).returncode

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import suites
    from bncover import parse_model

    suite = suites.build(args.workload, args.seed)
    lines = []
    for name, text in suite.texts.items():
        lines += result_lines(name, parse_model(text), suite.want_witness)
    args.out.write_text("".join(line + "\n" for line in lines))
    print(f"{len(lines)} lines written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
