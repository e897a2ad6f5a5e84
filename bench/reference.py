"""Reference figures: the single-query rows of the ROADMAP Baseline table.

    python3 bench/reference.py

Runs, one at a time and outside the timed workloads, relay ``q4(0)`` under
``path-bounded:3/4/5``, ``diam-deg:2,2,4`` and ``diam-deg:2,3,4``, and the
rbn query of a random pushdown process with 60 states and 1200 rules
(``random.Random(1)``, drawn as in ``gen.random_pushdown``), next to one
plain ``pds_coverable`` call for the same target.  Each row prints the
verdict, the saturation statistics and the time of ``run_query``.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import env  # noqa: E402
import gen  # noqa: E402


def rows():
    for semantics in ("path-bounded:3", "path-bounded:4", "path-bounded:5",
                      "diam-deg:2,2,4", "diam-deg:2,3,4"):
        yield f"relay q4(0) {semantics}", gen.bundled(
            "relay.bn", [f"query cover state=q4 vector=(0) semantics={semantics}"])
    yield "random pushdown (seed 1), 60 states, 1200 rules, rbn", "\n".join(
        gen.random_pushdown(random.Random(1), 60, 1200, 1)) + "\n"


def main() -> int:
    env.require_src()
    from bncover import parse_model, pds_coverable
    from bncover.cli import run_query
    from bncover.order import ResourceLimits
    from bncover.pushdown import PushdownSpec

    for label, text in rows():
        model = parse_model(text)
        query = model.queries[0]
        started = time.perf_counter()
        r = run_query(model, query, 0, ResourceLimits())
        elapsed = time.perf_counter() - started
        extra = ""
        if r.inner_queries is not None:
            extra = f", {r.sweeps} sweeps, {r.inner_queries} inner queries"
        print(f"{label}: {r.verdict}, {r.iterations} iterations, basis {r.basis_size}"
              f"{extra}, {elapsed:.3f} s", flush=True)
        if isinstance(model.process, PushdownSpec):
            started = time.perf_counter()
            plain = pds_coverable(model.process, query.target(model.process))
            print(f"  plain pds_coverable: {'coverable' if plain.coverable else 'not-coverable'}, "
                  f"{time.perf_counter() - started:.3f} s", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
