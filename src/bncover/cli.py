"""Command-line front end: verify, explore, replay.

    bncover verify model.bn --report out.json
    bncover explore model.bn --nodes 3 --depth 9 --witness run.json
    bncover replay model.bn --witness run.json

Exit status: 0 when every query completed, 2 when some query exhausted its
resource limits (for ``explore``, its state budget: the remaining queries
still run and the first run found is still written) or, for ``verify``, got
the verdict ``unknown``, 1 on bad input, a failed replay or a failed write.

A fixed-topology positive is sound on a receive-total process.  On any
other process ``verify`` keeps it only when a witness run is built that
replays and covers the target; otherwise the verdict is ``unknown``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from .explore import WitnessExtractionFailed, checked_witness, explore, replay
from .graphs import Reconfigurable
from .modelfile import ModelError, ModelFile, Query, parse_model
from .order import ResourceExhausted, ResourceLimits
from .rbn import rbn_coverable, rbn_witness
from .report import QueryReport, Report, json_text, report_to_json, run_from_json, run_to_json
from .static_cover import static_coverable, static_witness_run

VERDICT_COVERABLE = "coverable"
VERDICT_NOT = "not-coverable"
VERDICT_EXHAUSTED = "resource-exhausted"
VERDICT_UNKNOWN = "unknown"  # a positive that no run backs


def _with_caps(limits: ResourceLimits, source) -> ResourceLimits:
    """``limits`` with each cap that ``source`` (a query, or the parsed
    command line) does not leave None put in its place."""
    return ResourceLimits(
        max_basis=limits.max_basis if source.max_basis is None else source.max_basis,
        max_iters=limits.max_iters if source.max_iters is None else source.max_iters,
    )


def run_query(
    model: ModelFile,
    query: Query,
    index: int,
    defaults: ResourceLimits,
    want_witness: bool = False,
) -> QueryReport:
    spec = model.process
    target = query.target(spec)
    cls = query.topology
    rewirable = isinstance(cls, Reconfigurable)
    limits = _with_caps(defaults, query)
    started = time.perf_counter()
    witness = None
    trace_rows = sweeps = inner = iterations = basis_size = None
    try:
        if rewirable:
            result = rbn_coverable(spec, target, limits, model.rbn_targets)
            decided = result.verdict
            sweeps = len(result.trace.rounds)
            inner = result.trace.total_queries
            trace_rows = tuple((r.unlocked, len(r.queries)) for r in result.trace.rounds)
        else:
            decided = static_coverable(spec, target, cls, limits)
        verdict = VERDICT_COVERABLE if decided.coverable else VERDICT_NOT
        iterations, basis_size = decided.iterations, len(decided.basis)
        # a static positive is sound on a receive-total process; on any
        # other, only a run that replays and covers the target backs it
        unbacked = decided.coverable and not rewirable and not spec.receive_total
        if decided.coverable and (want_witness or unbacked):
            try:
                if rewirable:
                    witness = rbn_witness(spec, target, result.trace, chain=decided.chain)
                else:
                    witness = checked_witness(spec, target, static_witness_run(spec, decided, cls))
            except (WitnessExtractionFailed, ResourceExhausted):
                # a decided verdict stands without a run; an unbacked one does not
                if unbacked:
                    verdict = VERDICT_UNKNOWN
            if not want_witness:
                witness = None
    except ResourceExhausted as exc:
        verdict = VERDICT_EXHAUSTED
        iterations, basis_size = exc.iterations, exc.basis_size
    elapsed = time.perf_counter() - started
    return QueryReport(
        index=index,
        state=query.state,
        vector=query.vector,
        stack=query.stack,
        semantics=query.semantics_text,
        verdict=verdict,
        time_s=round(elapsed, 6),
        iterations=iterations,
        basis_size=basis_size,
        sweeps=sweeps,
        inner_queries=inner,
        trace=trace_rows,
        witness=witness,
    )


def run_queries(
    model: ModelFile,
    model_name: str = "<model>",
    defaults: Optional[ResourceLimits] = None,
    want_witness: bool = False,
) -> Report:
    """One verdict per query, in declaration order.

    The model's ``rbn`` queries share their process's unlocking loop and,
    on pushdown processes, one saturation for all their final queries;
    the first query to need either carries its cost in ``time_s``."""
    defaults = defaults or ResourceLimits()
    results = tuple(
        run_query(model, query, i, defaults, want_witness)
        for i, query in enumerate(model.queries)
    )
    return Report(model_name, results)


def _load_model(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None
    try:
        return parse_model(text)
    except ModelError as exc:
        print(f"{path}:{exc}", file=sys.stderr)
        return None


def _write(path: str, text: str, what: str) -> bool:
    """Write ``text`` to ``path`` and say so, or say why not and return False."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    print(f"{what} written to {path}")
    return True


def _cmd_verify(args) -> int:
    for flag, cap in (("--max-basis", args.max_basis), ("--max-iters", args.max_iters)):
        if cap is not None and cap < 0:
            print(f"error: {flag} must be nonnegative", file=sys.stderr)
            return 1
    model = _load_model(args.model)
    if model is None:
        return 1
    report = run_queries(model, args.model, _with_caps(ResourceLimits(), args), args.witness)
    for r in report.results:
        print(f"query {r.index}: cover {r.target_text} [{r.semantics}] -> {r.verdict} ({r.time_s:.3f}s)")
    if args.report and not _write(args.report, report_to_json(report), "report"):
        return 1
    if any(r.verdict in (VERDICT_EXHAUSTED, VERDICT_UNKNOWN) for r in report.results):
        return 2
    return 0


def _cmd_explore(args) -> int:
    model = _load_model(args.model)
    if model is None:
        return 1
    found = None
    status = 0
    for i, query in enumerate(model.queries):
        target = query.target(model.process)
        try:
            run = explore(
                model.process,
                query.topology,
                args.nodes,
                args.depth,
                target,
                counter_cap=args.counter_cap,
            )
        except ResourceExhausted as exc:
            print(f"query {i}: exploration exhausted ({exc})")
            status = 2
            continue
        except ValueError as exc:  # bad bounds: every query would fail alike
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if run is None:
            print(
                f"query {i}: no covering run within {args.nodes} nodes, depth "
                f"{args.depth}, counter cap {args.counter_cap} (absence proves nothing)"
            )
        else:
            print(
                f"query {i}: covering run found, {len(run) - 1} steps on "
                f"{run[0].graph.n} nodes (counter cap {args.counter_cap})"
            )
            if found is None:
                found = run
    if found is not None and args.witness:
        if not _write(args.witness, json_text(run_to_json(found), "steps"), "witness"):
            return 1
    return status


def _cmd_replay(args) -> int:
    model = _load_model(args.model)
    if model is None:
        return 1
    try:
        with open(args.witness) as fh:
            run = run_from_json(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: bad witness file: {exc}", file=sys.stderr)
        return 1
    outcome = replay(model.process, run)
    if outcome:
        print(f"witness of {len(run) - 1} steps replays cleanly")
        return 0
    print(f"witness rejected at step {outcome.failed_at}: {outcome.reason}")
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bncover",
        description="coverability checking for broadcast networks of infinite-state processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the model's queries")
    p_verify.add_argument("model")
    p_verify.add_argument("--report", help="write a JSON report here")
    p_verify.add_argument("--max-basis", type=int, default=None)
    p_verify.add_argument("--max-iters", type=int, default=None)
    p_verify.add_argument("--witness", action="store_true",
                          help="attempt witness extraction for positive verdicts")
    p_verify.set_defaults(fn=_cmd_verify)

    p_explore = sub.add_parser("explore", help="bounded forward search for covering runs")
    p_explore.add_argument("model")
    p_explore.add_argument("--nodes", type=int, required=True)
    p_explore.add_argument("--depth", type=int, required=True)
    p_explore.add_argument("--counter-cap", type=int, default=8)
    p_explore.add_argument("--witness", help="write the first witness run here")
    p_explore.set_defaults(fn=_cmd_explore)

    p_replay = sub.add_parser("replay", help="validate a witness run against the model")
    p_replay.add_argument("model")
    p_replay.add_argument("--witness", required=True)
    p_replay.set_defaults(fn=_cmd_replay)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
