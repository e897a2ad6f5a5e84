#!/usr/bin/env python3
"""Walk the bundled relay model through every decider and print what the
engines see: verdicts, the unlocking trace, saturation bases, and a
replay-validated witness run."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

from bncover import (
    Clique,
    PathBounded,
    VassConfig,
    diam_deg_coverable,
    parse_model,
    rbn_coverable,
    rbn_witness,
    replay,
    static_coverable,
)

MODEL = pathlib.Path(__file__).parent.parent / "models" / "relay.bn"


def main():
    spec = parse_model(MODEL.read_text()).process
    target = VassConfig("q4", (0,))

    print("== rewirable links ==")
    result = rbn_coverable(spec, target)
    print(f"cover q4: {result.coverable}")
    for i, sweep in enumerate(result.trace.rounds, 1):
        asked = ", ".join(f"{q.letter}:{'y' if q.coverable else 'n'}" for q in sweep.queries)
        print(f"  sweep {i}: unlocked {list(sweep.unlocked) or '-'} (queries: {asked or '-'})")
    run = rbn_witness(spec, target, result.trace)
    print(f"witness: {run[0].graph.n} nodes, {len(run) - 1} steps, replay={bool(replay(spec, run))}")
    for step in run:
        what = f"{step.kind}"
        if step.kind == "broadcast":
            what += f" !!{step.letter} at node {step.vertex}"
        print(f"  {what:28s} {step.graph}")

    print("\n== static topologies ==")
    for cls in (PathBounded(2), Clique()):
        verdict = static_coverable(spec, target, cls)
        print(f"cover q4 over {cls}: {verdict.coverable} "
              f"({verdict.iterations} rounds, basis {len(verdict.basis)})")
        for g in verdict.basis:
            print(f"    {g}")
    verdict = diam_deg_coverable(spec, target, 2, 4, 3)
    print(f"cover q4 over diam-deg:2,4 up to 3 nodes: {verdict.coverable}")


if __name__ == "__main__":
    main()
