#!/usr/bin/env python3
"""Random cross-validation sweeps between independent engines.

Checks between routes that share no decision logic: backward saturation
against bounded forward search, the rewiring decider against plain
coverability on broadcast-only models, the rewiring decider against
forward exploration on small node counts, pushdown saturation against
bounded forward search, the fixed-topology deciders (path-bounded,
clique, diam-deg) against forward exploration on 2-3 nodes and against
replay of their own witness runs, and every rbn positive on counter
models against replay of the witness composed from its unlocking chains.
"""

import argparse
import pathlib
import random
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "tests"))

from bncover import (
    Clique,
    DiamDeg,
    PathBounded,
    PdsConfig,
    Reconfigurable,
    VassConfig,
    WitnessExtractionFailed,
    backward_coverability,
    diam_deg_coverable,
    explore,
    pds_coverable,
    rbn_coverable,
    rbn_witness,
    replay,
    static_coverable,
    static_witness_run,
    vass_leq,
)
from conftest import random_finite, random_pushdown, random_receive_total, random_vass
from oracles import forward_cover


def sweep_backward_vs_forward(rng, rounds):
    agreed = skipped = 0
    for _ in range(rounds):
        spec = random_vass(rng)
        target = VassConfig(
            rng.choice(spec.states), tuple(rng.choice((0, 1)) for _ in range(spec.dim))
        )
        covered, complete = forward_cover(spec, target)
        verdict = backward_coverability(spec, target)
        if covered:
            assert verdict.coverable, (spec, target)
            agreed += 1
        elif complete:
            assert not verdict.coverable, (spec, target)
            agreed += 1
        else:
            skipped += 1
    return agreed, skipped


def sweep_rewiring_vs_plain(rng, rounds):
    for _ in range(rounds):
        spec = random_vass(rng, broadcast_only=True)
        target = VassConfig(
            rng.choice(spec.states), tuple(rng.choice((0, 1)) for _ in range(spec.dim))
        )
        plain = backward_coverability(spec, target)
        assert rbn_coverable(spec, target).coverable == plain.coverable, (spec, target)
    return rounds, 0


def sweep_explore_vs_rewiring(rng, rounds):
    positives = 0
    for _ in range(rounds):
        spec = random_finite(rng)
        for state in spec.states:
            target = VassConfig(state)
            if any(
                explore(spec, Reconfigurable(), n, 12, target) is not None
                for n in range(1, 5)
            ):
                assert rbn_coverable(spec, target).coverable, (spec, target)
                positives += 1
    return positives, 0


def sweep_pushdown_vs_forward(rng, rounds):
    agreed = skipped = 0
    for _ in range(rounds):
        spec = random_pushdown(rng)
        stack = "".join(rng.choice(spec.stack_alphabet) for _ in range(rng.randint(0, 2)))
        target = PdsConfig(rng.choice(spec.states), stack)
        covered, complete = forward_cover(spec, target, counter_cap=7, depth_cap=16)
        verdict = pds_coverable(spec, target)
        if covered:
            assert verdict.coverable, (spec, target)
            agreed += 1
        elif complete:
            assert not verdict.coverable, (spec, target)
            agreed += 1
        else:
            skipped += 1
    return agreed, skipped


def sweep_static_vs_explore(rng, rounds):
    """On receive-total models, an explorer run on 2-3 nodes implies a
    positive verdict (diam-deg decided up to 3 nodes), and a positive
    verdict yields a witness run that replays and covers the target.
    Prints every disagreement, then fails."""
    agreed = 0
    disagreements = []
    for _ in range(rounds):
        spec = random_receive_total(rng)
        for state in spec.states:
            target = VassConfig(state, (0,) * spec.dim)
            for cls in (PathBounded(2), Clique(), DiamDeg(2, 2)):
                if isinstance(cls, DiamDeg):
                    verdict = diam_deg_coverable(spec, target, cls.k, cls.d, 3)
                else:
                    verdict = static_coverable(spec, target, cls)
                hit = any(explore(spec, cls, n, 8, target) is not None for n in (2, 3))
                if hit and not verdict.coverable:
                    disagreements.append(f"explorer covers, {cls} says not coverable: {spec} {target}")
                    continue
                if verdict.coverable:
                    try:
                        run = static_witness_run(spec, verdict, cls)
                        ok = bool(replay(spec, run)) and any(
                            vass_leq(target, c) for c in run[-1].graph.labels
                        )
                    except RuntimeError:
                        ok = False
                    if not ok:
                        disagreements.append(f"{cls} positive without a witness: {spec} {target}")
                        continue
                agreed += 1
    for line in disagreements:
        print(f"  disagreement: {line}")
    assert not disagreements, f"{len(disagreements)} disagreements"
    return agreed, 0


def sweep_rbn_vs_composed_witness(rng, rounds):
    """On counter models whose receives may decrement and need not be
    total, every rbn positive yields a witness composed from the unlocking
    chains that replays and covers the target.  Prints every
    disagreement, then fails."""
    agreed = 0
    disagreements = []
    for _ in range(rounds):
        spec = random_vass(rng, max_states=5, max_dim=3, max_trans=14, letters="abc")
        for state in spec.states:
            target = VassConfig(state, tuple(rng.choice((0, 1)) for _ in range(spec.dim)))
            result = rbn_coverable(spec, target)
            if not result.coverable:
                continue
            try:
                run = rbn_witness(spec, target, result.trace, chain=result.verdict.chain)
            except WitnessExtractionFailed as exc:
                disagreements.append(f"rbn positive without a witness ({exc}): {spec} {target}")
                continue
            outcome = replay(spec, run)
            if not outcome:
                disagreements.append(f"witness fails replay ({outcome.reason}): {spec} {target}")
            elif not any(vass_leq(target, c) for c in run[-1].graph.labels):
                disagreements.append(f"witness does not cover the target: {spec} {target}")
            else:
                agreed += 1
    for line in disagreements:
        print(f"  disagreement: {line}")
    assert not disagreements, f"{len(disagreements)} disagreements"
    return agreed, 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = random.Random(args.seed)

    for name, sweep in [
        ("backward vs bounded-forward", sweep_backward_vs_forward),
        ("rewiring vs plain (broadcast-only)", sweep_rewiring_vs_plain),
        ("explore-positive vs rewiring", sweep_explore_vs_rewiring),
        ("pushdown vs bounded-forward", sweep_pushdown_vs_forward),
        ("fixed-topology vs explore and replay", sweep_static_vs_explore),
        ("rbn positive vs composed witness", sweep_rbn_vs_composed_witness),
    ]:
        agreed, skipped = sweep(rng, args.rounds)
        note = f", {skipped} skipped (bounds hit)" if skipped else ""
        print(f"{name}: {agreed} agreements over {args.rounds} rounds{note}")


if __name__ == "__main__":
    main()
