#!/usr/bin/env python3
"""Random cross-validation sweeps between independent engines.

Checks between routes that share no decision logic: backward saturation
against bounded forward search, the rewiring decider against plain
coverability on broadcast-only models, the rewiring decider against
forward exploration on small node counts, pushdown saturation against
bounded forward search, the fixed-topology deciders (path-bounded,
clique, diam-deg) against forward exploration on 2-3 nodes (2-5 on a
clique) and against replay of their own witness runs, every rbn positive
on counter models against replay of the witness composed from its
unlocking chains, rbn verdicts and traces on pushdown models, whose
sweeps and final queries each run one batched saturation, against an
unlocking loop and final queries that ask one query at a time, every
``coverable`` that ``bncover verify`` prints for a fixed topology on a
process that is not receive-total against replay of the witness it
carries, and the fixed-topology saturation, which skips whole products
of predecessor graphs its parent embeds into by the identity and whose
order compares packed vertex, edge and per-state counts before it
searches for an embedding, against one that keeps every graph of the
construction and against one that runs the embedding search for every
test, and the deciders along the inclusions of topology classes, on
processes that are receive-total and processes that are not: a positive
over a class must be a positive over every class containing it.
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
    ModelFile,
    PathBounded,
    PdsConfig,
    Query,
    Reconfigurable,
    ResourceExhausted,
    ResourceLimits,
    VassConfig,
    WitnessExtractionFailed,
    backward_coverability,
    complete_receives,
    diam_deg_coverable,
    explore,
    pds_coverable,
    rbn_coverable,
    rbn_witness,
    static_coverable,
    static_witness_run,
)
from bncover import static_cover
from bncover.cli import VERDICT_COVERABLE, VERDICT_NOT, run_query
from bncover.explore import checked_witness
from bncover.rbn import rbn_unlock
from conftest import random_finite, random_pushdown, random_receive_total, random_vass
from oracles import (
    CompleteGraphSpace,
    PlainOrderGraphSpace,
    forward_cover,
    unlock_one_query_at_a_time,
)


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
    """On receive-total models, an explorer run on 2-3 nodes (2-5 on a
    clique) implies a positive verdict (diam-deg decided up to 3 nodes),
    and a positive verdict yields a witness run that replays and covers
    the target.  Prints every disagreement, then fails."""
    agreed = 0
    disagreements = []
    for _ in range(rounds):
        spec = random_receive_total(rng)
        for state in spec.states:
            target = VassConfig(state, (0,) * spec.dim)
            for cls in (PathBounded(2), PathBounded(3), Clique(), DiamDeg(2, 2, 3)):
                verdict = static_coverable(spec, target, cls)
                nodes = (2, 3, 4, 5) if isinstance(cls, Clique) else (2, 3)
                hit = any(explore(spec, cls, n, 8, target) is not None for n in nodes)
                if hit and not verdict.coverable:
                    disagreements.append(f"explorer covers, {cls} says not coverable: {spec} {target}")
                    continue
                if verdict.coverable:
                    try:
                        checked_witness(spec, target, static_witness_run(spec, verdict, cls))
                    except WitnessExtractionFailed as exc:
                        disagreements.append(f"{cls} positive without a witness ({exc}): {spec} {target}")
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
                checked_witness(spec, target, run)
            except WitnessExtractionFailed as exc:
                disagreements.append(f"rbn positive without a witness ({exc}): {spec} {target}")
                continue
            agreed += 1
    for line in disagreements:
        print(f"  disagreement: {line}")
    assert not disagreements, f"{len(disagreements)} disagreements"
    return agreed, 0


def sweep_rbn_pushdown_batched_vs_per_query(rng, rounds):
    """On pushdown models, the unlocking trace and unlocked process equal
    those of a loop issuing one ``pds_coverable`` call per query, and every
    rbn verdict, asked alone or as part of a batch of the model's targets,
    equals plain coverability in that unlocked process.  Counts one check
    per trace and two per target."""
    checks = 0
    for _ in range(rounds):
        spec = random_pushdown(rng, max_states=6, max_rules=20, letters="mnopq")
        rbn_unlock.cache_clear()
        trace, unlocked = unlock_one_query_at_a_time(spec)
        assert rbn_unlock(spec) == (trace, unlocked), spec
        checks += 1
        targets = tuple(
            PdsConfig(state, "".join(
                rng.choice(spec.stack_alphabet) for _ in range(rng.randint(0, 3))
            ))
            for state in spec.states
        )
        for target in targets:
            alone = pds_coverable(unlocked, target)
            for result in (rbn_coverable(spec, target), rbn_coverable(spec, target, batch=targets)):
                assert result.verdict == alone, (spec, target)
                assert result.trace == trace
                checks += 1
    return checks, 0


def sweep_unbacked_static_positives(rng, rounds):
    """On counter models that are not receive-total, whose receives may
    decrement and need not be complete, every ``coverable`` that
    ``cli.run_query`` reports under ``path-bounded:2`` or ``clique``
    carries a witness run that replays and covers the target; ``unknown``
    is allowed.  Counts one check per positive, and skips the queries
    answered ``unknown`` or stopped by their limits."""
    limits = ResourceLimits(max_basis=300, max_iters=12)
    checked = skipped = 0
    for i in range(rounds):
        spec = random_vass(rng, max_states=4, max_dim=2, max_trans=10, letters="ab")
        if i % 2:
            spec = complete_receives(spec, "sink")
        if spec.receive_total:
            continue
        queries = tuple(
            Query(state, (0,) * spec.dim, None, cls, None, None, 0)
            for state in spec.states
            for cls in (PathBounded(2), Clique())
        )
        model = ModelFile(spec, queries)
        for index, query in enumerate(queries):
            row = run_query(model, query, index, limits, want_witness=True)
            if row.verdict != VERDICT_COVERABLE:
                skipped += row.verdict != VERDICT_NOT
                continue
            assert row.witness is not None, (spec, query)
            checked_witness(spec, query.target(spec), row.witness)
            checked += 1
    return checked, skipped


def sweep_static_skipping_vs_complete(rng, rounds):
    """On counter models, receive-total or not, the fixed-topology verdicts
    (path-bounded, clique, diam-deg up to 3 nodes), or the limit each
    query ran out at, have the same ``repr`` whether or not saturation
    skips the products of predecessor graphs its parent embeds into by the
    identity.  Counts one check per query."""
    return _same_fixed_topology_verdicts(rng, rounds, CompleteGraphSpace)


def sweep_static_key_vs_plain_order(rng, rounds):
    """On counter models, receive-total or not, the fixed-topology verdicts
    (path-bounded, clique, diam-deg up to 3 nodes), or the limit each
    query ran out at, have the same ``repr`` whether the graph order tests
    packed count keys before its embedding search or runs the search
    alone.  Counts one check per query."""
    return _same_fixed_topology_verdicts(rng, rounds, PlainOrderGraphSpace)


def _same_fixed_topology_verdicts(rng, rounds, oracle_space):
    """One check per query: the verdict's ``repr`` (or the limit's) with
    ``static_cover.GraphSpace`` equals the one with ``oracle_space`` in
    its place.  Half the models are receive-total."""
    limits = ResourceLimits(max_basis=300, max_iters=20)

    def decide_all(spec, targets):
        out = []
        for target in targets:
            for cls in (PathBounded(2), PathBounded(3), Clique()):
                out.append(decide(static_coverable, spec, target, cls, limits))
            out.append(decide(diam_deg_coverable, spec, target, 2, 2, 3, limits))
        return out

    def decide(decider, *args):
        try:
            return repr(decider(*args))
        except ResourceExhausted as exc:
            return repr((exc.reason, exc.iterations, exc.basis_size))

    checks = 0
    plain = static_cover.GraphSpace
    for i in range(rounds):
        spec = random_receive_total(rng) if i % 2 else random_vass(
            rng, max_states=4, max_dim=2, max_trans=10, letters="ab")
        targets = tuple(
            VassConfig(state, tuple(rng.choice((0, 1)) for _ in range(spec.dim)))
            for state in spec.states
        )
        got = decide_all(spec, targets)
        static_cover.GraphSpace = oracle_space
        try:
            want = decide_all(spec, targets)
        finally:
            static_cover.GraphSpace = plain
        for g, w in zip(got, want):
            assert g == w, (spec, g, w)
            checks += 1
    return checks, 0


# (smaller, larger) topology classes: a graph on at most n vertices has no
# simple path longer than n-1 edges, a path bound or vertex cap only
# admits more graphs as it grows, and rewiring may leave every link as it is
LATTICE_INCLUSIONS = (
    (DiamDeg(1, 2, 2), PathBounded(1)),
    (DiamDeg(2, 2, 3), PathBounded(2)),
    (DiamDeg(2, 3, 4), PathBounded(3)),
    (PathBounded(1), PathBounded(2)),
    (PathBounded(2), PathBounded(3)),
    (DiamDeg(1, 2, 2), DiamDeg(1, 2, 3)),
    (DiamDeg(2, 2, 3), DiamDeg(2, 2, 4)),
    (PathBounded(3), Reconfigurable()),
    (Clique(), Reconfigurable()),
    (DiamDeg(2, 2, 4), Reconfigurable()),
    (DiamDeg(2, 3, 4), Reconfigurable()),
)


def sweep_class_lattice(rng, rounds):
    """On counter models, receive-total or not, a positive over a topology
    class is a positive over every class containing it
    (:data:`LATTICE_INCLUSIONS`).  Each class is decided by its own
    decider, with no shortcut through a larger class: ``diam_deg_coverable``
    for diam-deg, ``static_coverable`` for path-bounded and clique,
    ``rbn_coverable`` for rbn.  Counts one check per inclusion whose two
    queries were decided, and skips those where either ran out of its
    limits.  Prints every contradiction, then fails."""
    limits = ResourceLimits(max_basis=300, max_iters=20)

    def decide(spec, target, cls):
        try:
            if isinstance(cls, DiamDeg):
                return diam_deg_coverable(spec, target, cls.k, cls.d, cls.n_max, limits).coverable
            if isinstance(cls, Reconfigurable):
                return rbn_coverable(spec, target, limits).coverable
            return static_coverable(spec, target, cls, limits).coverable
        except ResourceExhausted:
            return None

    checks = skipped = 0
    contradictions = []
    for i in range(rounds):
        spec = random_receive_total(rng) if i % 2 else random_vass(
            rng, max_states=4, max_dim=2, max_trans=10, letters="ab")
        for state in spec.states:
            target = VassConfig(state, tuple(rng.choice((0, 1)) for _ in range(spec.dim)))
            verdicts = {}
            for small, large in LATTICE_INCLUSIONS:
                for cls in (small, large):
                    if cls not in verdicts:
                        verdicts[cls] = decide(spec, target, cls)
                if verdicts[small] is None or verdicts[large] is None:
                    skipped += 1
                elif verdicts[small] and not verdicts[large]:
                    contradictions.append(
                        f"coverable under {small}, not under {large}: {spec} {target}")
                else:
                    checks += 1
    for line in contradictions:
        print(f"  contradiction: {line}")
    assert not contradictions, f"{len(contradictions)} lattice contradictions"
    return checks, skipped


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
        ("rbn pushdown batched vs per-query", sweep_rbn_pushdown_batched_vs_per_query),
        ("fixed-topology positive vs replay, not receive-total", sweep_unbacked_static_positives),
        ("fixed-topology skipping vs complete predecessors", sweep_static_skipping_vs_complete),
        ("fixed-topology key prefilter vs plain embedding order", sweep_static_key_vs_plain_order),
        ("topology class lattice", sweep_class_lattice),
    ]:
        agreed, skipped = sweep(rng, args.rounds)
        note = f", {skipped} skipped" if skipped else ""
        print(f"{name}: {agreed} agreements over {args.rounds} rounds{note}")


if __name__ == "__main__":
    main()
