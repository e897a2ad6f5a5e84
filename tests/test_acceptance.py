"""Acceptance criteria, one test per criterion, each printing a pass line
with its measured numbers.  Tolerances and budgets are pinned here.
"""

import random
import time

import pytest

from bncover import (
    Clique,
    Label,
    PathBounded,
    PdsConfig,
    Reconfigurable,
    ResourceLimits,
    VassConfig,
    backward_coverability,
    basis_subsumes,
    bn_step,
    canonical_form,
    diameter,
    enumerate_diam_deg_graphs,
    explore,
    graph_embeds,
    in_class,
    max_degree,
    multiset_embeds,
    parse_model,
    pds_coverable,
    rbn_coverable,
    rbn_witness,
    replay,
    run_queries,
    static_coverable,
    static_pre_basis,
    vass_leq,
)
from bncover.static_cover import GraphSpace

from conftest import MODELS, cfg, random_finite, random_pushdown, random_vass
from oracles import (
    embeds_brute,
    forward_cover,
    graphs_upto_iso_brute,
    isomorphic_brute,
    multiset_embeds_brute,
)


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def relay_traces(relay):
    """Collected (spec, trace) pairs, shared with the loop-bound criterion."""
    return []


def _check_trace_bounds(spec, trace):
    sigma = len(spec.alphabet)
    total_enabling = sum(
        len(spec.min_enabling(Label.broadcast(a))) for a in spec.alphabet
    )
    assert len(trace.rounds) <= sigma + 1, "sweep bound exceeded"
    assert trace.total_queries <= max(total_enabling, 1) ** 2, "query bound exceeded"
    for sweep in trace.rounds[:-1]:
        assert sweep.unlocked, "an inner sweep unlocked nothing"


def test_criterion_1_rewirable_relay_reproduction(relay, relay_traces):
    t0 = time.perf_counter()
    for state in ("q4", "q5"):
        started = time.perf_counter()
        result = rbn_coverable(relay, cfg(state, 0))
        elapsed = time.perf_counter() - started
        assert result.coverable, state
        assert elapsed < 5.0, f"{state} took {elapsed:.2f}s"
        relay_traces.append((relay, result.trace))
        run = rbn_witness(relay, cfg(state, 0), result.trace, max_nodes=3, max_depth=6)
        assert run[0].graph.n <= 3, state
        assert len(run) - 1 <= 12, state
        outcome = replay(relay, run)
        assert outcome, outcome.reason
        assert any(vass_leq(cfg(state, 0), l) for l in run[-1].graph.labels)
    report(1, f"q4 and q5 coverable with replay-valid <=3-node witnesses, {time.perf_counter()-t0:.2f}s")


def test_criterion_2_static_impossibility(relay, lone_receiver):
    t0 = time.perf_counter()
    for cls in (PathBounded(2), Clique()):
        started = time.perf_counter()
        verdict = static_coverable(lone_receiver, VassConfig("qq"), cls)
        elapsed = time.perf_counter() - started
        assert not verdict.coverable
        assert elapsed < 1.0, f"{cls} took {elapsed:.2f}s"
    started = time.perf_counter()
    verdict = static_coverable(relay, cfg("q4", 0), PathBounded(2), ResourceLimits())
    elapsed = time.perf_counter() - started
    assert not verdict.coverable  # resource exhaustion would raise instead
    assert elapsed < 600.0, f"relay q4 took {elapsed:.2f}s"
    report(2, f"lone receiver <1s per class, relay q4 path-bounded in {elapsed:.3f}s")


def test_criterion_3_rewiring_equals_plain_on_broadcast_only(relay_traces):
    rng = random.Random(20240301)
    t0 = time.perf_counter()
    for i in range(50):
        spec = random_vass(rng, max_states=4, max_dim=2, broadcast_only=True)
        target = VassConfig(
            rng.choice(spec.states), tuple(rng.choice((0, 1)) for _ in range(spec.dim))
        )
        plain = backward_coverability(spec, target)
        result = rbn_coverable(spec, target)
        assert result.coverable == plain.coverable, (i, spec, target)
        relay_traces.append((spec, result.trace))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"{elapsed:.1f}s"
    report(3, f"50/50 agreements in {elapsed:.2f}s")


def test_criterion_4_oracle_soundness_sweep(relay_traces):
    rng = random.Random(20240402)
    t0 = time.perf_counter()
    positives = 0
    for i in range(100):
        spec = random_finite(rng, max_states=4, max_letters=3, max_trans=6)
        for state in spec.states:
            target = VassConfig(state)
            found = any(
                explore(spec, Reconfigurable(), nodes, 12, target) is not None
                for nodes in range(1, 5)
            )
            if found:
                result = rbn_coverable(spec, target)
                assert result.coverable, (i, spec, target)
                relay_traces.append((spec, result.trace))
                positives += 1
    elapsed = time.perf_counter() - t0
    assert positives >= 100  # the sweep must actually exercise positives
    report(4, f"{positives} explore-positives all confirmed, 0 disagreements, {elapsed:.1f}s")


def test_criterion_5_loop_bounds(relay, relay_traces):
    # the earlier criteria collected traces from every model they touched;
    # add the bundled models for good measure
    for path in ("relay.bn", "lone_receiver.bn", "handshake_pushdown.bn"):
        model = parse_model((MODELS / path).read_text())
        for query in model.queries:
            if query.semantics != "rbn":
                continue
            result = rbn_coverable(model.process, query.target(model.process))
            relay_traces.append((model.process, result.trace))
    assert len(relay_traces) >= 150
    for spec, trace in relay_traces:
        _check_trace_bounds(spec, trace)
    report(5, f"{len(relay_traces)} traces within |alphabet|+1 sweeps and C^2 queries")


def test_criterion_6_embedding_oracle_equivalence():
    rng = random.Random(20240603)
    t0 = time.perf_counter()
    from conftest import random_labelled_graph

    for i in range(200):
        g1 = random_labelled_graph(rng, max_n=7)
        g2 = random_labelled_graph(rng, max_n=7)
        assert (graph_embeds(g1, g2, vass_leq) is not None) == embeds_brute(
            g1, g2, vass_leq
        ), i
    graphs_elapsed = time.perf_counter() - t0
    t1 = time.perf_counter()
    for i in range(200):
        m1 = [
            VassConfig(rng.choice("pq"), (rng.randint(0, 3),))
            for _ in range(rng.randint(0, 6))
        ]
        m2 = [
            VassConfig(rng.choice("pq"), (rng.randint(0, 3),))
            for _ in range(rng.randint(0, 6))
        ]
        assert multiset_embeds(m1, m2, vass_leq) == multiset_embeds_brute(
            m1, m2, vass_leq
        ), i
    total = time.perf_counter() - t0
    assert total < 30.0, f"{total:.1f}s"
    report(6, f"200+200 agreements in {total:.2f}s (graphs {graphs_elapsed:.2f}s)")


def test_criterion_7_pre_basis_single_step_soundness():
    rng = random.Random(20240704)
    t0 = time.perf_counter()
    from bncover import LabelledGraph, complete_receives

    emitted_total = 0
    instances = 0
    while instances < 100:
        spec = complete_receives(random_finite(rng), "sink")
        n = rng.randint(1, 3)
        edges = frozenset(
            (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5
        )
        theta = LabelledGraph(
            n, edges, tuple(VassConfig(rng.choice(spec.states)) for _ in range(n))
        )
        if not in_class(theta.shape, PathBounded(2)):
            continue
        instances += 1
        space = GraphSpace(spec, PathBounded(2))
        for emitted in static_pre_basis(spec, theta, PathBounded(2)):
            ok = any(
                graph_embeds(theta, after, space.label_leq) is not None
                for v in range(emitted.n)
                for letter in spec.alphabet
                for after in bn_step(spec, emitted, v, letter)
            )
            assert ok, (spec, theta, emitted)
            emitted_total += 1
    elapsed = time.perf_counter() - t0
    report(7, f"100 instances, {emitted_total} emitted graphs all reach the target in one step, {elapsed:.1f}s")


def test_criterion_8_pushdown_engine(relay_traces):
    rng = random.Random(20240805)
    t0 = time.perf_counter()
    agreements = 0
    for i in range(50):
        spec = random_pushdown(rng)
        stack = "".join(
            rng.choice(spec.stack_alphabet) for _ in range(rng.randint(0, 2))
        )
        target = PdsConfig(rng.choice(spec.states), stack)
        covered, complete = forward_cover(spec, target, counter_cap=7, depth_cap=16)
        verdict = pds_coverable(spec, target)
        if covered:
            assert verdict.coverable, (i, spec, target)
            agreements += 1
        elif complete:
            assert not verdict.coverable, (i, spec, target)
            agreements += 1
    model = parse_model((MODELS / "handshake_pushdown.bn").read_text())
    spec = model.process
    done = rbn_coverable(spec, PdsConfig("done", ""))
    stuck = rbn_coverable(spec, PdsConfig("stuck", ""))
    assert done.coverable and not stuck.coverable  # hand-derived verdicts
    relay_traces.append((spec, done.trace))
    relay_traces.append((spec, stuck.trace))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"{elapsed:.1f}s"
    report(8, f"{agreements} bounded-search agreements plus handshake verdicts in {elapsed:.2f}s")


def _diam_deg_exhaustive_oracle(k, d, n_max):
    # every edge subset, predicate-filtered, then deduplicated by pairwise
    # isomorphism tests; independent of the augmentation-based enumerator
    import itertools

    from bncover import Graph
    from oracles import diameter_brute

    reps = []
    for n in range(1, n_max + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
            degrees = [0] * n
            for a, b in edges:
                degrees[a] += 1
                degrees[b] += 1
            if max(degrees, default=0) > d:
                continue
            g = Graph(n, edges)
            if diameter_brute(g) > k:
                continue
            if not any(isomorphic_brute(g, r) for r in reps):
                reps.append(g)
    return reps


def test_criterion_9_diameter_degree_enumeration():
    t0 = time.perf_counter()
    graphs = enumerate_diam_deg_graphs(2, 2, 6)
    biggest = max(graphs, key=lambda g: g.n)
    assert biggest.n == 5
    five_cycle_edges = frozenset((i, (i + 1) % 5) for i in range(5))
    from bncover import Graph

    assert isomorphic_brute(biggest, Graph(5, five_cycle_edges))
    wanted = _diam_deg_exhaustive_oracle(2, 2, 6)
    assert len(graphs) == len(wanted)
    for w in wanted:
        assert sum(1 for g in graphs if isomorphic_brute(g, w)) == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"{elapsed:.1f}s"
    report(9, f"{len(graphs)} graphs, maximum size 5 (the 5-cycle), oracle-matched in {elapsed:.2f}s")


def test_criterion_10_saturation_invariants(relay, lone_receiver):
    rounds_checked = 0
    violations = 0

    def observer(old, new):
        nonlocal rounds_checked, violations
        rounds_checked += 1
        if not basis_subsumes(new, old, vass_leq):
            violations += 1

    def graph_observer_for(space):
        def observer(old, new):
            nonlocal rounds_checked, violations
            rounds_checked += 1
            if not basis_subsumes(new, old, space.leq):
                violations += 1
            for i, a in enumerate(new):
                for j, b in enumerate(new):
                    if i != j and space.leq(a, b):
                        violations += 1
        return observer

    finals = []
    rng = random.Random(20241006)
    for _ in range(30):
        spec = random_vass(rng)
        target = VassConfig(
            rng.choice(spec.states), tuple(rng.choice((0, 1)) for _ in range(spec.dim))
        )
        v = backward_coverability(spec, target, observer=observer)
        finals.append((v.basis, vass_leq))
    for state in ("q1", "q4", "q5"):
        space = GraphSpace(relay, PathBounded(2))
        v = static_coverable(
            relay, cfg(state, 0), PathBounded(2), observer=graph_observer_for(space)
        )
        finals.append((v.basis, space.leq))
    space = GraphSpace(lone_receiver, Clique())
    v = static_coverable(
        lone_receiver, VassConfig("qq"), Clique(), observer=graph_observer_for(space)
    )
    finals.append((v.basis, space.leq))

    for basis, order in finals:
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                if i != j:
                    assert not order(a, b), "final basis is not an antichain"
    assert violations == 0
    assert rounds_checked >= 20
    report(10, f"{rounds_checked} instrumented rounds, {len(finals)} final bases, 0 violations")
