import dataclasses
import random

import pytest

from bncover import (
    WILDCARD,
    Clique,
    DiamDeg,
    GraphSpace,
    Label,
    LabelledGraph,
    PathBounded,
    PushdownSpec,
    ResourceExhausted,
    ResourceLimits,
    VassConfig,
    backward_coverability,
    bn_step,
    complete_receives,
    diam_deg_coverable,
    explore,
    finite_spec,
    graph_embeds,
    in_class,
    minimize,
    replay,
    single_vertex,
    static_coverable,
    static_witness_run,
    vass_leq,
)

from conftest import cfg, random_finite, random_receive_total, random_vass
from oracles import CompleteGraphSpace


def edgeless(*labels):
    return LabelledGraph(len(labels), frozenset(), labels)


def edge(a, b):
    return LabelledGraph(2, frozenset({(0, 1)}), (a, b))


def complete_basis(spec, theta):
    """Minimal predecessor graphs of ``theta`` one broadcast back under
    ``path-bounded:2``, over every letter, from the complete construction."""
    space = CompleteGraphSpace(spec, PathBounded(2))
    graphs = (g for a in space.labels for g in space.pre_basis_for_label(a, (theta,)))
    return minimize(tuple(graphs), space.leq)


def same_graph(a, b):
    trivial = lambda x, y: (x is y) or (x == y)
    return (
        graph_embeds(a, b, trivial) is not None
        and graph_embeds(b, a, trivial) is not None
    )


def test_pre_basis_of_single_q5_hand_enumerated(relay):
    # one broadcast back from "a vertex at q5 or above": either the vertex
    # itself broadcast d out of (q3,1), or a fresh unattached vertex
    # broadcast anything while q5 sat elsewhere; attached fresh vertices
    # would force a receive into q5, which nothing provides
    theta = single_vertex(cfg("q5", 0))
    basis = complete_basis(relay, theta)
    expected = [
        single_vertex(cfg("q3", 1)),
        edgeless(cfg("q5", 0), cfg("q0", 1)),
        edgeless(cfg("q5", 0), cfg("q7", 1)),
        edgeless(cfg("q5", 0), cfg("q8", 1)),
    ]
    assert len(basis) == len(expected)
    for want in expected:
        assert any(same_graph(want, got) for got in basis), want


def test_pre_basis_without_receives_keeps_shape():
    # no receive transitions: same-shape relabellings only come from
    # broadcast predecessors, and no attached extension can fire
    spec = finite_spec(
        ["x", "y"], ["x"], [("x", Label.broadcast("m"), "y")]
    )
    theta = single_vertex(VassConfig("y"))
    basis = complete_basis(spec, theta)
    assert any(same_graph(g, single_vertex(VassConfig("x"))) for g in basis)
    for g in basis:
        if g.n == 2:
            assert not g.edges  # attached broadcasters would need a receive


def test_emitted_graphs_reach_up_theta_in_one_step():
    rng = random.Random(103)
    checked = 0
    for _ in range(30):
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
        space = GraphSpace(spec, PathBounded(2))
        for emitted in complete_basis(spec, theta):
            ok = False
            for v in range(emitted.n):
                for letter in spec.alphabet:
                    for after in bn_step(spec, emitted, v, letter):
                        if graph_embeds(theta, after, space.label_leq) is not None:
                            ok = True
            assert ok, (spec, theta, emitted)
            checked += 1
    assert checked >= 20


def test_lone_receiver_never_covered_statically(lone_receiver):
    for cls in (PathBounded(2), Clique()):
        verdict = static_coverable(lone_receiver, VassConfig("qq"), cls)
        assert not verdict.coverable


def test_relay_q4_not_coverable_on_short_path_topologies(relay):
    verdict = static_coverable(relay, cfg("q4", 0), PathBounded(2))
    assert not verdict.coverable
    assert verdict.chain is None


def test_relay_q4_not_coverable_on_cliques(relay):
    assert not static_coverable(relay, cfg("q4", 0), Clique()).coverable


def test_relay_statically_coverable_states(relay):
    # q5 works on a static edge: the partner relays b and c back and
    # dead-receives the final d; q4 alone needs rewiring
    for state, expected in [("q1", True), ("q7", True), ("q8", True), ("q5", True), ("q4", False)]:
        verdict = static_coverable(relay, cfg(state, 0), PathBounded(2))
        assert verdict.coverable == expected, state
        found = any(
            explore(relay, PathBounded(2), n, 8, cfg(state, 0)) is not None
            for n in (1, 2)
        )
        if found:
            assert verdict.coverable, state


def test_static_witness_replays(relay):
    verdict = static_coverable(relay, cfg("q7", 0), PathBounded(2))
    run = static_witness_run(relay, verdict, PathBounded(2))
    outcome = replay(relay, run)
    assert outcome, outcome.reason
    final = run[-1].graph
    assert any(vass_leq(cfg("q7", 0), l) for l in final.labels)


def test_broadcast_only_static_equals_plain_coverability():
    rng = random.Random(107)
    agreements = 0
    for _ in range(15):
        spec = random_vass(rng, max_dim=1, broadcast_only=True)
        target = VassConfig(
            rng.choice(spec.states), tuple(rng.choice((0, 1)) for _ in range(spec.dim))
        )
        plain = backward_coverability(spec, target)
        for cls in (PathBounded(2), Clique()):
            static = static_coverable(spec, target, cls)
            assert static.coverable == plain.coverable, (spec, target, cls)
            agreements += 1
    assert agreements == 30


def _empty_stores():
    """Empty the process-wide stores: shape work and predecessor bases."""
    from bncover import static_cover

    static_cover._extension_table.cache_clear()
    static_cover._diam_deg_shapes.cache_clear()
    static_cover._pre_bases.cache_clear()


def test_a_second_query_builds_no_shape_work_again(relay, monkeypatch):
    from bncover import static_cover

    extended: list = []
    enumerated: list = []
    plain_extensions = static_cover.enumerate_extensions
    plain_shapes = static_cover.enumerate_diam_deg_graphs

    def counting_extensions(shape, cls):
        extended.append((cls, shape))
        return plain_extensions(shape, cls)

    def counting_shapes(*args):
        enumerated.append(args)
        return plain_shapes(*args)

    monkeypatch.setattr(static_cover, "enumerate_extensions", counting_extensions)
    monkeypatch.setattr(static_cover, "enumerate_diam_deg_graphs", counting_shapes)

    def decided(verdict):
        return repr((verdict.basis, verdict.chain))

    _empty_stores()
    cold = static_coverable(relay, cfg("q4", 0), PathBounded(3))
    # one enumeration per (class, shape) pair
    tables = static_cover._extension_table.cache_info().currsize
    assert 0 < len(extended) == len(set(extended)) == tables
    seen = set(extended)
    extended.clear()
    warm = static_coverable(relay, cfg("q4", 0), PathBounded(3))
    assert extended == []
    assert decided(warm) == decided(cold)
    # another target enumerates only shapes not met before
    warm = static_coverable(relay, cfg("q7", 0), PathBounded(3))
    assert not seen & set(extended)
    _empty_stores()
    assert decided(warm) == decided(static_coverable(relay, cfg("q7", 0), PathBounded(3)))

    _empty_stores()
    cold = diam_deg_coverable(relay, cfg("q4", 0), 2, 2, 3)
    assert len(enumerated) == 1
    warm = diam_deg_coverable(relay, cfg("q4", 0), 2, 2, 3)
    assert len(enumerated) == 1
    assert decided(warm) == decided(cold)


def test_a_second_query_on_an_equal_process_computes_no_pre_basis_again(relay, monkeypatch):
    from bncover import vass

    keys: list = []
    plain = vass.vass_pre_basis

    def counting(spec, label, basis):
        keys.append((spec, label, tuple(basis)))
        return plain(spec, label, basis)

    monkeypatch.setattr(vass, "vass_pre_basis", counting)

    def decided(verdict):
        return repr((verdict.basis, verdict.chain))

    _empty_stores()
    cold = static_coverable(relay, cfg("q4", 0), PathBounded(3))
    assert keys
    seen = set(keys)
    keys.clear()
    # an equal but distinct process object, and a target met before and one not
    twin = dataclasses.replace(relay)
    assert twin is not relay and twin == relay
    warm = static_coverable(twin, cfg("q4", 0), PathBounded(3))
    assert keys == []
    assert decided(warm) == decided(cold)
    static_coverable(twin, cfg("q7", 0), PathBounded(3))
    assert not seen & set(keys)


def test_predecessor_rows_are_built_once_per_label_letter_and_sigil(relay, monkeypatch):
    from bncover import VassSpec

    calls: list = []
    plain_pre, plain_enabling = VassSpec.pre_basis_for_label, VassSpec.min_enabling

    def counting_pre(spec, label, basis):
        calls.extend((c, label.letter, label.sigil) for c in basis)
        return plain_pre(spec, label, basis)

    def counting_enabling(spec, label):
        calls.append((WILDCARD, label.letter, label.sigil))
        return plain_enabling(spec, label)

    monkeypatch.setattr(VassSpec, "pre_basis_for_label", counting_pre)
    monkeypatch.setattr(VassSpec, "min_enabling", counting_enabling)

    _empty_stores()
    cold = static_coverable(relay, cfg("q4", 0), DiamDeg(2, 2, 3))
    assert calls and len(calls) == len(set(calls))
    # wildcard rows and labelled rows, under both sigils
    assert {c[0] is WILDCARD for c in calls} == {True, False}
    assert {c[2] for c in calls} == {"!!", "??"}
    calls.clear()
    warm = static_coverable(relay, cfg("q4", 0), DiamDeg(2, 2, 3))
    assert calls == []
    assert repr(warm) == repr(cold)


def test_verdicts_do_not_depend_on_the_order_of_queries(relay):
    rng = random.Random(163)
    queries = [(relay, cfg("q4", 0)), (relay, cfg("q7", 0))]
    for _ in range(10):
        spec = random_receive_total(rng)
        queries.append((spec, VassConfig(rng.choice(spec.states), (0,) * spec.dim)))
    classes = (PathBounded(2), PathBounded(3), Clique(), DiamDeg(2, 2, 3))
    queries = [(spec, target, cls) for spec, target in queries for cls in classes]

    # each pass starts from empty stores and fills them in its own order
    _empty_stores()
    forward = [static_coverable(*q) for q in queries]
    _empty_stores()
    backward = [static_coverable(*q) for q in reversed(queries)]
    assert repr(forward) == repr(backward[::-1])
    assert sum(v.coverable for v in forward) >= 5
    assert sum(not v.coverable for v in forward) >= 5


def test_basis_graphs_stay_in_class(relay):
    for cls in (PathBounded(2), Clique()):
        verdict = static_coverable(relay, cfg("q4", 0), cls)
        for g in verdict.basis:
            assert in_class(g.shape, cls)


def test_graph_level_compatibility_on_completed_processes():
    # theta1 embedded in theta1' and theta1 steps: theta1' can answer
    def successors(spec, theta, letter):
        return [t for v in range(theta.n) for t in bn_step(spec, theta, v, letter)]

    rng = random.Random(109)
    probes = 0
    for _ in range(12):
        spec = complete_receives(random_finite(rng), "sink")
        space = GraphSpace(spec, PathBounded(3))
        n = rng.randint(1, 2)
        small = LabelledGraph(
            n,
            frozenset((a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5),
            tuple(VassConfig(rng.choice(spec.states)) for _ in range(n)),
        )
        extra = rng.randint(0, 1)
        m = n + extra
        big_edges = set(small.edges)
        for b in range(n, m):
            for a in range(b):
                if rng.random() < 0.5:
                    big_edges.add((a, b))
        big = LabelledGraph(
            m, frozenset(big_edges),
            small.labels + tuple(VassConfig(rng.choice(spec.states)) for _ in range(extra)),
        )
        if graph_embeds(small, big, space.label_leq) is None:
            continue
        for letter in spec.alphabet:
            for succ in successors(spec, small, letter):
                answers = successors(spec, big, letter)
                assert any(
                    graph_embeds(succ, t, space.label_leq) is not None for t in answers
                ), (spec, small, big, letter, succ)
                probes += 1
    assert probes >= 5


def test_diam_deg_single_shape_broadcast_only_equals_plain():
    rng = random.Random(113)
    for _ in range(10):
        spec = random_vass(rng, max_dim=1, broadcast_only=True)
        target = VassConfig(
            rng.choice(spec.states), tuple(rng.choice((0, 1)) for _ in range(spec.dim))
        )
        plain = backward_coverability(spec, target)
        fixed = diam_deg_coverable(spec, target, 1, 1, 1)
        assert fixed.coverable == plain.coverable


def test_relay_q4_not_coverable_under_diam_deg(relay):
    verdict = diam_deg_coverable(relay, cfg("q4", 0), 2, 4, 3)
    assert not verdict.coverable


def test_a_target_in_an_undeclared_state_is_not_coverable(relay):
    # no vertex ever takes the state, so the target graph stays the basis;
    # the deciders take the target as given, without the parser's checks
    target = cfg("undeclared", 0)
    verdicts = [
        diam_deg_coverable(relay, target, 2, 2, 3),
        static_coverable(relay, target, PathBounded(2)),
        static_coverable(relay, target, Clique()),
    ]
    for verdict in verdicts:
        assert not verdict.coverable
        assert [g.labels for g in verdict.basis] == [(target,)]


def test_two_node_partner_requirement():
    # receiving m needs an adjacent broadcaster; on two nodes that exists
    # exactly when the process has the matching broadcast
    with_partner = finite_spec(
        ["s0", "s1", "s2"], ["s0"],
        [("s0", Label.receive("m"), "s1"), ("s0", Label.broadcast("m"), "s2")],
    )
    without = finite_spec(["s0", "s1"], ["s0"], [("s0", Label.receive("m"), "s1")])
    got = diam_deg_coverable(with_partner, VassConfig("s1"), 1, 1, 2)
    assert got.coverable
    assert not diam_deg_coverable(without, VassConfig("s1"), 1, 1, 2).coverable
    # cross-check by forward exploration on the fixed two-node topology
    assert explore(with_partner, DiamDeg(1, 1), 2, 4, VassConfig("s1")) is not None
    assert explore(without, DiamDeg(1, 1), 2, 4, VassConfig("s1")) is None


def test_explorer_runs_imply_fixed_topology_positives():
    # a run the explorer finds on 2-3 nodes of the class is real, so the
    # over-approximating deciders must answer coverable
    rng = random.Random(149)
    deep = 0
    for _ in range(30):
        spec = random_receive_total(rng)
        for state in spec.states:
            target = VassConfig(state, (0,) * spec.dim)
            for cls in (PathBounded(2), Clique(), DiamDeg(2, 2, 3)):
                runs = [explore(spec, cls, n, 8, target) for n in (2, 3)]
                runs = [run for run in runs if run is not None]
                if not runs:
                    continue
                deep += min(len(run) for run in runs) > 2  # two broadcasts or more
                assert static_coverable(spec, target, cls).coverable, (spec, target, cls)
    assert deep >= 5


def test_wildcard_is_a_bottom_label(relay):
    space = GraphSpace(relay, DiamDeg(2, 2))
    assert space.label_leq(WILDCARD, cfg("q0", 0))
    assert space.label_leq(WILDCARD, WILDCARD)
    assert not space.label_leq(cfg("q0", 0), WILDCARD)
    assert space.covered_by_initial(edgeless(WILDCARD, cfg("q0", 1)))


def test_static_rejects_pushdown_processes():
    from bncover import PdsRule

    spec = PushdownSpec(
        ("q",), ("A",), ("q",),
        (PdsRule("q", Label.broadcast("a"), "", "q", "A"),),
    )
    with pytest.raises(TypeError):
        static_coverable(spec, VassConfig("q"), PathBounded(2))


def test_static_rejects_non_static_classes(relay):
    from bncover import Reconfigurable

    with pytest.raises(ValueError):
        static_coverable(relay, cfg("q4", 0), Reconfigurable())
    # a diam-deg class is decided up to its vertex cap, so it must carry one
    with pytest.raises(ValueError):
        static_coverable(relay, cfg("q4", 0), DiamDeg(2, 2))


# ---------------------------------------------------------------------------
# the graph layer's shortcuts leave every result as the plain search gives it


def _reference_pre_graphs(spec, cls, theta, letter):
    """Predecessor graphs built without shortcuts: ``theta`` placed into
    each extension by every injection, per-vertex bases looked up for every
    candidate, and a candidate kept exactly when the plain embedding search
    finds ``theta`` below one of its successors."""
    import itertools

    from bncover import Graph, enumerate_extensions, graph_injections

    bl, rl = Label.broadcast(letter), Label.receive(letter)

    def label_leq(a, b):
        return a is WILDCARD or (b is not WILDCARD and vass_leq(a, b))

    def vertex_pre(label_value, label):
        if label_value is WILDCARD:
            return spec.min_enabling(label)
        return minimize(spec.pre_basis_for_label(label, (label_value,)), vass_leq)

    def reaches(before, v):
        return any(
            graph_embeds(theta, after, label_leq) is not None
            for after in bn_step(spec, before, v, letter)
        )

    out = []
    for v in range(theta.n):
        nbrs = theta.neighbors(v)
        for cv in vertex_pre(theta.labels[v], bl):
            for combo in itertools.product(*(vertex_pre(theta.labels[u], rl) for u in nbrs)):
                before = theta.with_labels({v: cv, **dict(zip(nbrs, combo))})
                if reaches(before, v):
                    out.append(before)
    for ext in enumerate_extensions(theta.shape, cls):
        ext = Graph(ext.n, ext.edges)
        for inj in graph_injections(theta.shape, ext):
            fresh = next(w for w in range(ext.n) if w not in inj)
            back = {w: i for i, w in enumerate(inj)}
            nbrs = ext.neighbors(fresh)
            for cv in spec.min_enabling(bl):
                receivers = (vertex_pre(theta.labels[back[u]], rl) for u in nbrs)
                for combo in itertools.product(*receivers):
                    labels = [cv if w == fresh else theta.labels[back[w]] for w in range(ext.n)]
                    for u, cu in zip(nbrs, combo):
                        labels[u] = cu
                    before = ext.labelled(tuple(labels))
                    if reaches(before, fresh):
                        out.append(before)
    return tuple(out)


def test_pre_graphs_equal_the_plain_embedding_reference():
    rng = random.Random(151)
    compared = emitted = 0
    while compared < 80:
        spec = random_receive_total(rng)
        cls = rng.choice((PathBounded(2), PathBounded(3), Clique(), DiamDeg(2, 2)))
        n = rng.randint(1, 3)
        edges = frozenset(
            (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.6
        )
        shape = LabelledGraph(n, edges, (None,) * n).shape
        if not in_class(shape, cls):
            continue
        labels = tuple(
            WILDCARD if isinstance(cls, DiamDeg) and rng.random() < 0.4
            else VassConfig(rng.choice(spec.states), tuple(rng.randint(0, 1) for _ in range(spec.dim)))
            for _ in range(n)
        )
        theta = shape.labelled(labels)
        gspace = GraphSpace(spec, cls)
        for letter in spec.alphabet:
            got = gspace.pre_graphs(theta, letter)
            reference = _reference_pre_graphs(spec, cls, theta, letter)
            # the reference places theta in every way; the identity placements
            # come in the same order, and each other one is isomorphic to one
            rest = iter(map(repr, reference))
            assert all(repr(g) in rest for g in got), (spec, cls, theta, letter)
            for r in reference:
                assert any(gspace.leq(r, g) and gspace.leq(g, r) for g in got), (
                    spec, cls, theta, letter, r)
            emitted += len(got)
        compared += 1
    assert emitted >= 200


def test_saturation_matches_the_one_over_every_placement():
    # building predecessors from every placement of theta only adds
    # isomorphic copies, so verdicts, round counts and basis sizes agree
    class EveryPlacementGraphSpace(GraphSpace):
        def pre_graphs(self, theta, letter, *, skip_above=False):
            return _reference_pre_graphs(self.spec, self.cls, theta, letter)

    def summary(verdict):
        labels = None if verdict.chain is None else tuple(l for _, l in verdict.chain if l is not None)
        return (verdict.coverable, verdict.iterations, len(verdict.basis), labels)

    rng = random.Random(171)
    positives = negatives = 0
    for _ in range(20):
        spec = random_receive_total(rng)
        for state in spec.states:
            target = VassConfig(state, (0,) * spec.dim)
            if spec.covered_by_initial(target):
                continue
            for cls in (PathBounded(2), PathBounded(3), Clique()):
                seed = single_vertex(target)
                got = backward_coverability(GraphSpace(spec, cls), seed)
                want = backward_coverability(EveryPlacementGraphSpace(spec, cls), seed)
                assert summary(got) == summary(want), (spec, target, cls)
                if got.coverable:
                    run = static_witness_run(spec, got, cls)
                    assert replay(spec, run), (spec, target, cls)
                    assert any(vass_leq(target, c) for c in run[-1].graph.labels)
                    positives += 1
                else:
                    negatives += 1
    assert positives >= 20 and negatives >= 20


def test_counting_model_under_clique_builds_few_predecessors(counting, monkeypatch):
    # a clique on n vertices has (n+1)! placements in its one extension;
    # one predecessor is built per extension instead
    emitted = []
    plain = GraphSpace.pre_graphs

    def counting_pre_graphs(self, theta, letter, **kwargs):
        out = plain(self, theta, letter, **kwargs)
        emitted.append(len(out))
        return out

    monkeypatch.setattr(GraphSpace, "pre_graphs", counting_pre_graphs)
    target = VassConfig("s6")
    verdict = static_coverable(counting, target, Clique())
    assert (verdict.coverable, verdict.iterations, len(verdict.basis)) == (True, 7, 8)
    assert sum(emitted) < 100
    run = static_witness_run(counting, verdict, Clique())
    assert replay(counting, run)
    assert any(vass_leq(target, c) for c in run[-1].graph.labels)


def test_counting_prefilter_spares_embedding_searches(relay, monkeypatch):
    from bncover import static_cover

    calls = {"leq": 0, "graph_embeds": 0}
    plain_leq, plain_embeds = GraphSpace.leq, static_cover.graph_embeds

    def counting_leq(self, t1, t2):
        calls["leq"] += 1
        return plain_leq(self, t1, t2)

    def counting_embeds(*args):
        calls["graph_embeds"] += 1
        return plain_embeds(*args)

    monkeypatch.setattr(GraphSpace, "leq", counting_leq)
    monkeypatch.setattr(static_cover, "graph_embeds", counting_embeds)
    verdict = diam_deg_coverable(relay, cfg("q4", 0), 2, 2, 4)
    assert (verdict.coverable, verdict.iterations, len(verdict.basis)) == (False, 16, 5)
    assert 0 < calls["graph_embeds"] < calls["leq"]


def test_saturation_is_the_same_with_candidates_minimized_first(relay, monkeypatch):
    from bncover import static_cover

    dropped = []

    class MinimizingGraphSpace(GraphSpace):
        """Candidates minimized before the engine's own keep loop sees them."""

        def pre_basis_for_label(self, letter, thetas):
            out = super().pre_basis_for_label(letter, thetas)
            kept = minimize(out, self.leq)
            dropped.append(len(out) - len(kept))
            return kept

    def decide_all():
        out = [
            static_coverable(relay, cfg("q4", 0), PathBounded(3)),
            static_coverable(relay, cfg("q4", 0), Clique()),
            diam_deg_coverable(relay, cfg("q4", 0), 2, 2, 3),
        ]
        rng = random.Random(157)
        for _ in range(12):
            spec = random_receive_total(rng)
            for state in spec.states:
                target = VassConfig(state, (0,) * spec.dim)
                if spec.covered_by_initial(target):
                    continue
                out.append(static_coverable(spec, target, PathBounded(2)))
                out.append(static_coverable(spec, target, Clique()))
                out.append(diam_deg_coverable(spec, target, 2, 2, 3))
        return out

    unminimized = decide_all()
    monkeypatch.setattr(static_cover, "GraphSpace", MinimizingGraphSpace)
    minimized = decide_all()
    assert repr(unminimized) == repr(minimized)
    assert sum(v.coverable for v in minimized) >= 5
    assert sum(not v.coverable for v in minimized) >= 10
    assert sum(dropped) >= 100  # the minimization being skipped is not idle


def test_relay_q4_under_diam_deg_on_four_vertices_of_degree_three(relay):
    verdict = diam_deg_coverable(relay, cfg("q4", 0), 2, 3, 4)
    assert (verdict.coverable, verdict.iterations, len(verdict.basis)) == (False, 43, 7)


def test_saturation_is_the_same_when_predecessors_above_the_parent_are_built(monkeypatch):
    # a candidate theta embeds into by the identity lies above the parent,
    # which is in the antichain, so the keep loop drops it either way
    from bncover import static_cover

    built = {"skipping": 0, "complete": 0}

    class SkippingGraphSpace(GraphSpace):
        def pre_basis_for_label(self, letter, thetas):
            out = super().pre_basis_for_label(letter, thetas)
            built["skipping"] += len(out)
            return out

    class CountingCompleteGraphSpace(CompleteGraphSpace):
        def pre_basis_for_label(self, letter, thetas):
            out = super().pre_basis_for_label(letter, thetas)
            built["complete"] += len(out)
            return out

    def decide_all(space):
        monkeypatch.setattr(static_cover, "GraphSpace", space)
        out = []
        rng = random.Random(197)
        for _ in range(16):
            spec = random_receive_total(rng)
            for state in spec.states:
                target = VassConfig(state, (0,) * spec.dim)
                for cls in (PathBounded(2), PathBounded(3), Clique()):
                    out.append(static_coverable(spec, target, cls))
                out.append(diam_deg_coverable(spec, target, 2, 2, 3))
        return out

    skipping = decide_all(SkippingGraphSpace)
    complete = decide_all(CountingCompleteGraphSpace)
    assert list(map(repr, skipping)) == list(map(repr, complete))
    assert sum(v.coverable for v in skipping) >= 20
    assert sum(not v.coverable for v in skipping) >= 20
    assert built["complete"] - built["skipping"] >= 500  # the skip is not idle


def test_a_path_bounded_negative_settles_diam_deg_without_the_shapes(relay, monkeypatch):
    # diam-deg:2,3,6 lies inside path-bounded:5, which refutes q4 at once
    from bncover import static_cover

    def shape_loop(*args, **kwargs):
        raise AssertionError("the shape loop ran")

    monkeypatch.setattr(static_cover, "diam_deg_coverable", shape_loop)
    verdict = static_coverable(relay, cfg("q4", 0), DiamDeg(2, 3, 6))
    wider = static_coverable(relay, cfg("q4", 0), PathBounded(5))
    assert not verdict.coverable
    assert repr(verdict) == repr(wider)


# chain model 10 of the fixed-topology benchmark suite: q9 is coverable on
# a path of 3 edges, but on no graph of diameter 2 and degree 2
CHAIN_10 = """process vass dim=1
init q0 vector=(1)
trans q0 -> q1 on ??c delta=(+1)
trans q1 -> q2 on ??a delta=(+0)
trans q2 -> q3 on ??a delta=(+1)
trans q3 -> q4 on !!a delta=(+1)
init q5 vector=(1)
trans q5 -> q6 on ??c delta=(+0)
trans q6 -> q7 on ??c delta=(+0)
trans q7 -> q8 on !!c delta=(-1)
trans q8 -> q9 on ??c delta=(+0)
trans q5 -> q5 on !!d delta=(-1)
trans q0 -> q7 on !!c delta=(-1)
option complete-receives dead=qdead
query cover state=q9 vector=(0) semantics=diam-deg:2,2,4
"""


def test_a_path_bounded_positive_leaves_diam_deg_to_the_shapes():
    from bncover import parse_model

    spec = parse_model(CHAIN_10).process
    target = cfg("q9", 0)
    assert static_coverable(spec, target, PathBounded(3)).coverable
    verdict = static_coverable(spec, target, DiamDeg(2, 2, 4))
    assert not verdict.coverable
    assert repr(verdict) == repr(diam_deg_coverable(spec, target, 2, 2, 4))


def test_a_wider_run_out_of_limits_leaves_diam_deg_to_the_shapes(relay):
    # path-bounded:1 needs a second round for q2 (a receiver on an edge);
    # the one shape of diam-deg:1,1,1, a lone vertex, is refuted in one
    limits = ResourceLimits(max_iters=1)
    with pytest.raises(ResourceExhausted):
        static_coverable(relay, cfg("q2", 0), PathBounded(1), limits)
    verdict = static_coverable(relay, cfg("q2", 0), DiamDeg(1, 1, 1), limits)
    assert (verdict.coverable, verdict.iterations) == (False, 1)
    assert repr(verdict) == repr(diam_deg_coverable(relay, cfg("q2", 0), 1, 1, 1, limits))
