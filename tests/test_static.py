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
    static_pre_basis,
    static_witness_run,
    vass_leq,
)

from conftest import cfg, random_finite, random_receive_total, random_vass


def edgeless(*labels):
    return LabelledGraph(len(labels), frozenset(), labels)


def edge(a, b):
    return LabelledGraph(2, frozenset({(0, 1)}), (a, b))


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
    basis = static_pre_basis(relay, theta, PathBounded(2))
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
    basis = static_pre_basis(spec, theta, PathBounded(2))
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
        for emitted in static_pre_basis(spec, theta, PathBounded(2)):
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


def test_extension_tables_over_the_cap_are_rebuilt_alike(relay, monkeypatch):
    from bncover import static_cover

    def decide():
        gspace = GraphSpace(relay, PathBounded(3))
        return gspace, backward_coverability(gspace, single_vertex(cfg("q4", 0)))

    kept_space, kept = decide()
    assert max(len(t) for t in kept_space._ext_cache.values()) > 2
    monkeypatch.setattr(static_cover, "_MAX_TABLE_ROWS", 2)
    capped_space, capped = decide()
    assert all(len(t) <= 2 for t in capped_space._ext_cache.values())
    assert len(capped_space._ext_cache) < len(kept_space._ext_cache)
    assert capped.iterations == kept.iterations
    assert repr((capped.basis, capped.chain)) == repr((kept.basis, kept.chain))


def test_basis_graphs_stay_in_class(relay):
    for cls in (PathBounded(2), Clique()):
        verdict = static_coverable(relay, cfg("q4", 0), cls)
        for g in verdict.basis:
            assert in_class(g.shape, cls)


def test_graph_level_compatibility_on_completed_processes():
    # theta1 embedded in theta1' and theta1 steps: theta1' can answer
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
            for succ in space.successors(small, letter):
                answers = space.successors(big, letter)
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
            for cls in (PathBounded(2), Clique(), DiamDeg(2, 2)):
                runs = [explore(spec, cls, n, 8, target) for n in (2, 3)]
                runs = [run for run in runs if run is not None]
                if not runs:
                    continue
                deep += min(len(run) for run in runs) > 2  # two broadcasts or more
                if isinstance(cls, DiamDeg):
                    verdict = diam_deg_coverable(spec, target, cls.k, cls.d, 3)
                else:
                    verdict = static_coverable(spec, target, cls)
                assert verdict.coverable, (spec, target, cls)
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


# ---------------------------------------------------------------------------
# the graph layer's shortcuts leave every result as the plain search gives it


def _reference_pre_graphs(spec, cls, theta, letter):
    """Predecessor graphs built without shortcuts: per-vertex bases looked up
    for every candidate, and a candidate kept exactly when the plain
    embedding search finds ``theta`` below one of its successors."""
    import itertools

    from bncover import Graph, enumerate_extensions, graph_injections

    bl, rl = Label.broadcast(letter), Label.receive(letter)

    def label_leq(a, b):
        return a is WILDCARD or (b is not WILDCARD and vass_leq(a, b))

    def vertex_pre(label_value, label):
        if label_value is WILDCARD:
            return spec.min_enabling(label)
        return spec.pre_basis_for_label(label, (label_value,))

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
            assert repr(got) == repr(_reference_pre_graphs(spec, cls, theta, letter)), (
                spec, cls, theta, letter)
            emitted += len(got)
        compared += 1
    assert emitted >= 200


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
