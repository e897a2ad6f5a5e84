import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bncover import (
    ClassViolation,
    Clique,
    DiamDeg,
    Graph,
    LabelledGraph,
    PathBounded,
    Reconfigurable,
    VassConfig,
    canonical_form,
    diameter,
    enumerate_diam_deg_graphs,
    enumerate_extensions,
    graph_embeds,
    graph_injections,
    grow,
    in_class,
    max_degree,
    single_vertex,
    vass_leq,
)

from conftest import cfg, random_labelled_graph
from oracles import (
    diameter_brute,
    embeds_brute,
    graphs_upto_iso_brute,
    isomorphic_brute,
    longest_path_brute,
    multiset_embeds_brute,
)


def star(leaves):
    return Graph(leaves + 1, frozenset((0, i) for i in range(1, leaves + 1)))


def path(n):
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def cycle(n):
    return Graph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def clique(labels):
    return Graph.complete(len(labels)).labelled(tuple(labels))


# ---------------------------------------------------------------------------
# embedding


def test_single_vertex_embeds_by_label_dominance():
    small = single_vertex(cfg("q", 0))
    big = LabelledGraph(2, frozenset({(0, 1)}), (cfg("p", 1), cfg("q", 3)))
    assert graph_embeds(small, big, vass_leq) == (1,)


def test_edge_does_not_embed_into_non_edge():
    small = LabelledGraph(2, frozenset({(0, 1)}), (cfg("q", 0), cfg("q", 0)))
    big = LabelledGraph(2, frozenset(), (cfg("q", 0), cfg("q", 0)))
    assert graph_embeds(small, big, vass_leq) is None
    # and the other way around: a non-edge does not embed into an edge
    assert graph_embeds(big, small, vass_leq) is None


def test_embeds_agrees_with_brute_force():
    from oracles import injections_brute

    rng = random.Random(61)
    pairs = [
        (random_labelled_graph(rng, max_n=4), random_labelled_graph(rng, max_n=5))
        for _ in range(60)
    ]
    # pairs sharing one shape: a random graph, relabelled at random, once
    # over the same shape object and once over an equal copy of it
    for i in range(60):
        g1 = random_labelled_graph(rng, max_n=5, states="p", max_counter=1)
        labels = tuple(cfg("p", rng.randint(0, 2)) for _ in range(g1.n))
        g2 = g1.shape.labelled(labels) if i % 2 else LabelledGraph(g1.n, g1.edges, labels)
        pairs.append((g1, g2))
    same_shape_hits = 0
    for g1, g2 in pairs:
        got = graph_embeds(g1, g2, vass_leq)
        expected = embeds_brute(g1, g2, vass_leq)
        assert (got is not None) == expected, (g1, g2)
        # the first embedding in lexicographic order, exactly
        assert got == (injections_brute(g1, g2, vass_leq) or [None])[0], (g1, g2)
        same_shape_hits += got is not None and g1.edges == g2.edges and g1.n == g2.n
        if got is not None:
            for u in range(g1.n):
                assert vass_leq(g1.labels[u], g2.labels[got[u]])
                for v in range(u):
                    assert g1.adjacent(u, v) == g2.adjacent(got[u], got[v])
    assert same_shape_hits >= 30


def test_counting_prefilter_never_rejects_an_embedding():
    from bncover import GraphSpace, VassSpec
    from bncover.static_cover import WILDCARD

    def label_leq(a, b):
        return a is WILDCARD or (b is not WILDCARD and vass_leq(a, b))

    def wild(g, share):
        return g.shape.labelled(tuple(WILDCARD if rng.random() < share else l for l in g.labels))

    def space(states):
        return GraphSpace(VassSpec(states, 1, (("p", (0,)),), ()), PathBounded(9))

    # the same states listed in two orders: neither space may read the
    # other's keys, which every pair below is keyed under in turn
    pq, qp = space(("p", "q")), space(("q", "p"))
    rng = random.Random(73)
    embedded = rejected = 0
    for i in range(300):
        small = random_labelled_graph(rng, max_n=4, max_counter=1)
        if i % 2:
            # a supergraph: extra vertices, extra edges to them, larger counters
            extra = rng.randint(0, 2)
            n = small.n + extra
            edges = set(small.edges) | {
                (a, b) for b in range(small.n, n) for a in range(b) if rng.random() < 0.5
            }
            labels = tuple(cfg(l.state, l.counters[0] + rng.randint(0, 1)) for l in small.labels)
            labels += tuple(cfg(rng.choice("pq"), 1) for _ in range(extra))
            large = LabelledGraph(n, frozenset(edges), labels)
        else:
            large = random_labelled_graph(rng, max_n=5, max_counter=1)
        small, large = wild(small, 0.3), wild(large, 0.15)
        admitted = pq._counts.admits(small, large)
        embeds = embeds_brute(small, large, label_leq)
        assert qp._counts.admits(small, large) == admitted, (small, large)
        assert pq._counts.admits(small, large) == admitted, (small, large)
        assert pq.leq(small, large) == qp.leq(small, large) == embeds, (small, large)
        if embeds:
            assert admitted, (small, large)
            embedded += 1
        rejected += not admitted
    assert embedded >= 60 and rejected >= 60
    # the keys stay out of equality, hashing and repr
    assert "_count_key" in vars(small) and "_count_key" not in repr(small)
    assert small == small.shape.labelled(small.labels)

    # counts past the largest field value (127) are clamped, and the
    # embedding search still decides
    p = lambda k, size: LabelledGraph(size, frozenset(), (cfg("p", k),) * size)
    assert pq.leq(p(0, 129), p(1, 130)) and pq.leq(p(0, 130), p(0, 130))
    assert pq._counts.admits(p(0, 130), p(0, 129)) and not pq.leq(p(0, 130), p(0, 129))
    assert not pq._counts.admits(p(0, 127), p(0, 126))


def test_embedding_is_reflexive_and_transitive():
    rng = random.Random(67)
    graphs = [random_labelled_graph(rng, max_n=4) for _ in range(12)]
    order = lambda a, b: graph_embeds(a, b, vass_leq) is not None
    for g in graphs:
        assert order(g, g)
    for a in graphs:
        for b in graphs:
            for c in graphs:
                if order(a, b) and order(b, c):
                    assert order(a, c)


def test_injections_enumerates_all():
    from oracles import injections_brute

    rng = random.Random(71)
    for _ in range(20):
        s1 = random_labelled_graph(rng, max_n=3).shape
        s2 = random_labelled_graph(rng, max_n=5).shape
        mine = set(graph_injections(s1, s2))
        l1 = LabelledGraph(s1.n, s1.edges, (None,) * s1.n)
        l2 = LabelledGraph(s2.n, s2.edges, (None,) * s2.n)
        brute = set(injections_brute(l1, l2, lambda a, b: True))
        assert mine == brute


# ---------------------------------------------------------------------------
# metrics


def test_star_longest_path_is_two_edges():
    assert [in_class(star(4), PathBounded(k)) for k in range(1, 6)] == [False] + [True] * 4


def test_single_vertex_longest_path_is_zero():
    assert in_class(Graph(1), PathBounded(1))


def test_longest_path_matches_permutation_oracle():
    rng = random.Random(73)
    for _ in range(25):
        g = random_labelled_graph(rng, max_n=6).shape
        longest = longest_path_brute(g)
        for k in range(1, g.n + 1):
            assert in_class(g, PathBounded(k)) == (longest <= k), (g, k)


def test_cycle_metrics():
    assert diameter(cycle(5)) == 2
    assert max_degree(cycle(5)) == 2


def test_star_metrics():
    assert diameter(star(5)) == 2
    assert max_degree(star(5)) == 5


def test_disconnected_diameter_is_infinite():
    assert diameter(Graph(3, frozenset({(0, 1)}))) == math.inf


def test_diameter_matches_all_pairs_oracle():
    rng = random.Random(79)
    for _ in range(25):
        g = random_labelled_graph(rng, max_n=6).shape
        assert diameter(g) == diameter_brute(g)


# ---------------------------------------------------------------------------
# multisets: embedding between cliques, as the clique route orders them


def test_multiset_embeds_trivial():
    assert graph_embeds(clique([cfg("q", 1)]), clique([cfg("q", 2), cfg("p", 0)]), vass_leq)


def test_multiset_embeds_respects_cardinality():
    assert graph_embeds(clique([cfg("q", 1), cfg("q", 1)]), clique([cfg("q", 1)]), vass_leq) is None


def test_multiset_embeds_agrees_with_brute_force():
    rng = random.Random(83)
    for _ in range(60):
        m1 = [VassConfig(rng.choice("pq"), (rng.randint(0, 2),)) for _ in range(rng.randint(0, 4))]
        m2 = [VassConfig(rng.choice("pq"), (rng.randint(0, 2),)) for _ in range(rng.randint(0, 5))]
        embeds = graph_embeds(clique(m1), clique(m2), vass_leq) is not None
        assert embeds == multiset_embeds_brute(m1, m2, vass_leq)


def test_clique_bridge():
    # on cliques, graph embedding and label-multiset embedding coincide
    rng = random.Random(89)
    for _ in range(30):
        n1, n2 = rng.randint(1, 4), rng.randint(1, 5)
        mk = lambda n: tuple(
            VassConfig(rng.choice("pq"), (rng.randint(0, 2),)) for _ in range(n)
        )
        l1, l2 = mk(n1), mk(n2)
        g1 = LabelledGraph(n1, Graph.complete(n1).edges, l1)
        g2 = LabelledGraph(n2, Graph.complete(n2).edges, l2)
        assert (graph_embeds(g1, g2, vass_leq) is not None) == multiset_embeds_brute(
            l1, l2, vass_leq
        )


# ---------------------------------------------------------------------------
# classes and extensions


def test_clique_extension_of_single_vertex():
    out = enumerate_extensions(Graph(1), Clique())
    assert out == (Graph.complete(2),)


def test_path_bounded_extensions_of_a_two_edge_path():
    # attaching to the center keeps the bound; endpoints break it
    g = path(3)
    out = enumerate_extensions(g, PathBounded(2))
    survivors = {frozenset(h.neighbors(3)) for h in out}
    assert survivors == {frozenset(), frozenset({1})}
    assert all(longest_path_brute(h) <= 2 for h in out)


def test_path_bounded_one_extensions_of_edgeless_pair():
    out = enumerate_extensions(Graph(2), PathBounded(1))
    survivors = {frozenset(h.neighbors(2)) for h in out}
    assert survivors == {frozenset(), frozenset({0}), frozenset({1})}


def test_diam_deg_has_fixed_shape_semantics():
    assert enumerate_extensions(path(2), DiamDeg(2, 2)) == ()


def test_extension_of_non_member_raises():
    with pytest.raises(ClassViolation):
        enumerate_extensions(path(4), PathBounded(2))


def test_every_extension_contains_the_original_induced():
    rng = random.Random(97)
    for _ in range(15):
        g = random_labelled_graph(rng, max_n=4).shape
        k = longest_path_brute(g) + rng.randint(0, 1)
        cls = PathBounded(max(k, 1))
        if not in_class(g, cls):
            continue
        for h in enumerate_extensions(g, cls):
            lg = LabelledGraph(g.n, g.edges, (None,) * g.n)
            lh = LabelledGraph(h.n, h.edges, (None,) * h.n)
            assert graph_embeds(lg, lh, lambda a, b: True) is not None


def _random_shape(rng, max_n):
    n = rng.randint(0, max_n)
    density = rng.random()
    return Graph(n, frozenset(
        (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < density
    ))


def test_path_bounded_class_check_is_the_exact_longest_path():
    rng = random.Random(181)
    members = 0
    for _ in range(150):
        g = _random_shape(rng, 7)
        longest = longest_path_brute(g)
        for k in range(1, 6):
            assert in_class(g, PathBounded(k)) == (longest <= k), (g, k)
            members += longest <= k
    assert 100 < members < 700


def test_path_bounded_extensions_equal_the_brute_force_filter():
    # every attachment mask in ascending order, kept when the whole-graph
    # class test allows it; the pruned search through the fresh vertex must
    # give the same graphs in order.  The class test is the exact longest
    # path (checked against the permutation oracle above); the oracle
    # itself would scan 40,320 orderings for each 8-vertex extension
    rng = random.Random(191)
    compared = 0
    while compared < 60:
        g = _random_shape(rng, 7)
        k = rng.randint(1, 5)
        if longest_path_brute(g) > k:
            continue
        brute = []
        for mask in range(1 << g.n):
            h = Graph(g.n + 1, g.edges | {(v, g.n) for v in range(g.n) if mask >> v & 1})
            if in_class(h, PathBounded(k)):
                brute.append(h)
        got = enumerate_extensions(g, PathBounded(k))
        assert got == tuple(brute), (g, k)
        assert [list(h.edges) for h in got] == [list(h.edges) for h in brute]
        compared += 1


def test_diam_deg_membership_bounds_the_degree():
    # the star K1,3 has diameter 2 but a vertex of degree 3
    assert in_class(star(3), DiamDeg(2, 3))
    assert not in_class(star(3), DiamDeg(2, 2))


def test_reconfigurable_accepts_everything():
    assert in_class(path(4), Reconfigurable())


def test_diam_deg_vertex_cap_is_part_of_the_class():
    assert in_class(path(3), DiamDeg(2, 2)) and in_class(path(3), DiamDeg(2, 2, 3))
    assert not in_class(path(3), DiamDeg(2, 2, 2))
    assert (str(DiamDeg(2, 3)), str(DiamDeg(2, 3, 4))) == ("diam-deg:2,3", "diam-deg:2,3,4")
    with pytest.raises(ValueError):
        DiamDeg(2, 2, 0)


# ---------------------------------------------------------------------------
# canonical forms and enumeration


def test_canonical_form_is_relabelling_invariant():
    rng = random.Random(101)
    for _ in range(30):
        g = random_labelled_graph(rng, max_n=6).shape
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph(g.n, frozenset((perm[a], perm[b]) for a, b in g.edges))
        assert canonical_form(g) == canonical_form(h)


def test_canonical_form_separates_non_isomorphic():
    assert canonical_form(path(4)) != canonical_form(star(3))
    assert canonical_form(cycle(4)) != canonical_form(Graph.complete(4))


def test_grow_counts_every_graph():
    # graphs up to isomorphism on 1..6 vertices: no simple path on six
    # vertices has more than five edges
    graphs = grow(PathBounded(5), 6)
    assert [sum(g.n == n for g in graphs) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]


def test_diameter_one_forces_cliques():
    got = {canonical_form(g) for g in enumerate_diam_deg_graphs(1, 2, 4)}
    assert got == {canonical_form(Graph.complete(n)) for n in (1, 2, 3)}


def test_degree_one_allows_single_edges_only():
    got = {canonical_form(g) for g in enumerate_diam_deg_graphs(2, 1, 3)}
    assert got == {canonical_form(Graph(1)), canonical_form(Graph.complete(2))}


def test_diam2_deg2_maxes_out_at_the_five_cycle():
    graphs = enumerate_diam_deg_graphs(2, 2, 6)
    assert max(g.n for g in graphs) == 5
    biggest = [g for g in graphs if g.n == 5]
    assert len(biggest) == 1
    assert isomorphic_brute(biggest[0], cycle(5))


def test_enumerate_diam_deg_matches_exhaustive_oracle():
    wanted = {}
    for n in range(1, 5):
        for g in graphs_upto_iso_brute(n):
            if diameter(g) <= 2 and max_degree(g) <= 2:
                wanted[canonical_form(g)] = g
    got = {canonical_form(g) for g in enumerate_diam_deg_graphs(2, 2, 4)}
    assert got == set(wanted)


def test_self_loops_rejected():
    with pytest.raises(ValueError):
        Graph(2, frozenset({(1, 1)}))


def test_labelled_graphs_share_their_shape():
    g = LabelledGraph(3, frozenset({(1, 0), (1, 2)}), (cfg("p", 0),) * 3)
    h = g.with_labels({0: cfg("q", 1)})
    assert h.shape is g.shape and h.edges is g.edges
    same = g.shape.labelled(g.labels)
    assert same == g and hash(same) == hash(g) and repr(same) == repr(g)
    assert "shape" not in repr(g) and "neighborhoods" not in repr(g.shape)
    assert g.neighbors(1) == (0, 2) and g.shape.degree(1) == 2 and not g.adjacent(0, 2)
    assert g.shape.neighborhoods == ((1,), (0, 2), (1,))
    assert h.neighbors(1) is g.neighbors(1) is g.shape.neighborhoods[1]
    with pytest.raises(ValueError):
        g.shape.labelled((cfg("p", 0),))
