"""Graph enumeration and graph measures against networkx's atlas of every
graph on up to 7 vertices, one per isomorphism class."""

import math
from collections import defaultdict

import pytest

nx = pytest.importorskip("networkx")
from networkx.algorithms import isomorphism  # noqa: E402

from bncover import (  # noqa: E402
    Graph,
    PathBounded,
    diameter,
    enumerate_diam_deg_graphs,
    grow,
    in_class,
    max_degree,
)

ATLAS = nx.graph_atlas_g()


def to_graph(g) -> Graph:
    return Graph(g.number_of_nodes(), frozenset(g.edges()))


def to_nx(g: Graph):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def degree_sequence(g) -> tuple:
    return tuple(sorted(deg for _, deg in g.degree()))


def assert_same_classes(mine, reference):
    """``mine`` holds exactly one graph isomorphic to each of ``reference``."""
    assert len(mine) == len(reference)
    buckets = defaultdict(list)
    for g in mine:
        h = to_nx(g)
        buckets[degree_sequence(h)].append(h)
    for r in reference:
        matches = [h for h in buckets[degree_sequence(r)] if nx.is_isomorphic(h, r)]
        assert len(matches) == 1, list(r.edges())


def test_grow_matches_atlas():
    # growth starts at one vertex, so the atlas's empty graph is skipped;
    # no simple path on seven vertices has more than six edges
    graphs = grow(PathBounded(6), 7)
    for n, count in enumerate((1, 2, 4, 11, 34, 156, 1044), start=1):
        atlas_n = [g for g in ATLAS if g.number_of_nodes() == n]
        assert len(atlas_n) == count
        assert_same_classes([g for g in graphs if g.n == n], atlas_n)


@pytest.mark.parametrize(
    "k,d,n_max", [(1, 3, 5), (2, 2, 7), (2, 3, 7), (3, 2, 7), (3, 3, 7), (2, 4, 6), (4, 2, 6)]
)
def test_enumerate_diam_deg_graphs_matches_atlas(k, d, n_max):
    reference = [
        g for g in ATLAS
        if 1 <= g.number_of_nodes() <= n_max
        and nx.is_connected(g)
        and nx.diameter(g) <= k
        and max((deg for _, deg in g.degree()), default=0) <= d
    ]
    assert_same_classes(enumerate_diam_deg_graphs(k, d, n_max), reference)


def longest_path_by_monomorphism(g) -> int:
    """Most edges on a simple path: the longest path graph that ``g``
    contains as a (not necessarily induced) subgraph."""
    for length in range(g.number_of_nodes() - 1, 0, -1):
        matcher = isomorphism.GraphMatcher(g, nx.path_graph(length + 1))
        if matcher.subgraph_is_monomorphic():
            return length
    return 0


def test_graph_measures_match_atlas():
    for g in ATLAS[1:]:  # the atlas opens with the graph on no vertices
        mine = to_graph(g)
        expected_diameter = nx.diameter(g) if nx.is_connected(g) else math.inf
        assert diameter(mine) == expected_diameter, list(g.edges())
        assert max_degree(mine) == max(deg for _, deg in g.degree())
        longest = longest_path_by_monomorphism(g)
        for k in range(1, mine.n + 1):
            assert in_class(mine, PathBounded(k)) == (longest <= k), (list(g.edges()), k)


def test_automorphisms_match_atlas():
    for g in ATLAS[1:]:
        if g.number_of_nodes() > 6:
            break
        autos = to_graph(g).automorphisms()
        assert list(autos) == sorted(autos)
        reference = {
            tuple(m[v] for v in range(g.number_of_nodes()))
            for m in isomorphism.GraphMatcher(g, g).isomorphisms_iter()
        }
        assert set(autos) == reference and len(autos) == len(reference), list(g.edges())
