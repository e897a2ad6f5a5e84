"""Brute-force reference implementations the suite checks the package
against.  Everything here favors obviousness over speed and shares no
logic with the code under test beyond the process successor relation.
"""

from __future__ import annotations

import itertools
from collections import deque

from bncover import Label, VassConfig, vass_leq


def scan_minimal(configs, order) -> set:
    """Elements with no other input element strictly below them."""
    out = set()
    for c in configs:
        if not any(order(d, c) and d != c for d in configs):
            out.add(c)
    return out


def member_of_up(config, basis, order) -> bool:
    return any(order(b, config) for b in basis)


def forward_cover(spec, target, counter_cap=8, depth_cap=12):
    """Breadth-first forward search in the plain process transition system.

    Returns (covered, complete): ``complete`` means the reachable state
    space was exhausted without hitting the counter or depth cap, so a
    negative answer is definitive.
    """
    tle = spec.leq
    labels = spec.labels
    seen = set(spec.initial_configs())
    frontier = deque((c, 0) for c in seen)
    complete = True
    covered = any(tle(target, c) for c in seen)
    while frontier:
        config, depth = frontier.popleft()
        if depth >= depth_cap:
            complete = False
            continue
        for label in labels:
            for succ in spec.successors(config, label):
                if isinstance(succ, VassConfig) and any(x > counter_cap for x in succ.counters):
                    complete = False
                    continue
                if hasattr(succ, "stack") and len(succ.stack) > counter_cap + 1:
                    complete = False
                    continue
                if succ in seen:
                    continue
                seen.add(succ)
                if tle(target, succ):
                    covered = True
                frontier.append((succ, depth + 1))
    return covered, complete


def injections_brute(g1, g2, label_leq):
    """All induced label-dominating injections, by raw permutation scan."""
    found = []
    for image in itertools.permutations(range(g2.n), g1.n):
        if any(not label_leq(g1.labels[u], g2.labels[image[u]]) for u in range(g1.n)):
            continue
        ok = True
        for u, v in itertools.combinations(range(g1.n), 2):
            if g1.adjacent(u, v) != g2.adjacent(image[u], image[v]):
                ok = False
                break
        if ok:
            found.append(image)
    return found


def embeds_brute(g1, g2, label_leq) -> bool:
    return bool(injections_brute(g1, g2, label_leq))


def longest_path_brute(g) -> int:
    """Longest simple path by checking every vertex ordering prefix."""
    best = 0
    for perm in itertools.permutations(range(g.n)):
        length = 0
        for a, b in zip(perm, perm[1:]):
            if not g.adjacent(a, b):
                break
            length += 1
        best = max(best, length)
    return best


def diameter_brute(g):
    """All-pairs shortest paths by triple-loop relaxation."""
    import math

    if g.n == 0:
        return 0
    dist = [[0 if i == j else (1 if g.adjacent(i, j) else math.inf) for j in range(g.n)]
            for i in range(g.n)]
    for k in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return max(dist[i][j] for i in range(g.n) for j in range(g.n))


def multiset_embeds_brute(m1, m2, order) -> bool:
    m1, m2 = list(m1), list(m2)
    if len(m1) > len(m2):
        return False
    return any(
        all(order(a, m2[j]) for a, j in zip(m1, image))
        for image in itertools.permutations(range(len(m2)), len(m1))
    )


def isomorphic_brute(g1, g2) -> bool:
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False
    trivial = lambda a, b: True
    from bncover import LabelledGraph

    l1 = LabelledGraph(g1.n, g1.edges, (None,) * g1.n)
    l2 = LabelledGraph(g2.n, g2.edges, (None,) * g2.n)
    return embeds_brute(l1, l2, trivial)


def graphs_upto_iso_brute(n):
    """Every n-vertex graph up to isomorphism, deduplicated by the minimum
    adjacency bitmask over all vertex permutations."""
    from bncover import Graph

    pairs = list(itertools.combinations(range(n), 2))
    reps = {}
    for mask in range(1 << len(pairs)):
        edges = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
        best = None
        for perm in itertools.permutations(range(n)):
            bits = 0
            for a, b in edges:
                i, j = sorted((perm[a], perm[b]))
                bits |= 1 << (i * n + j)
            if best is None or bits < best:
                best = bits
        if best not in reps:
            reps[best] = Graph(n, edges)
    return list(reps.values())
