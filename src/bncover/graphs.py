"""Undirected vertex-labelled graphs, the induced-subgraph embedding order,
topology classes, and small class members enumerated by vertex growth.

An embedding of one labelled graph into another is an injection that
preserves both edges and non-edges among the mapped vertices and sends
every label to a dominating label.  This order drives the network-level
saturation: over path-length-bounded graphs and over cliques it is a
well-quasi ordering, and over a fixed graph shape the labels alone are
compared positionwise.

A graph's adjacency is computed once per :class:`Graph` object, as one
bitmask per vertex; labelled graphs built from one another share their
shape object, so a saturation over one shape builds it once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence, Union

from .order import ResourceExhausted


class SelfLoopError(ValueError):
    pass


def _normalize_edges(n: int, edges) -> frozenset:
    out = set()
    for a, b in edges:
        if a == b:
            raise SelfLoopError(f"self loop at vertex {a}")
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"edge ({a},{b}) references a missing vertex")
        out.add((min(a, b), max(a, b)))
    return frozenset(out)


@dataclass(frozen=True)
class Graph:
    """Unlabelled undirected graph on vertices ``0..n-1``."""

    n: int
    edges: frozenset = frozenset()

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        object.__setattr__(self, "edges", _normalize_edges(self.n, self.edges))

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Neighbors of each vertex as a bitmask (bit ``w`` set for neighbor ``w``)."""
        adj = [0] * self.n
        for a, b in self.edges:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        return tuple(adj)

    def automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """Every automorphism, in lexicographic order of the image tuple."""
        return tuple(graph_injections(self, self))

    def adjacent(self, a: int, b: int) -> bool:
        return bool(self.adjacency[a] >> b & 1)

    @cached_property
    def neighborhoods(self) -> tuple[tuple[int, ...], ...]:
        """Neighbors of each vertex, in ascending order."""
        return tuple(
            tuple(w for w in range(self.n) if mask >> w & 1) for mask in self.adjacency
        )

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.neighborhoods[v]

    def degree(self, v: int) -> int:
        return self.adjacency[v].bit_count()

    def labelled(self, labels: tuple) -> "LabelledGraph":
        """This graph carrying ``labels``, sharing its validated edge set
        and adjacency."""
        if len(labels) != self.n:
            raise ValueError("one label per vertex is required")
        g = object.__new__(LabelledGraph)
        object.__setattr__(g, "n", self.n)
        object.__setattr__(g, "edges", self.edges)
        object.__setattr__(g, "labels", labels)
        object.__setattr__(g, "shape", self)
        return g

    @staticmethod
    def complete(n: int) -> "Graph":
        return Graph(n, frozenset(itertools.combinations(range(n), 2)))


@dataclass(frozen=True)
class LabelledGraph:
    """Graph whose vertices carry process configurations."""

    n: int
    edges: frozenset
    labels: tuple
    shape: Graph = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shape = Graph(self.n, self.edges)
        if len(self.labels) != self.n:
            raise ValueError("one label per vertex is required")
        object.__setattr__(self, "edges", shape.edges)
        object.__setattr__(self, "shape", shape)

    def adjacent(self, a: int, b: int) -> bool:
        return self.shape.adjacent(a, b)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.shape.neighbors(v)

    def with_labels(self, patch: dict) -> "LabelledGraph":
        labels = list(self.labels)
        for v, lbl in patch.items():
            labels[v] = lbl
        return self.shape.labelled(tuple(labels))

    def __str__(self) -> str:
        edges = ",".join(f"{a}-{b}" for a, b in sorted(self.edges))
        labels = "; ".join(str(l) for l in self.labels)
        return f"<{labels} | {edges or 'no edges'}>"


def single_vertex(label) -> LabelledGraph:
    return LabelledGraph(1, frozenset(), (label,))


def _earlier_images(adj_u: int, assign: Sequence[int], u: int) -> int:
    """Bitmask of the images of the neighbors of ``u`` among vertices ``0..u-1``."""
    want = 0
    for v in range(u):
        if adj_u >> v & 1:
            want |= 1 << assign[v]
    return want


def graph_embeds(small: LabelledGraph, large: LabelledGraph, leq: Callable) -> Optional[tuple[int, ...]]:
    """First induced embedding of ``small`` into ``large``, or None.

    The returned tuple maps vertex ``i`` of ``small`` to its image; the
    first embedding in lexicographic order of that tuple is returned.
    Vertices are matched in index order with backtracking over the
    adjacency bitmasks; candidates are pruned by label comparison and by
    degree (an image needs at least the degree of its preimage).
    """
    if small.n > large.n:
        return None
    sadj, gadj = small.shape.adjacency, large.shape.adjacency
    cands: list[list[int]] = []
    for u in range(small.n):
        du = sadj[u].bit_count()
        row = [
            w
            for w in range(large.n)
            if gadj[w].bit_count() >= du and leq(small.labels[u], large.labels[w])
        ]
        if not row:
            return None
        cands.append(row)

    assign = [-1] * small.n

    def backtrack(u: int, used: int) -> bool:
        if u == small.n:
            return True
        want = _earlier_images(sadj[u], assign, u)
        for w in cands[u]:
            if not used >> w & 1 and gadj[w] & used == want:
                assign[u] = w
                if backtrack(u + 1, used | 1 << w):
                    return True
        return False

    return tuple(assign) if backtrack(0, 0) else None


def graph_injections(small: Graph, large: Graph) -> Iterator[tuple[int, ...]]:
    """All induced embeddings of the unlabelled ``small`` into ``large``,
    in lexicographic order of the image tuple."""
    if small.n > large.n:
        return
    sadj, gadj = small.adjacency, large.adjacency
    assign = [-1] * small.n

    def backtrack(u: int, used: int) -> Iterator[tuple[int, ...]]:
        if u == small.n:
            yield tuple(assign)
            return
        want = _earlier_images(sadj[u], assign, u)
        for w in range(large.n):
            if not used >> w & 1 and gadj[w] & used == want:
                assign[u] = w
                yield from backtrack(u + 1, used | 1 << w)

    yield from backtrack(0, 0)


def _path_from(adj: Sequence[int], v: int, length: int, used: int) -> bool:
    """Whether a simple path of ``length`` edges starts at ``v`` and avoids
    the vertices of the bitmask ``used``, which holds ``v``."""
    if length == 0:
        return True
    free = adj[v] & ~used
    while free:
        low = free & -free
        if _path_from(adj, low.bit_length() - 1, length - 1, used | low):
            return True
        free ^= low
    return False


def _path_exceeds(adj: Sequence[int], k: int, through: Optional[int] = None) -> bool:
    """Whether the graph of adjacency bitmasks ``adj`` has a simple path of
    more than ``k`` edges, through vertex ``through`` when given.

    Searches for a path of exactly ``k + 1`` edges and no longer.  Through
    a vertex, the path splits there into two arms: the longer arm is grown
    from ``through``, and the rest is sought from ``through`` avoiding it.
    """
    length = k + 1
    if len(adj) <= length:
        return False
    if through is None:
        return any(_path_from(adj, v, length, 1 << v) for v in range(len(adj)))

    def arm(v: int, grown: int, used: int) -> bool:
        rest = length - grown
        if rest <= grown and _path_from(adj, through, rest, used):
            return True
        free = adj[v] & ~used
        while free:
            low = free & -free
            if arm(low.bit_length() - 1, grown + 1, used | low):
                return True
            free ^= low
        return False

    return arm(through, 0, 1 << through)


def diameter(g: Graph) -> Union[int, float]:
    """Longest shortest path; ``math.inf`` when disconnected."""
    if g.n == 0:
        return 0
    adj = g.neighborhoods
    worst = 0
    for src in range(g.n):
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        if len(dist) < g.n:
            return math.inf
        worst = max(worst, max(dist.values()))
    return worst


def max_degree(g: Graph) -> int:
    return max((g.degree(v) for v in range(g.n)), default=0)


# ---------------------------------------------------------------------------
# topology classes


@dataclass(frozen=True)
class PathBounded:
    """Graphs whose longest simple path has at most ``k`` edges."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("path bound must be at least 1")

    def __str__(self) -> str:
        return f"path-bounded:{self.k}"


@dataclass(frozen=True)
class Clique:
    """Complete graphs (a single clique of any size)."""

    def __str__(self) -> str:
        return "clique"


@dataclass(frozen=True)
class DiamDeg:
    """Connected graphs with diameter at most ``k``, degree at most ``d`` and,
    when ``n_max`` is given, at most ``n_max`` vertices.

    Fixed-shape semantics: saturation never extends these graphs.  Deciding
    the class needs the vertex cap; exploring a fixed node count does not.
    """

    k: int
    d: int
    n_max: Optional[int] = None

    def __post_init__(self):
        if self.k < 1 or self.d < 1 or (self.n_max is not None and self.n_max < 1):
            raise ValueError("diameter, degree and vertex bounds must be at least 1")

    def __str__(self) -> str:
        bounds = (self.k, self.d) if self.n_max is None else (self.k, self.d, self.n_max)
        return "diam-deg:" + ",".join(map(str, bounds))


@dataclass(frozen=True)
class Reconfigurable:
    """No topology restriction; links may be rewired between steps."""

    def __str__(self) -> str:
        return "rbn"


TopologyClass = Union[PathBounded, Clique, DiamDeg, Reconfigurable]


class ClassViolation(ValueError):
    pass


def in_class(shape: Graph, cls: TopologyClass) -> bool:
    if isinstance(cls, PathBounded):
        return not _path_exceeds(shape.adjacency, cls.k)
    if isinstance(cls, Clique):
        return all(shape.adjacent(a, b) for a, b in itertools.combinations(range(shape.n), 2))
    if isinstance(cls, DiamDeg):
        return (
            (cls.n_max is None or shape.n <= cls.n_max)
            and diameter(shape) <= cls.k
            and max_degree(shape) <= cls.d
        )
    if isinstance(cls, Reconfigurable):
        return True
    raise TypeError(f"unknown topology class {cls!r}")


def _attachments(shape: Graph, fits: Callable[[tuple[int, ...]], bool], first: int) -> Iterator[Graph]:
    """``shape`` with the fresh vertex ``shape.n`` attached to each vertex
    subset, in ascending bitmask order from ``first``, kept when ``fits``
    accepts the grown adjacency bitmasks (the fresh vertex last).

    ``fits`` must reject every superset of an attachment it rejects, as
    path and degree bounds do: adding edges never shortens a path or
    lowers a degree.  So once an attachment fails, every superset of it is
    skipped untested.
    """
    fresh = shape.n
    rejected: list[int] = []  # failed attachment masks, none a superset of another
    for mask in range(first, 1 << fresh):
        if any(mask & m == m for m in rejected):
            continue
        adj = [a | (mask >> v & 1) << fresh for v, a in enumerate(shape.adjacency)]
        if not fits((*adj, mask)):
            rejected.append(mask)
            continue
        extra = {(v, fresh) for v in range(fresh) if mask >> v & 1}
        yield Graph(fresh + 1, shape.edges | extra)


def _grown(shape: Graph, cls: TopologyClass) -> Iterator[Graph]:
    """The attachments of a fresh vertex to the member ``shape`` of ``cls``
    that can stay in the class.  Under a path bound only a path through the
    fresh vertex can be too long.  Under ``diam-deg`` degrees are bounded
    and the attachment is nonempty, so the graph stays connected; distances
    shrink as vertices are added, so the diameter waits for the class test.
    A clique takes only the full attachment."""
    if isinstance(cls, PathBounded):
        return _attachments(shape, lambda adj: not _path_exceeds(adj, cls.k, shape.n), 0)
    if isinstance(cls, DiamDeg):
        return _attachments(shape, lambda adj: all(a.bit_count() <= cls.d for a in adj), 1)
    if isinstance(cls, Clique):
        return _attachments(shape, lambda adj: True, (1 << shape.n) - 1)
    raise TypeError(f"cannot grow graphs of class {cls}")


def enumerate_extensions(shape: Graph, cls: TopologyClass) -> tuple[Graph, ...]:
    """Class members on one more vertex that keep ``shape`` induced on its
    own vertices, in ascending order of the fresh vertex's attachment
    bitmask.  Fixed-shape classes extend nothing."""
    if not in_class(shape, cls):
        raise ClassViolation(f"graph is not in class {cls}")
    if isinstance(cls, DiamDeg):
        return ()
    return tuple(_grown(shape, cls))


# ---------------------------------------------------------------------------
# canonical forms and enumeration by growth


def _refined_classes(g: Graph) -> list[list[int]]:
    """Stable vertex partition under iterated neighbor-color refinement,
    classes in an isomorphism-invariant order."""
    colors = [g.degree(v) for v in range(g.n)]
    for _ in range(g.n):
        sigs = [
            (colors[v], tuple(sorted(colors[w] for w in g.neighbors(v))))
            for v in range(g.n)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        refreshed = [rank[s] for s in sigs]
        if refreshed == colors:
            break
        colors = refreshed
    classes: dict[int, list[int]] = {}
    for v in range(g.n):
        classes.setdefault(colors[v], []).append(v)
    return [classes[c] for c in sorted(classes)]


def canonical_form(g: Graph) -> tuple:
    """Isomorphism-invariant key: the minimum adjacency bit string over all
    vertex orderings compatible with the refined color classes."""
    classes = _refined_classes(g)
    best: Optional[int] = None
    for parts in itertools.product(*(itertools.permutations(c) for c in classes)):
        order = [v for part in parts for v in part]
        pos = {v: i for i, v in enumerate(order)}
        bits = 0
        for a, b in g.edges:
            i, j = pos[a], pos[b]
            if i > j:
                i, j = j, i
            bits |= 1 << (i * g.n + j)
        if best is None or bits < best:
            best = bits
    return (g.n, best)


def grow(cls: TopologyClass, n_max: int) -> tuple[Graph, ...]:
    """Members of ``cls`` on 1 to ``n_max`` vertices, one per isomorphism
    class, by vertex growth.

    Every graph is a graph on one vertex fewer plus a vertex attached to a
    subset, and path bounds, degree bounds and cliques are closed under
    induced subgraphs; a connected graph keeps a vertex whose removal
    leaves it connected.  So each level grows the one before it by
    :func:`_grown` and keeps the first graph of each canonical form, and
    the members are the graphs of each level that pass the class test.
    """
    if n_max < 1:
        raise ValueError("need room for at least one vertex")
    if n_max > 8:
        raise ResourceExhausted(f"graph enumeration supports at most 8 vertices, got {n_max}")
    level: tuple[Graph, ...] = (Graph(1),)
    members = [g for g in level if in_class(g, cls)]
    for _ in range(n_max - 1):
        grown: dict[tuple, Graph] = {}
        for g in level:
            for h in _grown(g, cls):
                grown.setdefault(canonical_form(h), h)
        level = tuple(grown.values())
        members.extend(g for g in level if in_class(g, cls))
    return tuple(members)


def enumerate_diam_deg_graphs(k: int, d: int, n_max: int) -> tuple[Graph, ...]:
    """Connected graphs up to isomorphism with at most ``n_max`` vertices,
    diameter at most ``k``, and degree at most ``d``."""
    return grow(DiamDeg(k, d, n_max), n_max)
