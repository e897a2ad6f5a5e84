"""Bounded forward exploration of broadcast network semantics.

A network configuration is a labelled graph; a broadcast step rewrites one
vertex by a ``!!a`` transition and every neighbor simultaneously by a
``??a`` transition, and (under the rewirable semantics) a reconfiguration
step replaces the edge set outright.  The searches here are exact within
their bounds: a returned run is a replayable proof, while coming up empty
proves nothing beyond the explored horizon.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional, Sequence

from .graphs import (
    Clique,
    DiamDeg,
    Graph,
    LabelledGraph,
    Reconfigurable,
    SelfLoopError,
    TopologyClass,
    enumerate_graphs,
    in_class,
)
from .order import ResourceExhausted
from .vass import Label

_sort_key = attrgetter("sort_key")

# a search that would record more states than this raises ResourceExhausted
MAX_STATES = 250_000


@dataclass(frozen=True)
class RunStep:
    """One element of a network run: the reached graph plus how it was reached."""

    kind: str  # "init" | "broadcast" | "reconfigure"
    graph: LabelledGraph
    vertex: Optional[int] = None
    letter: Optional[str] = None


Run = tuple[RunStep, ...]


@dataclass(frozen=True)
class ReplayResult:
    ok: bool
    failed_at: Optional[int] = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def bn_step(spec, theta: LabelledGraph, vertex: int, letter: str) -> tuple[LabelledGraph, ...]:
    """Every broadcast successor of ``theta`` where ``vertex`` emits
    ``letter`` and each of its neighbors simultaneously receives it.

    Empty when the vertex cannot broadcast or some neighbor cannot receive.
    """
    emit = spec.successors(theta.labels[vertex], Label.broadcast(letter))
    if not emit:
        return ()
    nbrs = theta.neighbors(vertex)
    recv = [spec.successors(theta.labels[u], Label.receive(letter)) for u in nbrs]
    if not all(recv):
        return ()
    out = []
    for ev in emit:
        for choice in itertools.product(*recv):
            patch = {vertex: ev}
            for u, cu in zip(nbrs, choice):
                patch[u] = cu
            out.append(theta.with_labels(patch))
    return tuple(out)


def reconfigure(theta: LabelledGraph, new_edges) -> LabelledGraph:
    """Same vertices and labels over a replaced edge set; a self loop
    raises :class:`SelfLoopError`."""
    return LabelledGraph(theta.n, frozenset(tuple(e) for e in new_edges), theta.labels)


def replay(spec, run: Sequence[RunStep]) -> ReplayResult:
    """Check that ``run`` is a legal network execution.

    The first step must present an initial labelling; every later step must
    be a legal broadcast (edges kept, emitter and all neighbors stepped,
    others untouched) or a reconfiguration (labels kept).
    """
    if not run:
        return ReplayResult(False, 0, "empty run")
    head = run[0]
    if head.kind != "init":
        return ReplayResult(False, 0, "run must open with an init step")
    inits = set(spec.initial_configs())
    if any(l not in inits for l in head.graph.labels):
        return ReplayResult(False, 0, "labels are not initial configurations")
    prev = head.graph
    for i, step in enumerate(list(run)[1:], start=1):
        g = step.graph
        if g.n != prev.n:
            return ReplayResult(False, i, "vertex count changed")
        if step.kind == "broadcast":
            if g.edges != prev.edges:
                return ReplayResult(False, i, "broadcast must keep the edge set")
            v, a = step.vertex, step.letter
            if v is None or a is None or not (0 <= v < g.n):
                return ReplayResult(False, i, "broadcast step lacks a valid vertex/letter")
            if g.labels[v] not in spec.successors(prev.labels[v], Label.broadcast(a)):
                return ReplayResult(False, i, f"vertex {v} has no matching !!{a} transition")
            nbrs = prev.shape.adjacency[v]
            for u in range(g.n):
                if u == v:
                    continue
                if nbrs >> u & 1:
                    if g.labels[u] not in spec.successors(prev.labels[u], Label.receive(a)):
                        return ReplayResult(False, i, f"neighbor {u} has no matching ??{a} transition")
                elif g.labels[u] != prev.labels[u]:
                    return ReplayResult(False, i, f"non-neighbor {u} changed its label")
        elif step.kind == "reconfigure":
            if g.labels != prev.labels:
                return ReplayResult(False, i, "reconfiguration must keep labels")
        else:
            return ReplayResult(False, i, f"unknown step kind {step.kind!r}")
        prev = g
    return ReplayResult(True)


class WitnessExtractionFailed(Exception):
    """No run that backs a positive verdict was built."""


def checked_witness(spec, target, run: Run) -> Run:
    """``run``, once it replays and its last graph covers ``target``;
    otherwise raises :class:`WitnessExtractionFailed` saying which failed."""
    check = replay(spec, run)
    if not check:
        raise WitnessExtractionFailed(
            f"witness run is invalid at step {check.failed_at}: {check.reason}"
        )
    if not any(spec.leq(target, c) for c in run[-1].graph.labels):
        raise WitnessExtractionFailed("witness run does not cover the target")
    return run


def build_run(start: LabelledGraph, events) -> Run:
    """The run that opens at ``start`` and plays ``events`` in order.

    Each event is ``(vertex, letter, labels, edges)``: ``vertex``
    broadcasts ``letter`` and the graph then carries ``labels``.  When
    ``edges`` is a set of ``(low, high)`` pairs other than the current
    edge set, a reconfiguration step to it comes first; ``None`` keeps the
    edges.
    """
    graph = start
    steps = [RunStep("init", graph)]
    for vertex, letter, labels, edges in events:
        if edges is not None and edges != graph.edges:
            graph = reconfigure(graph, edges)
            steps.append(RunStep("reconfigure", graph))
        graph = graph.shape.labelled(labels)
        steps.append(RunStep("broadcast", graph, vertex, letter))
    return tuple(steps)


def explore(
    spec,
    semantics: TopologyClass,
    n_nodes: int,
    depth: int,
    target,
    counter_cap: int = 8,
) -> Optional[Run]:
    """Breadth-first hunt for a run on exactly ``n_nodes`` vertices whose
    final graph has a vertex covering ``target``.

    ``depth`` bounds the number of broadcast steps (reconfiguration steps
    in a reconstructed run come on top).  Counter values above
    ``counter_cap`` (stack depth, for pushdown processes) are pruned, so a
    hit is still an exact positive while absence is only meaningful within
    the bounds.  For the rewirable semantics the state space is the label
    multiset: edges are materialized on demand as a star around each
    broadcaster, which covers every useful edge set.  A fixed class is
    searched shape by shape, with states deduped modulo the shape's
    automorphisms; a class whose vertex cap is below ``n_nodes`` has no
    shape to search.  A search that would record more than
    :data:`MAX_STATES` states raises :class:`ResourceExhausted`.
    """
    if n_nodes < 1:
        raise ValueError("need at least one node")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if counter_cap < 0:
        raise ValueError("counter cap must be nonnegative")
    tle = spec.leq

    def covers(labels) -> bool:
        return any(tle(target, c) for c in labels)

    def search(roots, successors, key) -> Optional[list]:
        return _search(roots, successors, key, covers, n_nodes, depth)

    if isinstance(semantics, Reconfigurable):
        letters = [(a, Label.broadcast(a), Label.receive(a)) for a in spec.alphabet]
        inits = sorted(spec.initial_configs(), key=_sort_key)
        path = search(
            itertools.combinations_with_replacement(inits, n_nodes),
            lambda ms: _rewirable_steps(spec, ms, letters, counter_cap),
            lambda ms: ms,
        )
        return None if path is None else _rewirable_run(path)

    inits = sorted(set(spec.initial_configs()), key=_sort_key)
    for shape in _fixed_shapes(semantics, n_nodes):
        if len(shape.edges) in (0, n_nodes * (n_nodes - 1) // 2):
            # every permutation is an automorphism: the least image is the
            # sorted labelling, found without building all n! of them
            def canon(labels: tuple) -> tuple:
                return tuple(sorted(labels, key=_sort_key))

        else:
            autos = shape.automorphisms()

            def canon(labels: tuple) -> tuple:
                return min(
                    (tuple(labels[p] for p in perm) for perm in autos),
                    key=lambda t: tuple(c.sort_key for c in t),
                )

        def steps(labels: tuple):
            theta = shape.labelled(labels)
            for v in range(n_nodes):
                for a in spec.alphabet:
                    for succ in bn_step(spec, theta, v, a):
                        if all(c.size <= counter_cap for c in succ.labels):
                            yield succ.labels, (v, a)

        path = search(itertools.product(inits, repeat=n_nodes), steps, canon)
        if path is not None:
            events = [(v, a, labels, None) for labels, (v, a) in path[1:]]
            return build_run(shape.labelled(path[0][0]), events)
    return None


def _search(roots, successors, key, covers, n, depth) -> Optional[list]:
    """Breadth-first search from ``roots`` for a state that ``covers``
    accepts, with states deduped by ``key``; ``successors(state)`` yields
    ``(state, step)`` pairs.

    Returns the path to the first such state, root first, as
    ``(state, step)`` pairs (the root's step is ``None``), or ``None``
    when ``depth`` layers hold none.  Raises :class:`ResourceExhausted`
    once :data:`MAX_STATES` states are recorded and another would be.
    """
    parents: dict = {}  # key -> (parent key, step, state)
    frontier = []
    for state in roots:
        k = key(state)
        if k in parents:
            continue
        parents[k] = (None, None, state)
        if covers(state):
            return _path(parents, k)
        frontier.append((k, state))

    for _ in range(depth):
        grown = []
        for at, state in frontier:
            for succ, step in successors(state):
                k = key(succ)
                if k in parents:
                    continue
                if len(parents) >= MAX_STATES:
                    raise ResourceExhausted(f"state budget hit: {len(parents)} states on {n} nodes")
                parents[k] = (at, step, succ)
                if covers(succ):
                    return _path(parents, k)
                grown.append((k, succ))
        if not grown:
            break
        frontier = grown
    return None


def _path(parents: dict, k) -> list:
    path = []
    while k is not None:
        k, step, state = parents[k]
        path.append((state, step))
    path.reverse()
    return path


def _rewirable_steps(spec, ms, letters, cap):
    """Successor multisets: one node broadcasts, any subset of
    receive-capable others receives (the rest is simply left unlinked).
    ``letters`` holds one ``(letter, !!letter, ??letter)`` triple per letter."""
    tried = set()
    for i, cfg in enumerate(ms):
        if cfg in tried:
            continue
        tried.add(cfg)
        others = ms[:i] + ms[i + 1 :]
        for a, broadcast, receive in letters:
            for emitted in spec.successors(cfg, broadcast):
                if emitted.size > cap:
                    continue
                per_other = []
                for o in others:
                    opts = [(False, o)]
                    opts.extend(
                        (True, s) for s in spec.successors(o, receive) if s.size <= cap
                    )
                    per_other.append(opts)
                for choice in itertools.product(*per_other):
                    succ = tuple(sorted([emitted] + [c for _, c in choice], key=_sort_key))
                    yield succ, (i, a, emitted, choice)


def _rewirable_run(path: list) -> Run:
    """The run along a path of label multisets: each step's broadcaster
    is linked to exactly the nodes that receive."""
    node_cfgs = list(path[0][0])  # root multiset is already sorted
    n = len(node_cfgs)
    events = []
    for _, (bi, letter, emitted, choice) in path[1:]:
        # align node identities with the sorted multiset the step was computed on
        order = sorted(range(n), key=lambda j: node_cfgs[j].sort_key)
        bnode = order[bi]
        others = order[:bi] + order[bi + 1 :]
        node_cfgs[bnode] = emitted
        receivers = []
        for node, (took, cfg) in zip(others, choice):
            if took:
                node_cfgs[node] = cfg
                receivers.append(node)
        edges = frozenset((min(bnode, r), max(bnode, r)) for r in receivers)
        events.append((bnode, letter, tuple(node_cfgs), edges))
    return build_run(LabelledGraph(n, frozenset(), path[0][0]), events)


def _fixed_shapes(cls, n: int) -> tuple[Graph, ...]:
    """The graphs on exactly ``n`` vertices of the fixed class ``cls``."""
    if isinstance(cls, Clique):
        return (Graph.complete(n),)
    if isinstance(cls, DiamDeg) and cls.n_max is not None and cls.n_max < n:
        return ()
    return tuple(g for g in enumerate_graphs(n) if in_class(g, cls))
