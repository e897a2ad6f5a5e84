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
from typing import Iterable, Optional, Sequence

from .graphs import (
    LabelledGraph,
    Reconfigurable,
    TopologyClass,
    enumerate_graphs,
    in_class,
)
from .order import ResourceExhausted
from .vass import Label

_sort_key = attrgetter("sort_key")


class SelfLoopError(ValueError):
    pass


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
    """Same vertices and labels over a replaced edge set."""
    for a, b in new_edges:
        if a == b:
            raise SelfLoopError(f"self loop at vertex {a}")
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
            nbrs = set(prev.neighbors(v))
            for u in range(g.n):
                if u == v:
                    continue
                if u in nbrs:
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


def explore(
    spec,
    semantics: TopologyClass,
    n_nodes: int,
    depth: int,
    target,
    counter_cap: int = 8,
    receive_letters: Optional[Iterable[str]] = None,
    max_states: int = 250_000,
) -> Optional[Run]:
    """Breadth-first hunt for a run on exactly ``n_nodes`` vertices whose
    final graph has a vertex covering ``target``.

    ``depth`` bounds the number of broadcast steps (reconfiguration steps
    in a reconstructed run come on top).  Counter values above
    ``counter_cap`` (stack depth, for pushdown processes) are pruned, so a
    hit is still an exact positive while absence is only meaningful within
    the bounds.  For the rewirable semantics the state space is the label
    multiset: edges are materialized on demand as a star around each
    broadcaster, which covers every useful edge set; states are deduped
    modulo label-preserving isomorphism.  ``receive_letters`` optionally
    restricts which letters may ever be received (pruning only).
    """
    if n_nodes < 1:
        raise ValueError("need at least one node")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if counter_cap < 0:
        raise ValueError("counter cap must be nonnegative")
    if isinstance(semantics, Reconfigurable):
        return _explore_rewirable(
            spec, n_nodes, depth, target, counter_cap, receive_letters, max_states
        )
    return _explore_static(spec, semantics, n_nodes, depth, target, counter_cap, max_states)


def _explore_rewirable(spec, n, depth, target, cap, receive_letters, max_states):
    tle = spec.leq
    letters = [(a, Label.broadcast(a), Label.receive(a)) for a in spec.alphabet]
    allowed = set(spec.alphabet) if receive_letters is None else set(receive_letters)

    def covers(ms) -> bool:
        return any(tle(target, c) for c in ms)

    parents: dict = {}
    frontier = []
    inits = sorted(spec.initial_configs(), key=_sort_key)
    for ms in itertools.combinations_with_replacement(inits, n):
        if ms in parents:
            continue
        parents[ms] = None
        if covers(ms):
            return _rewirable_run(spec, ms, parents)
        frontier.append(ms)

    for _ in range(depth):
        grown = []
        for ms in frontier:
            for succ, info in _rewirable_steps(spec, ms, letters, allowed, cap):
                if succ in parents:
                    continue
                if len(parents) >= max_states:
                    raise ResourceExhausted(f"state budget hit: {len(parents)} states on {n} nodes")
                parents[succ] = (ms, info)
                if covers(succ):
                    return _rewirable_run(spec, succ, parents)
                grown.append(succ)
        if not grown:
            break
        frontier = grown
    return None


def _rewirable_steps(spec, ms, letters, allowed, cap):
    """Successor multisets: one node broadcasts, any subset of
    receive-capable others receives (the rest is simply left unlinked).
    ``letters`` holds one ``(letter, !!letter, ??letter)`` triple per letter."""
    out = []
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
                    if a in allowed:
                        opts.extend(
                            (True, s)
                            for s in spec.successors(o, receive)
                            if s.size <= cap
                        )
                    per_other.append(opts)
                for choice in itertools.product(*per_other):
                    succ = tuple(sorted([emitted] + [c for _, c in choice], key=_sort_key))
                    out.append((succ, (i, a, emitted, choice)))
    return out


def _rewirable_run(spec, final_ms, parents) -> Run:
    chain = []
    cursor = final_ms
    while parents[cursor] is not None:
        prev, info = parents[cursor]
        chain.append((prev, info))
        cursor = prev
    chain.reverse()

    node_cfgs = list(cursor)  # root multiset is already sorted
    edges: frozenset = frozenset()
    steps: list[RunStep] = [
        RunStep("init", LabelledGraph(len(node_cfgs), frozenset(), tuple(node_cfgs)))
    ]
    for prev_ms, (bi, letter, emitted, choice) in chain:
        # align node identities with the sorted multiset the step was computed on
        order = sorted(range(len(node_cfgs)), key=lambda j: node_cfgs[j].sort_key)
        bnode = order[bi]
        others = order[:bi] + order[bi + 1 :]
        receivers = [node for node, (took, _) in zip(others, choice) if took]
        wanted = frozenset((min(bnode, r), max(bnode, r)) for r in receivers)
        if wanted != edges:
            edges = wanted
            steps.append(
                RunStep("reconfigure", LabelledGraph(len(node_cfgs), edges, tuple(node_cfgs)))
            )
        node_cfgs[bnode] = emitted
        for node, (took, cfg) in zip(others, choice):
            if took:
                node_cfgs[node] = cfg
        steps.append(
            RunStep(
                "broadcast",
                LabelledGraph(len(node_cfgs), edges, tuple(node_cfgs)),
                vertex=bnode,
                letter=letter,
            )
        )
    return tuple(steps)


def _explore_static(spec, cls, n, depth, target, cap, max_states):
    tle = spec.leq
    letters = list(spec.alphabet)
    inits = sorted(set(spec.initial_configs()), key=_sort_key)
    shapes = [g for g in enumerate_graphs(n) if in_class(g, cls)]

    for shape in shapes:
        autos = shape.automorphisms()

        def canon(labels: tuple) -> tuple:
            return min(
                (tuple(labels[perm[i]] for i in range(len(labels))) for perm in autos),
                key=lambda t: tuple(c.sort_key for c in t),
            )

        def covers(labels: tuple) -> bool:
            return any(tle(target, c) for c in labels)

        parents: dict = {}
        frontier = []
        for labels in itertools.product(inits, repeat=n):
            key = canon(labels)
            if key in parents:
                continue
            parents[key] = (None, labels)
            if covers(labels):
                return (RunStep("init", shape.labelled(labels)),)
            frontier.append(labels)

        hit = None
        for _ in range(depth):
            grown = []
            for labels in frontier:
                theta = shape.labelled(labels)
                for v in range(n):
                    for a in letters:
                        for succ in bn_step(spec, theta, v, a):
                            if any(c.size > cap for c in succ.labels):
                                continue
                            key = canon(succ.labels)
                            if key in parents:
                                continue
                            if len(parents) >= max_states:
                                raise ResourceExhausted(
                                    f"state budget hit: {len(parents)} states on {n} nodes"
                                )
                            parents[key] = (labels, v, a, succ.labels)
                            if covers(succ.labels):
                                hit = succ.labels
                                break
                            grown.append(succ.labels)
                        if hit:
                            break
                    if hit:
                        break
                if hit:
                    break
            if hit or not grown:
                break
            frontier = grown

        if hit is not None:
            chain = []
            cursor = hit
            while True:
                record = parents[canon(cursor)]
                if record[0] is None:
                    root = record[1]
                    break
                prev, v, a, actual = record
                chain.append((v, a, actual))
                cursor = prev
            chain.reverse()
            steps = [RunStep("init", shape.labelled(root))]
            for v, a, labels in chain:
                steps.append(
                    RunStep("broadcast", shape.labelled(labels), vertex=v, letter=a)
                )
            return tuple(steps)
    return None
