"""Coverability deciders for broadcast networks over a fixed topology class.

Network configurations (labelled graphs) are ordered by induced-subgraph
embedding; over path-length-bounded graphs and over cliques this is a
well-quasi ordering, so the antichain engine applies once we can compute a
predecessor basis.  One broadcast step back, a predecessor graph arises in
two ways: by relabelling the graph itself around a chosen broadcaster and
its neighbors, or by extending the graph with one fresh broadcasting
vertex attached in every class-admissible way.  Both constructions draw
the relabelled vertices from per-vertex predecessor bases of the process,
so every candidate has a joint successor labelling that dominates the
original graph.

An embedding needs, in the larger graph, at least as many vertices, edges
and vertices of each control state as the smaller graph has, so
:meth:`GraphSpace.leq` compares those counts before it searches, which
settles most of its (mostly failing) tests.

Positive verdicts at the graph level are sound when ``spec.receive_total()``
holds: every state has, for every letter, a receive enabled in every
configuration of that state.  Without that, a dominating graph may be
unable to mimic a step of a smaller one because an extra neighbor blocks
the broadcast.  Receive completion does not establish it when a declared
receive decrements a counter; the deciders do not check it.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Sequence

from .explore import RunStep, bn_step
from .graphs import (
    Clique,
    ClassViolation,
    DiamDeg,
    Graph,
    LabelledGraph,
    PathBounded,
    TopologyClass,
    enumerate_diam_deg_graphs,
    enumerate_extensions,
    graph_embeds,
    graph_injections,
    in_class,
    single_vertex,
)
from .order import ResourceExhausted, ResourceLimits, Verdict, backward_coverability, minimize
from .pushdown import PushdownSpec
from .vass import Label


class _Wildcard:
    """Bottom label standing for "any configuration" at a vertex."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "*"


WILDCARD = _Wildcard()

# Largest extension table GraphSpace keeps for one shape, in rows.
_MAX_TABLE_ROWS = 5040


def _counts_admit(small: LabelledGraph, large: LabelledGraph) -> bool:
    """Whether ``large`` has at least the vertices, the edges and, per control
    state, the vertices of that state that ``small`` has.  Every embedding
    of ``small`` into ``large`` needs them: the process order requires equal
    states, and a wildcard, carrying no state, counts on neither side (a
    wildcard of ``large`` only hosts wildcards)."""
    if small.n > large.n or len(small.edges) > len(large.edges):
        return False
    have = large.state_counts
    return all(have.get(q, 0) >= k for q, k in small.state_counts.items())


class GraphSpace:
    """Ordered space of labelled graphs for one process and topology class."""

    def __init__(self, spec, cls: TopologyClass):
        if isinstance(spec, PushdownSpec):
            raise TypeError(
                "the stack prefix order is not a well-quasi ordering; "
                "fixed-topology deciders need a finite-state or counter process"
            )
        self.spec = spec
        self.cls = cls
        self._config_leq = spec.leq
        self._pre_cache: dict = {}
        self._ext_cache: dict = {}

    @property
    def labels(self) -> tuple[str, ...]:
        return self.spec.alphabet

    def label_leq(self, a, b) -> bool:
        if a is WILDCARD:
            return True
        if b is WILDCARD:
            return False
        return self._config_leq(a, b)

    def leq(self, t1: LabelledGraph, t2: LabelledGraph) -> bool:
        return _counts_admit(t1, t2) and graph_embeds(t1, t2, self.label_leq) is not None

    def covered_by_initial(self, theta: LabelledGraph) -> bool:
        return all(
            l is WILDCARD or self.spec.covered_by_initial(l) for l in theta.labels
        )

    def successors(self, theta: LabelledGraph, letter: str) -> tuple[LabelledGraph, ...]:
        out = []
        for v in range(theta.n):
            out.extend(bn_step(self.spec, theta, v, letter))
        return tuple(out)

    def min_enabling(self, letter: str) -> tuple[LabelledGraph, ...]:
        return tuple(
            single_vertex(c) for c in self.spec.min_enabling(Label.broadcast(letter))
        )

    def pre_basis_for_label(self, letter: str, thetas: Sequence[LabelledGraph]):
        """Predecessor graphs of ``thetas``, duplicates dropped but not
        minimized: the saturation engine minimizes them against its
        antichain, and keeps the same elements in the same order either way
        (the earliest of order-equivalent minimal elements)."""
        out: list[LabelledGraph] = []
        for theta in thetas:
            out.extend(self.pre_graphs(theta, letter))
        return tuple(dict.fromkeys(out))

    # -- predecessor construction -----------------------------------------

    def _vertex_pre(self, label_value, label: Label):
        """Predecessor basis of one vertex label under a process label."""
        key = (label_value, label)
        if key not in self._pre_cache:
            if label_value is WILDCARD:
                basis = tuple(self.spec.min_enabling(label))
            else:
                basis = tuple(self.spec.pre_basis_for_label(label, (label_value,)))
            self._pre_cache[key] = basis
        return self._pre_cache[key]

    def _extensions(self, shape: Graph) -> Iterator[tuple]:
        """Every way to place ``shape`` inside a class-admissible extension
        by one fresh vertex, as ``(extension, fresh vertex, preimage of
        each old vertex, neighbors of the fresh vertex)``, extensions in
        :func:`enumerate_extensions` order and injections in
        :func:`graph_injections` order.  Fixed by the shape and the class,
        so kept per shape, unless the table has more than
        ``_MAX_TABLE_ROWS`` rows: a clique on n vertices has (n+1)! of them,
        and those are rebuilt on every call instead."""
        table = self._ext_cache.get(shape)
        if table is not None:
            yield from table
            return
        rows: Optional[list] = []
        for ext in enumerate_extensions(shape, self.cls):
            # validated afresh, as a graph built from this edge set would
            # be, so its edges iterate (and print) in that same order
            ext = Graph(ext.n, ext.edges)
            for inj in graph_injections(shape, ext):
                fresh = next(w for w in range(ext.n) if w not in inj)
                row = (ext, fresh, {w: i for i, w in enumerate(inj)}, ext.neighbors(fresh))
                if rows is not None:
                    rows.append(row)
                    if len(rows) > _MAX_TABLE_ROWS:
                        rows = None
                yield row
        if rows is not None:
            self._ext_cache[shape] = tuple(rows)

    def pre_graphs(self, theta: LabelledGraph, letter: str) -> tuple[LabelledGraph, ...]:
        """Unminimized predecessor graphs of the upward closure of ``theta``
        one ``letter`` broadcast back.

        Every candidate reaches above ``theta`` in one step, so none is
        tested: each relabelled vertex of ``theta`` takes a configuration
        from the pre-basis of its own label, and the fresh broadcaster one
        from the minimal enabling configurations; the transition each
        configuration came from fires, and for a vertex of ``theta`` lands
        above its label.  The embedding of the construction (the identity,
        or the table row's injection) keeps edges, non-edges and every
        other label, so it carries ``theta`` into that successor graph."""
        bl, rl = Label.broadcast(letter), Label.receive(letter)
        emitted: list[LabelledGraph] = []

        # relabellings of theta itself around each broadcaster choice
        for v in range(theta.n):
            emitter_basis = self._vertex_pre(theta.labels[v], bl)
            if not emitter_basis:
                continue
            nbrs = theta.neighbors(v)
            receiver_bases = [self._vertex_pre(theta.labels[u], rl) for u in nbrs]
            if not all(receiver_bases):
                continue
            for cv in emitter_basis:
                for combo in itertools.product(*receiver_bases):
                    patch = {v: cv}
                    for u, cu in zip(nbrs, combo):
                        patch[u] = cu
                    emitted.append(theta.with_labels(patch))

        # one fresh broadcaster attached in every class-admissible way
        enabling = self._vertex_pre(WILDCARD, bl)
        if enabling:
            for ext, fresh, back, nbrs in self._extensions(theta.shape):
                receiver_bases = [self._vertex_pre(theta.labels[back[u]], rl) for u in nbrs]
                if not all(receiver_bases):
                    continue
                carried = [theta.labels[back[w]] if w != fresh else None for w in range(ext.n)]
                for cv in enabling:
                    for combo in itertools.product(*receiver_bases):
                        labels = list(carried)
                        labels[fresh] = cv
                        for u, cu in zip(nbrs, combo):
                            labels[u] = cu
                        emitted.append(ext.labelled(tuple(labels)))
        return tuple(emitted)


def static_pre_basis(spec, theta: LabelledGraph, cls: TopologyClass) -> tuple[LabelledGraph, ...]:
    """Minimal predecessor graphs of the upward closure of ``theta`` one
    broadcast step back, over every letter of the alphabet."""
    if not in_class(theta.shape, cls):
        raise ClassViolation(f"graph is not in class {cls}")
    gspace = GraphSpace(spec, cls)
    out: list[LabelledGraph] = []
    for letter in gspace.labels:
        out.extend(gspace.pre_graphs(theta, letter))
    return minimize(tuple(dict.fromkeys(out)), gspace.leq)


def static_coverable(
    spec,
    target,
    cls: TopologyClass,
    limits: Optional[ResourceLimits] = None,
    observer=None,
) -> Verdict:
    """Decide whether, over some network of the class, a vertex can reach a
    configuration dominating ``target``.

    Saturates backward from the one-vertex graph labelled ``target``; the
    answer is positive exactly when a basis graph has every vertex label
    dominated by an initial configuration (it then sits below an
    all-initial graph of the same class shape).
    """
    if not isinstance(cls, (PathBounded, Clique)):
        raise ValueError(
            "fixed-topology saturation covers path-bounded and clique classes; "
            "use diam_deg_coverable or rbn_coverable otherwise"
        )
    gspace = GraphSpace(spec, cls)
    return backward_coverability(gspace, single_vertex(target), limits, observer)


def _position_orbits(shape: Graph) -> list[int]:
    """One representative vertex, the least, per orbit of the automorphism group."""
    autos = shape.automorphisms()
    return sorted({min(perm[v] for perm in autos) for v in range(shape.n)})


def diam_deg_coverable(
    spec,
    target,
    k: int,
    d: int,
    n_max: int,
    limits: Optional[ResourceLimits] = None,
    observer=None,
) -> Verdict:
    """Coverability over every connected topology within the diameter and
    degree bounds, up to ``n_max`` vertices.

    Every admissible shape is labelled with the target at one position (up
    to symmetry) and an unconstrained wildcard elsewhere, and decided by
    shape-preserving saturation; the overall answer is the disjunction.
    """
    limits = limits or ResourceLimits()
    gspace = GraphSpace(spec, DiamDeg(k, d))
    total_iterations = 0
    certificates: list[LabelledGraph] = []
    for shape in enumerate_diam_deg_graphs(k, d, n_max):
        for pos in _position_orbits(shape):
            labels = tuple(target if i == pos else WILDCARD for i in range(shape.n))
            seed = shape.labelled(labels)
            try:
                verdict = backward_coverability(gspace, seed, limits, observer)
            except ResourceExhausted as exc:
                # count the iterations of the shapes already decided, as a
                # decided query does
                raise ResourceExhausted(
                    exc.reason, total_iterations + exc.iterations, exc.basis_size
                ) from exc
            total_iterations += verdict.iterations
            if verdict.coverable:
                return Verdict(True, total_iterations, verdict.basis, verdict.chain)
            certificates.extend(verdict.basis)
    return Verdict(
        False, total_iterations, minimize(tuple(certificates), gspace.leq), None
    )


def static_witness_run(spec, verdict: Verdict, cls: TopologyClass) -> tuple[RunStep, ...]:
    """Concrete network run realizing a positive fixed-topology verdict.

    The verdict chain descends from an initially-coverable basis graph to
    the seeded target graph; replaying forward from a dominating
    all-initial labelling, one broadcast per chain link, yields a legal
    run whose final graph covers the target.
    """
    if not verdict.coverable or verdict.chain is None:
        raise ValueError("a witness run needs a positive verdict with a chain")
    gspace = GraphSpace(spec, cls)
    start = verdict.chain[0][0]
    inits = spec.initial_configs()
    config_leq = spec.leq
    labels = []
    for l in start.labels:
        if l is WILDCARD:
            labels.append(inits[0])
        else:
            labels.append(next(c for c in inits if config_leq(l, c)))
    current = LabelledGraph(start.n, start.edges, tuple(labels))
    steps = [RunStep("init", current)]
    for i in range(len(verdict.chain) - 1):
        _, letter = verdict.chain[i]
        nxt = verdict.chain[i + 1][0]
        found = None
        for v in range(current.n):
            for after in bn_step(spec, current, v, letter):
                if graph_embeds(nxt, after, gspace.label_leq) is not None:
                    found = (v, after)
                    break
            if found:
                break
        if found is None:
            raise RuntimeError(
                "chain replay failed; the process is likely not receive-total"
            )
        v, after = found
        steps.append(RunStep("broadcast", after, vertex=v, letter=letter))
        current = after
    return tuple(steps)
