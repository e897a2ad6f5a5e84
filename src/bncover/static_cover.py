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
original graph.  Diam-deg classes are decided shape by shape, unless
``path-bounded:n-1``, which contains the class, settles a negative first.

The fresh vertex is always ``theta.n`` and ``theta`` keeps its own vertex
numbers; no other placement of ``theta`` inside an extension is built.
Such a placement attaches the fresh vertex to some vertex set A of
``theta``, and its candidates are isomorphic, label for label, to those of
the identity placement attached to A, which the class admits too, since
class membership does not change under isomorphism.  Embedding does not
change under isomorphism either, so every round's upward closure, and with
it the verdict, the iteration count and the antichain's size, is the one
the placements would give; only which isomorphic representative a basis,
chain or witness holds depends on this choice.

Saturation needs neither a duplicate-free basis nor a predecessor above an
element of its antichain (Abdulla, Čerāns, Jonsson and Tsay, LICS 1996):
the parent ``theta`` is in the antichain when its round starts, and the
keep loop rejects every candidate at or above a kept element.
:meth:`GraphSpace.pre_graphs` skips only whole products of candidates that
``theta`` embeds into by the identity, each settled by one test; repeats
and single candidates above ``theta`` are left to the keep loop, so the
kept elements, their order, the chains, the iteration count and the
witnesses are those of the complete construction.

An embedding needs, in the larger graph, at least as many vertices, edges
and vertices of each control state as the smaller graph has, so
:meth:`GraphSpace.leq` compares those counts before it searches, which
settles most of its (mostly failing) tests.  Each graph's counts are packed
once into one integer of guarded fields (:class:`_CountLayout`), and the
comparison is one subtraction and one mask.

Work fixed by a shape and the class alone, whatever the process and the
target, lives for the process: the extension table of each (class, shape)
and the diam-deg shapes with their position orbits of each ``(k, d,
n_max)`` are built by the first query that needs them and read by every
later one.  The predecessor rows depend on the process, the letter and
the vertex label alone, so every query over an equal process shares one
store of them: per letter and vertex label (or wildcard), the broadcast
basis, the receive basis and whether every receive entry dominates the
label.  :meth:`GraphSpace.pre_graphs` looks up the row of each vertex of
its graph once.  Stores are kept for the 64 processes used last, the
bound :func:`~bncover.rbn.rbn_unlock` keeps its per-process work under: a
model's queries run back to back, so the bound costs no reuse, and a run
over many models still holds bounded memory.

Positive verdicts at the graph level are sound when ``spec.receive_total``
holds: every state has, for every letter, a receive enabled in every
configuration of that state.  Without that, a dominating graph may be
unable to mimic a step of a smaller one because an extra neighbor blocks
the broadcast.  Receive completion does not establish it when a declared
receive decrements a counter.  The deciders do not check it:
:func:`bncover.cli.run_query` keeps a positive on a process that fails it
only when a witness run is built that replays and covers the target.
"""

from __future__ import annotations

import functools
import itertools
from typing import Optional, Sequence

from .explore import Run, WitnessExtractionFailed, bn_step, build_run
from .graphs import (
    Clique,
    DiamDeg,
    Graph,
    LabelledGraph,
    PathBounded,
    TopologyClass,
    enumerate_diam_deg_graphs,
    enumerate_extensions,
    graph_embeds,
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


# a count key's field: 7 value bits under a guard bit
_FIELD_BITS = 8
_GUARD = 1 << _FIELD_BITS - 1
_FIELD_TOP = _GUARD - 1


class _CountLayout:
    """Packed count keys of labelled graphs over one list of control states.

    A graph's key holds, in fixed-width fields, its vertex count, its edge
    count and its number of vertices of each state, in ``states`` order; a
    wildcard, carrying no state, counts for no state, and neither does a
    state the list lacks.  Each field holds its count clamped to 127 under
    a guard bit the key leaves clear.  Subtracting a key from another whose
    guard bits are set borrows from a field's guard bit exactly when the
    subtracted count is the larger, and never across fields, so
    :meth:`admits` compares every field in one integer test.  Clamping
    never reverses an order between two counts, and a count left out is
    never compared, so the test stays a necessary condition.

    Each graph keeps its key next to the layout that computed it, and a
    layout reads only its own.
    """

    def __init__(self, states: Sequence[str]):
        self._shift = {q: _FIELD_BITS * i for i, q in enumerate(states, 2)}
        self._guards = sum(_GUARD << _FIELD_BITS * i for i in range(len(states) + 2))

    def key(self, g: LabelledGraph) -> int:
        kept = getattr(g, "_count_key", None)
        if kept is not None and kept[0] is self:
            return kept[1]
        counts: dict = {}
        for label in g.labels:
            if label is not WILDCARD:
                counts[label.state] = counts.get(label.state, 0) + 1
        key = min(g.n, _FIELD_TOP) | min(len(g.edges), _FIELD_TOP) << _FIELD_BITS
        for q, c in counts.items():
            shift = self._shift.get(q)
            if shift is not None:
                key |= min(c, _FIELD_TOP) << shift
        vars(g)["_count_key"] = (self, key)
        return key

    def admits(self, small: LabelledGraph, large: LabelledGraph) -> bool:
        """Whether ``large`` has at least the vertices, the edges and, per
        control state, the vertices of that state that ``small`` has, up to
        clamping.  Every embedding of ``small`` into ``large`` needs them:
        the process order requires equal states, and a wildcard of
        ``large`` only hosts wildcards."""
        guards = self._guards
        return ((self.key(large) | guards) - self.key(small)) & guards == guards


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
        self._counts = _CountLayout(spec.states)
        self._pre_rows = _pre_bases(spec)

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
        return self._counts.admits(t1, t2) and graph_embeds(t1, t2, self.label_leq) is not None

    def covered_by_initial(self, theta: LabelledGraph) -> bool:
        return all(
            l is WILDCARD or self.spec.covered_by_initial(l) for l in theta.labels
        )

    def pre_basis_for_label(self, letter: str, thetas: Sequence[LabelledGraph]):
        """Predecessor graphs of ``thetas``, neither deduplicated nor
        minimized: the saturation engine minimizes them against its
        antichain (see the module docstring)."""
        out: list[LabelledGraph] = []
        for theta in thetas:
            out.extend(self.pre_graphs(theta, letter, skip_above=True))
        return tuple(out)

    # -- predecessor construction -----------------------------------------

    def pre_graphs(
        self, theta: LabelledGraph, letter: str, *, skip_above: bool = False
    ) -> tuple[LabelledGraph, ...]:
        """Unminimized predecessor graphs of the upward closure of ``theta``
        one ``letter`` broadcast back.

        Every candidate reaches above ``theta`` in one step, so none is
        tested: each relabelled vertex of ``theta`` takes a configuration
        from the pre-basis of its own label, and the fresh broadcaster one
        from the minimal enabling configurations; the transition each
        configuration came from fires, and for a vertex of ``theta`` lands
        above its label.  The embedding of the construction (the identity)
        keeps edges, non-edges and every other label, so it carries
        ``theta`` into that successor graph.

        With ``skip_above``, a whole product of receiver choices is not
        built when every receiver's whole receive basis dominates its label
        and, in a relabelling, the broadcaster's new label dominates its
        old one: ``theta`` embeds into each of its candidates by the
        identity."""
        store = self._pre_rows.get(letter)
        if store is None:
            store = self._pre_rows[letter] = _LetterRows(self.spec, letter)
        rows = [store[l] for l in theta.labels]
        # the vertices with a receive entry that does not dominate their label
        mixed = sum(1 << u for u, row in enumerate(rows) if not row[2])
        adjacency, neighborhoods = theta.shape.adjacency, theta.shape.neighborhoods
        emitted: list[LabelledGraph] = []

        # relabellings of theta itself around each broadcaster choice
        for v, (sends, _, _) in enumerate(rows):
            if not sends:
                continue
            nbrs = neighborhoods[v]
            receiver_bases = [rows[u][1] for u in nbrs]
            if not all(receiver_bases):
                continue
            all_up = skip_above and not adjacency[v] & mixed
            for cv, cv_up in sends:
                if cv_up and all_up:
                    continue
                for combo in itertools.product(*receiver_bases):
                    patch = {v: cv}
                    for u, cu in zip(nbrs, combo):
                        patch[u] = cu
                    emitted.append(theta.with_labels(patch))

        # one fresh broadcaster attached in every class-admissible way
        enabling = store[WILDCARD][0]
        if enabling:
            for ext, nbrs, attached in _extension_table(self.cls, theta.shape):
                if skip_above and not attached & mixed:
                    continue
                receiver_bases = [rows[u][1] for u in nbrs]
                if not all(receiver_bases):
                    continue
                for cv, _ in enabling:
                    for combo in itertools.product(*receiver_bases):
                        labels = [*theta.labels, cv]
                        for u, cu in zip(nbrs, combo):
                            labels[u] = cu
                        emitted.append(ext.labelled(tuple(labels)))
        return tuple(emitted)


class _LetterRows(dict):
    """Predecessor rows of one letter of a process, by vertex label (or
    wildcard), each built on its first lookup: the label's minimal
    ``!!letter`` predecessors, each paired with whether it dominates the
    label, its minimal ``??letter`` predecessors, and whether all of those
    dominate the label."""

    def __init__(self, spec, letter: str):
        super().__init__()
        self.spec = spec
        self.labels = (Label.broadcast(letter), Label.receive(letter))

    def __missing__(self, value):
        def above(c):
            return value is WILDCARD or self.spec.leq(value, c)

        sends, receives = (
            self.spec.min_enabling(label)
            if value is WILDCARD
            else minimize(self.spec.pre_basis_for_label(label, (value,)), self.spec.leq)
            for label in self.labels
        )
        row = self[value] = (tuple((c, above(c)) for c in sends), receives, all(map(above, receives)))
        return row


@functools.lru_cache(maxsize=64)
def _pre_bases(spec) -> dict:
    """The store of predecessor rows of ``spec``, a :class:`_LetterRows`
    by letter, shared by every query over an equal process."""
    return {}


@functools.cache
def _extension_table(cls: TopologyClass, shape: Graph) -> tuple[tuple[Graph, tuple[int, ...], int], ...]:
    """Every class-admissible extension of ``shape`` by the fresh vertex
    ``shape.n``, as ``(extension, neighbors of the fresh vertex, their
    bitmask)`` in :func:`enumerate_extensions` order, built once per
    process."""
    # each extension validated afresh, as a graph built from its edge set
    # would be, so its edges iterate (and print) in that same order
    exts = (Graph(ext.n, ext.edges) for ext in enumerate_extensions(shape, cls))
    return tuple((ext, ext.neighbors(shape.n), ext.adjacency[shape.n]) for ext in exts)


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

    A diam-deg class, which must carry its vertex cap ``n``, lies inside
    ``path-bounded:max(1, n-1)``: a graph on at most ``n`` vertices has no
    longer simple path.  Every run of the smaller class is a run of the
    larger, so that class is decided first, and its negative is returned.
    Only when it is positive, or runs out of its limits, is the diam-deg
    class decided shape by shape (:func:`diam_deg_coverable`).
    """
    if isinstance(cls, DiamDeg):
        if cls.n_max is None:
            raise ValueError("deciding a diam-deg class needs its vertex cap n_max")
        wider = PathBounded(max(1, cls.n_max - 1))
        try:
            verdict = static_coverable(spec, target, wider, limits, observer)
            if not verdict.coverable:
                return verdict
        except ResourceExhausted:
            pass
        return diam_deg_coverable(spec, target, cls.k, cls.d, cls.n_max, limits, observer)
    if not isinstance(cls, (PathBounded, Clique)):
        raise ValueError(
            "fixed-topology saturation covers path-bounded, clique and diam-deg "
            "classes; use rbn_coverable for rbn"
        )
    gspace = GraphSpace(spec, cls)
    return backward_coverability(gspace, single_vertex(target), limits, observer)


def _position_orbits(shape: Graph) -> tuple[int, ...]:
    """One representative vertex, the least, per orbit of the automorphism group."""
    autos = shape.automorphisms()
    return tuple(sorted({min(perm[v] for perm in autos) for v in range(shape.n)}))


@functools.cache
def _diam_deg_shapes(k: int, d: int, n_max: int) -> tuple[tuple[Graph, tuple[int, ...]], ...]:
    """The diam-deg shapes of :func:`enumerate_diam_deg_graphs`, each with its
    position orbits, built once per ``(k, d, n_max)`` for the process."""
    return tuple(
        (shape, _position_orbits(shape)) for shape in enumerate_diam_deg_graphs(k, d, n_max)
    )


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
    # without the vertex cap: the shapes are given, and every cap shares
    # their (empty) extension tables
    gspace = GraphSpace(spec, DiamDeg(k, d))
    total_iterations = 0
    certificates: list[LabelledGraph] = []
    for shape, orbits in _diam_deg_shapes(k, d, n_max):
        for pos in orbits:
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


def static_witness_run(spec, verdict: Verdict, cls: TopologyClass) -> Run:
    """Concrete network run realizing a positive fixed-topology verdict.

    The verdict chain descends from an initially-coverable basis graph to
    the seeded target graph; replaying forward from a dominating
    all-initial labelling, one broadcast per chain link, yields a legal
    run whose final graph covers the target.  On a process that is not
    receive-total a link may find no step; then it raises
    :class:`WitnessExtractionFailed`.
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
    first = current = LabelledGraph(start.n, start.edges, tuple(labels))
    events = []
    for (_, letter), (nxt, _) in zip(verdict.chain, verdict.chain[1:]):
        found = next(
            (
                (v, after)
                for v in range(current.n)
                for after in bn_step(spec, current, v, letter)
                if graph_embeds(nxt, after, gspace.label_leq) is not None
            ),
            None,
        )
        if found is None:
            raise WitnessExtractionFailed(
                "chain replay failed; the process is likely not receive-total"
            )
        v, current = found
        events.append((v, letter, current.labels, None))
    return build_run(first, events)
