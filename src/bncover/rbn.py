"""Coverability for broadcast networks whose links may be rewired freely.

Under arbitrary rewiring a receive transition is useful exactly when some
agent can reach a configuration able to broadcast the matching letter: the
two agents can then be linked on demand.  The decision procedure exploits
this: starting from the process with every receive disabled, it sweeps the
alphabet, unlocking the receives of each letter whose minimal broadcast
enabling configurations become coverable, until a sweep unlocks nothing
new; the final query runs against the accumulated process.  Each sweep's
queries run against the process as it stood when the sweep began.  The
loop never looks at the target, so it runs once per process
(:func:`rbn_unlock`) and every query on that process reuses it.

The same argument builds witness runs (:func:`rbn_witness`): a node
follows the final query's chain, and each receive ``??a`` on it is served
by a fresh helper node that follows the chain which unlocked ``a``, then
broadcasts ``a`` linked only to the receiver.  The helper's own receives
are of letters unlocked in earlier sweeps, so the recursion ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from .explore import Run, RunStep, explore, replay
from .graphs import LabelledGraph, Reconfigurable
from .order import ResourceLimits, Verdict
from .process import coverable
from .vass import Label, add_receives, strip_receives

# composed witness runs stop here: helpers can multiply at every unlocking level
WITNESS_NODE_CAP = 64


@dataclass(frozen=True)
class QueryRecord:
    """One inner coverability query: can ``config`` be covered yet?"""

    letter: str
    config: object
    coverable: bool


@dataclass(frozen=True)
class SweepRecord:
    unlocked: tuple[str, ...]
    queries: tuple[QueryRecord, ...]


@dataclass(frozen=True)
class SaturationTrace:
    """Record of the unlocking loop: every sweep in order, with the letters
    it unlocked and the queries it issued.  Every sweep except the last
    unlocks at least one letter.

    ``chains`` maps each unlocked letter to the ``Verdict.chain`` of the
    enabling query that unlocked it (``None`` for processes whose decider
    yields no chains).  Witness composition reads it; it takes no part in
    equality, hashing or ``repr``."""

    rounds: tuple[SweepRecord, ...]
    final_unlocked: frozenset[str]
    chains: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def total_queries(self) -> int:
        return sum(len(r.queries) for r in self.rounds)


@dataclass(frozen=True)
class RbnResult:
    verdict: Verdict
    trace: SaturationTrace

    @property
    def coverable(self) -> bool:
        return self.verdict.coverable


class WitnessExtractionFailed(Exception):
    """No witness run found within the given bounds; the verdict stands."""


@lru_cache(maxsize=64)
def rbn_unlock(spec, limits: Optional[ResourceLimits] = None) -> tuple[SaturationTrace, object]:
    """Run the unlocking loop of ``spec``: the trace of its sweeps and the
    process with the receives of every unlocked letter enabled.

    Neither depends on the queried target, so results are memoized per
    ``(spec, limits)`` and later rbn queries on an equal process reuse
    them.  A run that exhausts ``limits`` raises and leaves no entry.
    """
    enabling = {a: spec.min_enabling(Label.broadcast(a)) for a in spec.alphabet}
    current = strip_receives(spec)
    remaining = list(spec.alphabet)
    sweeps: list[SweepRecord] = []
    unlocked_all: list[str] = []
    chains: dict = {}

    while True:
        unlocked: list[str] = []
        queries: list[QueryRecord] = []
        for letter in list(remaining):
            for config in enabling[letter]:
                answer = coverable(current, config, limits)
                queries.append(QueryRecord(letter, config, answer.coverable))
                if answer.coverable:
                    chains[letter] = answer.chain
                    unlocked.append(letter)
                    remaining.remove(letter)
                    break
        sweeps.append(SweepRecord(tuple(unlocked), tuple(queries)))
        unlocked_all.extend(unlocked)
        added_transitions = False
        for letter in unlocked:
            if spec.has_receives(letter):
                added_transitions = True
            current = add_receives(current, letter)
        if not added_transitions:
            break

    return SaturationTrace(tuple(sweeps), frozenset(unlocked_all), chains), current


def rbn_coverable(spec, target, limits: Optional[ResourceLimits] = None) -> RbnResult:
    """Decide whether, in some rewirable network of ``spec`` processes, a
    node can reach a configuration dominating ``target``."""
    trace, unlocked = rbn_unlock(spec, limits)
    return RbnResult(coverable(unlocked, target, limits), trace)


def rbn_witness(
    spec,
    target,
    trace: SaturationTrace,
    max_nodes: int = 4,
    max_depth: int = 8,
    counter_cap: int = 8,
    chain: Optional[tuple] = None,
) -> Run:
    """Concrete rewirable-network run covering ``target``, replay validated.

    Given ``chain``, the final query's ``Verdict.chain``, the run is
    composed from it and the trace's unlocking chains (see the module
    docstring), with no search; past :data:`WITNESS_NODE_CAP` nodes this
    raises :class:`WitnessExtractionFailed`.  Without a chain (pushdown
    processes carry none), the bounded explorer searches up to
    ``max_nodes`` nodes and ``max_depth`` broadcasts, pruning receives of
    letters the trace never unlocked, and raises
    :class:`WitnessExtractionFailed` when it finds nothing.  The positive
    verdict stands either way.
    """
    if chain is not None:
        return _checked(spec, target, _compose(spec, chain, trace.chains))
    for n in range(1, max_nodes + 1):
        run = explore(
            spec,
            Reconfigurable(),
            n,
            max_depth,
            target,
            counter_cap=counter_cap,
            receive_letters=trace.final_unlocked,
        )
        if run is not None:
            return _checked(spec, target, run)
    raise WitnessExtractionFailed(
        f"no covering run within {max_nodes} nodes and {max_depth} broadcasts"
    )


def _checked(spec, target, run: Run) -> Run:
    check = replay(spec, run)
    if not check:
        raise AssertionError(f"witness run is invalid: {check.reason}")
    tle = spec.leq
    if not any(tle(target, c) for c in run[-1].graph.labels):
        raise AssertionError("witness run does not cover the target")
    return run


def _compose(spec, chain: tuple, chains: dict) -> Run:
    """The run in which one node follows ``chain`` and helper nodes, each
    following the chain that unlocked its letter, serve every receive.

    Nodes are only counted while composing: every node starts at an
    initial configuration, so the steps are built once the count is known.
    """
    tle = spec.leq
    inits = spec.initial_configs()
    starts: list = []  # initial configuration of each node
    # (broadcaster, letter, its new configuration, receiver or None, receiver's new one)
    events: list = []

    def above(options, floor):
        """The first of ``options`` above ``floor`` (any, when it is None)."""
        for config in options:
            if floor is None or tle(floor, config):
                return config
        raise AssertionError(f"chain broken: nothing reachable above {floor}")

    def follow(walk: tuple):
        """Spawn a node that walks ``walk``; its index and final configuration."""
        node = len(starts)
        if node == WITNESS_NODE_CAP:
            raise WitnessExtractionFailed(
                f"composed run needs more than {WITNESS_NODE_CAP} nodes (the node cap)"
            )
        current = above(inits, walk[0][0])
        starts.append(current)
        for (_, label), (floor, _) in zip(walk, walk[1:]):
            if label.is_broadcast:
                current = above(spec.successors(current, label), floor)
                events.append((node, label.letter, current, None, None))
                continue
            helper, ready = follow(chains[label.letter])
            emitted = above(spec.successors(ready, Label.broadcast(label.letter)), None)
            current = above(spec.successors(current, label), floor)
            events.append((helper, label.letter, emitted, node, current))
        return node, current

    follow(chain)
    n = len(starts)
    labels = list(starts)
    edges: frozenset = frozenset()
    steps = [RunStep("init", LabelledGraph(n, edges, tuple(labels)))]
    for vertex, letter, emitted, receiver, received in events:
        wanted = frozenset() if receiver is None else frozenset({(receiver, vertex)})
        if wanted != edges:
            edges = wanted
            steps.append(RunStep("reconfigure", LabelledGraph(n, edges, tuple(labels))))
        labels[vertex] = emitted
        if receiver is not None:
            labels[receiver] = received
        steps.append(
            RunStep("broadcast", LabelledGraph(n, edges, tuple(labels)), vertex, letter)
        )
    return tuple(steps)
