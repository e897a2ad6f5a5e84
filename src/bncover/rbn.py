"""Coverability for broadcast networks whose links may be rewired freely.

Under arbitrary rewiring a receive transition is useful exactly when some
agent can reach a configuration able to broadcast the matching letter: the
two agents can then be linked on demand.  The decision procedure exploits
this: starting from the process with every receive disabled, it sweeps the
alphabet, unlocking the receives of each letter whose minimal broadcast
enabling configurations become coverable, until a sweep unlocks nothing
new; the final queries run against the accumulated process.  Each
sweep's queries run against the process as it stood when the sweep began,
so for pushdown processes one pre* saturation answers all of them
(:func:`~bncover.process.coverable_each`); counter processes still run
them one at a time.  The loop never looks at the target, so it runs once
per process (:func:`rbn_unlock`) and every query on that process reuses
it.  A caller that knows every target it will ask about on a process
passes them as a batch, and their final queries are answered the same
way: one saturation on pushdown processes, one per target, when it is
asked, on counter processes.

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

from .explore import Run, WitnessExtractionFailed, build_run, checked_witness, explore
from .graphs import LabelledGraph, Reconfigurable
from .order import ResourceLimits, Verdict
from .process import coverable_each
from .vass import Label, add_receives, strip_receives

# composed witness runs stop here: helpers can multiply at every unlocking level
WITNESS_NODE_CAP = 64
# a witness search without a chain explores up to this many nodes and
# broadcasts, pruning counter values (stack depths) above the cap
SEARCH_NODES = 4
SEARCH_BROADCASTS = 8
SEARCH_COUNTER_CAP = 8


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
    chains: dict = {}

    while True:
        unlocked: list[str] = []
        queries: list[QueryRecord] = []
        ask = coverable_each(
            current, dict.fromkeys(c for a in remaining for c in enabling[a]), limits
        )
        for letter in list(remaining):
            for config in enabling[letter]:
                answer = ask(config)
                queries.append(QueryRecord(letter, config, answer.coverable))
                if answer.coverable:
                    chains[letter] = answer.chain
                    unlocked.append(letter)
                    remaining.remove(letter)
                    break
        sweeps.append(SweepRecord(tuple(unlocked), tuple(queries)))
        for letter in unlocked:
            current = add_receives(current, letter)
        if not any(map(spec.has_receives, unlocked)):
            break

    return SaturationTrace(tuple(sweeps), frozenset(chains), chains), current


@lru_cache(maxsize=64)
def _final(spec, targets: tuple, limits: Optional[ResourceLimits]):
    """The unlocking trace of ``spec`` and a lookup answering the final
    query of each of ``targets`` against its unlocked process, memoized
    like :func:`rbn_unlock`."""
    trace, unlocked = rbn_unlock(spec, limits)
    return trace, coverable_each(unlocked, targets, limits)


def rbn_coverable(
    spec, target, limits: Optional[ResourceLimits] = None, batch: tuple = ()
) -> RbnResult:
    """Decide whether, in some rewirable network of ``spec`` processes, a
    node can reach a configuration dominating ``target``.

    ``batch``, when given, holds ``target`` and every other target the
    caller will ask about on ``spec`` under ``limits``: the first call
    answers the final queries of all of them (see the module docstring),
    and later calls with an equal batch look their answer up."""
    trace, ask = _final(spec, batch or (target,), limits)
    return RbnResult(ask(target), trace)


def rbn_witness(spec, target, trace: SaturationTrace, chain: Optional[tuple] = None) -> Run:
    """Concrete rewirable-network run covering ``target``, replay validated.

    Given ``chain``, the final query's ``Verdict.chain``, the run is
    composed from it and the trace's unlocking chains (see the module
    docstring), with no search; past :data:`WITNESS_NODE_CAP` nodes this
    raises :class:`WitnessExtractionFailed`.  Without a chain (pushdown
    processes carry none), the bounded explorer searches breadth-first on
    1 up to :data:`SEARCH_NODES` nodes, each within
    :data:`SEARCH_BROADCASTS` broadcasts, and raises
    :class:`WitnessExtractionFailed` when it finds nothing.  The positive
    verdict stands either way.
    """
    if chain is not None:
        return checked_witness(spec, target, _compose(spec, chain, trace.chains))
    for n in range(1, SEARCH_NODES + 1):
        run = explore(
            spec, Reconfigurable(), n, SEARCH_BROADCASTS, target, counter_cap=SEARCH_COUNTER_CAP
        )
        if run is not None:
            return checked_witness(spec, target, run)
    raise WitnessExtractionFailed(
        f"no covering run within {SEARCH_NODES} nodes and {SEARCH_BROADCASTS} broadcasts"
    )


def _compose(spec, chain: tuple, chains: dict) -> Run:
    """The run in which one node follows ``chain`` and helper nodes, each
    following the chain that unlocked its letter, serve every receive.

    Nodes are only counted while composing: every node starts at an
    initial configuration, so the run is built once the count is known.
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
    labels = list(starts)
    moves = []
    for vertex, letter, emitted, receiver, received in events:
        labels[vertex] = emitted
        if receiver is None:
            edges = frozenset()
        else:  # a helper is spawned after the node it serves
            labels[receiver] = received
            edges = frozenset({(receiver, vertex)})
        moves.append((vertex, letter, tuple(labels), edges))
    return build_run(LabelledGraph(len(starts), frozenset(), tuple(starts)), moves)
