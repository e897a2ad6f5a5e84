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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .explore import Run, explore, replay
from .graphs import Reconfigurable
from .order import ResourceLimits, Verdict
from .process import (
    add_receives,
    broadcast_enabling_basis,
    coverable,
    has_receives,
    strip_receives,
)


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
    unlocks at least one letter."""

    rounds: tuple[SweepRecord, ...]
    final_unlocked: frozenset[str]

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
    enabling = {a: broadcast_enabling_basis(spec, a) for a in spec.alphabet}
    current = strip_receives(spec)
    remaining = list(spec.alphabet)
    sweeps: list[SweepRecord] = []
    unlocked_all: list[str] = []

    while True:
        unlocked: list[str] = []
        queries: list[QueryRecord] = []
        for letter in list(remaining):
            for config in enabling[letter]:
                answer = coverable(current, config, limits)
                queries.append(QueryRecord(letter, config, answer.coverable))
                if answer.coverable:
                    unlocked.append(letter)
                    remaining.remove(letter)
                    break
        sweeps.append(SweepRecord(tuple(unlocked), tuple(queries)))
        unlocked_all.extend(unlocked)
        added_transitions = False
        for letter in unlocked:
            if has_receives(spec, letter):
                added_transitions = True
            current = add_receives(current, letter)
        if not added_transitions:
            break

    return SaturationTrace(tuple(sweeps), frozenset(unlocked_all)), current


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
) -> Run:
    """Concrete rewirable-network run covering ``target``.

    Searches forward with a growing node budget, materializing links only
    around each broadcast; receives of letters the trace never unlocked
    cannot fire in any run and are pruned.  The returned run is replay
    validated.  Raises :class:`WitnessExtractionFailed` when no run shows
    up within the bounds (the positive verdict still stands).
    """
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
        if run is None:
            continue
        check = replay(spec, run)
        if not check:
            raise AssertionError(f"search produced an invalid run: {check.reason}")
        return run
    raise WitnessExtractionFailed(
        f"no covering run within {max_nodes} nodes and {max_depth} broadcasts"
    )
