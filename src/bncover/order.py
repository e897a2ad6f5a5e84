"""Antichain bases over well-quasi-ordered spaces and backward coverability.

The saturation engine works against any configuration space exposing the
small contract in :class:`OrderedSpace`: a decidable quasi-order, a test for
domination by an initial configuration, and a computable basis of one-step
predecessors per transition label.  Upward-closed sets are kept as
antichains of their minimal elements throughout; saturation iterates the
predecessor basis until nothing new survives minimization, which is the
subsumption fixpoint ``up(U_i) == up(U_i ∪ pre(U_i))``.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Protocol, Sequence


class ResourceExhausted(Exception):
    """Search exceeded its configured limits; no verdict is implied.

    ``iterations`` and ``basis_size`` are those a saturation had reached
    when it stopped, or None when no saturation ran out.
    """

    def __init__(
        self, reason: str, iterations: Optional[int] = None, basis_size: Optional[int] = None
    ):
        counts = f" (iterations={iterations}, basis size={basis_size})"
        super().__init__(reason if iterations is None else reason + counts)
        self.reason = reason
        self.iterations = iterations
        self.basis_size = basis_size


@dataclasses.dataclass(frozen=True)
class ResourceLimits:
    """Hard caps for saturation runs.

    Exceeding a cap raises :class:`ResourceExhausted`; it is never reported
    as a negative verdict.
    """

    max_basis: int = 100_000
    max_iters: int = 10_000


class OrderedSpace(Protocol):
    """Contract a configuration space must satisfy to run under saturation.

    ``labels`` lists the transition labels in declaration order.  ``leq``
    must be reflexive and transitive, and ``pre_basis_for_label(label,
    basis)`` must return a finite basis, not necessarily minimal, of the
    one-step ``label``-predecessors of the upward closure of ``basis``; it
    may leave out predecessors that lie above an element of ``basis``.  A
    counter process spec (:class:`~bncover.vass.VassSpec`) is such a space
    itself, as is the graph space of a fixed-topology class
    (:class:`~bncover.static_cover.GraphSpace`).
    """

    @property
    def labels(self) -> Sequence: ...

    def leq(self, c1, c2) -> bool: ...

    def covered_by_initial(self, config) -> bool: ...

    def pre_basis_for_label(self, label, basis: Sequence) -> Sequence: ...


def minimize(configs: Sequence, leq: Callable) -> tuple:
    """Antichain of minimal elements of ``configs``.

    The result is a subset of the input with the same upward closure;
    among order-equivalent elements the earliest occurrence wins.
    """
    kept: list = []
    for c in configs:
        if any(leq(k, c) for k in kept):
            continue
        kept = [k for k in kept if not leq(c, k)]
        kept.append(c)
    return tuple(kept)


def basis_subsumes(b1: Sequence, b2: Sequence, leq: Callable) -> bool:
    """True iff the upward closure of ``b1`` contains that of ``b2``."""
    return all(any(leq(x, y) for x in b1) for y in b2)


@dataclasses.dataclass(frozen=True)
class Verdict:
    """Outcome of a coverability query.

    Positive verdicts carry ``chain``: pairs ``(config, label)`` leading
    from an initially-covered configuration back to the queried target,
    where firing ``label`` from anything above ``config`` lands above the
    next chain entry.  Negative verdicts carry the saturated ``basis`` as
    certificate together with the iteration count.
    """

    coverable: bool
    iterations: int
    basis: tuple
    chain: Optional[tuple] = None


def backward_coverability(
    space, target, limits: Optional[ResourceLimits] = None, observer: Optional[Callable] = None
) -> Verdict:
    """Decide whether a reachable configuration of ``space`` dominates ``target``.

    Starting from the upward closure of ``target``, each round compares the
    predecessors of the newest elements, in label and basis order, with the
    antichain as they come, keeping the minimal ones with the (label,
    parent) pair that introduced each.  Stops as soon as a kept element is
    dominated by an initial configuration, or when a round keeps nothing
    new.  A predecessor above an element of the antichain is never kept, so
    ``space.pre_basis_for_label`` may leave it out.

    ``observer``, when given, is called as ``observer(old_basis, new_basis)``
    after every round, for instrumentation.
    """
    limits = limits or ResourceLimits()
    leq = space.leq
    entries: list[tuple] = [(target, None, None)]  # (config, label, parent entry id)
    antichain = [0]

    def positive(entry_id: int, iterations: int, basis_ids: Sequence[int]) -> Verdict:
        chain = []
        walk: Optional[int] = entry_id
        while walk is not None:
            config, label, parent = entries[walk]
            chain.append((config, label))
            walk = parent
        basis = tuple(entries[i][0] for i in basis_ids)
        return Verdict(True, iterations, basis, tuple(chain))

    if space.covered_by_initial(target):
        return positive(0, 0, antichain)

    frontier = [0]
    iterations = 0
    while frontier:
        if iterations >= limits.max_iters:
            raise ResourceExhausted("iteration limit hit", iterations, len(antichain))
        iterations += 1
        start = len(entries)  # entries from here on are this round's

        # each predecessor is compared, as it comes, with what is kept so
        # far; the old antichain is pairwise incomparable and needs no check
        kept = list(antichain)
        for label in space.labels:
            for parent in frontier:
                for config in space.pre_basis_for_label(label, (entries[parent][0],)):
                    if any(leq(entries[k][0], config) for k in kept):
                        continue
                    kept = [k for k in kept if not leq(config, entries[k][0])]
                    kept.append(len(entries))
                    entries.append((config, label, parent))

        if len(kept) > limits.max_basis:
            raise ResourceExhausted("basis size limit hit", iterations, len(kept))

        fresh = [i for i in kept if i >= start]
        dropped = [entries[i][0] for i in set(antichain).difference(kept)]
        # saturation only ever grows upward; losing ground means the order
        # or the pre-basis of the space is broken.  A dropped old element can
        # only be covered by a fresh one, the old ones being incomparable.
        if not basis_subsumes([entries[i][0] for i in fresh], dropped, leq):
            raise AssertionError("saturation lost ground; ordered-space contract violated")
        if observer is not None:
            old = tuple(entries[i][0] for i in antichain)
            observer(old, tuple(entries[i][0] for i in kept))

        for i in fresh:
            if space.covered_by_initial(entries[i][0]):
                return positive(i, iterations, kept)

        antichain = kept
        frontier = fresh

    return Verdict(False, iterations, tuple(entries[i][0] for i in antichain), None)
