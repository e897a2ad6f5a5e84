"""Finite-state and counter-vector process models with broadcast and
receive transition labels.

A specification lists control states, a counter dimension, initial
configurations, and labelled transitions carrying integer update vectors.
A transition fires when the updated counters stay nonnegative.
Configurations are ordered by equal control state and componentwise
comparison of counters; a finite-state process is the dimension-zero
special case.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

from .order import minimize


@dataclass(frozen=True)
class Label:
    """Transition label: broadcast (``!!``) or receive (``??``) of a letter."""

    sigil: str
    letter: str

    def __post_init__(self):
        if self.sigil not in ("!!", "??"):
            raise ValueError(f"label sigil must be '!!' or '??', got {self.sigil!r}")
        if not self.letter:
            raise ValueError("label letter must be nonempty")

    @property
    def is_broadcast(self) -> bool:
        return self.sigil == "!!"

    @classmethod
    def broadcast(cls, letter: str) -> "Label":
        return cls("!!", letter)

    @classmethod
    def receive(cls, letter: str) -> "Label":
        return cls("??", letter)

    @classmethod
    def parse(cls, text: str) -> "Label":
        return cls(text[:2], text[2:])

    def __str__(self) -> str:
        return self.sigil + self.letter


@dataclass(frozen=True)
class VassConfig:
    """One process configuration: control state plus counter values."""

    state: str
    counters: tuple[int, ...] = ()

    def __post_init__(self):
        if any(c < 0 for c in self.counters):
            raise ValueError(f"counters must stay nonnegative: {self.counters}")

    @property
    def sort_key(self) -> tuple:
        """Deterministic sort key: state, then counters."""
        return (self.state, self.counters)

    @property
    def size(self) -> int:
        """Largest counter value (0 for a finite-state configuration)."""
        return max(self.counters, default=0)

    def __str__(self) -> str:
        if not self.counters:
            return self.state
        return f"{self.state}({','.join(str(c) for c in self.counters)})"


def vass_leq(c1: VassConfig, c2: VassConfig) -> bool:
    if c1.state != c2.state or len(c1.counters) != len(c2.counters):
        return False
    for a, b in zip(c1.counters, c2.counters):
        if a > b:
            return False
    return True


@dataclass(frozen=True)
class VassTransition:
    source: str
    label: Label
    delta: tuple[int, ...]
    target: str

    def __str__(self) -> str:
        return f"{self.source} -{self.label}-> {self.target}"


class ProcessSpec:
    """The process protocol members both process kinds share.

    A spec supplies its declared transition list (``declared``), the least
    configuration a transition fires from (``fires_from``) and whether a
    receive transition is enabled in every configuration of its source
    state (``always_enabled``); it also carries ``states``,
    ``active_receives`` and ``leq``.  ``active_receives`` narrows which
    receive letters are enabled: ``None`` enables every declared receive,
    a set enables exactly those letters (broadcasts are always enabled).
    """

    # Memos keyed by a spec hash it on every lookup, so each spec computes
    # its hash once, over every field as the dataclass would; copies compute
    # their own.  ``dataclass(frozen=True)`` replaces an inherited
    # ``__hash__``, so each subclass names this one in its own body.  A
    # pickle leaves the hash behind: string hashes differ between processes.

    @cached_property
    def _hash(self) -> int:
        return hash(tuple(getattr(self, f.name) for f in dataclasses.fields(self)))

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "_hash"}

    @cached_property
    def alphabet(self) -> tuple[str, ...]:
        """Letters in order of first appearance among declared transitions."""
        return tuple(dict.fromkeys(t.label.letter for t in self.declared))

    @cached_property
    def labels(self) -> tuple[Label, ...]:
        """Active transition labels in order of first appearance."""
        return tuple(self.by_label)

    # Active transitions (or rules) grouped by a key, each group in
    # declaration order, so a scan over a group visits what a scan over the
    # whole list would, in the same order.  Built on first use into the
    # spec's own ``__dict__``: outside equality, hashing and ``repr``, and
    # ``dataclasses.replace`` copies build their own.

    @cached_property
    def by_source_label(self) -> dict:
        """Active transitions by ``(source state, label)``."""
        return self._grouped(lambda t: (t.source, t.label))

    @cached_property
    def by_label(self) -> dict:
        """Active transitions by label."""
        return self._grouped(lambda t: t.label)

    def _grouped(self, key) -> dict:
        out: dict = {}
        for t in self.active_transitions():
            out.setdefault(key(t), []).append(t)
        return {k: tuple(v) for k, v in out.items()}

    def active_transitions(self) -> Iterator:
        for t in self.declared:
            if (
                t.label.is_broadcast
                or self.active_receives is None
                or t.label.letter in self.active_receives
            ):
                yield t

    def min_enabling(self, label: Label) -> tuple:
        """Minimal configurations at which some ``label`` transition fires."""
        out = [self.fires_from(t) for t in self.by_label.get(label, ())]
        return minimize(out, self.leq)

    def has_receives(self, letter: str) -> bool:
        """Whether the model declares any receive transition for ``letter``."""
        return any(not t.label.is_broadcast and t.label.letter == letter for t in self.declared)

    @cached_property
    def receive_total(self) -> bool:
        """Whether every state has, for every letter, an active receive
        enabled in every configuration of that state.  Receives that
        ``strip_receives`` switched off do not count.  Computed once per
        spec, like the groups above."""
        have = {
            (t.source, t.label.letter)
            for t in self.active_transitions()
            if not t.label.is_broadcast and self.always_enabled(t)
        }
        return all((s, x) in have for s in self.states for x in self.alphabet)


@dataclass(frozen=True)
class VassSpec(ProcessSpec):
    """Counter process specification; its protocol methods make it an
    :class:`~bncover.order.OrderedSpace` that saturation runs over directly.

    ``initial`` pairs each initial control state with its starting counter
    vector.  The full declared transition list is kept so receives that
    ``active_receives`` disables can be re-enabled later.
    """

    states: tuple[str, ...]
    dim: int
    initial: tuple[tuple[str, tuple[int, ...]], ...]
    transitions: tuple[VassTransition, ...]
    active_receives: Optional[frozenset[str]] = None

    __hash__ = ProcessSpec.__hash__

    def __post_init__(self):
        seen = set()
        for s in self.states:
            if s in seen:
                raise ValueError(f"duplicate state {s!r}")
            seen.add(s)
        if not self.initial:
            raise ValueError("at least one initial configuration is required")
        for state, vector in self.initial:
            if state not in seen:
                raise ValueError(f"initial state {state!r} is not declared")
            if len(vector) != self.dim:
                raise ValueError(f"initial vector {vector} does not have dimension {self.dim}")
            if any(x < 0 for x in vector):
                raise ValueError(f"initial vector {vector} must be nonnegative")
        for t in self.transitions:
            if t.source not in seen or t.target not in seen:
                raise ValueError(f"transition {t} references an undeclared state")
            if len(t.delta) != self.dim:
                raise ValueError(f"transition {t} has delta of wrong dimension")

    @property
    def declared(self) -> tuple[VassTransition, ...]:
        return self.transitions

    @staticmethod
    def fires_from(t: VassTransition) -> VassConfig:
        """The source state with counters ``max(0, -delta)``."""
        return VassConfig(t.source, tuple(max(0, -v) for v in t.delta))

    @staticmethod
    def always_enabled(t: VassTransition) -> bool:
        """Whether the update never decrements."""
        return all(x >= 0 for x in t.delta)

    # -- the process protocol (see ``process``) ------------------------------

    leq = staticmethod(vass_leq)

    def initial_configs(self) -> tuple[VassConfig, ...]:
        return tuple(VassConfig(s, v) for s, v in self.initial)

    def covered_by_initial(self, config: VassConfig) -> bool:
        return any(
            state == config.state and all(a <= b for a, b in zip(config.counters, vector))
            for state, vector in self.initial
        )

    @cached_property
    def control_reachable(self) -> frozenset[str]:
        """Control states reachable from an initial state along the active
        transitions, counters ignored.  No configuration in another state
        is reachable.  Built once per spec, like ``by_label``."""
        reached: set = set()
        grown = {state for state, _ in self.initial}
        while grown - reached:
            reached |= grown
            grown = {t.target for t in self.active_transitions() if t.source in reached}
        return frozenset(reached)

    # these two call the module functions by name, so that wrapping the
    # functions (as bench/tracing.py does) also sees the method calls
    def successors(self, config: VassConfig, label: Label) -> tuple[VassConfig, ...]:
        return vass_successors(self, config, label)

    def pre_basis_for_label(self, label: Label, basis: Sequence[VassConfig]) -> tuple[VassConfig, ...]:
        return vass_pre_basis(self, label, basis)


def finite_spec(states, initial_states, transitions) -> VassSpec:
    """Finite-state process as a dimension-zero counter model.

    ``transitions`` are ``(source, label, target)`` triples.
    """
    return VassSpec(
        states=tuple(states),
        dim=0,
        initial=tuple((s, ()) for s in initial_states),
        transitions=tuple(VassTransition(s, l, (), t) for s, l, t in transitions),
    )


def vass_successors(spec: VassSpec, config: VassConfig, label: Label) -> tuple[VassConfig, ...]:
    """All one-step successors of ``config`` under ``label``, declaration order."""
    out = []
    for t in spec.by_source_label.get((config.state, label), ()):
        updated = tuple(u + v for u, v in zip(config.counters, t.delta))
        if all(x >= 0 for x in updated):
            out.append(VassConfig(t.target, updated))
    return tuple(out)


def vass_pre_basis(spec: VassSpec, label: Label, basis: Sequence[VassConfig]) -> tuple[VassConfig, ...]:
    """Unminimized basis of the configurations with a ``label`` transition
    into the upward closure of ``basis``: per transition with update ``v``
    into the state of an element ``(q, u)``, its source with the least
    firing counters ``max(u - v, 0)`` componentwise."""
    out = []
    for t in spec.by_label.get(label, ()):
        for c in basis:
            if c.state != t.target:
                continue
            # u - v >= -v, as basis counters are nonnegative: no -v term is needed
            w = tuple(max(u - v, 0) for u, v in zip(c.counters, t.delta))
            out.append(VassConfig(t.source, w))
    return tuple(out)


def strip_receives(spec):
    """Copy of the model with every receive transition disabled."""
    return dataclasses.replace(spec, active_receives=frozenset())


def add_receives(spec, letter: str):
    """Copy of the model with the declared ``??letter`` transitions enabled again.

    Idempotent; enabling on a fully-enabled model is a no-op.
    """
    if letter not in spec.alphabet:
        raise ValueError(f"unknown letter {letter!r}")
    if spec.active_receives is None:
        return spec
    return dataclasses.replace(spec, active_receives=spec.active_receives | {letter})


def complete_receives(spec: VassSpec, dead_state: str) -> VassSpec:
    """Totalize receives through a dead state.

    Every (state, letter) pair without an explicit receive transition gets
    one into ``dead_state`` with zero update; the dead state in particular
    ends up with zero-update self-loops for every letter.
    """
    states = spec.states if dead_state in spec.states else spec.states + (dead_state,)
    zero = (0,) * spec.dim
    have = {(t.source, t.label.letter) for t in spec.transitions if not t.label.is_broadcast}
    extra = tuple(
        VassTransition(s, Label.receive(x), zero, dead_state)
        for s in states
        for x in spec.alphabet
        if (s, x) not in have
    )
    return dataclasses.replace(spec, states=states, transitions=spec.transitions + extra)
