"""Pushdown process models: finite control plus an unbounded stack.

Configurations pair a control state with a stack word, top symbol leftmost
and the reserved bottom marker rightmost.  They are ordered by equal state
and stack prefix, so a configuration also covers every configuration that
extends its stack further down.  The prefix order is not a well-quasi
ordering, which rules out the antichain engine; coverability is instead
decided by saturating a finite automaton that recognizes, per control
state, the stack words able to reach the target set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

from .order import Verdict, minimize
from .vass import Label, TransitionIndex

BOTTOM = "_"
_NONE: frozenset = frozenset()


@dataclass(frozen=True)
class PdsConfig:
    """Control state plus stack word (may be a prefix pattern).

    Full configurations end with the bottom marker; targets and enabling
    patterns may omit it, in which case they cover every same-state
    configuration whose stack extends the given word.
    """

    state: str
    stack: str = ""

    def __post_init__(self):
        core = self.stack[:-1] if self.stack.endswith(BOTTOM) else self.stack
        if BOTTOM in core:
            raise ValueError(f"bottom marker may only terminate the stack: {self.stack!r}")

    @property
    def sort_key(self) -> tuple:
        """Deterministic sort key: state, then stack."""
        return (self.state, self.stack)

    @property
    def size(self) -> int:
        """Stack depth, the bottom marker not counted."""
        return len(self.stack) - 1

    def __str__(self) -> str:
        return f"{self.state}[{self.stack}]"


def pds_leq(c1: PdsConfig, c2: PdsConfig) -> bool:
    return c1.state == c2.state and c2.stack.startswith(c1.stack)


@dataclass(frozen=True)
class PdsRule:
    """Rewrites the stack top: ``top`` (one symbol, or "" for any stack)
    is replaced by the word ``push``."""

    source: str
    label: Label
    top: str
    target: str
    push: str

    def __post_init__(self):
        if len(self.top) > 1:
            raise ValueError(f"rule may inspect at most one top symbol, got {self.top!r}")
        if BOTTOM in self.top or BOTTOM in self.push:
            raise ValueError("the bottom marker is neither pushed nor popped")

    def __str__(self) -> str:
        top = self.top or "eps"
        push = self.push or "eps"
        return f"{self.source} -{self.label}[{top}/{push}]-> {self.target}"


@dataclass(frozen=True)
class PushdownSpec:
    """Pushdown process specification.  Its protocol methods lack
    ``pre_basis_for_label``: the prefix order rules out saturation."""

    states: tuple[str, ...]
    stack_alphabet: tuple[str, ...]
    initial: tuple[str, ...]
    rules: tuple[PdsRule, ...]
    active_receives: Optional[frozenset[str]] = None

    def __post_init__(self):
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate states")
        for g in self.stack_alphabet:
            if len(g) != 1:
                raise ValueError(f"stack symbols must be single characters, got {g!r}")
            if g == BOTTOM:
                raise ValueError(f"{BOTTOM!r} is reserved for the bottom marker")
        if len(set(self.stack_alphabet)) != len(self.stack_alphabet):
            raise ValueError("duplicate stack symbols")
        if not self.initial:
            raise ValueError("at least one initial state is required")
        known = set(self.states)
        syms = set(self.stack_alphabet)
        for q in self.initial:
            if q not in known:
                raise ValueError(f"initial state {q!r} is not declared")
        for r in self.rules:
            if r.source not in known or r.target not in known:
                raise ValueError(f"rule {r} references an undeclared state")
            if any(g not in syms for g in r.top + r.push):
                raise ValueError(f"rule {r} uses an undeclared stack symbol")

    @cached_property
    def alphabet(self) -> tuple[str, ...]:
        """Letters in order of first appearance among declared rules."""
        return tuple(dict.fromkeys(r.label.letter for r in self.rules))

    @cached_property
    def labels(self) -> tuple[Label, ...]:
        """Active rule labels in order of first appearance."""
        return tuple(self.index.by_label)

    @cached_property
    def index(self) -> TransitionIndex:
        """Active rules by (source, label) and by label, built on first use."""
        return TransitionIndex.of(self.active_rules())

    def active_rules(self) -> Iterator[PdsRule]:
        for r in self.rules:
            if (
                r.label.is_broadcast
                or self.active_receives is None
                or r.label.letter in self.active_receives
            ):
                yield r

    # -- the process protocol (see ``order.OrderedSpace``) ------------------

    leq = staticmethod(pds_leq)

    def initial_configs(self) -> tuple[PdsConfig, ...]:
        return tuple(PdsConfig(q, BOTTOM) for q in self.initial)

    def covered_by_initial(self, config: PdsConfig) -> bool:
        return any(config.state == q and BOTTOM.startswith(config.stack) for q in self.initial)

    def successors(self, config: PdsConfig, label: Label) -> tuple[PdsConfig, ...]:
        """All one-step successors of ``config`` under ``label``, rule order."""
        out = []
        for r in self.index.by_source_label.get((config.state, label), ()):
            if r.top == "":
                out.append(PdsConfig(r.target, r.push + config.stack))
            elif config.stack.startswith(r.top):
                out.append(PdsConfig(r.target, r.push + config.stack[1:]))
        return tuple(out)

    def min_enabling(self, label: Label) -> tuple[PdsConfig, ...]:
        """Minimal stack patterns from which a ``label`` rule can fire.

        A rule inspecting top symbol ``g`` contributes ``(source, g)``; a rule
        firing on any stack contributes the empty-prefix pattern, which every
        same-state configuration covers.
        """
        pats = [PdsConfig(r.source, r.top) for r in self.index.by_label.get(label, ())]
        return minimize(pats, pds_leq)

    def has_receives(self, letter: str) -> bool:
        """Whether the model declares any receive rule for ``letter``."""
        return any(not r.label.is_broadcast and r.label.letter == letter for r in self.rules)

    def receive_total(self) -> bool:
        """Whether every state has, for every letter, an active receive that
        reads no stack top, so it is enabled in every configuration of that
        state.  Receives that ``strip_receives`` switched off do not count."""
        have = {
            (r.source, r.label.letter)
            for r in self.active_rules()
            if not r.label.is_broadcast and r.top == ""
        }
        return all((s, x) in have for s in self.states for x in self.alphabet)


def pds_coverable(spec: PushdownSpec, target: PdsConfig) -> Verdict:
    """Decide whether a reachable configuration covers ``target``.

    Builds a finite automaton accepting exactly the configurations that
    dominate the target (state, then the target stack, then anything), and
    saturates it: for every rule rewriting ``g`` into ``w`` and every
    automaton state reachable from the rule target by reading ``w``, a
    ``g``-transition from the rule source is added.  The saturated
    automaton accepts every configuration able to reach the target set, so
    the answer reads off acceptance of an initial configuration.  The
    automaton never grows new states, so the run time is polynomial in the
    specification and target sizes.
    """
    gamma = spec.stack_alphabet + (BOTTOM,)
    rules: list[tuple[str, str, str, str]] = []
    for r in spec.active_rules():
        if r.top == "":
            # fires regardless of stack contents: one concrete rule per top symbol
            rules.extend((r.source, g, r.target, r.push + g) for g in gamma)
        else:
            rules.append((r.source, r.top, r.target, r.push))

    acc = ("stack", len(target.stack))
    trans: set[tuple] = set()
    prev: object = target.state
    for i, sym in enumerate(target.stack):
        node = ("stack", i + 1)
        trans.add((prev, sym, node))
        prev = node
    if not target.stack:
        for g in gamma:
            trans.add((target.state, g, acc))
    for g in gamma:
        trans.add((acc, g, acc))

    # adj is extended by each round's additions only once that round ends,
    # so every round reads the previous round's automaton
    adj: dict[tuple, set] = {}
    added = trans
    rounds = 0
    while True:
        for s, g, d in added:
            adj.setdefault((s, g), set()).add(d)
        rounds += 1
        added = set()
        for source, top, tgt, word in rules:
            cur: set = {tgt}
            for sym in word:
                nxt: set = set()
                for s in cur:
                    nxt |= adj.get((s, sym), _NONE)
                cur = nxt
                if not cur:
                    break
            for dest in cur:
                t = (source, top, dest)
                if t not in trans:
                    added.add(t)
        if not added:
            break
        trans |= added

    covered = any((q, BOTTOM, acc) in trans for q in spec.initial)
    return Verdict(covered, rounds, (), None)
