"""Pushdown process models: finite control plus an unbounded stack.

Configurations pair a control state with a stack word, top symbol leftmost
and the reserved bottom marker rightmost.  They are ordered by equal state
and stack prefix, so a configuration also covers every configuration that
extends its stack further down.  The prefix order is not a well-quasi
ordering, which rules out the antichain engine; coverability is instead
decided by saturating a finite automaton that recognizes, per control
state, the stack words able to reach the target set (pre*).  Each
automaton node is one bit of an integer, so following a rule's push word
is integer OR work, and one saturation decides any number of targets
(:func:`pds_saturate`): the rbn unlocking loop answers every query of a
sweep from one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .order import Verdict
from .vass import Label, ProcessSpec

BOTTOM = "_"


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
class PushdownSpec(ProcessSpec):
    """Pushdown process specification.  Its protocol methods lack
    ``pre_basis_for_label``: the prefix order rules out saturation."""

    states: tuple[str, ...]
    stack_alphabet: tuple[str, ...]
    initial: tuple[str, ...]
    rules: tuple[PdsRule, ...]
    active_receives: Optional[frozenset[str]] = None

    __hash__ = ProcessSpec.__hash__

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

    @property
    def declared(self) -> tuple[PdsRule, ...]:
        return self.rules

    @staticmethod
    def fires_from(r: PdsRule) -> PdsConfig:
        """The source state under the inspected top symbol: a rule that
        fires on any stack gives the empty-prefix pattern, which every
        same-state configuration covers."""
        return PdsConfig(r.source, r.top)

    @staticmethod
    def always_enabled(r: PdsRule) -> bool:
        """Whether the rule reads no stack top."""
        return r.top == ""

    # -- the process protocol (see ``process``) ------------------------------

    leq = staticmethod(pds_leq)

    def initial_configs(self) -> tuple[PdsConfig, ...]:
        return tuple(PdsConfig(q, BOTTOM) for q in self.initial)

    def covered_by_initial(self, config: PdsConfig) -> bool:
        return any(config.state == q and BOTTOM.startswith(config.stack) for q in self.initial)

    def successors(self, config: PdsConfig, label: Label) -> tuple[PdsConfig, ...]:
        """All one-step successors of ``config`` under ``label``, rule order."""
        out = []
        for r in self.by_source_label.get((config.state, label), ()):
            if r.top == "":
                out.append(PdsConfig(r.target, r.push + config.stack))
            elif config.stack.startswith(r.top):
                out.append(PdsConfig(r.target, r.push + config.stack[1:]))
        return tuple(out)


def pds_coverable(spec: PushdownSpec, target: PdsConfig) -> Verdict:
    """Decide whether a reachable configuration covers ``target``: the
    one-target call of :func:`pds_saturate`."""
    return pds_saturate(spec, (target,))[0]


def pds_saturate(spec: PushdownSpec, targets) -> tuple[Verdict, ...]:
    """Decide, for each of ``targets``, whether a reachable configuration
    covers it: one pre* saturation serves them all.

    The automaton starts out accepting, per target, exactly the
    configurations that dominate it (its state, then its stack, then
    anything), and is saturated in synchronous rounds, each reading the
    previous round's automaton: for every rule rewriting ``g`` into ``w``
    and every automaton node reachable from the rule target by reading
    ``w``, a ``g``-transition from the rule source is added.  The saturated
    automaton accepts every configuration able to reach a target, so each
    answer reads off acceptance of an initial configuration.  The
    automaton never grows new nodes, so the run time is polynomial in the
    specification and target sizes.

    Each node is one bit of an integer: the control states first, then
    every target's own stack nodes, the last of them (or a lone node, for
    an empty stack) accepting.  Added transitions always leave a control
    state, so they live in a dict ``(control index, symbol) -> mask``; a
    target's own nodes step by shifting the bits whose next stack symbol
    is the one read, and accepting bits stay put.  Within a round each
    step, a node set and a symbol, is computed once.  Transitions into
    control states do not depend on the targets and those into a target's
    nodes depend on no other target, so each verdict and its round count
    (the rounds until nothing reachable from that target's part changes)
    are those of a saturation for that target alone.  A target whose state
    is undeclared, or whose stack holds an undeclared symbol, is never
    reached past that point.
    """
    targets = tuple(targets)
    if not targets:
        return ()
    gamma = spec.stack_alphabet + (BOTTOM,)
    ctrl = {q: i for i, q in enumerate(spec.states)}
    ctrl_mask = (1 << len(ctrl)) - 1
    trans: dict[tuple[int, str], int] = {}
    chain: dict[str, int] = {}  # own nodes stepping, by their next stack symbol
    accepting = 0
    relevant = []  # per target: the bits whose changes it sees
    accepts = []
    bit = len(ctrl)
    for t in targets:
        first = 1 << bit
        for i, sym in enumerate(t.stack[1:], bit):
            chain[sym] = chain.get(sym, 0) | 1 << i
        bit += max(len(t.stack), 1)
        last = 1 << (bit - 1)
        accepting |= last
        accepts.append(last)
        relevant.append(ctrl_mask | (1 << bit) - first)
        source = ctrl.get(t.state)
        if source is None:
            continue
        for g in t.stack[:1] or gamma:
            trans[source, g] = trans.get((source, g), 0) | first

    steps_taken: dict[tuple[int, str], int] = {}  # this round's, by (from, symbol)

    def read(cur: int, word: str) -> int:
        for sym in word:
            key = (cur, sym)
            nxt = steps_taken.get(key)
            if nxt is None:
                nxt = (cur & chain.get(sym, 0)) << 1 | cur & accepting
                c = cur & ctrl_mask
                while c:
                    low = c & -c
                    nxt |= trans.get((low.bit_length() - 1, sym), 0)
                    c ^= low
                steps_taken[key] = nxt
            cur = nxt
            if not cur:
                break
        return cur

    rules = [
        (ctrl[r.source], r.top, 1 << ctrl[r.target], r.push) for r in spec.active_transitions()
    ]
    rounds = [0] * len(targets)
    done = 0
    while True:
        done += 1
        steps_taken.clear()  # the automaton grows between rounds only
        added: dict[tuple[int, str], int] = {}
        for source, top, start, word in rules:
            cur = read(start, word)
            if not cur:
                continue
            if top:
                steps = ((top, cur),)
            else:  # fires on any stack: reads on from every top symbol
                steps = [(g, read(cur, g)) for g in gamma]
            for g, dest in steps:
                fresh = dest & ~trans.get((source, g), 0)
                if fresh:
                    added[source, g] = added.get((source, g), 0) | fresh
        delta = 0
        for key, fresh in added.items():
            delta |= fresh
            trans[key] = trans.get(key, 0) | fresh
        for i, seen in enumerate(relevant):
            if not rounds[i] and not delta & seen:
                rounds[i] = done
        if not delta:
            break

    start = 0
    for q in spec.initial:
        start |= trans.get((ctrl[q], BOTTOM), 0)
    return tuple(Verdict(bool(start & acc), n, (), None) for acc, n in zip(accepts, rounds))
