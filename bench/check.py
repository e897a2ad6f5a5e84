"""Correctness checks for the benchmark's query results.

Nothing here calls a decider.  A verdict is settled by one of:

- a witness run: it must replay under ``explore.replay``, its final graph
  must cover the target, and for the fixed topologies every graph of the
  run must lie in the class, judged apart from ``graphs``: a brute-force
  longest path for ``path-bounded``, all pairs adjacent for ``clique``,
  and ``networkx`` diameter, degree and connectivity for ``diam-deg``;
- the rewirable (``rbn``) verdict of the same model and target, computed
  here by forward saturation under the unlocking rule: a letter's
  receives become usable once some reachable configuration can broadcast
  it.  Counter processes use a Karp-Miller coverability set, pushdown
  processes a post* automaton; both are exact.  An rbn verdict must agree
  with it; a fixed-topology positive implies an rbn positive and an rbn
  negative implies a fixed-topology negative;
- properties the method must have: ``path-bounded:K`` positive implies
  ``path-bounded:K+1`` positive, ``diam-deg`` positive at ``N`` implies
  positive at ``N+1``, and recorded facts such as relay ``q4(0)`` being
  coverable under no fixed topology.

A fixed-topology negative whose rbn counterpart is positive is searched
for with the bounded explorer; a hit fails it, no hit leaves it
*unsettled*: counted and listed, not failed.

Two failures come from known faults of the program and are named on the
outcome (``Outcome.fault``): an rbn positive, confirmed by the forward
saturation, whose requested witness is missing (``rbn_witness`` searches
at most 8 broadcasts on at most 4 nodes), and an rbn positive reported
``resource-exhausted`` after its decision finished (the explorer's state
budget is not caught around ``rbn_witness``).  Every other failure is a
wrong result.

``bncover`` names are imported where they are used, so the checks always
see the package that ``sys.modules`` holds now: the benchmark imports it
afresh during set-up.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

COVERABLE = "coverable"
NOT_COVERABLE = "not-coverable"
EXHAUSTED = "resource-exhausted"
OMEGA = math.inf
BOTTOM = "_"


WITNESS_LIMIT = "rbn_witness bounds"
EXPLORER_BUDGET = "explorer budget escapes run_query"


@dataclass(frozen=True)
class Outcome:
    status: str  # "confirmed" | "unsettled" | "failed"
    reason: str = ""
    fault: str = ""  # the known fault behind a failure, or ""


CONFIRMED = Outcome("confirmed")


# -- topology classes, judged without the graphs module ----------------------


def parse_semantics(text: str):
    name, _, params = text.partition(":")
    values = tuple(int(p) for p in params.split(",")) if params else ()
    return name, values


def _adjacency(n: int, edges) -> list[set]:
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def longest_path_brute(n: int, edges) -> int:
    adj = _adjacency(n, edges)
    best = 0

    def walk(v: int, seen: set, length: int):
        nonlocal best
        best = max(best, length)
        for w in adj[v] - seen:
            walk(w, seen | {w}, length + 1)

    for v in range(n):
        walk(v, {v}, 0)
    return best


def class_violation(semantics: str, n: int, edges) -> str:
    """Why a graph on ``n`` vertices is outside the semantics' class, or ""."""
    name, params = parse_semantics(semantics)
    if name == "path-bounded":
        length = longest_path_brute(n, edges)
        return f"longest path {length} > {params[0]}" if length > params[0] else ""
    if name == "clique":
        missing = [p for p in itertools.combinations(range(n), 2)
                   if p not in edges and p[::-1] not in edges]
        return f"{len(missing)} pairs not adjacent" if missing else ""
    if name == "diam-deg":
        import networkx as nx

        k, d, n_max = params
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        if n > n_max:
            return f"{n} vertices > {n_max}"
        if not nx.is_connected(g):
            return "disconnected"
        if nx.diameter(g) > k:
            return f"diameter {nx.diameter(g)} > {k}"
        degree = max((deg for _, deg in g.degree()), default=0)
        return f"degree {degree} > {d}" if degree > d else ""
    return ""


def covers(config, target) -> bool:
    if config.state != target.state:
        return False
    if hasattr(target, "stack"):
        return config.stack.startswith(target.stack)
    return all(a <= b for a, b in zip(target.counters, config.counters))


def witness_problem(spec, run, target, semantics: str) -> str:
    """Why ``run`` fails to witness coverage of ``target``, or ""."""
    from bncover.explore import replay

    outcome = replay(spec, run)
    if not outcome:
        return f"witness does not replay: step {outcome.failed_at}: {outcome.reason}"
    final = run[-1].graph
    if not any(covers(label, target) for label in final.labels):
        return "witness final graph does not cover the target"
    if semantics != "rbn":
        if any(step.kind == "reconfigure" for step in run):
            return "fixed-topology witness rewires links"
        why = class_violation(semantics, final.n, final.edges)
        if why:
            return f"witness graph outside {semantics}: {why}"
    return ""


# -- rewirable coverability by forward saturation ----------------------------


def _vass_rules(spec):
    return [(t.source, t.label.is_broadcast, t.label.letter, t.delta, t.target)
            for t in spec.transitions]


class TooLarge(Exception):
    """The coverability set outgrew the node budget."""


def karp_miller(spec, unlocked, max_nodes: int) -> set:
    """Coverability set (counters may be OMEGA) of the counter process whose
    receives are enabled for the ``unlocked`` letters only; raises
    :class:`TooLarge` beyond ``max_nodes`` nodes."""
    rules = _vass_rules(spec)
    by_source: dict = {}
    for r in rules:
        if r[1] or r[2] in unlocked:
            by_source.setdefault(r[0], []).append(r)
    nodes: set = set()
    stack = [((state, tuple(vector)), ()) for state, vector in spec.initial]
    while stack:
        node, ancestors = stack.pop()
        if node in nodes:
            continue
        if len(nodes) >= max_nodes:
            raise TooLarge()
        nodes.add(node)
        path = ancestors + (node,)
        state, counters = node
        for _, _, _, delta, target in by_source.get(state, ()):
            after = tuple(c + d for c, d in zip(counters, delta))
            if any(x < 0 for x in after):
                continue
            for a_state, a_counters in path:
                if a_state == target and a_counters != after and all(
                    x <= y for x, y in zip(a_counters, after)
                ):
                    after = tuple(OMEGA if y > x else y for x, y in zip(a_counters, after))
            stack.append(((target, after), path))
    return nodes


def vass_rbn_cover(spec, max_nodes: int = 50_000):
    """Coverage test for every target under the rewirable semantics, or
    None when a coverability set outgrows ``max_nodes``."""
    rules = _vass_rules(spec)
    unlocked: set = set()
    while True:
        try:
            nodes = karp_miller(spec, unlocked, max_nodes)
        except TooLarge:
            return None
        broadcastable = {
            letter for src, is_b, letter, delta, _ in rules
            if is_b and any(s == src and all(c + d >= 0 for c, d in zip(cs, delta))
                            for s, cs in nodes)
        }
        if broadcastable <= unlocked:
            break
        unlocked |= broadcastable

    def covered(target) -> bool:
        return any(s == target.state and all(t <= c for t, c in zip(target.counters, cs))
                   for s, cs in nodes)

    return covered


class PostStar:
    """Automaton of all configurations reachable from the initial ones,
    by post* saturation (Schwoon's algorithm), for the pushdown process
    whose receives are enabled for the ``unlocked`` letters only."""

    FINAL = ("final",)

    def __init__(self, spec, unlocked):
        gamma = spec.stack_alphabet + (BOTTOM,)
        rules = []  # (state, top, target, word) with |word| <= 2 after splitting
        fresh = 0
        for r in spec.rules:
            if not (r.label.is_broadcast or r.label.letter in unlocked):
                continue
            tops = gamma if r.top == "" else (r.top,)
            for g in tops:
                word = r.push + g if r.top == "" else r.push
                if len(word) <= 2:
                    rules.append((r.source, g, r.target, word))
                else:  # push of three: step through a fresh control state
                    mid = ("mid", fresh)
                    fresh += 1
                    rules.append((r.source, g, mid, word[1:]))
                    rules.append((mid, word[1], r.target, word[:2]))
        by_head: dict = {}
        for rule in rules:
            by_head.setdefault((rule[0], rule[1]), []).append(rule)
        rel: set = set()
        eps_in: dict = {}  # state -> control states with an eps move into it
        eps_out: dict = {}  # control state -> states its eps moves reach
        out: dict = {}  # state -> set of (symbol, target)
        work = [(q, BOTTOM, self.FINAL) for q in spec.initial]

        def add(t):
            if t not in rel:
                rel.add(t)
                out.setdefault(t[0], set()).add((t[1], t[2]))
                for p in eps_in.get(t[0], ()):
                    work.append((p, t[1], t[2]))

        while work:
            t = work.pop()
            p, g, q = t
            if g is None:
                if p in eps_in.get(q, ()):
                    continue
                eps_in.setdefault(q, set()).add(p)
                eps_out.setdefault(p, set()).add(q)
                for g2, q2 in list(out.get(q, ())):
                    work.append((p, g2, q2))
                continue
            if t in rel:
                continue
            add(t)
            for _, _, p2, word in by_head.get((p, g), ()):
                if word == "":
                    work.append((p2, None, q))
                elif len(word) == 1:
                    work.append((p2, word, q))
                else:
                    mid = ("push", p2, word[0])
                    work.append((p2, word[0], mid))
                    add((mid, word[1], q))
        self.out = out
        self.eps_out = eps_out

    def _closure(self, states: set) -> set:
        todo, seen = list(states), set(states)
        while todo:
            for q in self.eps_out.get(todo.pop(), ()):
                if q not in seen:
                    seen.add(q)
                    todo.append(q)
        return seen

    def covers(self, state, stack: str) -> bool:
        """Whether a reachable configuration of ``state`` has a stack
        starting with ``stack``."""
        current = self._closure({state})
        for sym in stack:
            current = self._closure({q for s in current for g, q in self.out.get(s, ()) if g == sym})
            if not current:
                return False
        todo, seen = list(current), set(current)
        while todo:
            s = todo.pop()
            if s == self.FINAL:
                return True
            for _, q in self.out.get(s, ()):
                if q not in seen:
                    seen.add(q)
                    todo.append(q)
        return False


def pushdown_rbn_cover(spec):
    unlocked: set = set()
    while True:
        auto = PostStar(spec, unlocked)
        broadcastable = {
            r.label.letter for r in spec.rules
            if r.label.is_broadcast and auto.covers(r.source, r.top)
        }
        if broadcastable <= unlocked:
            break
        unlocked |= broadcastable
    return lambda target: auto.covers(target.state, target.stack)


def rbn_cover(spec):
    from bncover.pushdown import PushdownSpec

    if isinstance(spec, PushdownSpec):
        return pushdown_rbn_cover(spec)
    return vass_rbn_cover(spec)


# -- the suite check ---------------------------------------------------------


def explore_class(semantics: str):
    from bncover.graphs import Clique, DiamDeg, PathBounded

    name, params = parse_semantics(semantics)
    if name == "path-bounded":
        return PathBounded(params[0]), 4
    if name == "clique":
        return Clique(), 4
    return DiamDeg(params[0], params[1]), params[2]


class Checker:
    """Checks the read-back reports of one suite.

    ``known_negative`` holds (model name, query index) pairs whose negative
    verdict is a recorded fact rather than something checked here.
    ``explore_nodes`` and ``explore_depth`` bound the search that tries to
    refute fixed-topology negatives.
    """

    def __init__(self, models, known_negative=frozenset(), explore_nodes=3, explore_depth=8):
        self.models = models
        self.known_negative = known_negative
        self.explore_nodes = explore_nodes
        self.explore_depth = explore_depth
        self._rbn: dict = {}

    def rbn_covered(self, name: str, target):
        """The rbn verdict of ``target`` in model ``name``; None if unknown."""
        if name not in self._rbn:
            self._rbn[name] = rbn_cover(self.models[name].process)
        cover = self._rbn[name]
        return None if cover is None else cover(target)

    def check(self, name: str, result, want_witness: bool) -> Outcome:
        model = self.models[name]
        spec = model.process
        query = model.queries[result.index]
        target = query.target(spec)
        semantics = result.semantics
        rbn_positive = self.rbn_covered(name, target)
        if result.verdict == EXHAUSTED:
            decided = semantics == "rbn" and result.sweeps is not None
            fault = EXPLORER_BUDGET if decided and want_witness and rbn_positive else ""
            return Outcome("failed", "resource-exhausted", fault)
        if result.verdict not in (COVERABLE, NOT_COVERABLE):
            return Outcome("failed", f"unknown verdict {result.verdict!r}")
        unknown = Outcome("unsettled", "rewirable coverability set outgrew its node budget")
        if result.verdict == COVERABLE:
            if rbn_positive is False:
                return Outcome("failed", "verdict disagrees: not coverable even with rewiring")
            if want_witness:
                if result.witness is None:
                    fault = WITNESS_LIMIT if semantics == "rbn" and rbn_positive else ""
                    return Outcome("failed", "requested witness missing", fault)
                problem = witness_problem(spec, result.witness, target, semantics)
                if problem:
                    return Outcome("failed", problem)
            return CONFIRMED if want_witness or rbn_positive else unknown
        if rbn_positive is False:
            return CONFIRMED
        if semantics == "rbn":
            if rbn_positive:
                return Outcome("failed", "verdict disagrees: coverable with rewiring")
            return unknown
        if (name, result.index) in self.known_negative:
            return CONFIRMED
        from bncover.explore import explore

        cls, n_max = explore_class(semantics)
        for n in range(1, min(self.explore_nodes, n_max) + 1):
            if explore(spec, cls, n, self.explore_depth, target) is not None:
                return Outcome("failed", f"verdict disagrees: explorer covers it on {n} nodes")
        return Outcome("unsettled", f"explorer found nothing within {self.explore_nodes} "
                                    f"nodes and {self.explore_depth} broadcasts")

    def check_suite(self, reports, want_witness: bool) -> dict:
        """Outcome per (model name, query index), properties included."""
        outcomes = {}
        for name, report in reports.items():
            for r in report.results:
                outcomes[(name, r.index)] = self.check(name, r, want_witness)
        for name, report in reports.items():
            for (i, a), (j, b) in itertools.permutations(enumerate(report.results), 2):
                if (a.state, a.vector, a.stack) != (b.state, b.vector, b.stack):
                    continue
                if a.verdict == COVERABLE and b.verdict == NOT_COVERABLE and _implies(
                    a.semantics, b.semantics
                ):
                    outcomes[(name, b.index)] = Outcome(
                        "failed", f"not coverable under {b.semantics} although "
                                  f"coverable under {a.semantics}")
        return outcomes


def _implies(weaker: str, stronger: str) -> bool:
    """Whether coverability under ``weaker`` implies it under ``stronger``
    by inclusion of the topology classes checked here."""
    n1, p1 = parse_semantics(weaker)
    n2, p2 = parse_semantics(stronger)
    if n1 == n2 == "path-bounded":
        return p1[0] < p2[0]
    if n1 == n2 == "diam-deg":
        return p1[:2] == p2[:2] and p1[2] < p2[2]
    return False
