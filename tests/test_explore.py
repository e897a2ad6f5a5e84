import itertools
import random
import sys

import pytest

from bncover import (
    Clique,
    DiamDeg,
    Graph,
    Label,
    LabelledGraph,
    PathBounded,
    Reconfigurable,
    SelfLoopError,
    VassConfig,
    bn_step,
    explore,
    in_class,
    reconfigure,
    replay,
    vass_leq,
)
from bncover.explore import RunStep
from bncover.order import ResourceExhausted

from conftest import cfg, random_finite


def relay_star(center, leaf, count=4):
    labels = (center,) + (leaf,) * count
    edges = frozenset((0, i) for i in range(1, count + 1))
    return LabelledGraph(count + 1, edges, labels)


def test_star_broadcast_from_center(relay):
    before = relay_star(cfg("q0", 1), cfg("q6", 1))
    after = bn_step(relay, before, 0, "a")
    assert after == (relay_star(cfg("q1", 0), cfg("q7", 2)),)


def test_isolated_vertex_broadcasts_alone(relay):
    g = LabelledGraph(2, frozenset(), (cfg("q0", 1), cfg("q6", 1)))
    out = bn_step(relay, g, 0, "a")
    assert out == (LabelledGraph(2, frozenset(), (cfg("q1", 0), cfg("q6", 1))),)


def test_blocked_when_a_neighbor_cannot_receive(relay_raw):
    # without completion, a q9 neighbor has no ??a transition
    g = LabelledGraph(2, frozenset({(0, 1)}), (cfg("q0", 1), cfg("q9", 0)))
    assert bn_step(relay_raw, g, 0, "a") == ()


def test_step_count_is_the_product_of_successor_counts():
    rng = random.Random(139)
    for _ in range(30):
        spec = random_finite(rng)
        n = rng.randint(1, 4)
        edges = frozenset(
            (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5
        )
        g = LabelledGraph(
            n, edges, tuple(VassConfig(rng.choice(spec.states)) for _ in range(n))
        )
        v = rng.randrange(n)
        letter = rng.choice(spec.alphabet)
        out = bn_step(spec, g, v, letter)
        emit = len(spec.successors(g.labels[v], Label.broadcast(letter)))
        product = emit
        blocked = emit == 0
        for u in g.neighbors(v):
            r = len(spec.successors(g.labels[u], Label.receive(letter)))
            product *= r
            blocked = blocked or r == 0
        assert len(out) == (0 if blocked else product)


def test_reconfigure_replaces_edges_and_keeps_labels(relay):
    g = relay_star(cfg("q0", 1), cfg("q6", 1))
    bare = reconfigure(g, set())
    assert bare.edges == frozenset() and bare.labels == g.labels
    again = reconfigure(bare, set())
    assert again == bare
    linked = reconfigure(bare, {(0, 1), (2, 3)})
    assert linked.edges == frozenset({(0, 1), (2, 3)})


def test_reconfigure_rejects_self_loops(relay):
    g = relay_star(cfg("q0", 1), cfg("q6", 1))
    with pytest.raises(SelfLoopError):
        reconfigure(g, {(1, 1)})
    with pytest.raises(SelfLoopError):
        LabelledGraph(2, frozenset({(0, 1), (1, 1)}), (cfg("q0", 1), cfg("q6", 1)))


def test_relay_q4_run_found_with_three_nodes(relay):
    run = explore(relay, Reconfigurable(), 3, 9, cfg("q4", 0))
    assert run is not None
    assert run[0].graph.n == 3
    assert len(run) - 1 <= 9
    assert replay(relay, run)
    assert any(vass_leq(cfg("q4", 0), l) for l in run[-1].graph.labels)


def test_relay_q4_needs_three_nodes(relay):
    assert explore(relay, Reconfigurable(), 1, 10, cfg("q4", 0)) is None
    assert explore(relay, Reconfigurable(), 2, 10, cfg("q4", 0)) is None


def test_initial_target_yields_trivial_witness(relay):
    run = explore(relay, Reconfigurable(), 1, 0, cfg("q0", 1))
    assert run is not None and len(run) == 1
    assert replay(relay, run)


def test_relay_q4_absent_statically(relay):
    for n in range(1, 5):
        assert explore(relay, PathBounded(2), n, 12, cfg("q4", 0)) is None


def test_transcribed_nine_step_run_replays(relay):
    # three nodes: A chases q4, B relays, C provides the d broadcast;
    # dashed steps rewire the links between broadcasts
    A, B, C = 0, 1, 2
    q = cfg

    def g(edges, a, b, c):
        return LabelledGraph(3, frozenset(edges), (a, b, c))

    run = (
        RunStep("init", g({(A, B)}, q("q0", 1), q("q6", 1), q("q0", 1))),
        RunStep("broadcast", g({(A, B)}, q("q1", 0), q("q7", 2), q("q0", 1)), A, "a"),
        RunStep("broadcast", g({(A, B)}, q("q1", 0), q("q7", 2), q("q1", 0)), C, "a"),
        RunStep("reconfigure", g({(A, B), (B, C)}, q("q1", 0), q("q7", 2), q("q1", 0))),
        RunStep("broadcast", g({(A, B), (B, C)}, q("q2", 1), q("q8", 1), q("q2", 1)), B, "b"),
        RunStep("reconfigure", g({(B, C)}, q("q2", 1), q("q8", 1), q("q2", 1))),
        RunStep("broadcast", g({(B, C)}, q("q2", 1), q("q9", 0), q("q3", 2)), B, "c"),
        RunStep("reconfigure", g({(A, C)}, q("q2", 1), q("q9", 0), q("q3", 2))),
        RunStep("broadcast", g({(A, C)}, q("q4", 2), q("q9", 0), q("q5", 1)), C, "d"),
    )
    outcome = replay(relay, run)
    assert outcome, (outcome.failed_at, outcome.reason)
    assert any(vass_leq(cfg("q4", 0), l) for l in run[-1].graph.labels)


def test_replay_rejects_forged_receive(relay):
    base = relay_star(cfg("q0", 1), cfg("q6", 1), count=1)
    # neighbor pretends to stay put through a broadcast it must receive
    forged = (
        RunStep("init", base),
        RunStep(
            "broadcast",
            LabelledGraph(2, base.edges, (cfg("q1", 0), cfg("q6", 1))),
            0,
            "a",
        ),
    )
    outcome = replay(relay, forged)
    assert not outcome and outcome.failed_at == 1
    # a vertex off the broadcaster's links takes the receive step anyway
    before = LabelledGraph(3, base.edges, (cfg("q0", 1), cfg("q6", 1), cfg("q6", 1)))
    forged = (
        RunStep("init", before),
        RunStep(
            "broadcast",
            LabelledGraph(3, base.edges, (cfg("q1", 0), cfg("q7", 2), cfg("q7", 2))),
            0,
            "a",
        ),
    )
    outcome = replay(relay, forged)
    assert not outcome and outcome.failed_at == 1 and "non-neighbor 2" in outcome.reason


def test_replay_rejects_label_changes_during_reconfiguration(relay):
    base = relay_star(cfg("q0", 1), cfg("q6", 1), count=1)
    forged = (
        RunStep("init", base),
        RunStep("reconfigure", LabelledGraph(2, frozenset(), (cfg("q1", 0), cfg("q6", 1)))),
    )
    outcome = replay(relay, forged)
    assert not outcome and outcome.failed_at == 1


def test_replay_rejects_non_initial_start(relay):
    outcome = replay(relay, (RunStep("init", relay_star(cfg("q1", 0), cfg("q6", 1))),))
    assert not outcome and outcome.failed_at == 0


def test_explored_witnesses_always_replay():
    rng = random.Random(149)
    found = 0
    for _ in range(30):
        spec = random_finite(rng)
        target = VassConfig(rng.choice(spec.states))
        for semantics in (Reconfigurable(), PathBounded(2), Clique(), DiamDeg(2, 2, 3)):
            run = explore(spec, semantics, rng.randint(1, 3), 6, target)
            if run is None:
                continue
            outcome = replay(spec, run)
            assert outcome, (spec, target, semantics, outcome.reason)
            if not isinstance(semantics, Reconfigurable):
                assert all(step.kind != "reconfigure" for step in run), (spec, target, semantics)
                assert in_class(run[-1].graph.shape, semantics), (spec, target, semantics)
            found += 1
    assert found >= 10


def test_counter_cap_prunes_but_positives_are_exact(relay):
    # a cap of zero forbids every counter increase; the q4 run needs them
    assert explore(relay, Reconfigurable(), 3, 9, cfg("q4", 0), counter_cap=0) is None
    run = explore(relay, Reconfigurable(), 3, 9, cfg("q4", 0), counter_cap=2)
    assert run is not None and replay(relay, run)


def test_the_state_budget_bounds_every_search(relay, monkeypatch):
    # the package's ``explore`` attribute is the function, not the module
    monkeypatch.setattr(sys.modules["bncover.explore"], "MAX_STATES", 5)
    for semantics in (Reconfigurable(), PathBounded(2)):
        with pytest.raises(ResourceExhausted, match=r"^state budget hit: 5 states on 3 nodes$"):
            explore(relay, semantics, 3, 9, cfg("q4", 0))


def test_cliques_are_keyed_without_building_their_automorphisms(counting, monkeypatch):
    # every permutation of a clique is an automorphism, so a state's key is
    # its sorted labels; all 9! images are never built
    plain = Graph.automorphisms

    def refuse_complete(self):
        if len(self.edges) == self.n * (self.n - 1) // 2:
            raise AssertionError("automorphisms of a complete graph built")
        return plain(self)

    monkeypatch.setattr(Graph, "automorphisms", refuse_complete)
    target = VassConfig("s2")
    run = explore(counting, Clique(), 9, 3, target)
    assert run is not None
    assert replay(counting, run)
    assert any(vass_leq(target, c) for c in run[-1].graph.labels)
