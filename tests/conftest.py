import dataclasses
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bncover import (
    Label,
    PdsRule,
    PushdownSpec,
    VassConfig,
    VassSpec,
    VassTransition,
    complete_receives,
    finite_spec,
    parse_model,
)

MODELS = Path(__file__).parent.parent / "models"


@pytest.fixture(scope="session")
def relay_model():
    return parse_model((MODELS / "relay.bn").read_text())


@pytest.fixture(scope="session")
def relay(relay_model):
    """Two-role relay process over one counter, receive-completed."""
    return relay_model.process


@pytest.fixture(scope="session")
def relay_raw():
    """The relay process without receive completion."""
    text = "\n".join(
        line
        for line in (MODELS / "relay.bn").read_text().splitlines()
        if not line.startswith("option")
    )
    return parse_model(text).process


@pytest.fixture(scope="session")
def counting():
    """Finite process whose state s<k> needs k+1 nodes to cover."""
    return parse_model((MODELS / "counting.bn").read_text()).process


@pytest.fixture(scope="session")
def lone_receiver():
    return finite_spec(["q", "qq"], ["q"], [("q", Label.receive("a"), "qq")])


def cfg(state, *counters):
    return VassConfig(state, tuple(counters))


def forget_rbn():
    """Empty the rbn memos, so the next rbn query runs its unlocking loop
    and its final queries again."""
    from bncover import rbn

    rbn.rbn_unlock.cache_clear()
    rbn._final.cache_clear()


# ---------------------------------------------------------------------------
# random model generators (seeded, deterministic)


def random_vass(rng: random.Random, max_states=4, max_dim=2, max_trans=8,
                letters="ab", broadcast_only=False) -> VassSpec:
    n = rng.randint(1, max_states)
    states = tuple(f"s{i}" for i in range(n))
    dim = rng.randint(0, max_dim)
    transitions = []
    for _ in range(rng.randint(1, max_trans)):
        sigil = "!!" if broadcast_only or rng.random() < 0.6 else "??"
        transitions.append(
            VassTransition(
                rng.choice(states),
                Label(sigil, rng.choice(letters)),
                tuple(rng.choice((-1, 0, 1)) for _ in range(dim)),
                rng.choice(states),
            )
        )
    initial = tuple(
        (s, tuple(rng.choice((0, 1)) for _ in range(dim)))
        for s in sorted(rng.sample(states, rng.randint(1, n)))
    )
    return VassSpec(states, dim, initial, tuple(transitions))


def random_finite(rng: random.Random, max_states=4, max_letters=3, max_trans=6) -> VassSpec:
    n = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(n)]
    letters = "abc"[: rng.randint(1, max_letters)]
    transitions = []
    for _ in range(rng.randint(1, max_trans)):
        sigil = rng.choice(("!!", "??"))
        transitions.append(
            (rng.choice(states), Label(sigil, rng.choice(letters)), rng.choice(states))
        )
    return finite_spec(states, [states[0]], transitions)


def random_receive_total(rng: random.Random) -> VassSpec:
    """A finite or one-counter model in which every state can receive every
    letter at any time: receives never decrement, and missing ones lead to
    a sink."""
    if rng.random() < 0.5:
        spec = random_finite(rng, max_states=5, max_letters=2, max_trans=10)
    else:
        spec = random_vass(rng, max_dim=1, max_trans=10)
    transitions = tuple(
        t if t.label.is_broadcast
        else dataclasses.replace(t, delta=tuple(max(0, x) for x in t.delta))
        for t in spec.transitions
    )
    return complete_receives(dataclasses.replace(spec, transitions=transitions), "sink")


def random_pushdown(
    rng: random.Random, max_states=3, max_rules=5, max_syms=3, letters="mn"
) -> PushdownSpec:
    n = rng.randint(1, max_states)
    states = tuple(f"p{i}" for i in range(n))
    syms = tuple("ABC"[: rng.randint(1, max_syms)])
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        sigil = rng.choice(("!!", "??"))
        top = rng.choice(("",) + syms)
        push = "".join(rng.choice(syms) for _ in range(rng.randint(0, 2)))
        rules.append(
            PdsRule(rng.choice(states), Label(sigil, rng.choice(letters)), top,
                    rng.choice(states), push)
        )
    return PushdownSpec(states, syms, (states[0],), tuple(rules))


def random_labelled_graph(rng: random.Random, max_n=5, states="pq", max_counter=3):
    from bncover import LabelledGraph

    n = rng.randint(1, max_n)
    edges = frozenset(
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if rng.random() < 0.5
    )
    labels = tuple(
        VassConfig(rng.choice(states), (rng.randint(0, max_counter),)) for _ in range(n)
    )
    return LabelledGraph(n, edges, labels)
