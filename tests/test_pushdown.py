import dataclasses
import random

import pytest

from bncover import (
    BOTTOM,
    Label,
    PdsConfig,
    PdsRule,
    PushdownSpec,
    add_receives,
    minimize,
    pds_coverable,
    pds_leq,
    parse_model,
    strip_receives,
)

from conftest import MODELS, random_pushdown
from oracles import forward_cover


def push_only():
    return PushdownSpec(
        ("q", "p"), ("A",), ("q",),
        (PdsRule("q", Label.broadcast("a"), "", "q", "A"),),
    )


def push_pop():
    return PushdownSpec(
        ("q", "p"), ("A",), ("q",),
        (
            PdsRule("q", Label.broadcast("a"), "", "q", "A"),
            PdsRule("q", Label.broadcast("b"), "A", "p", ""),
        ),
    )


def test_unconditional_push_successor():
    spec = push_only()
    assert spec.successors(PdsConfig("q", BOTTOM), Label.broadcast("a")) == (
        PdsConfig("q", "A" + BOTTOM),
    )


def test_pop_requires_matching_top():
    spec = push_pop()
    assert spec.successors(PdsConfig("q", "A" + BOTTOM), Label.broadcast("b")) == (
        PdsConfig("p", BOTTOM),
    )
    assert spec.successors(PdsConfig("q", BOTTOM), Label.broadcast("b")) == ()


def _active_scan(spec):
    return [
        r for r in spec.rules
        if r.label.is_broadcast
        or spec.active_receives is None
        or r.label.letter in spec.active_receives
    ]


def test_successors_match_rule_scan():
    rng = random.Random(31)
    for _ in range(30):
        full = random_pushdown(rng)
        stripped = strip_receives(full)
        for spec in (full, stripped, add_receives(stripped, rng.choice(full.alphabet))):
            stack = "".join(rng.choice(spec.stack_alphabet) for _ in range(rng.randint(0, 3)))
            config = PdsConfig(rng.choice(spec.states), stack + BOTTOM)
            label = rng.choice([r.label for r in spec.rules])
            expected = []
            for r in _active_scan(spec):
                if r.source != config.state or r.label != label:
                    continue
                if r.top == "":
                    expected.append(PdsConfig(r.target, r.push + config.stack))
                elif config.stack.startswith(r.top):
                    expected.append(PdsConfig(r.target, r.push + config.stack[1:]))
            assert list(spec.successors(config, label)) == expected
            assert spec.labels == tuple(dict.fromkeys(r.label for r in _active_scan(spec)))
            patterns = [PdsConfig(r.source, r.top) for r in _active_scan(spec) if r.label == label]
            assert spec.min_enabling(label) == minimize(patterns, pds_leq)


def test_index_is_per_instance_and_outside_identity():
    rng = random.Random(37)
    for _ in range(10):
        spec = random_pushdown(rng)
        twin = dataclasses.replace(spec)
        before = (repr(spec), hash(spec))
        index = spec.index
        assert spec.index is index  # built once
        assert spec.labels and spec.alphabet
        assert (repr(spec), hash(spec)) == before and spec == twin
        assert twin.index is not index and twin.index == index
        assert strip_receives(spec).index is not index


def test_initial_is_covered():
    spec = push_only()
    assert pds_coverable(spec, PdsConfig("q", BOTTOM)).coverable


def test_push_only_covers_deep_stacks_but_not_fresh_states():
    spec = push_only()
    assert pds_coverable(spec, PdsConfig("q", "AA" + BOTTOM)).coverable
    assert not pds_coverable(spec, PdsConfig("p", BOTTOM)).coverable


def test_empty_prefix_pattern_is_weakest():
    spec = PushdownSpec(
        ("q", "p"), ("A", "B"), ("q",),
        (
            PdsRule("q", Label.broadcast("a"), "", "q", "A"),
            PdsRule("q", Label.broadcast("b"), "A", "p", ""),
        ),
    )
    assert pds_coverable(spec, PdsConfig("p", "")).coverable
    assert pds_coverable(spec, PdsConfig("p", BOTTOM)).coverable
    # A-stacks above p are reachable (push twice, pop once) ...
    assert pds_coverable(spec, PdsConfig("p", "A")).coverable
    # ... but B is never pushed
    assert not pds_coverable(spec, PdsConfig("p", "B")).coverable


def test_coverable_matches_bounded_forward_search():
    rng = random.Random(41)
    checked = 0
    for _ in range(50):
        spec = random_pushdown(rng)
        stack = "".join(rng.choice(spec.stack_alphabet) for _ in range(rng.randint(0, 2)))
        target = PdsConfig(rng.choice(spec.states), stack)
        covered, complete = forward_cover(spec, target, counter_cap=7, depth_cap=14)
        verdict = pds_coverable(spec, target)
        if covered:
            assert verdict.coverable, (spec, target)
            checked += 1
        elif complete:
            assert not verdict.coverable, (spec, target)
            checked += 1
    assert checked >= 25


def test_saturation_round_counts_are_pinned():
    # reports expose the round count as ``iterations``; literal values keep
    # changes to the saturation's bookkeeping from shifting it
    spec = parse_model((MODELS / "handshake_pushdown.bn").read_text()).process
    for state, stack, covered, rounds in [
        ("idle", "AA", True, 3), ("idle", "B", False, 2), ("done", "", True, 3),
        ("done", "A", True, 4), ("done", "AA", True, 5), ("done", "B", False, 3),
        ("stuck", "A", False, 2),
    ]:
        verdict = pds_coverable(spec, PdsConfig(state, stack))
        assert (verdict.coverable, verdict.iterations) == (covered, rounds), (state, stack)

    rng = random.Random(223)
    expected = [
        ("p0[]", True, 4), ("p1[BAB]", False, 4), ("p0[CA]", False, 2),
        ("p2[AAA]", True, 4), ("p0[B]", True, 3), ("p1[]", False, 4),
        ("p0[BAB]", False, 5), ("p0[]", True, 4), ("p0[]", True, 1),
        ("p0[B]", True, 6), ("p1[A]", False, 3), ("p3[A]", True, 2),
    ]
    for text, covered, rounds in expected:
        spec = random_pushdown(rng, max_states=5, max_rules=14)
        stack = "".join(rng.choice(spec.stack_alphabet) for _ in range(rng.randint(0, 3)))
        target = PdsConfig(rng.choice(spec.states), stack)
        verdict = pds_coverable(spec, target)
        assert (str(target), verdict.coverable, verdict.iterations) == (text, covered, rounds)


def test_min_enabling_patterns():
    spec = push_pop()
    assert spec.min_enabling(Label.broadcast("b")) == (PdsConfig("q", "A"),)
    assert spec.min_enabling(Label.broadcast("z")) == ()
    # an any-stack rule subsumes symbol-specific ones on the same state
    both = PushdownSpec(
        ("q",), ("A",), ("q",),
        (
            PdsRule("q", Label.broadcast("a"), "A", "q", ""),
            PdsRule("q", Label.broadcast("a"), "", "q", "A"),
        ),
    )
    assert both.min_enabling(Label.broadcast("a")) == (PdsConfig("q", ""),)


def test_min_enabling_counts_rules():
    rng = random.Random(43)
    for _ in range(20):
        spec = random_pushdown(rng)
        for letter in spec.alphabet:
            label = Label.broadcast(letter)
            rules = [r for r in spec.rules if r.label == label]
            basis = spec.min_enabling(label)
            assert len(basis) <= len(rules)
            for r in rules:
                assert any(pds_leq(b, PdsConfig(r.source, r.top)) for b in basis)


def test_prefix_order_compatibility():
    # if s <= s' and s steps to c, some step of s' dominates c
    rng = random.Random(47)
    for _ in range(30):
        spec = random_pushdown(rng)
        stack = "".join(rng.choice(spec.stack_alphabet) for _ in range(rng.randint(0, 2)))
        s = PdsConfig(rng.choice(spec.states), stack)
        ext = "".join(rng.choice(spec.stack_alphabet) for _ in range(rng.randint(0, 2)))
        s_prime = PdsConfig(s.state, stack + ext)
        assert pds_leq(s, s_prime)
        for r in spec.rules:
            label = r.label
            for c in spec.successors(s, label):
                assert any(
                    pds_leq(c, c2) for c2 in spec.successors(s_prime, label)
                ), (spec, s, s_prime, label, c)


def test_coverable_is_monotone_in_target():
    rng = random.Random(53)
    for _ in range(25):
        spec = random_pushdown(rng)
        stack = "".join(rng.choice(spec.stack_alphabet) for _ in range(rng.randint(0, 2)))
        state = rng.choice(spec.states)
        t1 = PdsConfig(state, stack)
        t2 = PdsConfig(state, stack + rng.choice(spec.stack_alphabet))
        if pds_coverable(spec, t2).coverable:
            assert pds_coverable(spec, t1).coverable


def test_bottom_is_never_pushed_or_popped():
    with pytest.raises(ValueError):
        PdsRule("q", Label.broadcast("a"), BOTTOM, "q", "")
    with pytest.raises(ValueError):
        PdsRule("q", Label.broadcast("a"), "", "q", BOTTOM)
    with pytest.raises(ValueError):
        PdsConfig("q", BOTTOM + "A" + BOTTOM)


def test_stack_symbols_are_single_characters():
    with pytest.raises(ValueError):
        PushdownSpec(("q",), ("AB",), ("q",), ())
