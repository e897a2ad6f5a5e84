import dataclasses
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bncover import (
    Label,
    VassConfig,
    VassSpec,
    add_receives,
    complete_receives,
    finite_spec,
    minimize,
    strip_receives,
    vass_leq,
    vass_pre_basis,
    vass_successors,
)
from bncover.vass import VassTransition

from conftest import MODELS, cfg, random_vass


def test_relay_broadcast_a_successor(relay):
    assert vass_successors(relay, cfg("q0", 1), Label.broadcast("a")) == (cfg("q1", 0),)


def test_no_broadcast_a_from_q1(relay):
    assert vass_successors(relay, cfg("q1", 0), Label.broadcast("a")) == ()


def _active_scan(spec):
    return [
        t for t in spec.transitions
        if t.label.is_broadcast
        or spec.active_receives is None
        or t.label.letter in spec.active_receives
    ]


def _with_copies(spec, rng):
    """The spec, its receive-stripped copy and that copy with one letter back."""
    stripped = strip_receives(spec)
    return (spec, stripped, add_receives(stripped, rng.choice(spec.alphabet)))


def test_successors_match_declaration_scan():
    rng = random.Random(3)
    for _ in range(30):
        for spec in _with_copies(random_vass(rng), rng):
            config = VassConfig(
                rng.choice(spec.states), tuple(rng.randint(0, 2) for _ in range(spec.dim))
            )
            label = rng.choice([t.label for t in spec.transitions])
            expected = []
            for t in _active_scan(spec):
                if t.source == config.state and t.label == label:
                    updated = tuple(u + v for u, v in zip(config.counters, t.delta))
                    if all(x >= 0 for x in updated):
                        expected.append(VassConfig(t.target, updated))
            assert list(vass_successors(spec, config, label)) == expected


def test_pre_basis_and_min_enabling_match_declaration_scan():
    rng = random.Random(5)
    for _ in range(30):
        for spec in _with_copies(random_vass(rng), rng):
            assert spec.labels == tuple(dict.fromkeys(t.label for t in _active_scan(spec)))
            for label in dict.fromkeys(t.label for t in spec.transitions):
                scan = [t for t in _active_scan(spec) if t.label == label]
                basis = tuple(
                    VassConfig(rng.choice(spec.states),
                               tuple(rng.randint(0, 2) for _ in range(spec.dim)))
                    for _ in range(rng.randint(0, 3))
                )
                expected = [
                    VassConfig(t.source, tuple(max(u - v, -v, 0) for u, v in zip(c.counters, t.delta)))
                    for t in scan
                    for c in basis
                    if c.state == t.target
                ]
                assert vass_pre_basis(spec, label, basis) == tuple(expected)
                enabling = [VassConfig(t.source, tuple(max(0, -v) for v in t.delta)) for t in scan]
                assert spec.min_enabling(label) == minimize(enabling, vass_leq)


def test_index_is_per_instance_and_outside_identity():
    rng = random.Random(7)
    for _ in range(10):
        spec = random_vass(rng)
        twin = dataclasses.replace(spec)
        before = (repr(spec), hash(spec))
        for table in ("by_source_label", "by_label"):
            index = getattr(spec, table)
            assert getattr(spec, table) is index  # built once
            assert spec.labels and spec.alphabet
            assert (repr(spec), hash(spec)) == before and spec == twin
            assert table not in repr(spec)
            assert getattr(twin, table) is not index and getattr(twin, table) == index
            stripped = strip_receives(spec)
            assert getattr(stripped, table) is not index
        assert all(l.is_broadcast for l in stripped.by_label)
        assert all(l.is_broadcast for _, l in stripped.by_source_label)


def test_relay_pre_basis_of_broadcast_d(relay):
    out = vass_pre_basis(relay, Label.broadcast("d"), (cfg("q5", 0),))
    assert out == (cfg("q3", 1),)


def test_pre_basis_of_empty_is_empty(relay):
    assert vass_pre_basis(relay, Label.broadcast("d"), ()) == ()


def test_pre_basis_matches_truncated_membership():
    # up(pre_basis(l, b)) must equal {c : some l-successor of c is in up(b)}
    rng = random.Random(17)
    for _ in range(25):
        spec = random_vass(rng, max_dim=1)
        if spec.dim != 1:
            continue
        label = rng.choice([t.label for t in spec.transitions])
        target = VassConfig(rng.choice(spec.states), (rng.randint(0, 2),))
        basis = vass_pre_basis(spec, label, (target,))
        for state in spec.states:
            for counter in range(7):
                c = VassConfig(state, (counter,))
                in_pre = any(
                    vass_leq(target, succ) for succ in vass_successors(spec, c, label)
                )
                in_basis_up = any(vass_leq(b, c) for b in basis)
                assert in_pre == in_basis_up, (spec, label, target, c)


def test_relay_min_enabling_broadcast_a(relay):
    assert relay.min_enabling(Label.broadcast("a")) == (cfg("q0", 1),)


def test_min_enabling_letter_without_broadcasts(lone_receiver):
    assert lone_receiver.min_enabling(Label.broadcast("a")) == ()


def test_min_enabling_is_tight():
    # every returned config fires; nothing strictly below does (enabling is
    # upward closed, so single-coordinate decrements cover all of "below")
    rng = random.Random(23)
    for _ in range(25):
        spec = random_vass(rng)
        for letter in spec.alphabet:
            label = Label.broadcast(letter)
            for c in spec.min_enabling(label):
                assert vass_successors(spec, c, label)
                for i, x in enumerate(c.counters):
                    if x == 0:
                        continue
                    lower = VassConfig(
                        c.state, c.counters[:i] + (x - 1,) + c.counters[i + 1 :]
                    )
                    assert not vass_successors(spec, lower, label), (spec, c, lower)


def test_strip_leaves_only_broadcasts(relay):
    stripped = strip_receives(relay)
    active = list(stripped.active_transitions())
    assert len(active) == 4
    assert all(t.label.is_broadcast for t in active)
    assert {t.label.letter for t in active} == {"a", "b", "c", "d"}


def test_control_reachable_follows_the_active_transitions(relay):
    # q7 is entered only by q6 -??a-> q7
    stripped = strip_receives(relay)
    assert stripped.control_reachable == {"q0", "q1", "q6"}
    assert "q7" in add_receives(stripped, "a").control_reachable
    assert relay.control_reachable == set(relay.states)


def test_add_receives_idempotent(relay):
    stripped = strip_receives(relay)
    once = add_receives(stripped, "b")
    twice = add_receives(once, "b")
    assert once == twice
    assert list(once.active_transitions()) == list(twice.active_transitions())


def test_strip_then_add_all_round_trips(relay):
    spec = strip_receives(relay)
    for letter in relay.alphabet:
        spec = add_receives(spec, letter)
    assert set(spec.active_transitions()) == set(relay.active_transitions())


def test_add_receives_on_full_model_is_noop(relay):
    assert add_receives(relay, "a") == relay


def test_add_receives_unknown_letter(relay):
    with pytest.raises(ValueError):
        add_receives(relay, "z")


def test_completion_totalizes_receives(relay_raw):
    done = complete_receives(relay_raw, "sink")
    assert "sink" in done.states
    have = {
        (t.source, t.label.letter)
        for t in done.transitions
        if not t.label.is_broadcast
    }
    for s in done.states:
        for x in done.alphabet:
            assert (s, x) in have
    # the dead state only loops back to itself
    for t in done.transitions:
        if t.source == "sink":
            assert t.target == "sink" and not t.label.is_broadcast
            assert t.delta == (0,)


def test_receive_total_needs_receives_enabled_in_every_configuration():
    from bncover import PdsRule, PushdownSpec, parse_model

    from conftest import random_receive_total

    # the completed model still blocks: s receives c only with a counter
    # that can be decremented
    decrementing = parse_model("""
process vass dim=1
init q vector=(0)
trans q -> s on !!a delta=(0)
trans q -> p on ??a delta=(0)
trans p -> t on !!c delta=(0)
trans s -> s on ??c delta=(-1)
option complete-receives dead=d
query cover state=t vector=(0) semantics=clique
""").process
    assert not decrementing.receive_total
    rng = random.Random(59)
    total = [random_receive_total(rng) for _ in range(30)]
    assert all(spec.receive_total for spec in total)
    # receives switched off by rbn unlocking do not count, until re-enabled
    for spec in total:
        stripped = strip_receives(spec)
        for letter in spec.alphabet:
            assert stripped.receive_total is False
            stripped = add_receives(stripped, letter)
        assert stripped.receive_total

    def pushdown(top):
        return PushdownSpec(("p",), ("A",), ("p",), (
            PdsRule("p", Label.broadcast("m"), "", "p", "A"),
            PdsRule("p", Label.receive("m"), top, "p", ""),
        ))

    assert pushdown("").receive_total
    assert not pushdown("A").receive_total
    assert not strip_receives(pushdown("")).receive_total
    assert add_receives(strip_receives(pushdown("")), "m").receive_total

    # computed on first read and kept in the spec, outside equality,
    # hashing and repr; the copies strip_receives and add_receives make
    # compute their own
    for spec in (total[0], pushdown("")):
        fresh = dataclasses.replace(spec)
        text = repr(fresh)
        assert "receive_total" not in vars(fresh)
        assert fresh.receive_total is True
        assert vars(fresh)["receive_total"] is True
        assert fresh == spec and hash(fresh) == hash(spec) and repr(fresh) == text
        stripped = strip_receives(fresh)
        assert "receive_total" not in vars(stripped)
        assert stripped.receive_total is False
        for letter in stripped.alphabet:
            stripped = add_receives(stripped, letter)
        assert "receive_total" not in vars(stripped)
        assert stripped.receive_total is True


@pytest.mark.parametrize("name", ["relay.bn", "handshake_pushdown.bn"])
def test_a_spec_hashes_its_fields_once(name, monkeypatch):
    from bncover import parse_model
    from bncover.rbn import rbn_unlock
    from bncover.vass import ProcessSpec

    calls = []
    plain = dataclasses.fields

    def counting(obj):
        calls.append(obj)
        return plain(obj)

    def field_hash(spec):
        return hash(tuple(getattr(spec, f.name) for f in plain(spec)))

    def parsed():
        return parse_model((MODELS / name).read_text()).process

    spec, again = parsed(), parsed()
    # dataclass(frozen=True) would replace an inherited __hash__
    assert type(spec).__hash__ is ProcessSpec.__hash__
    monkeypatch.setattr(dataclasses, "fields", counting)
    assert [hash(spec) for _ in range(3)] == [field_hash(spec)] * 3
    assert calls == [spec]
    # an equal spec built afresh computes its own, equal hash, and hits
    # the memos keyed by the first
    assert again == spec and hash(again) == hash(spec) and calls == [spec, again]
    rbn_unlock.cache_clear()
    rbn_unlock(spec)
    rbn_unlock(again)
    assert rbn_unlock.cache_info().hits == 1
    # copies compute their own; a pickle leaves the hash behind
    stripped = strip_receives(spec)
    assert "_hash" not in vars(stripped)
    assert hash(stripped) == field_hash(stripped) != hash(spec)
    thawed = pickle.loads(pickle.dumps(spec))
    assert "_hash" not in vars(thawed) and thawed == spec and hash(thawed) == hash(spec)


def test_completion_preserves_explicit_receives(relay_raw):
    done = complete_receives(relay_raw, "sink")
    assert vass_successors(done, cfg("q6", 1), Label.receive("a")) == (cfg("q7", 2),)


def test_covered_by_initial(relay):
    assert relay.covered_by_initial(cfg("q0", 1))
    assert relay.covered_by_initial(cfg("q0", 0))
    assert not relay.covered_by_initial(cfg("q0", 2))
    assert not relay.covered_by_initial(cfg("q1", 0))


counters = st.tuples(st.integers(0, 5), st.integers(0, 5))
triples = st.tuples(
    st.builds(VassConfig, st.sampled_from("pq"), counters),
    st.builds(VassConfig, st.sampled_from("pq"), counters),
    st.builds(VassConfig, st.sampled_from("pq"), counters),
)


@given(triples)
def test_leq_is_a_partial_order(abc):
    a, b, c = abc
    assert vass_leq(a, a)
    if vass_leq(a, b) and vass_leq(b, a):
        assert a == b
    if vass_leq(a, b) and vass_leq(b, c):
        assert vass_leq(a, c)


def test_long_streams_contain_an_increasing_pair():
    rng = random.Random(99)
    for _ in range(5):
        stream = [
            VassConfig(rng.choice("pq"), (rng.randint(0, 40), rng.randint(0, 40)))
            for _ in range(1000)
        ]
        assert any(
            vass_leq(stream[i], stream[j])
            for i in range(len(stream))
            for j in range(i + 1, min(i + 60, len(stream)))
        )


def test_dimension_validation():
    with pytest.raises(ValueError):
        VassSpec(("a",), 2, (("a", (0,)),), ())
    with pytest.raises(ValueError):
        VassSpec(
            ("a",), 1, (("a", (0,)),),
            (VassTransition("a", Label.broadcast("x"), (), "a"),),
        )
    with pytest.raises(ValueError):
        VassConfig("a", (-1,))


def test_finite_spec_is_dimension_zero():
    spec = finite_spec(["x", "y"], ["x"], [("x", Label.broadcast("m"), "y")])
    assert spec.dim == 0
    assert vass_successors(spec, VassConfig("x"), Label.broadcast("m")) == (VassConfig("y"),)
