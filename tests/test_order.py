import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bncover import (
    ResourceExhausted,
    ResourceLimits,
    VassConfig,
    backward_coverability,
    basis_subsumes,
    minimize,
    vass_leq,
)
from bncover.vass import Label, VassSpec, VassTransition

from conftest import cfg, random_vass
from oracles import forward_cover, scan_minimal

configs = st.builds(
    VassConfig,
    state=st.sampled_from(["p", "q"]),
    counters=st.tuples(st.integers(0, 4), st.integers(0, 4)),
)


def test_minimize_empty():
    assert minimize([], vass_leq) == ()


def test_minimize_drops_dominated_keeps_incomparable():
    out = minimize([cfg("q", 2, 0), cfg("q", 1, 0), cfg("p", 0, 0)], vass_leq)
    assert out == (cfg("q", 1, 0), cfg("p", 0, 0))


def test_minimize_ties_keep_earliest():
    a, b = cfg("q", 1), cfg("q", 1)
    out = minimize([a, b], vass_leq)
    assert out == (a,)


def test_minimize_matches_all_pairs_scan():
    rng = random.Random(7)
    for _ in range(50):
        batch = [
            VassConfig(rng.choice("pq"), (rng.randint(0, 3), rng.randint(0, 3)))
            for _ in range(rng.randint(0, 12))
        ]
        assert set(minimize(batch, vass_leq)) == scan_minimal(batch, vass_leq)


@given(st.lists(configs, max_size=12))
def test_minimize_is_sound_and_antichain(batch):
    out = minimize(batch, vass_leq)
    for c in batch:
        assert any(vass_leq(m, c) for m in out)
    for i, a in enumerate(out):
        for j, b in enumerate(out):
            if i != j:
                assert not vass_leq(a, b)
    assert all(m in batch for m in out)


def test_subsumes_bottom_dominates():
    assert basis_subsumes([cfg("q", 0, 0)], [cfg("q", 3, 1)], vass_leq)


def test_subsumes_incomparable_vectors():
    assert not basis_subsumes([cfg("q", 1, 0)], [cfg("q", 0, 1)], vass_leq)


def test_subsumes_matches_elementwise_membership():
    rng = random.Random(11)
    for _ in range(40):
        mk = lambda: minimize(
            [VassConfig(rng.choice("pq"), (rng.randint(0, 3), rng.randint(0, 3)))
             for _ in range(rng.randint(0, 6))],
            vass_leq,
        )
        b1, b2 = mk(), mk()
        expected = all(any(vass_leq(x, y) for x in b1) for y in b2)
        assert basis_subsumes(b1, b2, vass_leq) == expected


def test_relay_plain_coverability_q1(relay):
    verdict = backward_coverability(relay, cfg("q1", 0))
    assert verdict.coverable
    assert tuple(l for _, l in verdict.chain if l is not None) == (Label.broadcast("a"),)


def test_initial_target_covered_in_zero_iterations(relay):
    verdict = backward_coverability(relay, cfg("q0", 1))
    assert verdict.coverable and verdict.iterations == 0
    verdict = backward_coverability(relay, cfg("q0", 0))
    assert verdict.coverable and verdict.iterations == 0


def test_backward_matches_bounded_forward_search():
    rng = random.Random(2024)
    checked = 0
    for _ in range(30):
        spec = random_vass(rng)
        target = VassConfig(
            rng.choice(spec.states),
            tuple(rng.choice((0, 1)) for _ in range(spec.dim)),
        )
        covered, complete = forward_cover(spec, target, counter_cap=8, depth_cap=12)
        verdict = backward_coverability(spec, target)
        if covered:
            assert verdict.coverable, (spec, target)
            checked += 1
        elif complete:
            assert not verdict.coverable, (spec, target)
            checked += 1
    assert checked >= 20


def test_resource_exhausted_is_not_a_verdict(relay):
    with pytest.raises(ResourceExhausted):
        backward_coverability(
            relay, cfg("q4", 0), ResourceLimits(max_iters=0)
        )
    with pytest.raises(ResourceExhausted):
        backward_coverability(
            relay, cfg("q4", 0), ResourceLimits(max_basis=1)
        )


def test_chain_walks_back_to_target(relay):
    verdict = backward_coverability(relay, cfg("q1", 0))
    assert verdict.chain[-1][0] == cfg("q1", 0)
    assert verdict.chain[-1][1] is None


def test_per_label_restriction_equals_filtered_model():
    rng = random.Random(5)
    for _ in range(20):
        spec = random_vass(rng)
        label = rng.choice([t.label for t in spec.transitions])
        filtered = VassSpec(
            spec.states,
            spec.dim,
            spec.initial,
            tuple(t for t in spec.transitions if t.label == label),
        )
        basis = minimize(
            [VassConfig(rng.choice(spec.states), tuple(rng.choice((0, 1, 2)) for _ in range(spec.dim)))],
            vass_leq,
        )
        restricted = spec.pre_basis_for_label(label, basis)
        full_of_filtered = []
        for l in filtered.labels:
            full_of_filtered.extend(filtered.pre_basis_for_label(l, basis))
        assert restricted == tuple(full_of_filtered)


def test_compatibility_probe():
    # whenever c1 <= t1 and c1 steps to c2, some step of t1 dominates c2
    rng = random.Random(13)
    for _ in range(25):
        spec = random_vass(rng)
        for _ in range(10):
            state = rng.choice(spec.states)
            low = tuple(rng.randint(0, 2) for _ in range(spec.dim))
            high = tuple(x + rng.randint(0, 2) for x in low)
            c1, t1 = VassConfig(state, low), VassConfig(state, high)
            for label in spec.labels:
                for c2 in spec.successors(c1, label):
                    assert any(
                        vass_leq(c2, t2) for t2 in spec.successors(t1, label)
                    ), (c1, t1, label, c2)


def test_saturation_growth_is_monotone(relay):
    # iterate the engine's own rounds by hand and check subsumption both ways
    basis = minimize([cfg("q4", 0)], vass_leq)
    for _ in range(6):
        step = list(basis)
        for label in relay.labels:
            for c in basis:
                step.extend(relay.pre_basis_for_label(label, (c,)))
        grown = minimize(step, vass_leq)
        assert basis_subsumes(grown, basis, vass_leq)
        if basis_subsumes(basis, grown, vass_leq):
            break
        basis = grown


class _CountingSpace:
    """A counter space that logs every order comparison the engine makes."""

    def __init__(self, spec):
        self.labels = spec.labels
        self.covered_by_initial = spec.covered_by_initial
        self.pre_basis_for_label = spec.pre_basis_for_label
        self.compared: list[tuple] = []

    def leq(self, c1, c2) -> bool:
        self.compared.append((c1, c2))
        return vass_leq(c1, c2)


def test_saturation_never_compares_two_old_elements():
    rng = random.Random(11)
    rounds_with_old_pairs = 0
    for _ in range(40):
        spec = random_vass(rng, max_trans=10)
        space = _CountingSpace(spec)

        def observer(old, new):
            nonlocal rounds_with_old_pairs
            old_ids = {id(c) for c in old}
            assert not [p for p in space.compared if id(p[0]) in old_ids and id(p[1]) in old_ids]
            rounds_with_old_pairs += len(old) >= 2
            space.compared.clear()

        target = VassConfig(rng.choice(spec.states), tuple(rng.randint(0, 2) for _ in range(spec.dim)))
        verdict = backward_coverability(space, target, observer=observer)
        assert verdict == backward_coverability(spec, target)
    assert rounds_with_old_pairs >= 10


class _RepeatingSpace:
    """A counter space whose pre-basis lists every element twice, or after
    a larger copy, as ``repeat`` arranges them."""

    def __init__(self, spec, repeat):
        self.labels = spec.labels
        self.leq = spec.leq
        self.covered_by_initial = spec.covered_by_initial
        self._pre_basis = spec.pre_basis_for_label
        self._repeat = repeat

    def pre_basis_for_label(self, label, basis):
        return self._repeat(self._pre_basis(label, basis))


@pytest.mark.parametrize("repeat", [
    lambda basis: basis + basis,
    lambda basis: tuple(c for c in basis for _ in range(2)),
    # every counter +1 (a plain repeat in dimension 0)
    lambda basis: tuple(
        x for c in basis for x in (VassConfig(c.state, tuple(n + 1 for n in c.counters)), c)
    ),
], ids=["appended", "adjacent", "dominated-first"])
def test_repeats_in_the_pre_basis_change_nothing(repeat):
    # the OrderedSpace contract lets a pre-basis be non-minimal: the keep
    # loop rejects a repeat, and an element drops the larger copy kept just
    # before it, so verdicts, chains and bases stay the same
    rng = random.Random(29)
    positives = 0
    for _ in range(40):
        spec = random_vass(rng, max_trans=10)
        target = VassConfig(rng.choice(spec.states), tuple(rng.randint(0, 2) for _ in range(spec.dim)))
        want = backward_coverability(spec, target)
        got = backward_coverability(_RepeatingSpace(spec, repeat), target)
        assert repr(got) == repr(want), (spec, target)
        positives += want.coverable
    assert 5 <= positives <= 35


class _BrokenOrderSpace:
    """``b <= a <= o`` but not ``b <= o``: a non-transitive order under which
    the predecessors of ``o`` drop it from the basis without covering it."""

    labels = ("x",)
    pairs = {("a", "o"), ("b", "a")}

    def leq(self, c1, c2):
        return c1 == c2 or (c1, c2) in self.pairs

    def covered_by_initial(self, config):
        return False

    def pre_basis_for_label(self, label, basis):
        return ("a", "b") if basis == ("o",) else ()


def test_saturation_that_loses_ground_raises():
    with pytest.raises(AssertionError, match="saturation lost ground"):
        backward_coverability(_BrokenOrderSpace(), "o")
