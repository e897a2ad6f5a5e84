import dataclasses
import random

import pytest

from bncover import (
    Label,
    PdsConfig,
    ResourceExhausted,
    ResourceLimits,
    VassConfig,
    VassSpec,
    Verdict,
    WitnessExtractionFailed,
    backward_coverability,
    explore,
    finite_spec,
    parse_model,
    rbn_coverable,
    rbn_witness,
    replay,
    run_queries,
    strip_receives,
    vass_leq,
)
from bncover import order, process, rbn
from bncover.graphs import Reconfigurable
from bncover.rbn import WITNESS_NODE_CAP, rbn_unlock

from conftest import MODELS, cfg, forget_rbn, random_finite, random_pushdown, random_vass
from oracles import unlock_one_query_at_a_time


def check_trace(spec, trace):
    sigma = len(spec.alphabet)
    enabling_total = sum(
        len(spec.min_enabling(Label.broadcast(a))) for a in spec.alphabet
    )
    assert len(trace.rounds) <= sigma + 1
    assert trace.total_queries <= max(enabling_total, 1) ** 2
    for sweep in trace.rounds[:-1]:
        assert sweep.unlocked


def test_relay_q4_coverable_with_rewiring(relay):
    result = rbn_coverable(relay, cfg("q4", 0))
    assert result.coverable
    check_trace(relay, result.trace)


def test_relay_q5_coverable_with_rewiring(relay):
    result = rbn_coverable(relay, cfg("q5", 0))
    assert result.coverable
    check_trace(relay, result.trace)


def test_relay_unlocks_all_letters(relay):
    result = rbn_coverable(relay, cfg("q4", 0))
    assert result.trace.final_unlocked == frozenset("abcd")


def test_lone_receiver_stays_uncoverable(lone_receiver):
    result = rbn_coverable(lone_receiver, VassConfig("qq"))
    assert not result.coverable
    assert result.trace.total_queries == 0  # no broadcasts, so nothing to ask
    check_trace(lone_receiver, result.trace)


def test_broadcast_only_equals_plain_coverability():
    rng = random.Random(127)
    for _ in range(15):
        spec = random_vass(rng, broadcast_only=True)
        target = VassConfig(
            rng.choice(spec.states), tuple(rng.choice((0, 1)) for _ in range(spec.dim))
        )
        plain = backward_coverability(spec, target)
        result = rbn_coverable(spec, target)
        assert result.coverable == plain.coverable
        assert len(result.trace.rounds) == 1  # nothing to add, single sweep
        check_trace(spec, result.trace)


def test_trace_bounds_on_random_mixed_processes():
    rng = random.Random(131)
    for _ in range(25):
        spec = random_vass(rng)
        target = VassConfig(
            rng.choice(spec.states), tuple(rng.choice((0, 1)) for _ in range(spec.dim))
        )
        result = rbn_coverable(spec, target)
        check_trace(spec, result.trace)


def test_rewiring_never_loses_coverability(relay):
    # everything statically coverable stays coverable under rewiring
    from bncover import PathBounded, static_coverable

    for state in ("q1", "q5", "q7", "q8", "q9"):
        if static_coverable(relay, cfg(state, 0), PathBounded(2)).coverable:
            assert rbn_coverable(relay, cfg(state, 0)).coverable


def test_relay_q4_witness_is_small_and_replays(relay):
    result = rbn_coverable(relay, cfg("q4", 0))
    run = rbn_witness(relay, cfg("q4", 0), result.trace)
    assert run[0].graph.n <= 3
    assert len(run) - 1 <= 12
    outcome = replay(relay, run)
    assert outcome, outcome.reason
    assert any(vass_leq(cfg("q4", 0), l) for l in run[-1].graph.labels)


def test_broadcast_only_witness_is_single_node():
    spec = finite_spec(
        ["a0", "a1"], ["a0"], [("a0", Label.broadcast("m"), "a1")]
    )
    result = rbn_coverable(spec, VassConfig("a1"))
    run = rbn_witness(spec, VassConfig("a1"), result.trace)
    assert run[0].graph.n == 1
    assert all(step.kind != "reconfigure" for step in run)
    assert replay(spec, run)


def test_witnesses_replay_on_random_positives():
    rng = random.Random(137)
    extracted = 0
    for _ in range(40):
        spec = random_finite(rng)
        target = VassConfig(rng.choice(spec.states))
        result = rbn_coverable(spec, target)
        if not result.coverable:
            continue
        try:
            run = rbn_witness(spec, target, result.trace)
        except WitnessExtractionFailed:
            continue
        outcome = replay(spec, run)
        assert outcome, (spec, target, outcome.reason)
        tle = spec.leq
        assert any(tle(target, l) for l in run[-1].graph.labels)
        extracted += 1
    assert extracted >= 10


def test_witness_extraction_failure_keeps_verdict(relay, monkeypatch):
    monkeypatch.setattr(rbn, "SEARCH_NODES", 1)
    result = rbn_coverable(relay, cfg("q4", 0))
    with pytest.raises(WitnessExtractionFailed, match="within 1 nodes"):
        rbn_witness(relay, cfg("q4", 0), result.trace)
    assert result.coverable


def test_pushdown_handshake_through_the_same_driver():
    model = parse_model((MODELS / "handshake_pushdown.bn").read_text())
    spec = model.process
    # announcing m is always possible, so ??n unlocks via the pending
    # marker; done is reached by pairing a pusher with a receiver
    done = rbn_coverable(spec, PdsConfig("done", ""))
    assert done.coverable
    check_trace(spec, done.trace)
    # the reply marker B is never pushed, so ??m cannot help stuck
    stuck = rbn_coverable(spec, PdsConfig("stuck", ""))
    assert not stuck.coverable
    check_trace(spec, stuck.trace)


def test_explore_confirms_rbn_positives_small_scale(relay):
    run = explore(relay, Reconfigurable(), 3, 6, cfg("q4", 0))
    assert run is not None
    assert rbn_coverable(relay, cfg("q4", 0)).coverable


def test_second_query_on_an_equal_process_reuses_the_unlocking(relay_model, monkeypatch):
    forget_rbn()
    calls = []
    plain = process.coverable

    def counting(spec, target, limits=None):
        calls.append(target)
        return plain(spec, target, limits)

    # on counter models both the unlocking loop's queries and the final
    # query reach process.coverable through coverable_each
    monkeypatch.setattr(process, "coverable", counting)
    first = rbn_coverable(relay_model.process, cfg("q4", 0))
    assert len(calls) == first.trace.total_queries + 1
    calls.clear()
    equal = parse_model((MODELS / "relay.bn").read_text()).process
    assert equal == relay_model.process and equal is not relay_model.process
    second = rbn_coverable(equal, cfg("q5", 0))
    assert calls == [cfg("q5", 0)]  # only the final, per-target query
    assert second.trace == first.trace


def test_batched_sweeps_match_one_query_at_a_time():
    rng = random.Random(229)
    for _ in range(120):
        spec = random_pushdown(rng, max_states=6, max_rules=20, letters="mnopq")
        rbn_unlock.cache_clear()
        trace, unlocked = rbn_unlock(spec)
        assert (trace, unlocked) == unlock_one_query_at_a_time(spec), spec


def test_memoized_results_equal_cold_results():
    rng = random.Random(139)
    for i in range(24):
        if i % 2:
            spec = random_pushdown(rng, max_states=4, max_rules=8)
            targets = [
                PdsConfig(rng.choice(spec.states), rng.choice(("",) + spec.stack_alphabet))
                for _ in range(3)
            ]
        else:
            spec = random_vass(rng)
            targets = [
                VassConfig(rng.choice(spec.states),
                           tuple(rng.choice((0, 1)) for _ in range(spec.dim)))
                for _ in range(3)
            ]
        forget_rbn()
        warm = [rbn_coverable(spec, t) for t in targets]
        assert rbn_unlock.cache_info().misses == 1
        for target, result in zip(targets, warm):
            forget_rbn()
            assert rbn_coverable(spec, target) == result, (spec, target)


def test_limits_are_part_of_the_memo_key(relay):
    forget_rbn()
    for _ in range(2):
        with pytest.raises(ResourceExhausted):
            rbn_coverable(relay, cfg("q4", 0), ResourceLimits(max_basis=1))
    assert rbn_unlock.cache_info().currsize == 0  # exhaustion is never cached
    loose = rbn_coverable(relay, cfg("q4", 0), ResourceLimits(max_iters=500))
    assert rbn_coverable(relay, cfg("q4", 0)) == loose
    assert rbn_unlock.cache_info().currsize == 2
    with pytest.raises(ResourceExhausted):
        rbn_coverable(relay, cfg("q4", 0), ResourceLimits(max_basis=1))


@pytest.mark.parametrize("name, target, batch", [
    ("relay.bn", cfg("q4", 0), (cfg("q5", 0), cfg("q1", 0))),
    ("handshake_pushdown.bn", PdsConfig("stuck"), (PdsConfig("done"),)),
])
def test_a_batch_without_its_target_still_answers_it(name, target, batch):
    spec = parse_model((MODELS / name).read_text()).process
    forget_rbn()
    alone = rbn_coverable(spec, target)
    forget_rbn()
    assert rbn_coverable(spec, target, batch=batch) == alone
    assert rbn_coverable(spec, batch[0], batch=batch) == rbn_coverable(spec, batch[0])


# -- control-state reachability settles counter queries ------------------------


def test_a_target_in_an_unreachable_state_runs_no_saturation(relay, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a saturation ran")

    # process.coverable calls the name it imported from order
    monkeypatch.setattr(order, "backward_coverability", refuse)
    monkeypatch.setattr(process, "backward_coverability", refuse)
    target = cfg("q7", 3)  # only q6 -??a-> q7 enters q7
    assert process.coverable(strip_receives(relay), target) == Verdict(False, 0, (target,))


def test_the_relaxation_changes_no_rbn_verdict_or_trace(monkeypatch):
    rng = random.Random(113)
    cases = []
    for _ in range(60):
        spec = random_vass(rng, max_states=5, max_trans=10, letters="abc")
        for state in spec.states:
            vector = tuple(rng.choice((0, 1)) for _ in range(spec.dim))
            cases.append((spec, VassConfig(state, vector)))
    forget_rbn()
    relaxed = [rbn_coverable(spec, target) for spec, target in cases]
    settled = sum(not r.coverable and r.verdict.iterations == 0 for r in relaxed)
    assert settled >= 20

    every_state = property(lambda spec: frozenset(spec.states))
    monkeypatch.setattr(VassSpec, "control_reachable", every_state)
    forget_rbn()
    for (spec, target), result in zip(cases, relaxed):
        plain = rbn_coverable(spec, target)
        assert plain.trace == result.trace and plain.trace.chains == result.trace.chains
        assert plain.coverable == result.coverable, (spec, target)
        if result.coverable or result.verdict.iterations:
            assert plain.verdict == result.verdict, (spec, target)
        else:
            assert result.verdict == Verdict(False, 0, (target,)), (spec, target)
    forget_rbn()  # the memos hold results of the switched-off relaxation


# -- witnesses composed from the unlocking chains ------------------------------

# counter models 7 and 41 of the rbn-vass benchmark suite (bench/gen.py),
# whose covering runs for s8 and s7 need more than 8 broadcasts on 4 nodes
VASS7 = """\
process vass dim=3
init s0 vector=(1,1,1)
trans s5 -> s8 on ??a delta=(-1,+0,+0)
trans s1 -> s3 on ??c delta=(-1,+0,+1)
trans s7 -> s7 on ??b delta=(-1,+0,+0)
trans s8 -> s3 on !!b delta=(+0,+0,-1)
trans s9 -> s2 on ??d delta=(-1,+0,+1)
trans s1 -> s9 on ??c delta=(+0,+1,+0)
trans s7 -> s1 on ??c delta=(+0,+1,+1)
trans s9 -> s7 on ??a delta=(+0,+0,+0)
trans s0 -> s1 on !!b delta=(-1,+0,+0)
trans s4 -> s0 on ??a delta=(+1,+1,+1)
trans s7 -> s9 on ??c delta=(+1,+0,+0)
trans s7 -> s9 on !!d delta=(+1,+0,+1)
trans s9 -> s7 on ??b delta=(+0,-1,-1)
trans s5 -> s9 on ??c delta=(+0,-1,-1)
trans s6 -> s5 on !!a delta=(-1,-1,+0)
trans s2 -> s0 on !!d delta=(-1,-1,-1)
trans s0 -> s5 on ??a delta=(+0,-1,+1)
trans s9 -> s1 on ??d delta=(+1,+1,-1)
trans s3 -> s9 on ??b delta=(+0,+1,+0)
trans s1 -> s6 on !!c delta=(+0,+0,+0)
trans s7 -> s7 on !!c delta=(-1,+0,+0)
trans s3 -> s1 on !!c delta=(+0,+0,+1)
trans s6 -> s0 on ??b delta=(+1,+0,+0)
trans s7 -> s3 on ??b delta=(+1,-1,+1)
trans s6 -> s6 on ??b delta=(-1,+0,+1)
trans s6 -> s9 on !!c delta=(+0,+1,+0)
trans s9 -> s2 on ??c delta=(+0,+1,+1)
trans s0 -> s4 on ??a delta=(-1,-1,+1)
trans s1 -> s1 on ??a delta=(+0,+0,+0)
trans s8 -> s2 on ??a delta=(-1,+1,-1)
query cover state=s8 vector=(0,0,0) semantics=rbn
"""

VASS41 = """\
process vass dim=3
init s0 vector=(1,1,1)
trans s8 -> s3 on !!b delta=(+1,+1,-1)
trans s1 -> s3 on !!d delta=(+1,-1,+0)
trans s7 -> s1 on ??d delta=(+0,+0,+1)
trans s3 -> s8 on ??b delta=(-1,+0,+0)
trans s6 -> s1 on !!b delta=(-1,+0,+0)
trans s1 -> s3 on ??a delta=(+0,+1,-1)
trans s8 -> s7 on ??a delta=(+0,-1,+0)
trans s2 -> s8 on !!a delta=(+0,-1,+0)
trans s4 -> s6 on !!c delta=(+0,+0,+0)
trans s6 -> s0 on ??a delta=(+0,-1,+1)
trans s1 -> s5 on ??a delta=(+0,+0,-1)
trans s3 -> s1 on !!b delta=(-1,+0,+0)
trans s7 -> s2 on !!d delta=(-1,+0,+1)
trans s9 -> s2 on !!b delta=(-1,-1,+1)
trans s1 -> s1 on ??b delta=(-1,+0,+1)
trans s7 -> s0 on ??d delta=(+0,+0,+1)
trans s1 -> s6 on !!c delta=(+0,-1,-1)
trans s0 -> s5 on !!b delta=(+0,+0,+0)
trans s2 -> s0 on !!a delta=(-1,+0,+0)
trans s5 -> s4 on !!d delta=(+1,+1,+1)
trans s8 -> s9 on !!a delta=(-1,-1,+0)
trans s3 -> s3 on ??b delta=(+1,+0,+0)
trans s4 -> s4 on ??d delta=(+0,+0,-1)
trans s7 -> s2 on ??d delta=(-1,+0,-1)
trans s3 -> s8 on !!b delta=(+1,-1,+0)
trans s3 -> s5 on !!b delta=(-1,+1,+0)
trans s5 -> s5 on !!b delta=(+0,+1,+0)
trans s3 -> s9 on ??c delta=(-1,-1,+0)
trans s6 -> s2 on ??b delta=(+0,+0,+1)
trans s2 -> s2 on !!d delta=(+0,+0,+0)
query cover state=s7 vector=(0,0,0) semantics=rbn
"""


def random_counter_model(rng: random.Random) -> str:
    """Counter model text in the manner of the benchmark's counter suite:
    random source, sigil, letter, update in {-1, 0, 0, +1} per counter
    (receives included, so receives may block) and target; one rbn query
    per non-initial state the transitions mention."""
    states = [f"s{i}" for i in range(rng.randint(3, 7))]
    dim = rng.randint(1, 3)
    lines = [f"process vass dim={dim}", f"init s0 vector=({','.join('1' * dim)})"]
    mentioned = set()
    for _ in range(rng.randint(6, 20)):
        src, dst = rng.choice(states), rng.choice(states)
        mentioned |= {src, dst}
        delta = ",".join(f"{rng.choice((-1, 0, 0, 1)):+d}" for _ in range(dim))
        lines.append(
            f"trans {src} -> {dst} on {rng.choice(('!!', '??'))}{rng.choice('abc')} delta=({delta})"
        )
    zero = ",".join("0" * dim)
    lines += [
        f"query cover state={s} vector=({zero}) semantics=rbn"
        for s in states[1:]
        if s in mentioned
    ]
    return "\n".join(lines) + "\n"


def _refuse_search(*args, **kwargs):
    raise AssertionError("the bounded explorer ran")


def assert_witnesses(model, report) -> int:
    """Every positive row carries a run that replays and covers its target;
    returns how many positives there were."""
    positives = 0
    tle = model.process.leq
    for query, row in zip(model.queries, report.results):
        if row.verdict != "coverable":
            continue
        positives += 1
        run = row.witness
        assert run is not None, (query, "witness missing")
        outcome = replay(model.process, run)
        assert outcome, (query, outcome.reason)
        assert any(tle(query.target(model.process), c) for c in run[-1].graph.labels), query
    return positives


def test_former_bench_failures_get_composed_witnesses(monkeypatch):
    monkeypatch.setattr(rbn, "explore", _refuse_search)
    calls = []
    plain = process.coverable

    def counting(spec, target, limits=None):
        calls.append(target)
        return plain(spec, target, limits)

    # on counter models both the unlocking loop's queries and the final
    # query reach process.coverable through coverable_each
    monkeypatch.setattr(process, "coverable", counting)
    for text in (VASS7, VASS41):
        model = parse_model(text)
        forget_rbn()
        calls.clear()
        report = run_queries(model, "bench", want_witness=True)
        assert assert_witnesses(model, report) == 1
        # building the witness decides nothing again
        assert len(calls) == report.results[0].inner_queries + 1
        run = report.results[0].witness
        assert run[0].graph.n > 4 or sum(s.kind == "broadcast" for s in run) > 8


def test_counter_models_with_blocking_receives_get_witnesses(monkeypatch):
    monkeypatch.setattr(rbn, "explore", _refuse_search)
    rng = random.Random(149)
    positives = 0
    for _ in range(60):
        model = parse_model(random_counter_model(rng))
        positives += assert_witnesses(model, run_queries(model, "random", want_witness=True))
    assert positives >= 60


def doubling_spec(levels: int):
    """Broadcasting ``a<i>`` takes two receives of ``a<i-1>``, each from a
    node of its own, so covering ``x<levels>_3`` takes 2^(levels+1) - 1 nodes."""
    states = ["y0", "y1"]
    trans = [("y0", Label.broadcast("a0"), "y1")]
    for i in range(1, levels + 1):
        x = [f"x{i}_{j}" for j in range(4)]
        states += x
        trans += [
            (x[0], Label.receive(f"a{i - 1}"), x[1]),
            (x[1], Label.receive(f"a{i - 1}"), x[2]),
            (x[2], Label.broadcast(f"a{i}"), x[3]),
        ]
    initial = ["y0"] + [f"x{i}_0" for i in range(1, levels + 1)]
    return finite_spec(states, initial, trans)


def test_composed_run_may_use_every_node_up_to_the_cap():
    spec = doubling_spec(5)
    target = VassConfig("x5_3")
    result = rbn_coverable(spec, target)
    run = rbn_witness(spec, target, result.trace, chain=result.verdict.chain)
    assert run[0].graph.n == 63 <= WITNESS_NODE_CAP
    assert replay(spec, run)


def test_composition_past_the_node_cap_fails_naming_the_cap(monkeypatch):
    monkeypatch.setattr(rbn, "explore", _refuse_search)
    spec = doubling_spec(6)
    target = VassConfig("x6_3")
    result = rbn_coverable(spec, target)
    assert result.coverable
    with pytest.raises(WitnessExtractionFailed, match=str(WITNESS_NODE_CAP)):
        rbn_witness(spec, target, result.trace, chain=result.verdict.chain)


def test_unlocking_chains_stay_out_of_trace_equality(relay):
    trace = rbn_coverable(relay, cfg("q4", 0)).trace
    assert set(trace.chains) == trace.final_unlocked
    assert all(chain is not None for chain in trace.chains.values())
    bare = dataclasses.replace(trace, chains={})
    assert bare == trace
    assert hash(bare) == hash(trace)
    assert repr(bare) == repr(trace)
    assert "chains" not in repr(trace)
