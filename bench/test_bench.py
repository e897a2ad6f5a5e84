"""Tests of the benchmark itself: ``python3 -m pytest bench -q``."""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import env  # noqa: E402

env.require_src()

import check  # noqa: E402
import run  # noqa: E402
import suites  # noqa: E402
import tracing  # noqa: E402


def parse_model(text):
    # looked up on each call: a benchmark run imports bncover afresh
    from bncover import parse_model

    return parse_model(text)


@pytest.mark.parametrize("workload", suites.WORKLOADS)
def test_same_seed_same_model_text(workload):
    first = suites.build(workload, 7).texts
    again = suites.build(workload, 7).texts
    other = suites.build(workload, 8).texts
    assert list(first.items()) == list(again.items())
    assert list(first) != list(other)  # another seed only reorders the models
    assert sorted(first.items()) == sorted(other.items())


def _checked(text: str, want_witness: bool):
    from bncover.cli import run_query
    from bncover.order import ResourceLimits

    model = parse_model(text)
    checker = check.Checker({"m": model})
    results = [run_query(model, q, i, ResourceLimits(), want_witness)
               for i, q in enumerate(model.queries)]
    return model, checker, results


HANDSHAKE = suites.gen.bundled("handshake_pushdown.bn", [
    "query cover state=done semantics=rbn", "query cover state=stuck semantics=rbn"])


def test_checker_confirms_and_rejects_flipped_verdicts():
    _, checker, results = _checked(HANDSHAKE, want_witness=False)
    assert [r.verdict for r in results] == ["coverable", "not-coverable"]
    assert all(checker.check("m", r, False).status == "confirmed" for r in results)
    flip = {"coverable": "not-coverable", "not-coverable": "coverable"}
    for r in results:
        flipped = dataclasses.replace(r, verdict=flip[r.verdict])
        assert checker.check("m", flipped, False).status == "failed"


def test_checker_rejects_a_witness_with_one_illegal_step():
    from bncover import LabelledGraph

    relay = suites.gen.bundled("relay.bn", ["query cover state=q4 vector=(0) semantics=rbn"])
    model, checker, (result,) = _checked(relay, want_witness=True)
    assert checker.check("m", result, True).status == "confirmed"
    run_steps = list(result.witness)
    i = next(i for i, s in enumerate(run_steps) if s.kind == "broadcast")
    step = run_steps[i]
    labels = list(step.graph.labels)
    labels[step.vertex] = run_steps[i - 1].graph.labels[step.vertex]  # the emitter does not move
    run_steps[i] = dataclasses.replace(
        step, graph=LabelledGraph(step.graph.n, step.graph.edges, tuple(labels)))
    broken = dataclasses.replace(result, witness=tuple(run_steps))
    outcome = checker.check("m", broken, True)
    assert outcome.status == "failed" and "does not replay" in outcome.reason


def test_class_membership_is_judged_apart_from_graphs():
    assert check.class_violation("path-bounded:2", 4, {(0, 1), (1, 2), (2, 3)})
    assert not check.class_violation("path-bounded:3", 4, {(0, 1), (1, 2), (2, 3)})
    assert check.class_violation("clique", 3, {(0, 1), (1, 2)})
    assert check.class_violation("diam-deg:2,2,4", 4, {(0, 1), (1, 2), (2, 3)})
    assert not check.class_violation("diam-deg:2,2,3", 3, {(0, 1), (1, 2)})


def test_known_witness_fault_is_named():
    lines, _ = suites.gen.vass_counter(7)  # a suite model: s8 needs more than 8 broadcasts
    text = "\n".join(lines + suites.gen.cover_lines("s8", "(0,0,0)", ("rbn",)))
    _, checker, (result,) = _checked(text, want_witness=True)
    assert result.verdict == "coverable" and result.witness is None
    outcome = checker.check("m", result, True)
    assert (outcome.reason, outcome.fault) == ("requested witness missing", check.WITNESS_LIMIT)


@pytest.mark.parametrize("workload", suites.WORKLOADS)
def test_traced_and_untraced_runs_count_the_same_operations(workload, capsys, tmp_path):
    plain = run.run_workload(workload, 5, 1, traced=False)
    traced = run.run_workload(workload, 5, 1, traced=True, save_dir=tmp_path)
    assert plain["correct"] and traced["correct"]
    assert (plain["attempted"], plain["failed"]) == (traced["attempted"], traced["failed"])
    assert set(plain["metrics"]) == {name for name, _ in run.END_TO_END}
    assert list(traced["metrics"]) == [name for name, _ in tracing.PER_LAYER] + ["check.unsettled"]
    saved = tmp_path / f"{workload}-seed5-traced"
    assert json.loads((saved / "result.json").read_text()) == traced
    assert len(list((saved / "models").iterdir())) == len(list((saved / "reports").iterdir()))
