import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from bncover import (
    Report,
    QueryReport,
    parse_model,
    replay,
    report_from_json,
    report_to_json,
    run_from_json,
    run_queries,
    run_to_json,
)
from bncover import cli
from bncover.cli import main
from bncover.order import ResourceExhausted, ResourceLimits

from conftest import MODELS


def test_run_queries_on_relay(relay_model):
    report = run_queries(relay_model, "relay")
    assert [r.verdict for r in report.results] == ["coverable", "not-coverable"]
    rbn_row = report.results[0]
    assert rbn_row.sweeps is not None and rbn_row.inner_queries is not None
    assert rbn_row.trace is not None


def test_run_queries_reports_exhaustion_distinctly(relay_model):
    report = run_queries(relay_model, "relay", ResourceLimits(max_iters=1))
    verdicts = {r.verdict for r in report.results}
    assert "resource-exhausted" in verdicts
    assert "not-coverable" not in verdicts  # the static query cannot finish in one round
    # an exhausted query keeps the statistics its search reached
    for r in report.results:
        assert r.verdict == "resource-exhausted"
        assert (r.iterations, r.basis_size) == (1, 2)


def _relay_with_query(semantics: str):
    lines = [
        line for line in (MODELS / "relay.bn").read_text().splitlines()
        if not line.startswith("query")
    ]
    lines.append(f"query cover state=q4 vector=(0) semantics={semantics}")
    return parse_model("\n".join(lines) + "\n")


def test_exhausted_diam_deg_query_counts_the_shapes_already_decided():
    model = _relay_with_query("diam-deg:2,2,3")
    decided = run_queries(model, "relay").results[0]
    assert (decided.verdict, decided.iterations) == ("not-coverable", 12)
    # one saturation stops at 2 iterations; the shapes decided before it add 3
    row = run_queries(model, "relay", ResourceLimits(max_iters=2)).results[0]
    assert (row.verdict, row.iterations, row.basis_size) == ("resource-exhausted", 5, 3)


def test_exhausted_without_a_saturation_reports_no_statistics():
    # the shape enumeration refuses 9 vertices before any saturation runs
    row = run_queries(_relay_with_query("diam-deg:2,2,9"), "relay").results[0]
    assert (row.verdict, row.iterations, row.basis_size) == ("resource-exhausted", None, None)


def test_witness_search_out_of_budget_keeps_the_verdict(relay_model, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise ResourceExhausted("state budget hit: 250000 states on 4 nodes")

    monkeypatch.setattr(cli, "rbn_witness", exhausted)
    report = run_queries(relay_model, "relay", want_witness=True)
    row = report.results[0]
    assert (row.semantics, row.verdict, row.witness) == ("rbn", "coverable", None)
    assert row.iterations is not None and row.sweeps is not None
    assert main(["verify", str(MODELS / "relay.bn"), "--witness"]) == 0
    assert "resource-exhausted" not in capsys.readouterr().out


def test_report_round_trips(relay_model):
    report = run_queries(relay_model, "relay", want_witness=True)
    text = report_to_json(report)
    assert report_from_json(text) == report
    assert json.loads(text)["format"] == "bncover-report/1"


def test_report_rejects_unknown_fields(relay_model):
    report = run_queries(relay_model, "relay")
    data = json.loads(report_to_json(report))
    data["surprise"] = 1
    with pytest.raises(ValueError):
        report_from_json(json.dumps(data))
    data = json.loads(report_to_json(report))
    data["results"][0]["surprise"] = 1
    with pytest.raises(ValueError):
        report_from_json(json.dumps(data))


def test_witness_serialization_round_trips(relay_model):
    report = run_queries(relay_model, "relay", want_witness=True)
    run = report.results[0].witness
    assert run is not None
    again = run_from_json(json.loads(json.dumps(run_to_json(run))))
    assert again == run
    assert replay(relay_model.process, again)


def test_cli_verify_exit_codes(tmp_path, capsys):
    assert main(["verify", str(MODELS / "relay.bn")]) == 0
    out = capsys.readouterr().out
    assert "coverable" in out and "not-coverable" in out

    bad = tmp_path / "bad.bn"
    bad.write_text("process finite\ninit s0\nquery cover state=zz semantics=rbn\n")
    assert main(["verify", str(bad)]) == 1

    assert main(["verify", str(MODELS / "relay.bn"), "--max-iters", "1"]) == 2


def test_cli_verify_writes_report(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", str(MODELS / "lone_receiver.bn"), "--report", str(out)]) == 0
    report = report_from_json(out.read_text())
    assert all(r.verdict == "not-coverable" for r in report.results)


def test_cli_explore_replay_round_trip(tmp_path, capsys):
    witness = tmp_path / "run.json"
    code = main(
        ["explore", str(MODELS / "relay.bn"), "--nodes", "3", "--depth", "9",
         "--witness", str(witness)]
    )
    assert code == 0
    assert witness.exists()
    assert main(["replay", str(MODELS / "relay.bn"), "--witness", str(witness)]) == 0
    out = capsys.readouterr().out
    assert "replays cleanly" in out

    # corrupt one label and the replay must fail
    data = json.loads(witness.read_text())
    data["steps"][-1]["graph"]["labels"][0]["counters"] = [9]
    witness.write_text(json.dumps(data))
    assert main(["replay", str(MODELS / "relay.bn"), "--witness", str(witness)]) == 1


def test_cli_explore_goes_on_after_an_exhausted_query(tmp_path, capsys, monkeypatch):
    model = tmp_path / "relay3.bn"
    model.write_text(
        (MODELS / "relay.bn").read_text() + "query cover state=q4 vector=(0) semantics=rbn\n"
    )
    relay = parse_model(model.read_text())
    query = relay.queries[0]
    first = cli.explore(relay.process, cli._topology(query), 3, 9, query.target(relay.process))
    answers = [first, ResourceExhausted("state budget hit: 9 states on 3 nodes"), None]

    def scripted(*args, **kwargs):
        answer = answers.pop(0)
        if isinstance(answer, Exception):
            raise answer
        return answer

    monkeypatch.setattr(cli, "explore", scripted)
    witness = tmp_path / "run.json"
    code = main(["explore", str(model), "--nodes", "3", "--depth", "9", "--witness", str(witness)])
    out = capsys.readouterr().out
    assert code == 2
    assert answers == []  # the query after the exhausted one ran too
    assert "query 0: covering run found" in out
    assert "query 1: exploration exhausted" in out
    assert "query 2: no covering run" in out
    assert run_from_json(json.loads(witness.read_text())) == first


def test_cli_missing_file():
    assert main(["verify", "/nonexistent/never.bn"]) == 1


def test_pushdown_model_verifies():
    assert main(["verify", str(MODELS / "handshake_pushdown.bn")]) == 0


def test_python_dash_m_runs_the_cli():
    src = Path(cli.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "bncover", "--help"],
        capture_output=True, text=True, timeout=60, cwd=src,
    )
    assert done.returncode == 0, done.stderr
    assert "usage: bncover" in done.stdout and "verify" in done.stdout
    assert done.stderr == ""


def test_diff_reports_ignores_times_and_names_each_difference(relay_model, tmp_path):
    script = Path(__file__).parent.parent / "scripts" / "diff_reports.py"
    report = run_queries(relay_model, "relay", want_witness=True)
    slower = Report(report.model, tuple(dataclasses.replace(r, time_s=r.time_s + 1) for r in report.results))
    changed = Report(report.model, (dataclasses.replace(report.results[0], iterations=-1),) + report.results[1:])
    for side, rep in (("a", report), ("b", slower), ("c", changed)):
        (tmp_path / side / "reports").mkdir(parents=True)
        (tmp_path / side / "reports" / "relay.json").write_text(report_to_json(rep))

    def diff(a, b):
        return subprocess.run([sys.executable, str(script), str(tmp_path / a), str(tmp_path / b)],
                              capture_output=True, text=True)

    same = diff("a", "b")
    assert same.returncode == 0 and "1 report pairs compared, identical" in same.stdout
    differs = diff("a", "c")
    assert differs.returncode == 1
    assert "result 0" in differs.stdout and "iterations" in differs.stdout
    (tmp_path / "empty").mkdir()
    assert diff("empty", "empty").returncode == 2


def test_dump_results_writes_each_decider_result_and_witness(relay_model):
    import importlib.util

    path = Path(__file__).parent.parent / "scripts" / "dump_results.py"
    loader = importlib.util.spec_from_file_location("dump_results", path)
    dump_results = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(dump_results)

    deciders = [getattr(cli, d) for d in dump_results.DECIDERS]
    lines = dump_results.result_lines("relay", relay_model, want_witness=True)
    assert [getattr(cli, d) for d in dump_results.DECIDERS] == deciders
    assert lines == dump_results.result_lines("relay", relay_model, want_witness=True)
    rbn, static = [line for line in lines if " result: " in line]
    assert rbn.startswith("relay 0 rbn coverable result: RbnResult(") and "trace=" in rbn
    assert static.startswith("relay 1 path-bounded:2 not-coverable result: Verdict(")
    assert "basis=(LabelledGraph(" in static
    witness = [line for line in lines if " witness: " in line]
    assert len(witness) == 1 and witness[0].startswith("relay 0 rbn coverable witness: (RunStep(")
