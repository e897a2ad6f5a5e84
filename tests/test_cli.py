import dataclasses
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from bncover import (
    Clique,
    ModelFile,
    PathBounded,
    PushdownSpec,
    Query,
    QueryReport,
    Reconfigurable,
    Report,
    WitnessExtractionFailed,
    cli,
    complete_receives,
    diam_deg_coverable,
    parse_model,
    process,
    pushdown,
    replay,
    report_from_json,
    report_to_json,
    run_from_json,
    run_queries,
    run_to_json,
    static_coverable,
    static_witness_run,
)
from bncover.cli import main
from bncover.order import ResourceExhausted, ResourceLimits
from bncover.rbn import rbn_unlock

from conftest import MODELS, forget_rbn, random_pushdown, random_vass


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


def _relay_with_query(semantics: str, state: str = "q4"):
    lines = [
        line for line in (MODELS / "relay.bn").read_text().splitlines()
        if not line.startswith("query")
    ]
    lines.append(f"query cover state={state} vector=(0) semantics={semantics}")
    return parse_model("\n".join(lines) + "\n")


def test_exhausted_diam_deg_query_counts_the_shapes_already_decided(relay):
    # path-bounded:2 settles the query; the shape loop alone takes 12 iterations
    model = _relay_with_query("diam-deg:2,2,3")
    decided = run_queries(model, "relay").results[0]
    assert (decided.verdict, decided.iterations) == ("not-coverable", 4)
    assert diam_deg_coverable(relay, model.queries[0].target(relay), 2, 2, 3).iterations == 12
    # under 2 iterations path-bounded:2 runs out too, so the shape loop runs:
    # one saturation stops at 2 iterations; the shapes decided before it add 3
    row = run_queries(model, "relay", ResourceLimits(max_iters=2)).results[0]
    assert (row.verdict, row.iterations, row.basis_size) == ("resource-exhausted", 5, 3)


def test_exhausted_without_a_saturation_reports_no_statistics():
    # q5 is coverable under path-bounded:8, so the shape loop runs, and the
    # shape enumeration refuses 9 vertices before any saturation runs
    row = run_queries(_relay_with_query("diam-deg:2,2,9", "q5"), "relay").results[0]
    assert (row.verdict, row.iterations, row.basis_size) == ("resource-exhausted", None, None)


def test_a_path_bounded_negative_decides_diam_deg_past_eight_vertices():
    # path-bounded:8 contains diam-deg:2,2,9 and settles q4 without the shapes
    row = run_queries(_relay_with_query("diam-deg:2,2,9"), "relay").results[0]
    assert (row.verdict, row.iterations, row.basis_size) == ("not-coverable", 7, 23)


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
    # the header, one line per query record, the closing brackets
    records = json.loads(text)["results"]
    lines = text.splitlines()
    assert len(lines) == len(report.results) + 2 and text.endswith("\n]}\n")
    assert [json.loads(line.removesuffix(",")) for line in lines[1:-1]] == records
    # files written with indentation read the same
    assert report_from_json(json.dumps(json.loads(text), indent=2)) == report
    empty = Report("empty", ())
    assert report_to_json(empty).count("\n") == 2 and report_from_json(report_to_json(empty)) == empty


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
    # one step per line; a witness written with indentation replays too
    text = witness.read_text()
    steps = json.loads(text)["steps"]
    assert [json.loads(line.removesuffix(",")) for line in text.splitlines()[1:-1]] == steps
    witness.write_text(json.dumps(json.loads(text), indent=2))
    assert main(["replay", str(MODELS / "relay.bn"), "--witness", str(witness)]) == 0

    # corrupt one label and the replay must fail
    data = json.loads(witness.read_text())
    data["steps"][-1]["graph"]["labels"][0]["counters"] = [9]
    witness.write_text(json.dumps(data))
    assert main(["replay", str(MODELS / "relay.bn"), "--witness", str(witness)]) == 1


def _replay_edited_witness(tmp_path, capsys, edit):
    """Exit status and stderr of ``bncover replay`` on an explorer witness of
    the relay model whose first broadcast step ``edit`` has changed."""
    witness = tmp_path / "run.json"
    assert main(["explore", str(MODELS / "relay.bn"), "--nodes", "3", "--depth", "9",
                 "--witness", str(witness)]) == 0
    data = json.loads(witness.read_text())
    edit(next(step for step in data["steps"] if step["kind"] == "broadcast"))
    witness.write_text(json.dumps(data))
    capsys.readouterr()
    return main(["replay", str(MODELS / "relay.bn"), "--witness", str(witness)]), capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("vertex", "0"), ("vertex", 0.0), ("vertex", True), ("letter", ""), ("letter", ["a"]),
])
def test_replay_rejects_malformed_step_fields(tmp_path, capsys, field, value):
    code, err = _replay_edited_witness(tmp_path, capsys, lambda step: step.update({field: value}))
    assert code == 1
    assert "error: bad witness file" in err


@pytest.mark.parametrize("label", [
    {"state": ["q0"], "counters": [0]}, {"state": 0, "counters": [0]}, {"state": "", "counters": [0]},
    {"state": "q0", "counters": [1.0]}, {"state": "q0", "counters": [True]},
    {"state": "q0", "counters": 0}, {"state": "q0", "stack": 0}, {"state": "q0", "stack": ["A"]},
])
def test_replay_rejects_malformed_labels(tmp_path, capsys, label):
    def edit(step):
        step["graph"]["labels"][0] = label

    code, err = _replay_edited_witness(tmp_path, capsys, edit)
    assert code == 1
    assert "error: bad witness file" in err


@pytest.mark.parametrize("field, value", [
    ("vertices", 3.0), ("vertices", True), ("vertices", "3"), ("edges", [[0, 1.0]]),
    ("edges", [[0, True]]), ("edges", [[0, 1, 2]]), ("edges", [0, 1]), ("edges", "01"),
])
def test_replay_rejects_malformed_graph_fields(tmp_path, capsys, field, value):
    def edit(step):
        step["graph"][field] = value

    code, err = _replay_edited_witness(tmp_path, capsys, edit)
    assert code == 1
    assert "error: bad witness file" in err


@pytest.mark.parametrize("command", [
    ["verify", str(MODELS / "relay.bn"), "--report"],
    ["explore", str(MODELS / "relay.bn"), "--nodes", "3", "--depth", "9", "--witness"],
])
def test_unwritable_output_is_an_error_after_the_verdicts(tmp_path, capsys, command):
    path = tmp_path / "missing" / "out.json"
    assert main([*command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {path}: ")
    assert captured.out.startswith("query 0: ")
    assert not path.exists()


@pytest.mark.parametrize("bounds, message", [
    (["--nodes", "0", "--depth", "3"], "need at least one node"),
    (["--nodes", "2", "--depth", "-1"], "depth must be nonnegative"),
    (["--nodes", "2", "--depth", "3", "--counter-cap", "-1"], "counter cap must be nonnegative"),
])
def test_cli_explore_rejects_bad_bounds(bounds, message, capsys):
    assert main(["explore", str(MODELS / "relay.bn"), *bounds]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_cli_explore_goes_on_after_an_exhausted_query(tmp_path, capsys, monkeypatch):
    model = tmp_path / "relay3.bn"
    model.write_text(
        (MODELS / "relay.bn").read_text() + "query cover state=q4 vector=(0) semantics=rbn\n"
    )
    relay = parse_model(model.read_text())
    query = relay.queries[0]
    first = cli.explore(relay.process, query.topology, 3, 9, query.target(relay.process))
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


@pytest.mark.parametrize("command", [["relay_demo.py"], ["cross_validate.py", "--rounds", "1"]])
def test_scripts_run_to_completion(command):
    script = Path(__file__).parent.parent / "scripts" / command[0]
    done = subprocess.run([sys.executable, str(script), *command[1:]],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_diff_reports_ignores_times_and_names_each_difference(relay_model, tmp_path):
    script = Path(__file__).parent.parent / "scripts" / "diff_reports.py"
    report = run_queries(relay_model, "relay", want_witness=True)
    slower = Report(report.model, tuple(dataclasses.replace(r, time_s=r.time_s + 1) for r in report.results))
    changed = Report(report.model, (dataclasses.replace(report.results[0], iterations=-1),) + report.results[1:])
    indented = json.dumps(json.loads(report_to_json(report)), indent=2)
    for side, text in (("a", report_to_json(report)), ("b", report_to_json(slower)),
                       ("c", report_to_json(changed)), ("indented", indented)):
        (tmp_path / side / "reports").mkdir(parents=True)
        (tmp_path / side / "reports" / "relay.json").write_text(text)

    def diff(a, b):
        return subprocess.run([sys.executable, str(script), str(tmp_path / a), str(tmp_path / b)],
                              capture_output=True, text=True)

    same = diff("a", "b")
    assert same.returncode == 0 and "1 report pairs compared, identical" in same.stdout
    # the layout of the file plays no part
    same = diff("indented", "a")
    assert same.returncode == 0 and "1 report pairs compared, identical" in same.stdout
    differs = diff("a", "c")
    assert differs.returncode == 1
    assert "result 0" in differs.stdout and "iterations" in differs.stdout
    (tmp_path / "empty").mkdir()
    assert diff("empty", "empty").returncode == 2


def test_bench_pairs_summary_counts_wins_and_flags_bad_runs():
    import importlib.util

    path = Path(__file__).parent.parent / "scripts" / "bench_pairs.py"
    loader = importlib.util.spec_from_file_location("bench_pairs", path)
    bench_pairs = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(bench_pairs)

    def line(wall, rss, correct=True, failed=0):
        metrics = {"wall_s": {"value": wall, "unit": "s"},
                   "peak_rss_mib": {"value": rss, "unit": "MiB"}}
        return json.dumps({"correct": correct, "attempted": 3, "failed": failed, "metrics": metrics})

    pairs = [(line(1.0, 50), line(0.9, 50)), (line(2.0, 50), line(1.5, 51)),
             (line(3.0, 50), line(3.5, 50, correct=False, failed=1))]
    assert bench_pairs.summary(pairs) == [
        "FLAGGED pair 2 tree B: correct False, failed 1",
        "wall_s: A 2 [1.5, 2.5] (1-3)  B 1.5 [1.2, 2.5] (0.9-3.5)  B lower in 2 of 3",
        "peak_rss_mib: A 50 [50, 50] (50-50)  B 50 [50, 50.5] (50-51)  B lower in 0 of 3",
    ]


def _cross_validate():
    import importlib.util

    path = Path(__file__).parent.parent / "scripts" / "cross_validate.py"
    loader = importlib.util.spec_from_file_location("cross_validate", path)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


def test_class_lattice_sweep_agrees():
    checks, skipped = _cross_validate().sweep_class_lattice(random.Random(1), 6)
    assert checks >= 200 and skipped == 0


def test_class_lattice_sweep_fails_when_path_bounded_predecessors_are_lost(monkeypatch):
    # pre_graphs without its extension candidates misses the predecessors
    # that add a vertex; the shapes of diam-deg never extend, so only the
    # path-bounded and clique verdicts go wrong, and the lattice sees it
    from bncover import static_cover

    sweep = _cross_validate().sweep_class_lattice
    monkeypatch.setattr(static_cover, "_extension_table", lambda cls, shape: ())
    with pytest.raises(AssertionError, match="lattice contradictions"):
        sweep(random.Random(1), 6)


def test_dump_results_writes_each_decider_result_and_witness():
    import importlib.util

    path = Path(__file__).parent.parent / "scripts" / "dump_results.py"
    loader = importlib.util.spec_from_file_location("dump_results", path)
    dump_results = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(dump_results)

    model = parse_model(
        (MODELS / "relay.bn").read_text()
        + "query cover state=q5 vector=(0) semantics=clique\n"
        + "query cover state=q5 vector=(0) semantics=diam-deg:2,2,3\n"
    )
    deciders = [getattr(cli, d) for d in dump_results.DECIDERS]
    lines = dump_results.result_lines("relay", model, want_witness=True)
    assert [getattr(cli, d) for d in dump_results.DECIDERS] == deciders
    assert lines == dump_results.result_lines("relay", model, want_witness=True)
    rbn, static, clique, diam_deg = [line for line in lines if " result: " in line]
    assert rbn.startswith("relay 0 rbn coverable result: RbnResult(") and "trace=" in rbn
    assert static.startswith("relay 1 path-bounded:2 not-coverable result: Verdict(")
    assert "basis=(LabelledGraph(" in static
    assert clique.startswith("relay 2 clique coverable result: Verdict(coverable=True")
    assert diam_deg.startswith("relay 3 diam-deg:2,2,3 coverable result: Verdict(coverable=True")
    witness = [line for line in lines if " witness: " in line]
    assert [line.split(" witness: ")[0] for line in witness] == [
        "relay 0 rbn coverable", "relay 2 clique coverable", "relay 3 diam-deg:2,2,3 coverable",
    ]
    assert all(line.split(" witness: ")[1].startswith("(RunStep(") for line in witness)


# covering s<k> takes k+1 nodes: k receivers of a and one broadcaster of it
COUNTING = """process finite
init i
trans i -> b on !!a
trans i -> s0 on !!c
trans i -> i on ??a
trans i -> i on ??c
trans s0 -> s1 on ??a
trans s1 -> s2 on ??a
trans s2 -> s3 on ??a
option complete-receives dead=d
query cover state=s2 semantics=diam-deg:2,3,2
query cover state=s2 semantics=diam-deg:2,3,3
"""


def test_explore_keeps_to_the_diam_deg_vertex_cap(tmp_path, capsys):
    model = tmp_path / "counting.bn"
    model.write_text(COUNTING)
    assert main(["verify", str(model)]) == 0
    out = capsys.readouterr().out
    assert "query 0: cover s2 [diam-deg:2,3,2] -> not-coverable" in out
    assert "query 1: cover s2 [diam-deg:2,3,3] -> coverable" in out
    assert main(["explore", str(model), "--nodes", "3", "--depth", "6"]) == 0
    out = capsys.readouterr().out
    assert "query 0: no covering run within 3 nodes" in out
    assert "query 1: covering run found, 3 steps on 3 nodes" in out
    assert main(["explore", str(model), "--nodes", "4", "--depth", "6"]) == 0
    out = capsys.readouterr().out
    assert "query 0: no covering run within 4 nodes" in out
    assert "query 1: no covering run within 4 nodes" in out


def test_explore_past_six_nodes_needs_no_graph_enumeration(tmp_path, capsys):
    # a clique has one shape on any node count, and a class capped below
    # the node count has none, so neither enumerates the graphs on 7 nodes
    model = tmp_path / "counting.bn"
    model.write_text(COUNTING.replace("diam-deg:2,3,3", "clique"))
    assert main(["explore", str(model), "--nodes", "7", "--depth", "3"]) == 0
    out = capsys.readouterr().out
    assert "exhausted" not in out
    assert "query 0: no covering run within 7 nodes" in out
    assert "query 1: covering run found, 3 steps on 7 nodes" in out


# ROADMAP item 3's reproductions: the graph-level deciders assume a
# receive-total process, and neither model is one, so each positive below
# is unbacked (no run covers t, and no witness comes back)
NOT_RECEIVE_TOTAL = {
    "a-state-without-receives": """process finite
init q
trans q -> s on !!a
trans q -> p on ??a
trans p -> t on !!c
query cover state=t semantics=path-bounded:2
query cover state=t semantics=clique
""",
    "b-decrementing-receive": """process vass dim=1
init q vector=(0)
trans q -> s on !!a
trans q -> p on ??a
trans p -> t on !!c
trans s -> s on ??c delta=(-1)
option complete-receives dead=d
query cover state=t vector=(0) semantics=path-bounded:2
query cover state=t vector=(0) semantics=clique
""",
}


@pytest.mark.parametrize("name", sorted(NOT_RECEIVE_TOTAL))
def test_no_unbacked_coverable_on_processes_that_are_not_receive_total(name):
    report = run_queries(parse_model(NOT_RECEIVE_TOTAL[name]), name, want_witness=True)
    assert [r.semantics for r in report.results] == ["path-bounded:2", "clique"]
    rows = [(r.semantics, r.verdict, r.witness) for r in report.results]
    assert rows == [("path-bounded:2", "unknown", None), ("clique", "unknown", None)]


@pytest.mark.parametrize("name", sorted(NOT_RECEIVE_TOTAL))
def test_static_witness_run_fails_as_witness_extraction(name):
    # the one failure type run_query turns into unknown; a RuntimeError
    # (a RecursionError, say) is not caught there
    model = parse_model(NOT_RECEIVE_TOTAL[name])
    spec = model.process
    for query in model.queries:
        verdict = static_coverable(spec, query.target(spec), query.topology)
        assert verdict.coverable
        with pytest.raises(WitnessExtractionFailed, match="chain replay failed"):
            static_witness_run(spec, verdict, query.topology)


@pytest.mark.parametrize("name", sorted(NOT_RECEIVE_TOTAL))
def test_verify_answers_unknown_and_exits_2_without_a_witness_too(tmp_path, capsys, name):
    # the gate builds the run it needs whether or not --witness asks for one
    model = tmp_path / "model.bn"
    model.write_text(NOT_RECEIVE_TOTAL[name] + "query cover state=s semantics=clique\n")
    assert main(["verify", str(model)]) == 2
    verdicts = [line.split(" -> ")[1].split()[0] for line in capsys.readouterr().out.splitlines()]
    # s is covered by a one-node run, which backs its positive
    assert verdicts == ["unknown", "unknown", "coverable"]


@pytest.mark.parametrize("stack", ["AA", "A,A"])
def test_verify_reports_duplicate_stack_symbols_at_their_token(tmp_path, capsys, stack):
    model = tmp_path / "model.bn"
    model.write_text(
        f"process pushdown stack={stack}\ninit p\ntrans p -> p on !!m push=A\n"
        "query cover state=p semantics=rbn\n"
    )
    assert main(["verify", str(model)]) == 1
    assert f"{model}:line 1, col 18: duplicate stack symbols" in capsys.readouterr().err


# -- a model's rbn queries answered together -----------------------------------


def _handshake_with(*queries: str):
    text = (MODELS / "handshake_pushdown.bn").read_text()
    return parse_model(text + "".join(f"query cover {q}\n" for q in queries))


def test_final_rbn_queries_of_a_pushdown_model_share_one_saturation(monkeypatch):
    model = _handshake_with(
        "state=idle semantics=rbn", "state=done stack=A semantics=rbn",
        "state=idle stack=AA semantics=rbn",
    )
    forget_rbn()
    # the sweeps' saturations run here, before counting
    rbn_unlock(model.process, ResourceLimits())
    calls = []
    plain = pushdown.pds_saturate

    def counting(spec, targets):
        calls.append(tuple(targets))
        return plain(spec, targets)

    monkeypatch.setattr(pushdown, "pds_saturate", counting)
    monkeypatch.setattr(process, "pds_saturate", counting)
    report = run_queries(model, "handshake")
    assert [r.verdict for r in report.results] == [
        "coverable", "not-coverable", "coverable", "coverable", "coverable"
    ]
    assert calls == [tuple(q.target(model.process) for q in model.queries)]


def _rows(results) -> list:
    """Each result's fields but its index and time."""
    skip = ("index", "time_s")
    return [
        {f.name: getattr(r, f.name) for f in dataclasses.fields(r) if f.name not in skip}
        for r in results
    ]


def _random_queries(rng, spec, semantics) -> tuple:
    queries = []
    for line in range(rng.randint(2, 6)):
        state = rng.choice(spec.states)
        if isinstance(spec, PushdownSpec):
            vector = None
            stack = "".join(rng.choice(spec.stack_alphabet) for _ in range(rng.randint(0, 2)))
        else:
            vector, stack = tuple(rng.choice((0, 1)) for _ in range(spec.dim)), None
        queries.append(Query(
            state, vector, stack, rng.choice(semantics),
            rng.choice((None, None, 2, 30)), rng.choice((None, None, 1, 3)), line + 1,
        ))
    return tuple(queries)


def _random_models():
    yield _handshake_with(
        "state=done stack=A semantics=rbn max-iters=2", "state=idle semantics=rbn max-basis=1"
    )
    rng = random.Random(97)
    for _ in range(20):
        spec = random_pushdown(rng, max_states=4, max_rules=10, letters="mno")
        yield ModelFile(spec, _random_queries(rng, spec, (Reconfigurable(),)))
    for i in range(20):
        spec = random_vass(rng, max_states=4, max_dim=2, max_trans=10, letters="abc")
        if i % 2:
            spec = complete_receives(spec, "sink")
        yield ModelFile(spec, _random_queries(rng, spec, (Reconfigurable(), PathBounded(2), Clique())))


def test_batched_rbn_queries_report_what_cold_queries_report():
    defaults = ResourceLimits(max_basis=200, max_iters=8)
    for model in _random_models():
        cold = []
        for i, query in enumerate(model.queries):
            forget_rbn()
            cold.append(cli.run_query(model, query, i, defaults, want_witness=True))
        forget_rbn()
        backwards = dataclasses.replace(model, queries=model.queries[::-1])
        report = run_queries(backwards, "random", defaults, want_witness=True)
        assert _rows(report.results[::-1]) == _rows(cold), model


def test_an_exhausting_counter_query_reports_only_itself():
    # under max-iters=3 the unlocking loop finishes and q4(0) and q1(0) are
    # decided, but q5(0) needs a fourth round
    lines = [
        line for line in (MODELS / "relay.bn").read_text().splitlines()
        if not line.startswith("query")
    ] + [f"query cover state={s} vector=(0) semantics=rbn max-iters=3" for s in ("q4", "q5", "q1")]
    forget_rbn()
    report = run_queries(parse_model("\n".join(lines) + "\n"), "relay")
    assert [r.verdict for r in report.results] == ["coverable", "resource-exhausted", "coverable"]
    assert report.results[1].sweeps is None
    assert all(r.sweeps is not None for r in report.results[::2])
