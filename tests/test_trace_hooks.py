"""The benchmark's per-layer counters (``bench/tracing.py``) wrap functions by
module attribute, so a refactor that calls around a traced name would
silently zero its counter, and so would a warm store.  This runs the
tracer over both process families, with the graph layer's stores emptied
first, and checks that each counter the process, graph and network
layers feed moves, and those of the parser and the report writer.  Both
are called through their module attributes, as ``bench/run.py`` calls
them, so the tracer sees the calls.  ``pds_coverable`` is the exception:
the rbn route answers pushdown queries in batches, so its count is
pinned at zero."""

import sys
from pathlib import Path

import bncover
from bncover import cli, report, static_cover
from bncover.order import ResourceLimits

from conftest import MODELS, forget_rbn

BENCH = Path(__file__).resolve().parent.parent / "bench"

# (module, name) of every traced function this test expects calls of
TRACED = (
    ("process", "coverable"),
    ("vass", "vass_pre_basis"),
    ("vass", "vass_successors"),
    ("graphs", "enumerate_extensions"),
    ("graphs", "graph_embeds"),
    ("graphs", "enumerate_diam_deg_graphs"),
    ("rbn", "rbn_coverable"),
    ("rbn", "rbn_witness"),
    ("static_cover", "static_witness_run"),
    ("explore", "explore"),
    ("explore", "replay"),
    ("explore", "bn_step"),
    ("modelfile", "parse_model"),
    ("report", "report_to_json"),
)


def _originals() -> dict:
    out = {(m, name): getattr(sys.modules[f"bncover.{m}"], name) for m, name in TRACED}
    out[("pushdown", "pds_coverable")] = sys.modules["bncover.pushdown"].pds_coverable
    out[("static_cover", "GraphSpace.pre_graphs")] = (
        sys.modules["bncover.static_cover"].GraphSpace.__dict__["pre_graphs"]
    )
    return out


def test_trace_hooks_count_every_process_layer_call(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    before = _originals()
    forget_rbn()  # a cached unlocking loop would issue no queries
    # stored extension tables, diam-deg shapes and predecessor bases would
    # not be built again
    static_cover._extension_table.cache_clear()
    static_cover._diam_deg_shapes.cache_clear()
    static_cover._pre_bases.cache_clear()
    relay = (MODELS / "relay.bn").read_text()
    texts = (
        relay + "query cover state=q4 vector=(0) semantics=diam-deg:2,2,3\n"
        # positive, so its witness run is built
        + "query cover state=q5 vector=(0) semantics=diam-deg:2,2,3\n",
        (MODELS / "handshake_pushdown.bn").read_text(),
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for text in texts:
            model = bncover.parse_model(text)
            results = tuple(
                cli.run_query(model, query, i, ResourceLimits(), want_witness=True)
                for i, query in enumerate(model.queries)
            )
            report.report_to_json(report.Report("model", results))
    finally:
        tracer.uninstall()
    for m, name in TRACED:
        assert tracer.stats[f"{m}.{name}"].calls > 0, (m, name)
    # the only pushdown model here answers its rbn queries through
    # pds_saturate: the sweeps and the final queries each batch theirs
    assert tracer.stats["pushdown.pds_coverable"].calls == 0
    assert tracer.stats["static_cover.pre_graphs"].calls > 0
    after = _originals()
    assert all(after[k] is before[k] for k in before), "uninstall left a wrapper behind"
