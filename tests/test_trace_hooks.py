"""The benchmark's per-layer counters (``bench/tracing.py``) wrap functions by
module attribute, so a refactor that calls around a traced name would
silently zero its counter.  This runs the tracer over both process
families and checks that each counter the process layer feeds moves."""

import sys
from pathlib import Path

from bncover import cli, parse_model, rbn
from bncover.order import ResourceLimits

from conftest import MODELS

BENCH = Path(__file__).resolve().parent.parent / "bench"

# (module, name) of every traced function this test expects calls of
TRACED = (
    ("process", "coverable"),
    ("vass", "vass_pre_basis"),
    ("vass", "vass_successors"),
    ("pushdown", "pds_coverable"),
)


def _originals() -> dict:
    out = {(m, name): getattr(sys.modules[f"bncover.{m}"], name) for m, name in TRACED}
    out[("rbn", "coverable")] = rbn.coverable
    out[("static_cover", "GraphSpace.pre_graphs")] = (
        sys.modules["bncover.static_cover"].GraphSpace.__dict__["pre_graphs"]
    )
    return out


def test_trace_hooks_count_every_process_layer_call(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    before = _originals()
    rbn.rbn_unlock.cache_clear()  # a cached unlocking loop would issue no queries
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name in ("relay.bn", "handshake_pushdown.bn"):
            model = parse_model((MODELS / name).read_text())
            for i, query in enumerate(model.queries):
                cli.run_query(model, query, i, ResourceLimits(), want_witness=True)
    finally:
        tracer.uninstall()
    for m, name in TRACED:
        assert tracer.stats[f"{m}.{name}"].calls > 0, (m, name)
    assert tracer.stats["static_cover.pre_graphs"].calls > 0
    after = _originals()
    assert all(after[k] is before[k] for k in before), "uninstall left a wrapper behind"
