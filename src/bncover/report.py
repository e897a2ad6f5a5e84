"""Machine-readable reports and witness-run serialization.

Both formats are JSON objects whose first field names the format version;
readers reject unknown versions and unknown fields, so the schemas stay
stable.  A witness run serializes each step with the graph it reaches;
configurations carry either counters or a stack, which is how the reader
tells the two process families apart.

Both are written by :func:`json_text`: the header fields on the first line,
then one query record (or witness step) per line, unindented, so the C JSON
encoder writes them (any ``indent`` selects the pure-Python one) and a text
diff of two files still lines up record by record.  Readers parse the JSON,
so files written with indentation read the same.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Optional

from .explore import RunStep
from .graphs import LabelledGraph
from .pushdown import PdsConfig
from .vass import VassConfig

REPORT_FORMAT = "bncover-report/1"
WITNESS_FORMAT = "bncover-witness/1"


def _config_to_json(config) -> dict:
    if isinstance(config, VassConfig):
        return {"state": config.state, "counters": list(config.counters)}
    if isinstance(config, PdsConfig):
        return {"state": config.state, "stack": config.stack}
    raise TypeError(f"cannot serialize {type(config).__name__}")


def _config_from_json(data: dict):
    keys = set(data)
    if keys not in ({"state", "counters"}, {"state", "stack"}):
        raise ValueError(f"bad configuration record: {sorted(keys)}")
    state = data["state"]
    if not (isinstance(state, str) and state):
        raise ValueError(f"configuration state must be a nonempty string, got {state!r}")
    if "stack" in keys:
        stack = data["stack"]
        if not isinstance(stack, str):
            raise ValueError(f"configuration stack must be a string, got {stack!r}")
        return PdsConfig(state, stack)
    counters = data["counters"]
    # type(), not isinstance: a bool is an int but no counter value
    if not (isinstance(counters, list) and all(type(c) is int for c in counters)):
        raise ValueError(f"configuration counters must be a list of integers, got {counters!r}")
    return VassConfig(state, tuple(counters))


def _graph_to_json(graph: LabelledGraph) -> dict:
    return {
        "vertices": graph.n,
        "edges": sorted([a, b] for a, b in graph.edges),
        "labels": [_config_to_json(l) for l in graph.labels],
    }


def _graph_from_json(data: dict) -> LabelledGraph:
    _expect_keys(data, {"vertices", "edges", "labels"})
    n, edges = data["vertices"], data["edges"]
    # type(), not isinstance: a bool is an int but no vertex count or vertex
    if type(n) is not int or not (isinstance(edges, list) and all(
        isinstance(e, list) and len(e) == 2 and all(type(u) is int for u in e) for e in edges
    )):
        raise ValueError(f"graph vertices must be an integer and edges integer pairs: {data!r}")
    return LabelledGraph(
        n,
        frozenset(tuple(e) for e in edges),
        tuple(_config_from_json(l) for l in data["labels"]),
    )


def run_to_json(run) -> dict:
    steps = []
    for step in run:
        entry: dict = {"kind": step.kind, "graph": _graph_to_json(step.graph)}
        if step.vertex is not None:
            entry["vertex"] = step.vertex
        if step.letter is not None:
            entry["letter"] = step.letter
        steps.append(entry)
    return {"format": WITNESS_FORMAT, "steps": steps}


def run_from_json(data: dict):
    _expect_keys(data, {"format", "steps"})
    if data["format"] != WITNESS_FORMAT:
        raise ValueError(f"unsupported witness format {data.get('format')!r}")
    steps = []
    for entry in data["steps"]:
        _expect_keys(entry, {"kind", "graph"}, optional={"vertex", "letter"})
        vertex, letter = entry.get("vertex"), entry.get("letter")
        # type(), not isinstance: a bool is an int but names no vertex
        if vertex is not None and type(vertex) is not int:
            raise ValueError(f"step vertex must be an integer, got {vertex!r}")
        if letter is not None and not (isinstance(letter, str) and letter):
            raise ValueError(f"step letter must be a nonempty string, got {letter!r}")
        steps.append(RunStep(entry["kind"], _graph_from_json(entry["graph"]), vertex, letter))
    return tuple(steps)


def _expect_keys(data: dict, required: set, optional: set = frozenset()):
    keys = set(data)
    missing = required - keys
    unknown = keys - required - optional
    if missing or unknown:
        raise ValueError(
            f"bad record: missing {sorted(missing)}, unknown {sorted(unknown)}"
        )


@dataclass(frozen=True)
class QueryReport:
    index: int
    state: str
    vector: Optional[tuple[int, ...]]
    stack: Optional[str]
    semantics: str
    verdict: str  # "coverable" | "not-coverable" | "resource-exhausted" | "unknown"
    time_s: float
    iterations: Optional[int] = None
    basis_size: Optional[int] = None
    sweeps: Optional[int] = None
    inner_queries: Optional[int] = None
    trace: Optional[tuple] = None  # ((unlocked letters...), query count) per sweep
    witness: Optional[tuple] = None  # run steps

    @property
    def target_text(self) -> str:
        if self.stack is not None:
            return f"{self.state}[{self.stack}]"
        if self.vector:
            return f"{self.state}({','.join(str(v) for v in self.vector)})"
        return self.state


@dataclass(frozen=True)
class Report:
    model: str
    results: tuple[QueryReport, ...]


# per report field JSON cannot hold as it is: (encode, decode), applied
# to values that are not None; every other field is written as it is
_CODECS = {
    "vector": (list, tuple),
    "trace": (
        lambda trace: [[list(u), q] for u, q in trace],
        lambda rows: tuple((tuple(u), q) for u, q in rows),
    ),
    "witness": (run_to_json, run_from_json),
}


def _coded(name: str, value, decode: bool):
    codec = _CODECS.get(name)
    return value if value is None or codec is None else codec[decode](value)


def json_text(payload: dict, listed: str) -> str:
    """``payload`` as JSON text: its fields up to ``listed``, which must be
    its last one, on the first line, then each element of that list on a
    line of its own, and the closing brackets on the last."""
    opening = json.dumps({**payload, listed: []})[:-2]
    rows = ",\n".join(map(json.dumps, payload[listed]))
    return "\n".join([opening, rows, "]}"] if rows else [opening, "]}"]) + "\n"


def report_to_json(report: Report) -> str:
    names = [f.name for f in fields(QueryReport)]
    results = [{n: _coded(n, getattr(r, n), decode=False) for n in names} for r in report.results]
    payload = {"format": REPORT_FORMAT, "model": report.model, "results": results}
    return json_text(payload, "results")


def report_from_json(text: str) -> Report:
    data = json.loads(text)
    _expect_keys(data, {"format", "model", "results"})
    if data["format"] != REPORT_FORMAT:
        raise ValueError(f"unsupported report format {data.get('format')!r}")
    names = [f.name for f in fields(QueryReport)]
    results = []
    for entry in data["results"]:
        _expect_keys(entry, set(names))
        results.append(QueryReport(**{n: _coded(n, entry[n], decode=True) for n in names}))
    return Report(data["model"], tuple(results))
