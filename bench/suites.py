"""The query suite of each workload.

A suite is a set of model texts, every query of which is one operation.
Which queries a suite holds is fixed (``gen.SUITES`` and the bundled
models), so ``attempted`` and ``failed`` are the same in every run.  The
run's ``--seed`` only shuffles the order in which the models are issued;
the same seed gives the same order.  A run issues the suite
``rounds(seconds)`` times: once at the benchmark's 20 seconds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import gen

WORKLOADS = ("fixed-pathbounded", "fixed-diamdeg", "rbn-pushdown", "rbn-vass")

# A run issues its suite once per ROUND_SECONDS of --seconds, at least
# once.  Each suite holds 13-18 s of queries on the README's machine.
ROUND_SECONDS = 20

RELAY_TARGET = "state=q4 vector=(0)"


@dataclass
class Suite:
    workload: str
    want_witness: bool
    texts: dict = field(default_factory=dict)   # model name -> model text, in issue order
    known_negative: set = field(default_factory=set)  # model names


def rounds(seconds: int) -> int:
    return max(1, round(seconds / ROUND_SECONDS))


def _chain_suite(workload: str, family: str, semantics, relay) -> Suite:
    suite = Suite(workload, want_witness=True)
    targets: dict = {}
    for model_seed, target in gen.SUITES[family]:
        targets.setdefault(model_seed, []).append(target)
    for model_seed, chosen in targets.items():
        lines, _ = gen.chain_protocol(model_seed)
        for target in chosen:
            lines = lines + gen.cover_lines(target, "(0)", semantics)
        suite.texts[f"chain{model_seed}"] = "\n".join(lines) + "\n"
    suite.texts["relay"] = gen.bundled(
        "relay.bn", [f"query cover {RELAY_TARGET} semantics={s}" for s in relay])
    suite.known_negative.add("relay")
    return suite


def _unordered(workload: str) -> Suite:
    if workload == "fixed-pathbounded":
        return _chain_suite(workload, "static-path", gen.PATH_SEMANTICS,
                            ("path-bounded:2", "path-bounded:3", "path-bounded:4", "clique"))
    if workload == "fixed-diamdeg":
        return _chain_suite(workload, "static-diam", gen.DIAM_SEMANTICS,
                            ("diam-deg:2,2,3", "diam-deg:2,2,4"))
    if workload == "rbn-pushdown":
        suite = Suite(workload, want_witness=False)
        for model_seed in gen.SUITES["pushdown"]:
            suite.texts[f"pds{model_seed}"] = "\n".join(gen.pushdown(model_seed)) + "\n"
        suite.texts["handshake"] = gen.bundled(
            "handshake_pushdown.bn",
            ["query cover state=done semantics=rbn", "query cover state=stuck semantics=rbn"])
        return suite
    if workload == "rbn-vass":
        suite = Suite(workload, want_witness=True)
        for model_seed in gen.SUITES["vass"]:
            lines, targets = gen.vass_counter(model_seed)
            for target in targets:
                lines = lines + gen.cover_lines(target, "(0,0,0)", ("rbn",))
            suite.texts[f"vass{model_seed}"] = "\n".join(lines) + "\n"
        return suite
    raise ValueError(f"unknown workload {workload!r}")


def build(workload: str, seed: int) -> Suite:
    suite = _unordered(workload)
    names = list(suite.texts)
    random.Random(seed).shuffle(names)
    suite.texts = {name: suite.texts[name] for name in names}
    return suite
