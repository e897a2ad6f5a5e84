"""Per-layer counters and self times, recorded from outside the program.

``Tracer.install()`` wraps public functions of the ``bncover`` modules and
replaces every module attribute that refers to the original, so each call
site, which looks the name up in its own module, goes through the wrapper.
A wrapper counts calls and times its span; a span's self time is its
duration minus that of the traced spans it encloses.  Generator functions
are timed around each ``next``, so time the consumer spends between items
is not charged to them.  ``uninstall()`` restores the originals.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass

# (module, function or Class.method, counter hook)
_TRACED = (
    ("graphs", "graph_embeds", "found"),
    ("graphs", "graph_injections", None),
    ("graphs", "enumerate_extensions", None),
    ("graphs", "enumerate_diam_deg_graphs", None),
    ("graphs", "canonical_form", None),
    ("static_cover", "GraphSpace.pre_graphs", "emitted"),
    ("static_cover", "GraphSpace.pre_basis_for_label", "kept"),
    ("static_cover", "static_witness_run", None),
    ("order", "backward_coverability", "saturation"),
    ("order", "minimize", None),
    ("vass", "vass_pre_basis", None),
    ("vass", "vass_successors", None),
    ("pushdown", "pds_coverable", "rounds"),
    ("process", "coverable", None),
    ("rbn", "rbn_coverable", "unlocking"),
    ("rbn", "rbn_witness", None),
    ("explore", "explore", None),
    ("explore", "replay", None),
    ("explore", "bn_step", None),
    ("modelfile", "parse_model", None),
    ("report", "report_to_json", None),
)

# name, unit: every per-layer metric the benchmark reports
PER_LAYER = (
    ("graphs.graph_embeds.calls", "count"),
    ("graphs.graph_embeds.self_s", "s"),
    ("graphs.graph_embeds.found_ratio", "ratio"),
    ("graphs.graph_injections.yielded", "count"),
    ("graphs.graph_injections.self_s", "s"),
    ("graphs.enumerate_extensions.calls", "count"),
    ("graphs.enumerate_extensions.self_s", "s"),
    ("graphs.enumerate_diam_deg_graphs.self_s", "s"),
    ("graphs.canonical_form.calls", "count"),
    ("static_cover.pre_graphs.calls", "count"),
    ("static_cover.pre_graphs.self_s", "s"),
    ("static_cover.pre_graphs.emitted", "count"),
    ("static_cover.pre_basis.kept_ratio", "ratio"),
    ("static_cover.static_witness_run.self_s", "s"),
    ("order.backward_coverability.calls", "count"),
    ("order.backward_coverability.self_s", "s"),
    ("order.saturation.iterations", "count"),
    ("order.saturation.basis_max", "count"),
    ("order.minimize.calls", "count"),
    ("order.minimize.self_s", "s"),
    ("vass.vass_pre_basis.calls", "count"),
    ("vass.vass_pre_basis.self_s", "s"),
    ("vass.vass_successors.calls", "count"),
    ("pushdown.pds_coverable.calls", "count"),
    ("pushdown.pds_coverable.self_s", "s"),
    ("pushdown.pds_coverable.rounds", "count"),
    ("process.coverable.calls", "count"),
    ("rbn.inner_queries", "count"),
    ("rbn.sweeps", "count"),
    ("rbn.rbn_coverable.self_s", "s"),
    ("rbn.rbn_witness.self_s", "s"),
    ("explore.explore.calls", "count"),
    ("explore.explore.self_s", "s"),
    ("explore.replay.self_s", "s"),
    ("explore.bn_step.calls", "count"),
    ("modelfile.parse_model.self_s", "s"),
    ("report.report_to_json.self_s", "s"),
)


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    items: int = 0  # found embeddings, yielded items, emitted/kept graphs, rounds


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.iterations = 0
        self.basis_max = 0
        self.inner_queries = 0
        self.sweeps = 0
        self._child = [0.0]  # time of traced children, per open span
        self._patched: list = []

    # -- spans ------------------------------------------------------------

    def _enter(self):
        self._child.append(0.0)
        return time.perf_counter()

    def _leave(self, stat: Stat, started: float):
        elapsed = time.perf_counter() - started
        stat.self_s += elapsed - self._child.pop()
        self._child[-1] += elapsed

    def _hook(self, stat: Stat, hook, result):
        if hook == "found":
            stat.items += result is not None
        elif hook in ("emitted", "kept"):
            stat.items += len(result)
        elif hook == "rounds":
            stat.items += result.iterations
        elif hook == "saturation":
            self.iterations += result.iterations
            self.basis_max = max(self.basis_max, len(result.basis))
        elif hook == "unlocking":
            self.inner_queries += result.trace.total_queries
            self.sweeps += len(result.trace.rounds)

    def _wrap(self, fn, stat: Stat, hook):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                stat.calls += 1
                inner = fn(*args, **kwargs)
                while True:
                    started = tracer._enter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._leave(stat, started)
                    stat.items += 1
                    yield item
        else:
            def wrapper(*args, **kwargs):
                stat.calls += 1
                started = tracer._enter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._leave(stat, started)
                if hook is not None:
                    tracer._hook(stat, hook, result)
                return result
        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "bncover" or name.startswith("bncover."))]
        for module_name, qualname, hook in _TRACED:
            module = sys.modules[f"bncover.{module_name}"]
            stat = self.stats.setdefault(f"{module_name}.{qualname.split('.')[-1]}", Stat())
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, stat, hook))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(original, stat, hook)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- report -----------------------------------------------------------

    def metrics(self) -> dict:
        s = self.stats

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        derived = {
            "graphs.graph_embeds.found_ratio": ratio(s["graphs.graph_embeds"].items,
                                                     s["graphs.graph_embeds"].calls),
            "graphs.graph_injections.yielded": s["graphs.graph_injections"].items,
            "static_cover.pre_graphs.emitted": s["static_cover.pre_graphs"].items,
            "static_cover.pre_basis.kept_ratio": ratio(s["static_cover.pre_basis_for_label"].items,
                                                       s["static_cover.pre_graphs"].items),
            "order.saturation.iterations": self.iterations,
            "order.saturation.basis_max": self.basis_max,
            "pushdown.pds_coverable.rounds": s["pushdown.pds_coverable"].items,
            "rbn.inner_queries": self.inner_queries,
            "rbn.sweeps": self.sweeps,
        }
        out = {}
        for name, unit in PER_LAYER:
            if name in derived:
                value = derived[name]
            else:  # <module>.<function>.calls or .self_s
                span, _, field = name.rpartition(".")
                value = getattr(s[span], field)
            out[name] = {"value": value, "unit": unit}
        return out
