#!/usr/bin/env python3
"""A catalogue of planted faults, each run against the tier-1 tests.

    python3 scripts/mutants.py

Each entry of :data:`CATALOGUE` replaces one exact piece of text in one
file under ``src/`` with a faulty version.  The script copies this
checkout (without ``.git``) to a temporary directory, runs the tier-1
tests there once unpatched, then applies each patch in turn, runs the
tier-1 tests with ``-x`` and restores the file.  It prints, per patch,
``killed`` with the first failing test, or ``survived``.  A patch whose
text no longer occurs exactly once is reported ``stale``.

Some patches are marked equivalent, with the reason: they change no
result, so they must survive, and they serve as controls.  The exit
status is 1 when a patch not marked equivalent survives, when an
equivalent one is killed, or when a patch is stale; 2 when the unpatched
tests fail; 0 otherwise.

A full run of the 16 patches takes about 2.5 minutes (2 min 22 s and
2 min 31 s in two runs) on a 2-vCPU host under Python 3.11.7: the
unpatched run and each surviving patch run the whole tier-1 suite
(about 20 s each), and a killed patch stops at its first failure.
"""

import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]


@dataclass(frozen=True)
class Patch:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    breaks: str  # what the fault breaks, or why the patch changes nothing
    equivalent: bool = False


CATALOGUE = (
    Patch("embeds-strict-degree", "src/bncover/graphs.py",
          "if gadj[w].bit_count() >= du and leq(",
          "if gadj[w].bit_count() > du and leq(",
          "graph_embeds refuses images of exactly the preimage's degree"),
    Patch("path-bound-too-wide", "src/bncover/graphs.py",
          "    length = k + 1\n",
          "    length = k + 2\n",
          "path-bounded:K admits graphs with a simple path of K+1 edges"),
    Patch("extensions-drop-full-attachment", "src/bncover/graphs.py",
          "for mask in range(first, 1 << fresh):",
          "for mask in range(first, (1 << fresh) - 1):",
          "the fresh vertex is never attached to every vertex; cliques stop growing"),
    Patch("extensions-skip-overlaps", "src/bncover/graphs.py",
          "if any(mask & m == m for m in rejected):",
          "if any(mask & m for m in rejected):",
          "attachments that merely overlap a rejected one are skipped, not only supersets"),
    Patch("in-class-without-degree-bound", "src/bncover/graphs.py",
          "            and diameter(shape) <= cls.k\n            and max_degree(shape) <= cls.d\n",
          "            and diameter(shape) <= cls.k\n",
          "diam-deg membership ignores the degree bound"),
    Patch("pre-graphs-skip-ignores-broadcaster", "src/bncover/static_cover.py",
          "if cv_up and all_up:",
          "if all_up:",
          "relabellings are skipped even when the broadcaster's new label does not "
          "dominate its old one"),
    Patch("pre-graphs-skip-any-dominating-receiver", "src/bncover/static_cover.py",
          "if skip_above and not attached & mixed:",
          "if skip_above and attached & ~mixed:",
          "a fresh broadcaster is skipped when some, not every, receiver dominates its label"),
    Patch("lattice-class-too-narrow", "src/bncover/static_cover.py",
          "wider = PathBounded(max(1, cls.n_max - 1))",
          "wider = PathBounded(max(1, cls.n_max - 2))",
          "a diam-deg class is settled by a path-bounded class that does not contain it"),
    Patch("lattice-positive-returned", "src/bncover/static_cover.py",
          "            if not verdict.coverable:\n                return verdict\n",
          "            return verdict\n",
          "a path-bounded positive is returned for a diam-deg query"),
    Patch("first-fresh-only", "src/bncover/order.py",
          "        for i in fresh:\n",
          "        for i in fresh[:1]:\n",
          "saturation checks only the first fresh element for an initial cover"),
    Patch("rbn-one-sweep", "src/bncover/rbn.py",
          "if not any(map(spec.has_receives, unlocked)):",
          "if True:",
          "the unlocking loop stops after its first sweep"),
    Patch("control-reachable-over-declared", "src/bncover/vass.py",
          "grown = {t.target for t in self.active_transitions() if t.source in reached}",
          "grown = {t.target for t in self.declared if t.source in reached}",
          "control-state reachability follows receives that are still locked"),
    Patch("control-reachable-from-every-state", "src/bncover/vass.py",
          "grown = {state for state, _ in self.initial}",
          "grown = set(self.states)",
          "control-state reachability is seeded from every state, so it settles nothing"),
    Patch("pre-basis-minus-v-term", "src/bncover/vass.py",
          "w = tuple(max(u - v, 0) for",
          "w = tuple(max(u - v, -v, 0) for",
          "equivalent: basis counters are nonnegative, so u - v >= -v always",
          equivalent=True),
    Patch("count-key-or-zero", "src/bncover/static_cover.py",
          "key |= min(c, _FIELD_TOP) << shift\n",
          "key |= min(c, _FIELD_TOP) << shift | 0\n",
          "equivalent: or-ing zero changes no key",
          equivalent=True),
    Patch("count-key-one-more-edge", "src/bncover/static_cover.py",
          "min(len(g.edges), _FIELD_TOP) << _FIELD_BITS",
          "min(len(g.edges) + 1, _FIELD_TOP) << _FIELD_BITS",
          "equivalent: every key gains the same edge, so the prefilter admits as much "
          "or more, and the embedding search still decides",
          equivalent=True),
)


def run_tier1(tree: pathlib.Path) -> tuple[bool, str]:
    """Whether tier-1 passes in ``tree``, and the first failing test."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode == 0:
        return True, ""
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return False, failed.group(1) if failed else f"pytest exit status {done.returncode}"


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory(prefix="bncover-mutants-") as workdir:
        tree = pathlib.Path(workdir) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"))
        passed, failed = run_tier1(tree)
        if not passed:
            print(f"unpatched tier-1 fails ({failed}); no patch was run")
            return 2
        for patch in CATALOGUE:
            path = tree / patch.path
            original = path.read_text()
            if original.count(patch.old) != 1:
                print(f"stale     {patch.name}: its text does not occur once in {patch.path}",
                      flush=True)
                bad += 1
                continue
            path.write_text(original.replace(patch.old, patch.new))
            try:
                survived, failed = run_tier1(tree)
            finally:
                path.write_text(original)
            if survived:
                print(f"survived  {patch.name} ({patch.breaks})", flush=True)
            else:
                print(f"killed    {patch.name} by {failed}", flush=True)
            bad += survived != patch.equivalent
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
