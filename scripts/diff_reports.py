#!/usr/bin/env python3
"""Compare the saved JSON reports of two runs, query by query, timings aside.

    python3 scripts/diff_reports.py DIR_A DIR_B

Each directory is one written by ``bench/run.py --save DIR`` (or any
directory above such ones): every ``reports/*.json`` file below DIR_A is
paired with the file at the same relative path below DIR_B.  Every
field of every query result is compared except ``time_s``: the verdict,
``iterations``, ``basis_size``, ``sweeps``, ``inner_queries``, the rbn
``trace`` and the witness run.  Every difference is printed, as is every
report found on one side only.  Exits 0 when the two sides agree, 1 when
they differ, 2 when neither directory holds a report.
"""

import argparse
import json
import pathlib
import sys

IGNORED = {"time_s"}


def load_reports(root: pathlib.Path) -> dict:
    return {p.relative_to(root): p for p in sorted(root.rglob("reports/*.json"))}


def report_differences(name, a: dict, b: dict) -> list:
    out = []
    if a["model"] != b["model"]:
        out.append(f"{name}: model {a['model']!r} != {b['model']!r}")
    ra, rb = a["results"], b["results"]
    if len(ra) != len(rb):
        out.append(f"{name}: {len(ra)} results != {len(rb)}")
    for i, (x, y) in enumerate(zip(ra, rb)):
        for key in sorted((set(x) | set(y)) - IGNORED):
            if x.get(key) != y.get(key):
                where = f"{name}: result {i} ({x.get('state')} under {x.get('semantics')})"
                out.append(f"{where}: {key}: {x.get(key)!r} != {y.get(key)!r}")
    return out


def diff_dirs(dir_a: pathlib.Path, dir_b: pathlib.Path) -> tuple[int, list]:
    """Number of report pairs compared, and every difference found."""
    side_a, side_b = load_reports(dir_a), load_reports(dir_b)
    out = [f"{rel}: only in {dir_a}" for rel in side_a if rel not in side_b]
    out += [f"{rel}: only in {dir_b}" for rel in side_b if rel not in side_a]
    pairs = [rel for rel in side_a if rel in side_b]
    for rel in pairs:
        a = json.loads(side_a[rel].read_text())
        b = json.loads(side_b[rel].read_text())
        out += report_differences(rel, a, b)
    return len(pairs), out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", type=pathlib.Path)
    parser.add_argument("dir_b", type=pathlib.Path)
    args = parser.parse_args(argv)
    compared, differences = diff_dirs(args.dir_a, args.dir_b)
    if not compared and not differences:
        print(f"no reports/*.json below {args.dir_a}", file=sys.stderr)
        return 2
    for line in differences:
        print(line)
    summary = f"{compared} report pairs compared"
    print(f"{summary}, {len(differences)} differences" if differences else f"{summary}, identical")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
