"""Benchmark of the ``bncover verify`` path.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--seconds S]        # every workload

One process, one thread, a closed loop: each query of the workload's
suite (see ``suites.py``) is one operation, issued after the previous one
returned and timed around its call to ``bncover.cli.run_query``, the
function ``bncover verify`` runs per query.  After each model's queries
the results are serialized with ``report_to_json``; both are inside the
timed suite.  The reports are then read back with ``report_from_json``
and checked (``check.py``), untimed.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the same suite runs with every
traced layer wrapped (``tracing.py``) and the object holds the per-layer
metrics and ``check.unsettled``, the number of queries the check could
neither confirm nor refute.  ``--seconds`` sets how many times the suite
runs (``suites.rounds``), ``--seed`` the order of its models.  Without ``--workload`` every workload runs, untraced and then
traced, each in a fresh process, and a table of all of them is printed.
``--save DIR`` also writes the suite's model files, the JSON reports of
its first round and the result object under ``DIR/<workload>-seed<N>/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import env  # noqa: E402
import suites  # noqa: E402

SETUP_REPEATS = 25

# Host-speed calibration: a fixed piece of Python work (``calibration_loop``)
# runs between any two queries and any two set-ups, and every reported time
# is scaled by CALIBRATION_NOMINAL_S / (loop time), each by the loops
# around it (``host_scales``).  On the 2-vCPU virtual machine of the
# README's figures the speed changes by 15-30 % within seconds; the scaling
# takes most of that out of the run-to-run spread.  Dictionary work on
# tuple keys follows the deciders' slowdowns more closely than plain
# arithmetic does (README, "Host noise").
CALIBRATION_ITERATIONS = 8_000
CALIBRATION_NOMINAL_S = 0.004

END_TO_END = (
    ("wall_s", "s"),
    ("query_p50_s", "s"),
    ("query_p90_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def setup(workload: str, seed: int):
    """Import ``bncover`` afresh, generate the suite and parse every model."""
    for name in [m for m in sys.modules if m == "bncover" or m.startswith("bncover.")]:
        del sys.modules[name]
    bncover = importlib.import_module("bncover")
    suite = suites.build(workload, seed)
    models = {name: bncover.parse_model(text) for name, text in suite.texts.items()}
    return suite, models


def calibration_loop() -> float:
    """Time of a fixed piece of work shaped like the deciders': tuple keys
    hashed into a dictionary that is emptied when it grows large."""
    started = time.perf_counter()
    seen: dict = {}
    for i in range(CALIBRATION_ITERATIONS):
        key = (i % 97, i % 89, i & 3)
        seen[key] = seen.get(key, 0) + 1
        if len(seen) > 3000:
            seen = {}
    return time.perf_counter() - started


def host_scales(loops: list[float], n: int) -> list[float]:
    """Scale factor of each of ``n`` timed pieces of work, where ``loops[i]``
    ran just before piece ``i`` and ``loops[i + 1]`` just after it: the
    nominal loop time over the median of the two loops before and the two
    after, so one disturbed loop does not skew a long piece."""
    return [CALIBRATION_NOMINAL_S / statistics.median(loops[max(0, i - 1):i + 3])
            for i in range(n)]


def run_suite(suite, models, rounds: int = 1):
    """Every query in order, ``rounds`` times, a calibration loop between
    any two queries, one before the first and two after the last.

    Returns the per-query times and the wall time of the suite, both
    scaled to the nominal host speed, the report texts of each round, and
    the suite's measured (unscaled) wall time."""
    from bncover import cli, report
    from bncover.order import ResourceLimits

    limits = ResourceLimits()
    times: list[float] = []
    serialize: dict[int, float] = {}  # index of a model's last query -> report time
    texts: list[dict] = []
    loops: list[float] = []
    for _ in range(rounds):
        texts.append({})
        for name, model in models.items():
            results = []
            for i, query in enumerate(model.queries):
                loops.append(calibration_loop())
                t = time.perf_counter()
                results.append(cli.run_query(model, query, i, limits, suite.want_witness))
                times.append(time.perf_counter() - t)
            t = time.perf_counter()
            texts[-1][name] = report.report_to_json(report.Report(name, tuple(results)))
            serialize[len(times) - 1] = time.perf_counter() - t
    loops += [calibration_loop(), calibration_loop()]
    measured_wall = sum(times) + sum(serialize.values())
    scales = host_scales(loops, len(times))
    scaled = [t * c for t, c in zip(times, scales)]
    wall = sum(scaled) + sum(t * scales[i] for i, t in serialize.items())
    return scaled, texts, wall, measured_wall


def check_suite(suite, models, texts, **bounds):
    """Outcome per (round, model, query index) of the read-back reports."""
    import check
    from bncover.report import report_from_json

    known = {(name, i) for name in suite.known_negative for i in range(len(models[name].queries))}
    checker = check.Checker(models, known_negative=known, **bounds)
    outcomes = {}
    for r, round_texts in enumerate(texts):
        reports = {name: report_from_json(text) for name, text in round_texts.items()}
        for (name, index), o in checker.check_suite(reports, suite.want_witness).items():
            outcomes[(r, name, index)] = o
    return outcomes


def save(directory: Path, suite, texts, result) -> None:
    for sub, files, suffix in (("models", suite.texts, ".bn"), ("reports", texts, ".json")):
        (directory / sub).mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (directory / sub / f"{name}{suffix}").write_text(text)
    (directory / "result.json").write_text(json.dumps(result, indent=2) + "\n")


def run_workload(workload: str, seed: int, seconds: int, traced: bool,
                 save_dir: Path | None = None) -> dict:
    setup_times, loops = [], []
    for _ in range(SETUP_REPEATS):
        loops.append(calibration_loop())
        t = time.perf_counter()
        suite, models = setup(workload, seed)
        setup_times.append(time.perf_counter() - t)
    loops += [calibration_loop(), calibration_loop()]
    setup_times = [t * c for t, c in zip(setup_times, host_scales(loops, SETUP_REPEATS))]

    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        from bncover import parse_model

        models = {name: parse_model(text) for name, text in suite.texts.items()}
    try:
        times, texts, wall, measured_wall = run_suite(suite, models, suites.rounds(seconds))
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    check_started = time.perf_counter()
    outcomes = check_suite(suite, models, texts)
    check_s = time.perf_counter() - check_started
    failed = {key: o for key, o in outcomes.items() if o.status == "failed"}
    unsettled = {key: o for key, o in outcomes.items() if o.status == "unsettled"}

    print(f"workload {workload}: seed {seed}, {len(models)} models, {len(texts)} round(s), "
          f"{len(times)} queries, {'traced' if traced else 'untraced'}")
    for (r, name, index), o in sorted(failed.items()):
        tag = f"known fault: {o.fault}" if o.fault else "WRONG RESULT"
        print(f"  failed ({tag}) round {r} {name} query {index}: {o.reason}")
    print(f"  unsettled {len(unsettled)} of {len(outcomes)}; check took {check_s:.1f} s")
    for (r, name, index), o in sorted(unsettled.items()):
        print(f"    round {r} {name} query {index} "
              f"[{models[name].queries[index].semantics_text}]: {o.reason}")
    print(f"  measured wall {measured_wall:.4f} s, host speed scale {wall / measured_wall:.4f}")
    print(f"  {'traced ' if traced else ''}wall_s {wall:.4f}")

    if traced:
        metrics = tracer.metrics()
        metrics["check.unsettled"] = {"value": len(unsettled), "unit": "count"}
    else:
        deciles = statistics.quantiles(times, n=10)
        values = {
            "wall_s": wall,
            "query_p50_s": statistics.median(times),
            "query_p90_s": deciles[8],
            "setup_s": statistics.median(setup_times),
            "peak_rss_mib": peak_rss_mib,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {
        "correct": all(o.fault for o in failed.values()),
        "attempted": len(times),
        "failed": len(failed),
        "metrics": metrics,
    }
    if save_dir is not None:
        save(save_dir / f"{workload}-seed{seed}{'-traced' if traced else ''}",
             suite, texts[0], result)
    return result


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    rows = []
    for workload in suites.WORKLOADS:
        walls = {}
        results = {}
        for traced in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)]
            done = subprocess.run(cmd, capture_output=True, text=True, check=False)
            if done.returncode != 0:
                print(done.stdout + done.stderr, file=sys.stderr)
                return done.returncode
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]))
            results[traced] = json.loads(lines[-1])
            walls[traced] = next(float(line.split()[-1]) for line in lines
                                 if line.strip().startswith(("wall_s", "traced wall_s")))
        rows.append((workload, results[0], results[1], walls[1] / walls[0] - 1))
    print()
    for workload, plain, traced, overhead in rows:
        print(f"{workload}: attempted {plain['attempted']}, failed {plain['failed']}, "
              f"correct {plain['correct']}, tracing overhead {overhead:+.0%}")
        for name, m in plain["metrics"].items():
            print(f"  {name:<14} {m['value']:>12.4f} {m['unit']}")
        for name, m in traced["metrics"].items():
            print(f"  {name:<42} {m['value']:>14.4f} {m['unit']}")
    print(json.dumps({workload: {"untraced": plain, "traced": traced,
                                 "tracing_overhead": overhead}
                      for workload, plain, traced, overhead in rows}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark of bncover verify")
    parser.add_argument("--workload", choices=suites.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="write models, reports and result here")
    args = parser.parse_args(argv)
    try:
        env.require_src()
    except env.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.save)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
