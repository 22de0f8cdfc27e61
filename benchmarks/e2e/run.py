#!/usr/bin/env python3
"""The repo benchmark: five workloads, end to end and layer by layer.

One workload, one process (what the benchmark driver runs)::

    python3 benchmarks/e2e/run.py --workload lib_filter --seed 11 --seconds 10 --trace 0

prints every metric by name with its unit and, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
wraps the calls into each layer in benchmark-side spans, writes them to
``results/trace_<workload>.jsonl`` and reports the per-layer metrics.

Without ``--workload`` every workload runs, each in a fresh subprocess
(``--traced`` for the traced runs); ``--selfcheck`` runs two sets of runs
and fails when their medians disagree by more than a metric's own bound.
See README.md beside this file.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # process start, as close as Python lets us

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

from catalogue import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

WORKLOAD_NAMES = [name for name, _why in WORKLOADS]
DEFAULT_SEED = 11
DEFAULT_SECONDS = 16
#: full set-ups per run; ``setup_s`` reports the fastest (plus imports).  The
#: first one pays 2-5 s of first-touch page faults, and whether the later
#: ones do depends on when the host takes freed pages back: their median
#: ranged 1.2-3.7 s over ten runs of unchanged code, their minimum does not.
SETUP_REPS = 5


def _registry() -> dict:
    """Workload name -> (setup, measure, teardown).  Importing the
    workload modules pulls in numpy and ``repro``; the cost is part of
    ``setup_s``."""
    sys.path.insert(0, SRC)
    import serving
    import workloads

    def served(shards: int):
        def setup(scale: float, workdir: str):
            return serving.setup_served(scale, workdir, SRC, shards)

        return setup, serving.measure_served, serving.teardown_served

    def nothing(env) -> list[str]:
        return []

    return {
        "lib_filter": (workloads.setup_lib_filter, workloads.measure_lib_filter, nothing),
        "lib_exact": (workloads.setup_lib_exact, workloads.measure_lib_exact, nothing),
        "lib_churn": (workloads.setup_lib_churn, workloads.measure_lib_churn, nothing),
        "served": served(1),
        "served_sharded": served(2),
    }


def _own_peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _print_table(title: str, rows: list[tuple[str, float, str]]) -> None:
    print(f"\n== {title}")
    for name, value, unit in rows:
        print(f"{name:<42} {value:>16.4f} {unit}")


# -- one workload, this process -------------------------------------------------


def run_one(args: argparse.Namespace) -> int:
    setup, measure, teardown = _registry()[args.workload]
    import_s = time.perf_counter() - _T0
    workdir = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(RESULTS, exist_ok=True)
    try:
        if args.trace:
            record = _run_traced(args, setup, measure, teardown, workdir)
        else:
            record = _run_plain(args, setup, measure, teardown, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in record.pop("problems"):
        print(f"PROBLEM: {line}", file=sys.stderr)
    kind = "traced" if args.trace else "plain"
    path = os.path.join(RESULTS, f"latest_{args.workload}_{kind}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, **record}, fh, indent=1)
    print(json.dumps(record, separators=(",", ":")))
    return 0 if record["correct"] else 1


def _run_plain(args, setup, measure, teardown, workdir: str, import_s: float) -> dict:
    build_s: list[float] = []
    problems: list[str] = []
    env = None
    for _ in range(SETUP_REPS):
        if env is not None:
            problems += teardown(env)
            env = None
            gc.collect()
        t0 = time.perf_counter()
        env = setup(args.scale, workdir)
        build_s.append(time.perf_counter() - t0)
    try:
        outcome = measure(env, args.seed, args.scale, args.seconds)
        peak_rss = getattr(env, "peak_rss_mb", 0.0) or _own_peak_rss_mb()
    finally:
        problems += teardown(env)
    values = dict(outcome.metrics)
    values["setup_s"] = import_s + min(build_s)
    values["peak_rss_mb"] = peak_rss
    values["index_bytes_per_object"] = env.index_bytes / len(env.data)
    units = {name: unit for name, unit, *_ in END_TO_END}
    _print_table(
        f"{args.workload} seed={args.seed} scale={args.scale:g} "
        f"seconds={args.seconds:g}: end to end",
        [(name, values[name], units[name]) for name in units],
    )
    _print_table(
        "detail (not gated)",
        [(k, v, "") for k, v in sorted(outcome.detail.items())]
        + [("import_s", import_s, "s")]
        + [(f"setup_rep{i}_s", s, "s") for i, s in enumerate(build_s)]
        + [("failed_ops_ratio", outcome.failed / max(outcome.attempted, 1), "ratio")],
    )
    return _record(outcome, problems, values, units)


def _run_traced(args, setup, measure, teardown, workdir: str) -> dict:
    import layers
    from spans import SpanRecorder

    recorder = SpanRecorder()
    problems: list[str] = []
    env = setup(args.scale, workdir)
    try:
        outcome = measure(env, args.seed, args.scale, args.seconds, recorder)
        values = layers.layer_table(args.seed, args.scale, workdir, SRC, recorder)
    finally:
        problems += teardown(env)
    values["bench.tracing_overhead_pct"] = outcome.detail["tracing_overhead_pct"]
    trace_path = os.path.join(RESULTS, f"trace_{args.workload}.jsonl")
    n_spans = recorder.flush(trace_path)
    units = {name: unit for name, unit, *_ in PER_LAYER}
    _print_table(
        f"{args.workload} seed={args.seed} scale={args.scale:g}: per layer "
        f"({n_spans} spans -> {os.path.relpath(trace_path, ROOT)})",
        [(name, values[name], units[name]) for name in units],
    )
    self_times = recorder.self_times_us()
    _print_table(
        "span self time, median [us] (count)",
        [
            (f"{name} ({len(v)})", statistics.median(v), "us")
            for name, v in sorted(self_times.items())
        ],
    )
    return _record(outcome, problems, values, units)


def _record(outcome, guard_problems: list[str], values: dict, units: dict) -> dict:
    """The driver's result object (plus the problem lines for stderr).  A
    violated health guard counts as one failed operation."""
    failed = outcome.failed + len(guard_problems)
    return {
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
        "problems": outcome.problems + guard_problems,
    }


# -- every workload, one subprocess each ------------------------------------------


def _spawn(workload: str, seed: int, seconds: float, scale: float, trace: int) -> dict:
    """Run one workload in a fresh process (isolates lazy caches and peak
    RSS); returns its final JSON record, with ``returncode`` added."""
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--scale", str(scale), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        record = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    record["returncode"] = proc.returncode
    return record


def run_all(args: argparse.Namespace) -> int:
    ok = True
    for workload in WORKLOAD_NAMES:
        record = _spawn(workload, args.seed, args.seconds, args.scale, int(args.traced))
        ok = ok and record["correct"] and record["returncode"] == 0
        print(
            f"-- {workload}: correct={record['correct']} "
            f"attempted={record['attempted']} failed={record['failed']}"
        )
    return 0 if ok else 1


def selfcheck(args: argparse.Namespace) -> int:
    """Two sets of ``--runs`` runs of the same code, the second in reverse
    workload order; every end-to-end metric's two medians must agree
    within the metric's own bound."""
    sets: list[dict[tuple[str, str], list[float]]] = [{}, {}]
    ok = True
    for k, order in enumerate((WORKLOAD_NAMES, WORKLOAD_NAMES[::-1])):
        for _ in range(args.runs):
            for workload in order:
                record = _spawn(workload, args.seed, args.seconds, args.scale, 0)
                ok = ok and record["correct"] and record["returncode"] == 0
                for name, cell in record["metrics"].items():
                    sets[k].setdefault((workload, name), []).append(cell["value"])
    print(f"\n== selfcheck seed={args.seed} runs/set={args.runs}")
    print(f"{'workload':<16}{'metric':<26}{'median A':>14}{'median B':>14}{'diff':>9}{'bound':>8}")
    for name, _unit, better, bound, _meaning in END_TO_END:
        for workload in WORKLOAD_NAMES:
            a = statistics.median(sets[0][workload, name])
            b = statistics.median(sets[1][workload, name])
            worse = (b - a) / a if better == "lower" else (a - b) / a
            verdict = "" if abs(worse) <= bound else "  <-- exceeds its bound"
            ok = ok and not verdict
            print(f"{workload:<16}{name:<26}{a:>14.3f}{b:>14.3f}{worse:>+9.1%}{bound:>8.0%}{verdict}")
    print("selfcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long one run measures (default 16)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run reporting the per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="without --workload: make every run a traced run")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="dataset and stream size factor (tests use 0.02)")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--runs", type=int, default=3,
                        help="with --selfcheck: runs per workload per set")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: {SRC}/repro not found: nothing to benchmark", file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck(args)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
