"""Command-line self-check and demo: ``python -m repro``.

Runs a miniature end-to-end exercise of the library — build every index
over one synthetic dataset, cross-validate their answers, and print a
small throughput table — so users can verify an installation in seconds.

Options::

    python -m repro                 # default demo (50K rectangles)
    python -m repro --n 200000      # bigger dataset
    python -m repro --seed 3        # different data
    python -m repro --profile       # add a per-phase span-tree breakdown
    python -m repro --explain       # print EXPLAIN plans for sample queries
    python -m repro --explain --json   # the same plans as JSON
    python -m repro --serve 127.0.0.1:7207   # run the query service
    python -m repro --serve 127.0.0.1:7207 --index built.idx  # from disk
    python -m repro --serve 127.0.0.1:7207 --metrics-port 9209  # + Prometheus
    python -m repro --top 127.0.0.1:7207     # live console against a server
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro import (
    BlockIndex,
    KDTree,
    MXCIFQuadTree,
    OneLayerGrid,
    QuadTree,
    RStarTree,
    RTree,
    TwoLayerGrid,
    TwoLayerKDTree,
    TwoLayerPlusGrid,
    TwoLayerQuadTree,
    __version__,
)
from repro.datasets import generate_uniform_rects, generate_window_queries


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Self-check for the two-layer partitioning library.",
    )
    parser.add_argument("--n", type=int, default=50_000, help="dataset size")
    parser.add_argument("--seed", type=int, default=7, help="random seed")
    parser.add_argument(
        "--queries", type=int, default=300, help="window queries to time"
    )
    parser.add_argument(
        "--skip-slow",
        action="store_true",
        help="skip the insertion-built R*-tree and MXCIF (slow to build)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="re-run the workload under tracing and print a span tree "
        "with per-phase timings plus latency percentiles",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print EXPLAIN plans (per-class tile scans, candidate flow, "
        "duplicate accounting) for a sample window/disk/kNN/join instead "
        "of the self-check",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="with --explain or --profile: emit JSON instead of (or in "
        "addition to) the console rendering",
    )
    parser.add_argument(
        "--serve",
        metavar="HOST:PORT",
        help="serve queries over TCP (newline-delimited JSON protocol); "
        "PORT 0 picks a free port, announced on stdout",
    )
    parser.add_argument(
        "--index",
        metavar="PATH",
        help="with --serve: start from a SpatialCollection.save() archive "
        "instead of building a synthetic dataset on boot",
    )
    parser.add_argument(
        "--partitions",
        type=int,
        default=64,
        help="with --serve: grid partitions per dimension (default 64)",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=128,
        help="with --serve: admission-control read queue depth",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="with --serve: micro-batch size cap (1 disables batching)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="K",
        help="with --serve: scatter-gather across K shard worker "
        "processes mapping the index from shared memory (1 = "
        "single-process, the default)",
    )
    parser.add_argument(
        "--telemetry",
        choices=("on", "off"),
        default="on",
        help="with --serve: live telemetry (request traces, tile heat, "
        "slow-query log, per-verb latency histograms; default on)",
    )
    parser.add_argument(
        "--slowlog-ms",
        type=float,
        default=100.0,
        help="with --serve: capture requests slower than this in the "
        "slow-query log (default 100)",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="with --serve: also serve Prometheus text on "
        "http://127.0.0.1:PORT/metrics (0 picks a free port, announced "
        "on stdout)",
    )
    parser.add_argument(
        "--top",
        metavar="HOST:PORT",
        help="live console against a running server (qps, per-verb "
        "latency percentiles, hot tiles); refresh with --interval",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="with --top: refresh interval in seconds (default 2)",
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="with --top: stop after N refreshes (default: run until ^C)",
    )
    args = parser.parse_args(argv)

    if args.top:
        return _top(args)
    if args.serve:
        return _serve(args)
    if args.explain:
        return _print_explain(args)

    print(f"repro {__version__} self-check: n={args.n:,}, seed={args.seed}")
    data = generate_uniform_rects(args.n, area=1e-8, seed=args.seed)
    queries = generate_window_queries(data, args.queries, 0.1, seed=args.seed)

    methods = [
        ("2-layer", lambda: TwoLayerGrid.build(data, partitions_per_dim=64)),
        ("2-layer+", lambda: TwoLayerPlusGrid.build(data, partitions_per_dim=64)),
        ("1-layer", lambda: OneLayerGrid.build(data, partitions_per_dim=64)),
        ("quad-tree", lambda: QuadTree.build(data)),
        ("quad-tree 2L", lambda: TwoLayerQuadTree.build(data)),
        ("kd-tree", lambda: KDTree.build(data)),
        ("kd-tree 2L", lambda: TwoLayerKDTree.build(data)),
        ("R-tree", lambda: RTree.build(data)),
        ("BLOCK", lambda: BlockIndex.build(data)),
    ]
    if not args.skip_slow:
        methods.append(("R*-tree", lambda: RStarTree.build(data)))
        methods.append(("MXCIF", lambda: MXCIFQuadTree.build(data)))

    reference = None
    print(f"\n{'method':<14} {'build[s]':>9} {'throughput[q/s]':>16}")
    print("-" * 42)
    for name, build in methods:
        t0 = time.perf_counter()
        index = build()
        build_s = time.perf_counter() - t0
        got = set(index.window_query(queries[0]).tolist())
        if reference is None:
            reference = got
        if got != reference:
            print(f"{name:<14} FAILED cross-validation!", file=sys.stderr)
            return 1
        t0 = time.perf_counter()
        for w in queries:
            index.window_query(w)
        qps = len(queries) / (time.perf_counter() - t0)
        print(f"{name:<14} {build_s:>9.2f} {qps:>16,.0f}")

    print("\nall indexes agree — installation OK")

    if args.profile:
        _print_profile(data, queries, as_json=args.json)
    return 0


def _serve(args) -> int:
    """Run the concurrent query service (``--serve HOST:PORT``).

    Announces ``serving on HOST:PORT ...`` on stdout once the socket is
    bound (PORT resolves 0 to the picked port), then serves until
    SIGTERM/SIGINT, draining in-flight requests before exiting 0.
    """
    import asyncio

    from repro.api import SpatialCollection
    from repro.server import ServerConfig, SpatialQueryService

    host, sep, port = args.serve.rpartition(":")
    if not sep or not port.lstrip("-").isdigit():
        print(f"--serve expects HOST:PORT, got {args.serve!r}", file=sys.stderr)
        return 2
    boot: "dict[str, float]" = {}
    if args.index:
        t0 = time.perf_counter()
        col = SpatialCollection.load(args.index, timings=boot)
        boot["total_ms"] = (time.perf_counter() - t0) * 1e3
        source = args.index
    else:
        data = generate_uniform_rects(args.n, area=1e-6, seed=args.seed)
        col = SpatialCollection.from_dataset(
            data, partitions_per_dim=args.partitions
        )
        source = f"synthetic n={args.n} seed={args.seed}"
    config = ServerConfig(
        host=host,
        port=int(port),
        queue_depth=args.queue_depth,
        max_batch=args.max_batch,
        telemetry=args.telemetry == "on",
        slowlog_ms=args.slowlog_ms,
        metrics_port=args.metrics_port,
    )
    if args.shards > 1:
        from repro.shard import ShardedQueryService

        service: SpatialQueryService = ShardedQueryService(
            col.index, col.data, config, shards=args.shards
        )
    else:
        service = SpatialQueryService(col.index, col.data, config)
    for key, value in boot.items():
        # surfaces in the `stats` verb and /metrics as server.boot.*
        service.registry.gauge(f"server.boot.{key}").set(round(value, 3))

    def announce(svc: SpatialQueryService) -> None:
        bound_host, bound_port = svc.address
        print(
            f"serving on {bound_host}:{bound_port} "
            f"({source}, objects={len(col)}, "
            f"grid={col.index.grid.nx}x{col.index.grid.ny}, "
            f"max_batch={args.max_batch}, "
            f"queue_depth={args.queue_depth}, telemetry={args.telemetry}, "
            f"shards={args.shards})",
            flush=True,
        )
        # after the serving line: spawn_server() keys on the first line
        if svc.metrics_http is not None:
            m_host, m_port = svc.metrics_http.address
            print(f"metrics on http://{m_host}:{m_port}/metrics", flush=True)
        if boot:
            print(
                f"boot from {source}: read={boot.get('read_ms', 0.0):.1f}ms "
                f"build={boot.get('build_ms', 0.0):.1f}ms "
                f"total={boot.get('total_ms', 0.0):.1f}ms",
                flush=True,
            )

    asyncio.run(service.run(ready=announce))
    print("drained and stopped", flush=True)
    return 0


def _top(args) -> int:
    """Run the live console (``--top HOST:PORT``) against a server."""
    from repro.server.admin import run_top

    host, sep, port = args.top.rpartition(":")
    if not sep or not port.isdigit():
        print(f"--top expects HOST:PORT, got {args.top!r}", file=sys.stderr)
        return 2
    try:
        run_top(
            host,
            int(port),
            interval_s=args.interval,
            iterations=args.iterations,
        )
    except KeyboardInterrupt:
        pass
    except (ConnectionError, OSError) as exc:
        print(f"--top: cannot reach {args.top}: {exc}", file=sys.stderr)
        return 1
    return 0


def _print_explain(args) -> int:
    """Build a demo collection and print EXPLAIN plans for sample queries."""
    from repro.api import SpatialCollection

    data = generate_uniform_rects(args.n, area=1e-6, seed=args.seed)
    queries = generate_window_queries(data, max(args.queries, 1), 0.1, seed=args.seed)
    col = SpatialCollection.from_dataset(data, partitions_per_dim=64)
    w = queries[0]
    cx = (w.xl + w.xu) / 2.0
    cy = (w.yl + w.yu) / 2.0
    other = SpatialCollection.from_dataset(
        generate_uniform_rects(
            min(args.n, 5_000), area=1e-6, seed=args.seed + 1
        ),
        partitions_per_dim=64,
    )
    plans = [
        col.window(w.xl, w.yl, w.xu, w.yu, explain=True),
        col.disk(cx, cy, (w.xu - w.xl) / 2.0, explain=True),
        col.knn(cx, cy, 10, explain=True),
        col.join(other, explain=True),
    ]
    if args.json:
        print(json.dumps([p.as_dict() for p in plans], indent=2))
    else:
        for plan in plans:
            print(plan.format_tree())
            print()
    return 0


def _print_profile(data, queries, as_json: bool = False) -> None:
    """Re-run the workload under the profiler and print the breakdown.

    Mid-batch query failures do not abort the run: each failing query is
    recorded on the profile (``prof.errors``), the remaining queries
    still execute, and the profile is marked *truncated* in both the
    console output and the JSON summary.
    """
    from repro.api import SpatialCollection
    from repro.obs.export import format_metrics_table

    col = SpatialCollection.from_dataset(data, partitions_per_dim=64)
    with col.profile() as prof:
        for w in queries:
            try:
                col.window(w.xl, w.yl, w.xu, w.yu)
            except Exception as exc:
                print(
                    f"warning: window query failed mid-batch: "
                    f"{type(exc).__name__}: {exc}",
                    file=sys.stderr,
                )
        cx = (data.xl.min() + data.xu.max()) / 2.0
        cy = (data.yl.min() + data.yu.max()) / 2.0
        try:
            col.knn(cx, cy, k=10)
        except Exception as exc:
            print(
                f"warning: kNN query failed mid-batch: "
                f"{type(exc).__name__}: {exc}",
                file=sys.stderr,
            )

    if prof.truncated:
        first = prof.errors[0]
        print(
            f"\n!!! profile TRUNCATED: {len(prof.errors)} quer"
            f"{'y' if len(prof.errors) == 1 else 'ies'} raised "
            f"(first: {first['kind']}: {first['error']}: {first['message']})"
        )
    print("\n=== profile: two-layer grid, per-phase span tree ===")
    print(prof.span_tree())
    summary = prof.latency_summary()
    print("=== profile: per-kind latency [ms] ===")
    header = f"{'kind':<10} {'count':>7} {'p50':>9} {'p95':>9} {'p99':>9}"
    print(header)
    print("-" * len(header))
    for kind, row in sorted(summary.items()):
        print(
            f"{kind:<10} {int(row['count']):>7} {row['p50']:>9.3f} "
            f"{row['p95']:>9.3f} {row['p99']:>9.3f}"
        )
    print()
    print(format_metrics_table(prof.registry), end="")
    if as_json:
        print("\n=== profile: JSON summary ===")
        print(json.dumps(prof.summary(), indent=2, default=str))


if __name__ == "__main__":
    raise SystemExit(main())
