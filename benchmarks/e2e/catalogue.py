"""Names, units and bounds of everything the benchmark reports.

``BENCHMARK.json`` at the repo root is this catalogue in the driver's
format; ``test_e2e_smoke.py`` fails when the two drift apart.  Later issues
cite these names, so renaming one is a benchmark change of its own.
"""

from __future__ import annotations

__all__ = ["END_TO_END", "PER_LAYER", "WORKLOADS", "manifest"]

#: (name, why it exists) — one line each, <= 200 characters.
WORKLOADS = (
    (
        "lib_filter",
        "paper_mix over a memmap-loaded 1M-MBR container, far larger than CPU "
        "caches: core kernels and grid tile math do the work, server and shard none",
    ),
    (
        "lib_exact",
        "exact window/disk/knn over 50k linestrings that fit in cache: only "
        "workload where core.refinement and geometry dominate; an MBR-kernel win must not move it",
    ),
    (
        "lib_churn",
        "tiny window reads interleaved with col.insert/col.delete and a compact() "
        "per pass on an in-memory 1M index: read gains bought with write or compact cost show here",
    ),
    (
        "served",
        "serve_mix against python -m repro --serve with default flags on the 1M "
        "container: reads open loop at 400 req/s, reads+writes closed loop 2x8 "
        "callers; responses kept <=1.3k ids (64 KiB batch_r limit)",
    ),
    (
        "served_sharded",
        "same open-loop reads, server started with --shards 2: latency minus "
        "served's is the router-worker hop (2 cores: overhead, not speed-up); "
        "no writes, workers' snapshot rings blow up",
    ),
)

#: (name, unit, better, bound, meaning).  ``bound`` is the share of the
#: parent's median by which the metric may worsen before it is a regression.
END_TO_END = (
    (
        "setup_s", "s", "lower", 0.25,
        "import + generate + build (+ save + load, or + boot + connect): process "
        "start to first timed op; the build part is the best of five set-ups",
    ),
    (
        "throughput_ops_s", "ops/s", "higher", 0.20,
        "completed operations per second of timed wall (lib: whole pass incl. "
        "compaction, best pass; served: closed-loop phase B, fastest 1,000 completions)",
    ),
    (
        "op_p50_us", "us", "lower", 0.15,
        "median latency over every operation of the mix (lib: per call; served: "
        "open-loop phase A, timed from the due time)",
    ),
    (
        "op_p99_us", "us", "lower", 0.25,
        "99th percentile of the same (best pass / best open-loop segment)",
    ),
    (
        "window_p50_us", "us", "lower", 0.15,
        "median latency of the window operations alone",
    ),
    (
        "peak_rss_mb", "MB", "lower", 0.10,
        "VmHWM of the workload process (served*: summed over server, router and "
        "workers, read from /proc before SIGTERM)",
    ),
    (
        "index_bytes_per_object", "B", "lower", 0.01,
        "container file size (in-memory workloads: index.nbytes) per object — "
        "space traded for read speed shows here",
    ),
)

#: (name, unit, better, measured by, end-to-end metric it should move).
PER_LAYER = (
    ("datasets.generate_s", "s", "lower", "generate_tiger_standin(ROADS, 1M)", "setup_s, all"),
    ("grid.replicate_s", "s", "lower", "grid.base.replicate", "setup_s lib_churn/lib_exact"),
    ("grid.packed_from_rows_s", "s", "lower", "PackedStore.from_rows", "setup_s lib_churn/lib_exact"),
    ("grid.tile_range_us", "us", "lower", "GridPartitioner.tile_range_for_window", "window_p50_us lib_churn"),
    ("grid.replication_factor", "count", "lower", "index rows / objects", "index_bytes_per_object, peak_rss_mb"),
    ("grid.one_layer.window_us", "us", "lower", "OneLayerGrid.window_query on paper_mix windows", "none (paper shape)"),
    ("core.two_layer_plus.window_us", "us", "lower", "TwoLayerPlusGrid.window_query on paper_mix windows", "none (paper shape)"),
    ("core.build_s", "s", "lower", "TwoLayerGrid.build", "setup_s lib_churn"),
    ("core.window_us", "us", "lower", "TwoLayerGrid.window_query on paper_mix windows", "window_p50_us, throughput_ops_s lib_filter"),
    ("core.disk_us", "us", "lower", "TwoLayerGrid.disk_query", "op_p50_us, throughput_ops_s lib_filter"),
    ("core.count_us", "us", "lower", "TwoLayerGrid.count_window on the same windows as core.window_us", "op_p50_us, throughput_ops_s lib_filter"),
    ("core.knn_us", "us", "lower", "core.knn.knn_query", "op_p50_us, throughput_ops_s lib_filter"),
    ("core.rows_scanned_per_result", "count", "lower", "QueryStats.rects_scanned / results", "window_p50_us lib_filter"),
    ("core.comparisons_per_result", "count", "lower", "QueryStats.comparisons / results", "window_p50_us lib_filter"),
    ("core.tiles_per_query", "count", "lower", "QueryStats.partitions_visited / queries", "window_p50_us lib_filter"),
    ("core.duplicates_avoided_per_query", "count", "higher", "SpatialCollection.explain on 200 windows", "none (must never drop to 0)"),
    ("core.batch.tiles_based_us_per_query", "us", "lower", "evaluate_tiles_based on 16-window chunks of serve_mix", "throughput_ops_s served*"),
    ("core.batch.queries_based_us_per_query", "us", "lower", "evaluate_queries_based on the same chunks", "throughput_ops_s served*"),
    ("core.refinement.window_us", "us", "lower", "RefinementEngine.window", "window_p50_us lib_exact"),
    ("core.refinement.disk_us", "us", "lower", "RefinementEngine.disk", "op_p50_us lib_exact"),
    ("core.refinement.filter_only_us", "us", "lower", "RefinementBreakdown.filtering_time / queries", "window_p50_us lib_exact"),
    ("core.refinement.refined_fraction", "ratio", "lower", "RefinementBreakdown tests / candidates", "window_p50_us lib_exact"),
    ("geometry.linestring_rect_test_us", "us", "lower", "geometry_intersects_window on sampled candidates", "window_p50_us lib_exact"),
    ("core.insert_us", "us", "lower", "TwoLayerGrid.insert", "op_p99_us lib_churn"),
    ("core.delete_us", "us", "lower", "TwoLayerGrid.delete", "op_p99_us lib_churn"),
    ("core.compact_ms", "ms", "lower", "TwoLayerGrid.compact", "throughput_ops_s lib_churn"),
    ("core.window_overlay_us", "us", "lower", "TwoLayerGrid.window_query before compact", "window_p50_us lib_churn"),
    ("core.persistence.save_s", "s", "lower", "save_collection", "setup_s lib_filter, served*"),
    ("core.persistence.load_ms", "ms", "lower", "load_collection", "setup_s lib_filter, served*"),
    ("core.persistence.first_query_ms", "ms", "lower", "first window after load (page-in)", "setup_s lib_filter"),
    ("api.window_overhead_us", "us", "lower", "SpatialCollection.window p50 - core.window_us", "window_p50_us lib_filter"),
    ("api.disk_us", "us", "lower", "SpatialCollection.disk on paper_mix", "op_p50_us lib_filter"),
    ("api.count_us", "us", "lower", "SpatialCollection.count on paper_mix", "op_p50_us lib_filter"),
    ("api.knn_us", "us", "lower", "SpatialCollection.knn on paper_mix", "op_p50_us lib_filter"),
    ("api.insert_us", "us", "lower", "SpatialCollection.insert", "op_p99_us lib_churn (expected: ~all of it)"),
    ("api.delete_us", "us", "lower", "SpatialCollection.delete", "op_p99_us lib_churn"),
    ("server.protocol.decode_request_us", "us", "lower", "decode_request on serve_mix frames", "throughput_ops_s served*"),
    ("server.protocol.encode_response_us", "us", "lower", "encode_response on serve_mix results", "throughput_ops_s served*"),
    ("server.protocol.response_bytes_per_req", "B", "lower", "len(encode_response(...))", "throughput_ops_s served*"),
    ("server.snapshot.current_us", "us", "lower", "SnapshotStore.current", "op_p50_us served"),
    ("server.snapshot.insert_us", "us", "lower", "SnapshotStore.insert", "op_p99_us served*"),
    ("server.snapshot.delete_us", "us", "lower", "SnapshotStore.delete", "op_p99_us served*"),
    ("server.roundtrip_idle_us", "us", "lower", "one-at-a-time ping through SpatialClient", "floor of op_p50_us served"),
    ("server.write_p50_us", "us", "lower", "insert+delete latency in a traced closed loop", "throughput_ops_s served"),
    ("server.phase.queue_us", "us", "lower", "server.phases.queue_ms of traced responses", "op_p50_us served"),
    ("server.phase.coalesce_us", "us", "lower", "server.phases.coalesce_ms", "op_p50_us served (expected: most of it)"),
    ("server.phase.snapshot_pin_us", "us", "lower", "server.phases.snapshot_pin_ms", "op_p50_us served"),
    ("server.phase.kernel_us", "us", "lower", "server.phases.kernel_ms", "op_p50_us served"),
    ("server.phase.serialize_us", "us", "lower", "traces verb, phases.serialize_ms", "throughput_ops_s served*"),
    ("server.phase.unattributed_us", "us", "lower", "client span self time", "op_p50_us served"),
    ("server.batch_size_mean", "count", "higher", "stats verb before/after traced phase A", "throughput_ops_s served*"),
    ("server.overloaded_total", "count", "lower", "stats verb, server.rejected delta", "failed ops"),
    ("shard.phase.shard_us", "us", "lower", "server.phases.scatter_ms of a --shards 2 server", "op_p50_us served_sharded"),
    ("shard.fanout_mean", "count", "lower", "len(server.shards) of scattered responses", "op_p50_us served_sharded"),
    ("shard.wire.encode_frame_us", "us", "lower", "shard.wire.encode_frame on a batch_r", "throughput_ops_s served_sharded"),
    ("shard.wire.decode_frame_us", "us", "lower", "shard.wire.decode_frame on a batch_r", "throughput_ops_s served_sharded"),
    ("shard.wire.batch_r_bytes_per_req", "B", "lower", "len(batch_r frame) / requests", "throughput_ops_s served_sharded"),
    ("shard.route_us", "us", "lower", "shard.partition.bands_for_range", "op_p50_us served_sharded"),
    ("shard.banded.window_us", "us", "lower", "BandedTwoLayerGrid.window_query over one band", "op_p50_us served_sharded"),
    ("shard.boot_extra_s", "s", "lower", "sharded boot - single boot", "setup_s served_sharded"),
    ("bench.gen_lag_p99_us", "us", "lower", "open-loop generator lateness", "validity of the run"),
    ("bench.tracing_overhead_pct", "%", "lower", "traced vs untraced throughput of the workload", "validity of the run"),
)


def manifest(run_seconds: int = 16) -> dict:
    """The catalogue in ``BENCHMARK.json`` form."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound, _meaning in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b}
            for n, u, b, _by, _moves in PER_LAYER
        ],
    }
