"""The per-layer table of a traced run.

Every number here is timed *from outside*, around a public call of the
layer it is named after, on the stream of the workload that owns the layer
(``paper_mix`` for the read kernels, ``serve_mix`` for batching, protocol
and sharding, the churn stream for updates, ``exact_mix`` for refinement).
The table is the same whichever workload's traced run computes it: the
probes generate their own inputs from the seed, so a reading never depends
on what the workload did to its collection first.

``catalogue.PER_LAYER`` says, for each metric, which end-to-end metric it
should move and where; on every other workload the prediction is no change.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.api import SpatialCollection
from repro.core import TwoLayerGrid, TwoLayerPlusGrid
from repro.core.batch import evaluate_queries_based, evaluate_tiles_based
from repro.core.knn import knn_query
from repro.core.persistence import load_collection, save_collection
from repro.core.refinement import RefinementBreakdown, RefinementEngine
from repro.datasets import DiskQuery
from repro.geometry import Rect, geometry_intersects_window
from repro.grid.base import replicate
from repro.grid.one_layer import OneLayerGrid
from repro.grid.storage import PackedStore
from repro.server.protocol import decode_request, encode_request, encode_response
from repro.server.snapshot import SnapshotStore
from repro.shard.partition import bands_for_range, plan_bands
from repro.shard.wire import decode_frame, encode_frame
from repro.shard.worker import build_worker_state
from repro.stats import QueryStats

import serving
import workloads as wl

__all__ = ["layer_table"]

#: queries per fast probe at scale 1 (slow probes use a fifth of it).
PROBE_QUERIES = 1000
#: seconds of traced open-loop traffic sent to each probe server.
PROBE_PHASE_S = 2.0


def _timed(fn, *args, **kwargs) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def _p50_us(fn, arg_tuples) -> float:
    """Median per-call time [us] of ``fn(*args)`` over ``arg_tuples``."""
    now = time.perf_counter_ns
    lat = []
    for args in arg_tuples:
        t0 = now()
        fn(*args)
        lat.append(now() - t0)
    return float(np.median(lat)) / 1e3


def _bulk_us(fn, arg_tuples) -> float:
    """Mean per-call time [us] for calls too short to time one by one."""
    t0 = time.perf_counter_ns()
    for args in arg_tuples:
        fn(*args)
    return (time.perf_counter_ns() - t0) / 1e3 / max(len(arg_tuples), 1)


def _of(ops: list, verb: str) -> list[tuple]:
    return [op.args for op in ops if op.verb == verb]


def layer_table(
    seed: int, scale: float, workdir: str, src_dir: str, recorder
) -> dict[str, float]:
    """Measure every per-layer metric; ``recorder`` receives the client
    and server-phase spans of the two probe servers."""
    out: dict[str, float] = {}
    n_fast = max(100, int(PROBE_QUERIES * scale))
    n_slow = max(40, n_fast // 5)

    # -- datasets, grid, build ------------------------------------------------
    out["datasets.generate_s"], roads = _timed(wl.generate_roads, scale)
    col = SpatialCollection.from_dataset(roads)  # picks granularity and domain
    grid = col.index.grid
    out["core.build_s"], index = _timed(
        TwoLayerGrid.build, roads, partitions_per_dim=grid.nx, domain=grid.domain
    )
    out["grid.replicate_s"], rep = _timed(replicate, roads, grid)
    out["grid.replication_factor"] = rep.total / len(roads)
    obj = rep.obj_ids
    cols = (roads.xl[obj], roads.yl[obj], roads.xu[obj], roads.yu[obj], obj)
    out["grid.packed_from_rows_s"], _ = _timed(
        PackedStore.from_rows,
        4 * grid.nx * grid.ny, 4, rep.tile_ids * 4 + rep.class_codes, *cols,
    )
    del rep, obj, cols

    paper = wl.build_stream(roads, wl.PAPER_MIX, n_fast, seed)
    windows = [Rect(*a) for a in _of(paper, "window")]
    out["grid.tile_range_us"] = _bulk_us(
        grid.tile_range_for_window, [(w,) for w in windows] * 10
    )

    # -- persistence ----------------------------------------------------------
    path = os.path.join(workdir, "probe_roads.idx")
    out["core.persistence.save_s"], _ = _timed(save_collection, index, roads, path)
    load_s, (lindex, _) = _timed(load_collection, path)
    out["core.persistence.load_ms"] = load_s * 1e3
    first_s, _ = _timed(lindex.window_query, windows[0])
    out["core.persistence.first_query_ms"] = first_s * 1e3

    # -- read kernels on paper_mix, over the loaded (memmap) index -------------
    lcol = SpatialCollection.load(path)
    lindex = lcol.index
    for w in windows[: max(1, len(windows) // 20)]:
        lindex.window_query(w)  # lazy query matrix built off the clock
    out["core.window_us"] = _p50_us(lindex.window_query, [(w,) for w in windows])
    out["core.disk_us"] = _p50_us(
        lindex.disk_query, [(DiskQuery(*a),) for a in _of(paper, "disk")]
    )
    # on the same windows as core.window_us: counting should not cost more
    out["core.count_us"] = _p50_us(lindex.count_window, [(w,) for w in windows])
    out["core.knn_us"] = _p50_us(
        knn_query, [(lindex, lcol.data, *a) for a in _of(paper, "knn")]
    )
    stats = QueryStats()
    results = sum(len(lindex.window_query(w, stats)) for w in windows)
    out["core.rows_scanned_per_result"] = stats.rects_scanned / max(results, 1)
    out["core.comparisons_per_result"] = stats.comparisons / max(results, 1)
    out["core.tiles_per_query"] = stats.partitions_visited / len(windows)
    out["core.duplicates_avoided_per_query"] = float(
        np.mean([lcol.explain(query=w).duplicates_avoided for w in windows[:200]])
    )

    api_window = _p50_us(lcol.window, [w.as_tuple() for w in windows])
    out["api.window_overhead_us"] = api_window - out["core.window_us"]
    out["api.disk_us"] = _p50_us(lcol.disk, _of(paper, "disk"))
    out["api.count_us"] = _p50_us(lcol.count, _of(paper, "count"))
    out["api.knn_us"] = _p50_us(lcol.knn, _of(paper, "knn"))

    # -- the paper's 2-layer : 1-layer : 2-layer+ shape ------------------------
    for name, cls in (
        ("grid.one_layer.window_us", OneLayerGrid),
        ("core.two_layer_plus.window_us", TwoLayerPlusGrid),
    ):
        other = cls.build(roads, partitions_per_dim=grid.nx, domain=grid.domain)
        for w in windows[: max(1, len(windows) // 20)]:
            other.window_query(w)
        out[name] = _p50_us(other.window_query, [(w,) for w in windows])
        del other

    # -- batch evaluation on serve_mix, 16 windows at a time -------------------
    serve = wl.build_stream(roads, wl.SERVE_MIX, 4 * n_fast, seed)
    tiny = [Rect(*op.args) for op in serve if op.verb in ("window", "count")]
    chunks = [(tiny[i : i + 16],) for i in range(0, len(tiny) - 15, 16)]
    out["core.batch.tiles_based_us_per_query"] = (
        _p50_us(lambda ws: evaluate_tiles_based(lindex, ws), chunks) / 16
    )
    out["core.batch.queries_based_us_per_query"] = (
        _p50_us(lambda ws: evaluate_queries_based(lindex, ws), chunks) / 16
    )

    # -- updates on the in-memory index, churn stream --------------------------
    out.update(_update_probes(index, col, roads, n_slow, seed))
    del index, col

    # -- refinement on exact geometries ---------------------------------------
    out.update(_refinement_probes(seed, scale, n_slow))

    # -- protocol, snapshots, wire --------------------------------------------
    out.update(_protocol_probes(lindex, serve))
    out.update(_snapshot_probes(lindex, lcol.data, serve, n_slow))
    out.update(_shard_probes(lindex, lcol.data, tiny, grid))

    # -- two probe servers over the probe container ----------------------------
    single = _server_probe(path, roads, 1, seed, workdir, src_dir, recorder)
    sharded = _server_probe(path, roads, 2, seed, workdir, src_dir, recorder)
    out.update(single)
    out["shard.phase.shard_us"] = sharded["shard.phase.shard_us"]
    out["shard.fanout_mean"] = sharded["shard.fanout_mean"]
    out["shard.boot_extra_s"] = sharded["boot_s"] - single["boot_s"]
    del out["boot_s"]
    return out


def _update_probes(
    index: TwoLayerGrid, col: SpatialCollection, roads, n: int, seed: int
) -> dict[str, float]:
    """Insert / overlay read / delete / compact, at both levels."""
    out: dict[str, float] = {}
    reads = [Rect(*op.args) for op in wl.churn_windows(roads, 10 * n, seed)]
    new = [Rect(*op.args) for op in wl.build_stream(roads, (("insert", None, 100.0),), n, seed)]
    for w in reads[: max(1, len(reads) // 20)]:
        index.window_query(w)
    out["core.insert_us"] = _p50_us(index.insert, [(r,) for r in new])
    out["core.window_overlay_us"] = _p50_us(index.window_query, [(w,) for w in reads])
    victims = np.random.default_rng(seed).permutation(len(roads))[:n]
    out["core.delete_us"] = _p50_us(
        index.delete, [(roads.rect(int(v)), int(v)) for v in victims]
    )
    compact_s = []
    for k in range(3):  # the overlay must be non-empty for compact to do work
        index.insert(new[k])
        compact_s.append(_timed(index.compact)[0])
    out["core.compact_ms"] = float(np.median(compact_s)) * 1e3
    out["api.insert_us"] = _p50_us(col.insert, [(r,) for r in new[: max(10, n // 4)]])
    out["api.delete_us"] = _p50_us(col.delete, [(int(v),) for v in victims])
    return out


def _refinement_probes(seed: int, scale: float, n: int) -> dict[str, float]:
    gdata = wl.generate_roads_geom(scale)
    gcol = SpatialCollection.from_dataset(gdata)
    engine = RefinementEngine(gcol.index, gdata)
    exact = wl.build_stream(gdata, wl.EXACT_MIX, 5 * n, seed)
    windows = [Rect(*a) for a in _of(exact, "window")]
    disks = [DiskQuery(*a) for a in _of(exact, "disk")]
    for w in windows[: max(1, len(windows) // 20)]:
        engine.window(w)
    track = RefinementBreakdown()
    out = {
        "core.refinement.window_us": _p50_us(
            lambda w: engine.window(w, breakdown=track), [(w,) for w in windows]
        ),
        "core.refinement.disk_us": _p50_us(engine.disk, [(q,) for q in disks]),
        "core.refinement.filter_only_us": track.filtering_time / track.queries * 1e6,
        "core.refinement.refined_fraction": track.refinement_tests
        / max(track.candidates, 1),
    }
    pairs = [
        (gdata.geometries[int(i)], w)
        for w in windows[:50]
        for i in gcol.index.window_query(w)[:20]
    ]
    out["geometry.linestring_rect_test_us"] = _bulk_us(geometry_intersects_window, pairs)
    return out


def _protocol_probes(index: TwoLayerGrid, serve: list) -> dict[str, float]:
    names = serving.ARG_NAMES
    reads = [op for op in serve if op.verb in ("window", "count", "disk", "knn")]
    frames = [
        (encode_request(i, op.verb, dict(zip(names[op.verb], op.args))),)
        for i, op in enumerate(reads)
    ]
    meta = {"snapshot": 0, "batch_size": 4}
    responses = []
    for i, op in enumerate(serve):
        if op.verb == "window":
            ids = index.window_query(Rect(*op.args))
            responses.append((i, {"ids": ids.tolist(), "count": len(ids)}, meta))
    sizes = [len(encode_response(*r)) for r in responses]
    return {
        "server.protocol.decode_request_us": _p50_us(decode_request, frames),
        "server.protocol.encode_response_us": _p50_us(encode_response, responses),
        "server.protocol.response_bytes_per_req": float(np.mean(sizes)),
    }


def _snapshot_probes(index: TwoLayerGrid, data, serve: list, n: int) -> dict[str, float]:
    store = SnapshotStore(index, data)
    rects = [Rect(*a) for a in _of(serve, "insert")][:n]
    new_ids: list[int] = []

    def insert(rect: Rect) -> None:
        new_ids.append(store.insert(rect)[0])

    out = {
        "server.snapshot.current_us": _bulk_us(lambda: store.current, [()] * 10000),
        "server.snapshot.insert_us": _p50_us(insert, [(r,) for r in rects]),
    }
    out["server.snapshot.delete_us"] = _p50_us(store.delete, [(i,) for i in new_ids])
    return out


def _shard_probes(index: TwoLayerGrid, data, tiny: list, grid) -> dict[str, float]:
    """Routing, one band's scan and the internal wire, on serve_mix windows."""
    # The CSR base has no public handle; the router reads it the same way.
    store = index._store
    bands = plan_bands(store.offsets[::4], 2)
    ranges = [grid.tile_range_for_window(w) for w in tiny]
    out = {
        "shard.route_us": _bulk_us(
            bands_for_range, [(bands, grid.nx, *r) for r in ranges] * 5
        )
    }
    manifest = {
        "domain": list(grid.domain.as_tuple()),
        "nx": grid.nx,
        "ny": grid.ny,
        "bands": [b.to_tuple() for b in bands],
        "n_objects": len(data),
    }
    views = {
        "offsets": store.offsets, "xl": store.xl, "yl": store.yl,
        "xu": store.xu, "yu": store.yu, "ids": store.ids,
        "data_xl": data.xl, "data_yl": data.yl, "data_xu": data.xu, "data_yu": data.yu,
    }
    banded, _ = build_worker_state(manifest, views, 0)
    for w in tiny[: max(1, len(tiny) // 20)]:
        banded.window_query(w)
    out["shard.banded.window_us"] = _p50_us(banded.window_query, [(w,) for w in tiny])

    frames = []
    for k in range(0, min(len(tiny), 640) - 15, 16):
        results = []
        for j, w in enumerate(tiny[k : k + 16]):
            ids = index.window_query(w)
            results.append(
                {"id": k + j, "ok": True, "result": {"ids": ids.tolist(), "count": len(ids)}}
            )
        frames.append(
            {"t": "batch_r", "bid": k, "epoch": 0, "kernel_ms": 0.5, "results": results}
        )
    lines = [encode_frame(f) for f in frames]
    out["shard.wire.encode_frame_us"] = _p50_us(encode_frame, [(f,) for f in frames])
    out["shard.wire.decode_frame_us"] = _p50_us(decode_frame, [(b,) for b in lines])
    out["shard.wire.batch_r_bytes_per_req"] = float(np.mean([len(b) for b in lines])) / 16
    return out


def _server_probe(
    path: str, roads, shards: int, seed: int, workdir: str, src_dir: str, recorder
) -> dict[str, float]:
    """Boot one server over the probe container, ping it idle, then send
    ``PROBE_PHASE_S`` of traced open-loop reads through it (and, unsharded,
    as long a traced closed loop of all of serve_mix, for the writes)."""
    server = serving.ServerProc(path, shards, workdir, src_dir)
    out: dict[str, float] = {"boot_s": server.boot_s}
    gen = None
    try:
        with server.client() as cli:
            out["server.roundtrip_idle_us"] = _p50_us(cli.ping, [()] * 300)
        gen = serving.LoadGen(server.host, server.port)
        env = serving.ServedEnv(server, gen, roads, os.path.getsize(path))
        n = max(200, int(serving.OPEN_LOOP_RATE * PROBE_PHASE_S))
        mixed = wl.build_stream(roads, wl.SERVE_MIX, 4 * n, seed + 5)
        reads = wl.build_stream(roads, wl.SERVE_READ_MIX, n, seed + 6)
        gen.run_closed(mixed[: n // 2] if shards == 1 else reads[: n // 2], PROBE_PHASE_S)
        _log, layer = serving.traced_open_phase(
            env, reads, recorder, request_base=shards * 10_000_000
        )
        out.update(layer)
        if shards == 1:  # writes: closed loop only, see serving.measure_served
            log = gen.run_closed(mixed, PROBE_PHASE_S, trace="w")
            out["server.write_p50_us"] = wl.percentile_us(
                log.latency_ns(log.verb_mask("insert", "delete")), 50
            )
    finally:
        if gen is not None:
            gen.close()
        problems = server.stop()
    if problems:
        raise RuntimeError(f"probe server ({shards} shard(s)): {problems}")
    return out
