"""Query mixes, the brute-force oracle and the in-process (``lib_*``) runners.

Everything is generated from the seed: the dataset (``repro.datasets``'
TIGER stand-in), the operation stream (query centres follow the data
distribution, §VII of the paper) and the order operations run in.  The
program under test only ever sees these generated inputs.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.api import SpatialCollection
from repro.datasets import (
    RectDataset,
    generate_disk_queries,
    generate_tiger_standin,
    generate_window_queries,
)
from repro.geometry import (
    Rect,
    geometry_distance_to_point,
    geometry_intersects_disk,
    geometry_intersects_window,
)

__all__ = [
    "EXACT_MIX",
    "Oracle",
    "Op",
    "PAPER_MIX",
    "SERVE_MIX",
    "SERVE_READ_MIX",
    "build_stream",
    "churn_windows",
    "generate_roads",
    "generate_roads_geom",
    "percentile_us",
    "run_lib_churn",
    "run_lib_reads",
    "setup_lib_churn",
    "setup_lib_exact",
    "setup_lib_filter",
]

#: every ORACLE_EVERY-th read is compared with the brute-force scan.
ORACLE_EVERY = 50

#: (verb, relative area in % of the map — or k for knn —, share in %).
PAPER_MIX = (
    ("window", 0.01, 40.0),
    ("window", 0.1, 20.0),
    ("window", 1.0, 5.0),
    ("disk", 0.01, 15.0),
    ("count", 0.1, 10.0),
    ("knn", 10, 10.0),
)
EXACT_MIX = (
    ("window", 0.1, 60.0),
    ("disk", 0.1, 30.0),
    ("knn", 10, 10.0),
)
# Responses stay <= ~1.3k ids and <= 16 requests are in flight on purpose:
# shard/router.py opens its internal listener with asyncio's default 64 KiB
# line limit, so a batch_r frame above ~8k ids kills the worker for good.
# Enlarge these windows in the benchmark PR that follows the fix.
SERVE_MIX = (
    ("window", 0.0001, 50.0),
    ("count", 0.01, 20.0),
    ("disk", 0.0001, 20.0),
    ("knn", 10, 5.0),
    ("insert", None, 2.5),
    ("delete", None, 2.5),
)

# Every worker of a sharded server keeps a ring of its last 64 snapshots and
# every insert copies the O(N) dataset columns, so at 1M objects each insert
# grows each worker by 32 MB: with serve_mix's writes a 2-shard server went
# to 4.2 GB RSS and 8 s write latency within one 6 s phase.  Until that is
# fixed, served_sharded sends serve_mix's reads only, in the same shares.
SERVE_READ_MIX = tuple(
    (verb, size, share / 0.95)
    for verb, size, share in SERVE_MIX
    if verb not in ("insert", "delete")
)

#: a delete is issued this many operations after the insert it undoes.
DELETE_LAG = 400

#: relative area [%] giving inserted rectangles a ROADS-like ~1e-5 side.
_OBJECT_AREA_PCT = 1e-8


#: The corpus is fixed, like the paper's TIGER extract; ``--seed`` drives
#: the traffic (which objects queries centre on, the order of operations,
#: what is inserted and deleted).  The stand-in's cluster layout is heavy
#: tailed — a few hundred Zipf-weighted metros whose spread varies 15x — so
#: a corpus per seed would move every metric by tens of percent from run
#: to run and bury what the program does.
CORPUS_SEED = 2015


def generate_roads(scale: float) -> RectDataset:
    """``roads1m`` at scale 1: 1,000,000 clustered MBRs (~121 MB container)."""
    return generate_tiger_standin("ROADS", scale=scale / 20.0, seed=CORPUS_SEED)


def generate_roads_geom(scale: float) -> RectDataset:
    """``roads_geom50k`` at scale 1: 50,000 linestrings (fits in cache)."""
    return generate_tiger_standin(
        "ROADS", scale=scale / 400.0, with_geometries=True, seed=CORPUS_SEED
    )


@dataclass(frozen=True)
class Op:
    """One operation of a stream.  ``ref`` links a delete to its insert."""

    verb: str
    args: tuple
    ref: int = -1


def build_stream(data: RectDataset, mix: tuple, n: int, seed: int) -> list[Op]:
    """``n`` operations drawn from ``mix`` in a seeded random order.

    Inserts and deletes are not shuffled: inserts are spaced evenly, and
    each delete follows the insert it undoes by ``DELETE_LAG`` operations
    (a quarter of the stream if that is less), so the id it needs has long
    been returned; an insert too close to the end of the stream for that
    keeps its object.
    """
    rng = np.random.default_rng(seed)
    ops: list[Op] = []
    n_pairs = 0
    for k, (verb, size, share) in enumerate(mix):
        count = int(round(n * share / 100.0))
        sub = seed * 1000 + k
        if verb == "delete":
            n_pairs = count
        elif verb in ("window", "count", "insert"):
            area = _OBJECT_AREA_PCT if verb == "insert" else size
            ops += [
                Op(verb, w.as_tuple())
                for w in generate_window_queries(data, count, area, seed=sub)
            ]
        else:  # disk, or knn: centres from the data distribution, size is k
            area = 0.01 if verb == "knn" else size
            ops += [
                Op(verb, (q.cx, q.cy, int(size) if verb == "knn" else q.radius))
                for q in generate_disk_queries(data, count, area, seed=sub)
            ]
    ops = [ops[i] for i in rng.permutation(len(ops))]
    if not n_pairs:
        return ops
    # Writes are spaced evenly through the shuffled reads: an insert costs
    # a hundred reads' worth of server time, so where a random shuffle
    # happened to put them would decide any short slice's throughput.
    ops = _interleave(
        [op for op in ops if op.verb != "insert"],
        [op for op in ops if op.verb == "insert"],
    )
    lag = min(DELETE_LAG, len(ops) // 4)
    paired = set([i for i, op in enumerate(ops) if op.verb == "insert"][:n_pairs])
    due: dict[int, int] = {}  # shuffled position -> where its insert ended up
    out: list[Op] = []
    for i, op in enumerate(ops):
        out.append(op)
        if i in paired and i + lag < len(ops):
            due[i + lag] = len(out) - 1
        if i in due:
            out.append(Op("delete", (), ref=due[i]))
    return out


def percentile_us(lat_ns: np.ndarray, q: float) -> float:
    return float(np.percentile(lat_ns, q)) / 1e3


# -- oracle ------------------------------------------------------------------


class Oracle:
    """Brute-force NumPy scan over the dataset MBRs (exact geometry test
    on top when the dataset carries geometries), tracking inserts/deletes.

    ``check`` returns ``None`` when a result is right — equal to the scan
    *as a set* and free of duplicate ids (the paper's exactly-once claim) —
    else a one-line description of the mismatch.
    """

    def __init__(self, data: RectDataset, spare: int = 0):
        n = len(data)
        self.n = n
        self.n_base = n
        self._cols = [
            np.concatenate([np.asarray(a), np.zeros(spare)])
            for a in (data.xl, data.yl, data.xu, data.yu)
        ]
        self.alive = np.ones(n + spare, dtype=bool)
        self.geometries = data.geometries

    def insert(self, rect: tuple) -> int:
        i = self.n
        for col, v in zip(self._cols, rect):
            col[i] = v
        self.alive[i] = True
        self.n = i + 1
        return i

    def delete(self, obj_id: int) -> None:
        self.alive[obj_id] = False

    def rect(self, obj_id: int) -> tuple:
        return tuple(float(col[obj_id]) for col in self._cols)

    def _view(self):
        n = self.n
        return (*(col[:n] for col in self._cols), self.alive[:n])

    def window_ids(self, xl: float, yl: float, xu: float, yu: float) -> np.ndarray:
        cxl, cyl, cxu, cyu, alive = self._view()
        ids = np.flatnonzero(
            (cxu >= xl) & (cxl <= xu) & (cyu >= yl) & (cyl <= yu) & alive
        )
        if self.geometries is not None:
            window = Rect(xl, yl, xu, yu)
            geoms = self.geometries
            ids = np.asarray(
                [i for i in ids if geometry_intersects_window(geoms[i], window)],
                dtype=np.int64,
            )
        return ids

    def mbr_dists2(self, cx: float, cy: float) -> np.ndarray:
        cxl, cyl, cxu, cyu, alive = self._view()
        dx = np.maximum(np.maximum(cxl - cx, 0.0), cx - cxu)
        dy = np.maximum(np.maximum(cyl - cy, 0.0), cy - cyu)
        d2 = dx * dx + dy * dy
        d2[~alive] = np.inf
        return d2

    def disk_ids(self, cx: float, cy: float, radius: float) -> np.ndarray:
        ids = np.flatnonzero(self.mbr_dists2(cx, cy) <= radius * radius)
        if self.geometries is not None:
            geoms = self.geometries
            ids = np.asarray(
                [i for i in ids if geometry_intersects_disk(geoms[i], cx, cy, radius)],
                dtype=np.int64,
            )
        return ids

    def knn_dists(self, cx: float, cy: float, k: int, got: np.ndarray):
        """``(distances of got, the k smallest true distances)``, sorted.

        With geometries the exact distance is only computed for objects
        whose MBR distance (a lower bound) does not exceed the largest
        distance in ``got`` — every object that could beat the answer.
        """
        mbr = np.sqrt(self.mbr_dists2(cx, cy))
        if self.geometries is None:
            return np.sort(mbr[got]), np.sort(np.partition(mbr, k - 1)[:k])
        geoms = self.geometries
        got_d = np.sort(
            [geometry_distance_to_point(geoms[int(i)], cx, cy) for i in got]
        )
        # (an MBR distance can exceed the exact one by an ulp or two)
        pool = np.flatnonzero(mbr <= got_d[-1] * (1 + 1e-9) + 1e-300)
        pool_d = np.sort(
            [geometry_distance_to_point(geoms[int(i)], cx, cy) for i in pool]
        )
        return got_d, pool_d[:k]

    def check(self, op: Op, result) -> "str | None":
        verb, a = op.verb, op.args
        if verb == "count":
            want = len(self.window_ids(*a))
            return None if int(result) == want else f"count {result} != {want}"
        got = np.asarray(result, dtype=np.int64)
        if len(np.unique(got)) != len(got):
            return f"{verb}: duplicate ids in result"
        if verb == "knn":
            k = a[2]
            if len(got) != min(k, int(self.alive[: self.n].sum())):
                return f"knn: {len(got)} ids for k={k}"
            got_d, want_d = self.knn_dists(a[0], a[1], k, got)
            ok = np.allclose(got_d, want_d, rtol=1e-9, atol=1e-15)
            return None if ok else "knn: distances differ from the k nearest"
        want = self.window_ids(*a) if verb == "window" else self.disk_ids(*a)
        if len(got) == len(want) and np.array_equal(np.sort(got), want):
            return None
        return f"{verb}: {len(got)} ids, brute force finds {len(want)}"


# -- environments ------------------------------------------------------------


@dataclass
class LibEnv:
    """What a ``lib_*`` workload runs against."""

    col: SpatialCollection
    data: RectDataset
    index_bytes: int
    exact: bool = False


def setup_lib_filter(scale: float, workdir: str) -> LibEnv:
    data = generate_roads(scale)
    path = os.path.join(workdir, "roads.idx")
    SpatialCollection.from_dataset(data).save(path)
    col = SpatialCollection.load(path)
    return LibEnv(col, data, os.path.getsize(path))


def setup_lib_exact(scale: float, workdir: str) -> LibEnv:
    data = generate_roads_geom(scale)
    col = SpatialCollection.from_dataset(data)
    return LibEnv(col, data, col.describe()["index_bytes"], exact=True)


def setup_lib_churn(scale: float, workdir: str) -> LibEnv:
    data = generate_roads(scale)
    col = SpatialCollection.from_dataset(data)
    return LibEnv(col, data, col.describe()["index_bytes"])


# -- timed loops -------------------------------------------------------------

_WRITES = ("insert", "delete")

#: a lib workload never reports from fewer passes than this.
MIN_PASSES = 3


@dataclass
class PassStats:
    """Per-pass measurements of a lib workload."""

    #: per pass: ``(verb of every operation, its latency [ns], timed wall
    #: [s], whether spans were recorded)``.
    passes: list[tuple[np.ndarray, np.ndarray, float, bool]] = field(
        default_factory=list
    )
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    _stamps: list[float] = field(default_factory=list)

    def add(
        self, ops: list[Op], lat_ns: np.ndarray, wall_ns: int, traced: bool
    ) -> None:
        verbs = np.asarray([op.verb for op in ops])
        self.passes.append((verbs, lat_ns, wall_ns / 1e9, traced))
        self.attempted += len(ops)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)

    def room_for_another_pass(self, t_end: float, tracing: bool) -> bool:
        """At least ``MIN_PASSES``; after that, only passes that fit.

        Called once before every pass, so the gaps between calls are what
        a pass costs in real time, off-the-clock checking included."""
        now = time.perf_counter()
        self._stamps.append(now)
        if len(self.passes) < MIN_PASSES * (2 if tracing else 1):
            return True
        return now + float(np.median(np.diff(self._stamps))) < t_end

    def summary(self) -> dict[str, float]:
        """The best untraced pass of each per-pass statistic.

        Best, not median: on a shared box a neighbour can only ever slow a
        pass down, and does so for seconds at a time, so the fastest of a
        dozen short passes repeats from run to run several times more
        closely than their median does.
        """
        rows: dict[str, list[float]] = {}
        for verbs, lat, wall, traced in self.passes:
            if traced:
                continue
            row = {
                "throughput_ops_s": len(lat) / wall,
                "op_p50_us": percentile_us(lat, 50),
                "op_p99_us": percentile_us(lat, 99),
            }
            for verb in np.unique(verbs):
                sub = lat[verbs == verb]
                row[f"{verb}_p50_us"] = percentile_us(sub, 50)
                row[f"{verb}_n"] = float(len(sub))
            row["window_p99_us"] = percentile_us(lat[verbs == "window"], 99)
            for key, value in row.items():
                rows.setdefault(key, []).append(value)
        out = {
            key: float(max(values) if key == "throughput_ops_s" else min(values))
            for key, values in rows.items()
        }
        out["passes"] = float(len(rows["op_p50_us"]))
        out["throughput_median_ops_s"] = float(np.median(rows["throughput_ops_s"]))
        rates = [len(lat) / wall for _v, lat, wall, traced in self.passes if traced]
        if rates:  # traced and untraced passes alternate in a traced run
            plain = out["throughput_ops_s"]
            out["tracing_overhead_pct"] = (plain - max(rates)) / plain * 100.0
        return out


def _calls(col: SpatialCollection, ops: list[Op], exact: bool = False) -> list[tuple]:
    """``(verb, bound method, args, kwargs)`` per operation."""
    kw = {"exact": True} if exact else {}
    bound = {
        "window": (col.window, kw),
        "disk": (col.disk, kw),
        "knn": (col.knn, kw),
        "count": (col.count, {}),
        "insert": (col.insert, {}),
        "delete": (col.delete, {}),
    }
    return [
        (
            op.verb,
            bound[op.verb][0],
            (Rect(*op.args),) if op.verb == "insert" else op.args,
            bound[op.verb][1],
        )
        for op in ops
    ]


def _warm_up(calls: list[tuple]) -> None:
    """Run the first 5% of a stream untimed: the fused query matrix is
    built lazily, so the first queries after a build, load or compact are
    several times slower than steady state."""
    for _verb, fn, args, kw in calls[: max(1, len(calls) // 20)]:
        fn(*args, **kw)


def _trace_this_pass(recorder, k: int) -> bool:
    """In a traced run every second pass records spans; the others give
    the untraced throughput the tracing overhead is measured against."""
    return recorder is not None and k % 2 == 1


def _timed_pass(calls: list[tuple], recorder, pass_no: int = 0) -> tuple:
    """Run every call once, timing each from outside.

    Under a recorder, operation ``i`` of pass ``p`` is request
    ``p * 1_000_000 + i`` in the span file.

    Returns ``(lat_ns, loop_ns, kept)``; ``kept`` holds the result of every
    ``ORACLE_EVERY``-th operation and of every write, for the oracle.
    """
    lat = np.empty(len(calls), dtype=np.int64)
    kept: dict[int, object] = {}
    now = time.perf_counter_ns
    base = pass_no * 1_000_000
    if recorder is not None:
        recorder.enabled = True  # the instance wrappers record only in here
    t_start = now()
    for i, (verb, fn, args, kw) in enumerate(calls):
        t0 = now()
        if recorder is None:
            result = fn(*args, **kw)
        else:
            with recorder.span("api." + verb, request=base + i):
                result = fn(*args, **kw)
        lat[i] = now() - t0
        if i % ORACLE_EVERY == 0 or verb in _WRITES:
            kept[i] = result
    loop_ns = now() - t_start
    if recorder is not None:
        recorder.enabled = False
    return lat, loop_ns, kept


def run_lib_reads(
    env: LibEnv,
    ops: list[Op],
    seconds: float,
    oracle: Oracle,
    recorder=None,
) -> PassStats:
    """Read-only passes over the same stream until ``seconds`` are used."""
    calls = _calls(env.col, ops, env.exact)
    _warm_up(calls)
    stats = PassStats()
    first: "dict[int, object] | None" = None
    t_end = time.perf_counter() + seconds
    while stats.room_for_another_pass(t_end, recorder is not None):
        traced = _trace_this_pass(recorder, len(stats.passes))
        lat, loop_ns, kept = _timed_pass(
            calls, recorder if traced else None, len(stats.passes)
        )
        stats.add(ops, lat, loop_ns, traced)
        for i, result in kept.items():
            if first is None:
                verdict = oracle.check(ops[i], result)
            elif np.array_equal(np.asarray(first[i]), np.asarray(result)):
                verdict = None  # already judged in the first pass
            else:
                verdict = "answer changed between passes over the same stream"
            if verdict is not None:
                stats.fail(f"op {i} {ops[i].verb}: {verdict}")
        if first is None:
            first = kept
    return stats


def churn_windows(data: RectDataset, n: int, seed: int) -> list[Op]:
    return [
        Op("window", w.as_tuple())
        for w in generate_window_queries(data, n, 0.001, seed=seed)
    ]


def _interleave(reads: list[Op], writes: list[Op]) -> list[Op]:
    """One write after every ``len(reads) / len(writes)`` reads."""
    every = max(1, len(reads) // max(1, len(writes)))
    pending = iter(writes)
    plan: list[Op] = []
    for i, op in enumerate(reads):
        plan.append(op)
        if (i + 1) % every == 0:
            write = next(pending, None)
            if write is not None:
                plan.append(write)
    plan.extend(pending)
    return plan


def run_lib_churn(
    env: LibEnv,
    reads: list[Op],
    n_writes: int,
    seconds: float,
    seed: int,
    oracle: Oracle,
    recorder=None,
) -> PassStats:
    """Passes of reads interleaved with inserts and deletes, then a compact.

    Every pass runs the same reads; pass ``p`` inserts its own ``n_writes``
    seeded rectangles and deletes its own slice of a seeded permutation of
    the base ids, so no pass deletes what another already removed.  The
    timed wall of a pass is the operation loop plus ``compact()``; write
    visibility and post-compaction answers are checked in between and
    after, off the clock.

    The untimed warm-up is a pass in miniature (5% of the reads, a fifth
    of the writes, one compact): the first overlay scan, the first O(N)
    insert and the first compaction each cost several times their steady
    state.
    """
    victims = np.random.default_rng(seed + 7).permutation(len(env.data))
    stats = PassStats()

    def one_pass(p: int, pass_reads: list[Op], n: int, lo: int, traced: bool):
        new = generate_window_queries(
            env.data, n, _OBJECT_AREA_PCT, seed=seed * 1000 + 500 + p
        )
        doomed = [int(v) for v in victims[lo : lo + n]]
        writes = [
            op
            for pair in zip(
                (Op("insert", r.as_tuple()) for r in new),
                (Op("delete", (d,)) for d in doomed),
            )
            for op in pair
        ]
        plan = _interleave(pass_reads, writes)
        return plan, *_churn_pass(
            env.col, oracle, plan, doomed, recorder if traced else None, p, stats
        )

    warm_writes = max(1, n_writes // 5)
    one_pass(-1, reads[: max(1, len(reads) // 20)], warm_writes, 0, False)
    t_end = time.perf_counter() + seconds
    p = 0
    while stats.room_for_another_pass(t_end, recorder is not None):
        traced = _trace_this_pass(recorder, p)
        plan, lat, wall_ns = one_pass(
            p, reads, n_writes, warm_writes + p * n_writes, traced
        )
        stats.add(plan, lat, wall_ns, traced)
        p += 1
    return stats


def _churn_pass(
    col: SpatialCollection,
    oracle: Oracle,
    plan: list[Op],
    doomed: list[int],
    recorder,
    pass_no: int,
    stats: PassStats,
) -> tuple[np.ndarray, int]:
    """Run one churn pass and check it; returns ``(lat_ns, timed wall_ns)``."""
    lat, loop_ns, kept = _timed_pass(_calls(col, plan), recorder, pass_no)

    # off the clock: replay the pass's writes against the oracle
    inserted: list[tuple[int, tuple]] = []
    for i, op in enumerate(plan):
        if op.verb == "insert":
            want_id = oracle.insert(op.args)
            inserted.append((want_id, op.args))
            if kept[i] != want_id:
                stats.fail(f"insert returned id {kept[i]}, expected {want_id}")
        elif op.verb == "delete":
            oracle.delete(op.args[0])
            if kept[i] is not True:
                stats.fail(f"delete({op.args[0]}) returned {kept[i]!r}")
    touched = np.asarray([i for i, _ in inserted] + doomed, dtype=np.int64)
    for i, result in kept.items():
        if plan[i].verb == "window":
            verdict = _check_midpass(oracle, plan[i], result, touched)
            if verdict is not None:
                stats.fail(f"pass {pass_no} op {i}: {verdict}")
    # every write must be visible both before and after compaction
    _check_visibility(col, oracle, inserted, doomed, "overlay", stats)
    t0 = time.perf_counter_ns()
    if recorder is None:
        col.index.compact()
    else:
        with recorder.span(
            "core.compact", request=pass_no * 1_000_000 + len(plan)
        ):
            col.index.compact()
    compact_ns = time.perf_counter_ns() - t0
    _check_visibility(col, oracle, inserted, doomed, "compacted", stats)
    reads = [op for op in plan if op.verb == "window"]
    for op in reads[:: ORACLE_EVERY * 4]:
        verdict = oracle.check(op, col.window(*op.args))
        if verdict is not None:
            stats.fail(f"pass {pass_no} after compact: {verdict}")
    return lat, loop_ns + compact_ns


def _check_visibility(
    col: SpatialCollection,
    oracle: Oracle,
    inserted: list,
    doomed: list,
    phase: str,
    stats: PassStats,
) -> None:
    """A follow-up window over each written rectangle sees the write."""
    for obj_id, rect in inserted:
        if obj_id not in col.window(*rect).tolist():
            stats.fail(f"{phase}: inserted id {obj_id} not visible")
    for obj_id in doomed:
        if obj_id in col.window(*oracle.rect(obj_id)).tolist():
            stats.fail(f"{phase}: deleted id {obj_id} still visible")


def _check_midpass(
    oracle: Oracle, op: Op, result, touched: np.ndarray
) -> "str | None":
    """A read taken while the pass's writes were landing: ids no write of
    the pass touches must match the scan exactly and appear once; touched
    ids may go either way, depending on where in the pass the read fell."""
    got = np.asarray(result, dtype=np.int64)
    if len(np.unique(got)) != len(got):
        return "window: duplicate ids in result"
    want = oracle.window_ids(*op.args)
    got = np.sort(got[~np.isin(got, touched)])
    want = want[~np.isin(want, touched)]
    if np.array_equal(got, want):
        return None
    return f"window: {len(got)} untouched ids, brute force finds {len(want)}"


# -- the three lib workloads ---------------------------------------------------


@dataclass
class Outcome:
    """What one measured run of a workload reports."""

    #: end-to-end metrics measured by the workload itself (the harness adds
    #: ``setup_s``, ``peak_rss_mb`` and ``index_bytes_per_object``).
    metrics: dict[str, float]
    #: further readings printed beside them (per-verb medians, sample counts).
    detail: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]


#: operations per pass at scale 1 — sized so a pass takes under a second
#: and a 10 s run holds about ten of them.
FILTER_OPS = 3000
EXACT_OPS = 4000
CHURN_READS = 1000
CHURN_WRITES = 25


def _scaled(count: int, scale: float, floor: int) -> int:
    return max(floor, int(round(count * scale)))


def install_spans(col: SpatialCollection, recorder) -> None:
    """Wrap, on these instances only, the public methods of the layers
    below the facade, so every ``api.*`` span gets ``core.*`` children."""
    index = col.index
    for attr in ("window_query", "disk_query", "count_window", "insert", "delete"):
        recorder.wrap(index, attr, f"core.{attr}")
    refiner = col._refiner  # the facade's engine has no public handle
    for attr in ("window", "disk", "knn"):
        recorder.wrap(refiner, attr, f"core.refinement.{attr}")
    recorder.enabled = False  # until a traced pass begins


def _outcome(stats: PassStats) -> Outcome:
    summary = stats.summary()
    names = ("throughput_ops_s", "op_p50_us", "op_p99_us", "window_p50_us")
    return Outcome(
        {name: summary.pop(name) for name in names},
        summary,
        stats.attempted,
        stats.failed,
        stats.problems,
    )


def _measure_reads(
    env: LibEnv, mix: tuple, ops_per_pass: int, seed: int, scale: float,
    seconds: float, recorder,
) -> Outcome:
    ops = build_stream(env.data, mix, _scaled(ops_per_pass, scale, 200), seed)
    if recorder is not None:
        install_spans(env.col, recorder)
    return _outcome(run_lib_reads(env, ops, seconds, Oracle(env.data), recorder))


def measure_lib_filter(env: LibEnv, seed: int, scale: float, seconds: float, recorder=None) -> Outcome:
    return _measure_reads(env, PAPER_MIX, FILTER_OPS, seed, scale, seconds, recorder)


def measure_lib_exact(env: LibEnv, seed: int, scale: float, seconds: float, recorder=None) -> Outcome:
    return _measure_reads(env, EXACT_MIX, EXACT_OPS, seed, scale, seconds, recorder)


def measure_lib_churn(env: LibEnv, seed: int, scale: float, seconds: float, recorder=None) -> Outcome:
    reads = churn_windows(env.data, _scaled(CHURN_READS, scale, 200), seed)
    n_writes = _scaled(CHURN_WRITES, scale, 5)
    # room for the inserts of more passes than any run can hold
    oracle = Oracle(env.data, spare=1000 * n_writes)
    if recorder is not None:
        install_spans(env.col, recorder)
    return _outcome(
        run_lib_churn(env, reads, n_writes, seconds, seed, oracle, recorder)
    )
