"""Serving benchmark: micro-batched vs unbatched request throughput.

Spawns two ``python -m repro --serve`` subprocesses — one with batching
disabled (``--max-batch 1``) and one with the default micro-batcher
(first request plus whatever is already queued) — then drives each
with closed-loop client threads at several concurrency levels.  Records p50/p95/p99 latency and
aggregate throughput per (mode, clients) cell, plus an open-loop
overload phase against a deliberately tiny admission queue to show
backpressure rejects rather than hangs.

Run directly (not through pytest-benchmark)::

    PYTHONPATH=src python benchmarks/bench_serving.py

Results land in ``benchmarks/results/BENCH_serving.json``.  Two
acceptance bars: batched throughput >= 1.5x unbatched at the highest
concurrency level (the batcher amortises per-request event-loop and
tile-scan work across each batch, the serving analogue of the
paper's Section VI batch-evaluation speedups), and live telemetry —
request tracing, per-verb histograms, tile heat — must cost at most
``--max-telemetry-overhead`` percent of telemetry-off throughput
(default 3%; the comparison runs best-of ``--telemetry-reps`` per state
at the top concurrency level).  A sharded phase sweeps ``--shards``
counts (default 1 vs 4), spot-checks scatter-gather parity on every
verb, and gates on ``--min-shard-speedup`` — auto-relaxed to
record-only on hosts with fewer than 4 cores, where a worker fleet
cannot physically beat one process.  A boot phase (``--boot-n`` rows,
default 1M; ``--boot-only`` runs just this) saves the same collection
as both a columnar memmap container and a legacy npz archive, records
the ``--serve --index`` cold-start split (archive read vs index build)
from the server's ``server.boot.*`` gauges, and gates on the
columnar-vs-npz read speedup (``--min-boot-speedup``, default 50x,
record-only below 1M rows).  ``--telemetry-only`` skips the batching
sweep and overload phase for quick CI overhead checks.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import re
import signal
import subprocess
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from _shared import emit_bench_record  # noqa: E402

from repro.server.client import SpatialClient  # noqa: E402
from repro.server.protocol import decode_response, encode_request  # noqa: E402


def spawn_server(*extra: str) -> tuple[subprocess.Popen, str, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(REPO_ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "--serve", "127.0.0.1:0", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    line = proc.stdout.readline()
    m = re.search(r"serving on ([\d.]+):(\d+)", line)
    if not m:
        proc.kill()
        raise RuntimeError(f"server failed to start: {proc.stderr.read()}")
    return proc, m.group(1), int(m.group(2))


def stop_server(proc: subprocess.Popen) -> None:
    proc.send_signal(signal.SIGTERM)
    try:
        proc.communicate(timeout=20)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()


def client_windows(k: int, count: int, side: float) -> list[tuple]:
    rng = np.random.default_rng(1000 + k)
    xs = rng.uniform(0.0, 1.0 - side, size=count)
    ys = rng.uniform(0.0, 1.0 - side, size=count)
    return [
        (float(x), float(y), float(x + side), float(y + side))
        for x, y in zip(xs, ys)
    ]


class _MuxConn:
    """One TCP connection shared by several logical clients.

    The protocol echoes request ids, so responses may interleave across
    the logical clients pipelined on this socket; a single reader task
    demultiplexes frames back to per-request futures.  Sharing sockets
    is how a real service client behaves under fan-in, and it gives the
    server's per-connection response aggregation something to aggregate."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.waiters: dict = {}
        self._task = asyncio.ensure_future(self._read_loop())

    async def _read_loop(self):
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                frame = decode_response(line)
                fut = self.waiters.pop(frame.get("id"), None)
                if fut is not None and not fut.done():
                    fut.set_result(frame)
        except Exception as exc:  # fail every waiter loudly, never hang
            for fut in self.waiters.values():
                if not fut.done():
                    fut.set_exception(exc)
            self.waiters.clear()

    async def call(self, rid, payload: bytes) -> dict:
        fut = asyncio.get_event_loop().create_future()
        self.waiters[rid] = fut
        self.writer.write(payload)
        return await fut

    async def close(self):
        self._task.cancel()
        self.writer.close()


async def _logical_client(
    conn: _MuxConn, k: int, per_client: int, side: float
) -> tuple[list[float], int]:
    """One closed-loop logical client: send a count query, wait for its
    answer, repeat.  Counts are the serving workload where batching
    matters most — full query evaluation per request, but responses stay
    small enough that JSON encode/decode does not drown the amortised
    costs.  Frames are pre-encoded so the loop measures the server, not
    the generator's own json.dumps."""
    frames = [
        (
            k * 1_000_000 + i,
            encode_request(
                k * 1_000_000 + i,
                "count",
                {"xl": xl, "yl": yl, "xu": xu, "yu": yu},
            ),
        )
        for i, (xl, yl, xu, yu) in enumerate(
            client_windows(k, per_client, side)
        )
    ]
    latencies: list[float] = []
    retries = 0
    for rid, payload in frames:
        t0 = time.perf_counter()
        while True:
            frame = await conn.call(rid, payload)
            if frame["ok"]:
                break
            error = frame["error"]
            if error["code"] != "overloaded":
                raise RuntimeError(f"client {k}: {error}")
            retries += 1
            await asyncio.sleep(error.get("retry_after_ms", 10) / 1e3)
        latencies.append((time.perf_counter() - t0) * 1000.0)
    return latencies, retries


def closed_loop(
    host: str,
    port: int,
    clients: int,
    per_client: int,
    side: float,
    conns: int,
) -> dict:
    """``clients`` closed-loop logical clients, each issuing
    ``per_client`` count queries back to back, multiplexed over
    ``conns`` shared TCP connections.  The load generator is one asyncio
    event loop — a thread per client would bottleneck on the generator's
    own GIL and never saturate the server."""
    conns = min(conns, clients)

    async def drive():
        muxes = []
        for _ in range(conns):
            reader, writer = await asyncio.open_connection(host, port)
            muxes.append(_MuxConn(reader, writer))
        t0 = time.perf_counter()
        try:
            results = await asyncio.gather(
                *(
                    _logical_client(
                        muxes[k % conns], k, per_client, side
                    )
                    for k in range(clients)
                )
            )
            wall = time.perf_counter() - t0
        finally:
            for mux in muxes:
                await mux.close()
        return results, wall

    results, wall = asyncio.run(drive())
    retries = sum(r for _, r in results)
    flat = np.asarray([ms for per, _ in results for ms in per])
    return {
        "clients": clients,
        "conns": conns,
        "requests": int(flat.size),
        "throughput_rps": float(flat.size / wall),
        "p50_ms": float(np.percentile(flat, 50)),
        "p95_ms": float(np.percentile(flat, 95)),
        "p99_ms": float(np.percentile(flat, 99)),
        "overload_retries": int(retries),
        "wall_s": float(wall),
    }


def overload_phase(n: int, seed: int) -> dict:
    """Open-loop: pipeline far more requests than a tiny queue admits
    while one batch executes; the server must answer every frame — a mix
    of results and structured ``overloaded`` rejections, never a hang."""
    proc, host, port = spawn_server(
        "--n", str(n), "--seed", str(seed),
        "--queue-depth", "8", "--max-batch", "4",
    )
    # burst stays below the server's per-connection send-queue depth
    # (256): every response frame must fit in flight while this client
    # is still writing, or the server rightly drops us as a slow consumer.
    burst = 200
    try:
        with SpatialClient(host, port, timeout=60.0) as cli:
            for _ in range(burst):
                cli.send_raw("window",
                             {"xl": 0.1, "yl": 0.1, "xu": 0.3, "yu": 0.3})
            ok = rejected = 0
            for _ in range(burst):
                frame = cli.recv_raw()
                if frame["ok"]:
                    ok += 1
                elif frame["error"]["code"] == "overloaded":
                    rejected += 1
    finally:
        stop_server(proc)
    return {"burst": burst, "accepted": ok, "rejected": rejected}


def telemetry_phase(args) -> dict:
    """Telemetry-on vs telemetry-off throughput at the top concurrency.

    Each state gets its own server (identical flags apart from
    ``--telemetry``); both run concurrently (the idle one just sleeps
    on its event loop) and the ``--telemetry-reps`` closed-loop reps
    alternate between them, flipping order every round, so a slow
    machine window biases both states equally instead of whichever
    state happened to run first.  The best rep per state is compared,
    which filters scheduler noise the way the repo's other A/B
    benchmarks do.
    """
    top = max(args.clients)
    flags = [
        "--n", str(args.n), "--seed", str(args.seed),
        "--queue-depth", "4096", "--max-batch", "64",
    ]
    servers: dict[str, tuple] = {}
    best: dict[str, dict] = {}
    try:
        for state in ("on", "off"):
            servers[state] = spawn_server(*flags, "--telemetry", state)
            _, host, port = servers[state]
            with SpatialClient(host, port) as cli:
                cli.window(0.4, 0.4, 0.5, 0.5)  # warm off the clock
        for rep in range(args.telemetry_reps):
            order = ("on", "off") if rep % 2 == 0 else ("off", "on")
            for state in order:
                _, host, port = servers[state]
                cell = closed_loop(
                    host, port, top, args.per_client, args.side, args.conns
                )
                if (
                    state not in best
                    or cell["throughput_rps"] > best[state]["throughput_rps"]
                ):
                    best[state] = cell
                print(
                    f" telemetry={state:<3} rep={rep + 1} "
                    f"{cell['throughput_rps']:8.0f} req/s  "
                    f"p50={cell['p50_ms']:.2f}ms p99={cell['p99_ms']:.2f}ms"
                )
    finally:
        for proc, _, _ in servers.values():
            stop_server(proc)
    on_rps = best["on"]["throughput_rps"]
    off_rps = best["off"]["throughput_rps"]
    overhead_pct = (off_rps - on_rps) / off_rps * 100.0
    return {
        "clients": top,
        "reps": args.telemetry_reps,
        "on": best["on"],
        "off": best["off"],
        "on_rps": on_rps,
        "off_rps": off_rps,
        "overhead_pct": overhead_pct,
    }


def _parity_spot_check(
    addr_a: tuple[str, int], addr_b: tuple[str, int], seed: int, trials: int = 20
) -> dict:
    """Scatter-gather parity: every verb must answer identically on a
    single-process server and a sharded router over the same dataset."""
    rng = np.random.default_rng(seed)
    mismatches = 0
    with SpatialClient(*addr_a) as ca, SpatialClient(*addr_b) as cb:
        for _ in range(trials):
            xs = sorted(rng.uniform(0.0, 1.0, 2))
            ys = sorted(rng.uniform(0.0, 1.0, 2))
            w = (xs[0], ys[0], xs[1], ys[1])
            cx, cy = rng.uniform(0, 1), rng.uniform(0, 1)
            r = rng.uniform(0.01, 0.1)
            checks = (
                sorted(ca.window(*w)) == sorted(cb.window(*w)),
                sorted(ca.window(*w, predicate="within"))
                == sorted(cb.window(*w, predicate="within")),
                ca.count(*w) == cb.count(*w),
                sorted(ca.disk(cx, cy, r)) == sorted(cb.disk(cx, cy, r)),
                ca.knn(cx, cy, 10) == cb.knn(cx, cy, 10),
            )
            mismatches += sum(1 for okay in checks if not okay)
    return {"trials": trials, "verbs": 5, "mismatches": mismatches}


def sharded_phase(args) -> dict:
    """Sharded router vs single-process read throughput, plus a
    scatter-gather parity spot check on every verb.

    The speedup gate only engages on machines with enough cores to host
    the worker fleet (``--min-shard-speedup`` defaults to 2.5x at >= 4
    available cores, 0 below — a single-core runner still measures and
    records, it just cannot fail on a number the hardware cannot hit).
    """
    top = max(args.clients)
    flags = [
        "--n", str(args.n), "--seed", str(args.seed),
        "--queue-depth", "4096", "--max-batch", "64",
    ]
    sweep = sorted(set(args.shards_sweep))
    servers: dict[int, tuple] = {}
    cells: dict[int, dict] = {}
    try:
        for k in sweep:
            extra = ["--shards", str(k)] if k > 1 else []
            servers[k] = spawn_server(*flags, *extra)
            _, host, port = servers[k]
            with SpatialClient(host, port) as cli:
                cli.window(0.4, 0.4, 0.5, 0.5)  # warm off the clock
        parity = _parity_spot_check(
            servers[sweep[0]][1:], servers[sweep[-1]][1:], args.seed
        )
        for k in sweep:
            _, host, port = servers[k]
            cell = closed_loop(
                host, port, top, args.per_client, args.side, args.conns
            )
            cells[k] = cell
            print(
                f"  shards={k:<2d} {cell['throughput_rps']:8.0f} req/s  "
                f"p50={cell['p50_ms']:.2f}ms p99={cell['p99_ms']:.2f}ms"
            )
    finally:
        for proc, _, _ in servers.values():
            stop_server(proc)
    base = cells[sweep[0]]["throughput_rps"]
    peak_k = max(cells, key=lambda k: cells[k]["throughput_rps"])
    speedup = cells[peak_k]["throughput_rps"] / base
    return {
        "clients": top,
        "sweep": {str(k): cells[k] for k in sweep},
        "parity": parity,
        "base_rps": base,
        "best_shards": peak_k,
        "speedup": speedup,
        "cores": os.cpu_count() or 1,
    }


def boot_phase(n: int, seed: int) -> dict:
    """Cold-start timing: columnar (memmap) vs legacy npz boot.

    Builds one collection, saves it in both formats, then (a) times the
    npz read in-process via ``load_collection`` timings — decompression
    dominates and needs no server around it — and (b) boots a real
    ``--serve --index`` subprocess from the columnar container and reads
    the ``server.boot.*`` gauges off the ``stats`` verb.  The headline
    number is ``read_speedup = npz read_ms / columnar read_ms``: the
    memmap container maps instead of decompressing, so the ratio grows
    with the archive and is the tentpole acceptance gate at >= 1M rows.
    """
    import tempfile

    from repro.api import SpatialCollection
    from repro.core.persistence import load_collection, save_collection
    from repro.datasets import generate_uniform_rects

    data = generate_uniform_rects(n, area=1e-6, seed=seed)
    col = SpatialCollection.from_dataset(data, partitions_per_dim=64)
    with tempfile.TemporaryDirectory() as tmp:
        npz_path = os.path.join(tmp, "bench_boot.npz")
        col_path = os.path.join(tmp, "bench_boot.idx")
        save_collection(col.index, col.data, npz_path, format="npz")
        save_collection(col.index, col.data, col_path)
        npz_bytes = os.path.getsize(npz_path)
        archive_bytes = os.path.getsize(col_path)

        npz_timings: dict = {}
        load_collection(npz_path, timings=npz_timings)

        proc, host, port = spawn_server("--index", col_path)
        try:
            with SpatialClient(host, port) as cli:
                metrics = cli.stats()["metrics"]
        finally:
            stop_server(proc)
    read_ms = metrics["server.boot.read_ms"]
    return {
        "objects": n,
        "archive_bytes": archive_bytes,
        "npz_bytes": npz_bytes,
        "read_ms": read_ms,
        "build_ms": metrics["server.boot.build_ms"],
        "total_ms": metrics["server.boot.total_ms"],
        "npz_read_ms": npz_timings["read_ms"],
        "npz_build_ms": npz_timings["build_ms"],
        "read_speedup": npz_timings["read_ms"] / max(read_ms, 1e-9),
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=30_000, help="dataset size")
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument(
        "--clients", type=int, nargs="+", default=[4, 16, 32],
        help="closed-loop concurrency levels (acceptance reads the last)",
    )
    parser.add_argument(
        "--per-client", type=int, default=60,
        help="requests each closed-loop client issues",
    )
    parser.add_argument(
        "--side", type=float, default=0.04,
        help="query window side length (unit domain)",
    )
    parser.add_argument(
        "--conns", type=int, default=8,
        help="TCP connections the logical clients share (id-multiplexed)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=1.5,
        help="exit non-zero below this batched/unbatched ratio "
             "(0 disables the gate, e.g. on shared CI runners)",
    )
    parser.add_argument(
        "--shards-sweep", type=int, nargs="+", default=[1, 4],
        metavar="K",
        help="shard counts for the sharded-router phase "
             "(1 = plain single-process baseline)",
    )
    parser.add_argument(
        "--min-shard-speedup", type=float, default=None,
        help="exit non-zero below this sharded/single read-throughput "
             "ratio; default auto: 2.5 with >= 4 cores, 0 (record only) "
             "below",
    )
    parser.add_argument(
        "--telemetry", choices=("on", "off", "both"), default="both",
        help="'both' (default) adds the telemetry-overhead comparison; "
             "'on'/'off' just set the state for the batching sweep",
    )
    parser.add_argument(
        "--telemetry-reps", type=int, default=6,
        help="closed-loop reps per telemetry state (best rep compared)",
    )
    parser.add_argument(
        "--max-telemetry-overhead", type=float, default=3.0,
        help="exit non-zero when telemetry-on throughput trails "
             "telemetry-off by more than this percentage "
             "(0 disables the gate, e.g. on shared CI runners)",
    )
    parser.add_argument(
        "--telemetry-only", action="store_true",
        help="run only the telemetry-overhead comparison (CI smoke)",
    )
    parser.add_argument(
        "--sharded-only", action="store_true",
        help="run only the sharded-router phase (CI shard smoke)",
    )
    parser.add_argument(
        "--boot-n", type=int, default=1_000_000,
        help="dataset size for the cold-start boot phase (the memmap "
             "vs npz read gate needs >= 1M rows to be meaningful)",
    )
    parser.add_argument(
        "--min-boot-speedup", type=float, default=50.0,
        help="exit non-zero when columnar read_ms is not at least this "
             "many times faster than the npz read; auto-relaxed to "
             "record-only when --boot-n < 1M (0 disables)",
    )
    parser.add_argument(
        "--boot-only", action="store_true",
        help="run only the cold-start boot phase (columnar vs npz)",
    )
    args = parser.parse_args(argv)

    if args.boot_only:
        boot_gate = args.min_boot_speedup if args.boot_n >= 1_000_000 else 0.0
        print(
            f"index boot phase (--serve --index cold start, "
            f"n={args.boot_n}, gate={boot_gate:.0f}x):"
        )
        boot = boot_phase(args.boot_n, args.seed)
        print(
            f"  columnar read={boot['read_ms']:.2f}ms "
            f"build={boot['build_ms']:.1f}ms "
            f"total={boot['total_ms']:.1f}ms "
            f"({boot['archive_bytes'] / 1e6:.1f} MB container)\n"
            f"  npz      read={boot['npz_read_ms']:.1f}ms "
            f"build={boot['npz_build_ms']:.1f}ms "
            f"({boot['npz_bytes'] / 1e6:.1f} MB archive)\n"
            f"  read speedup: {boot['read_speedup']:.0f}x"
        )
        path = emit_bench_record(
            "serving_boot",
            params={
                "boot_n": args.boot_n,
                "seed": args.seed,
                "min_boot_speedup": boot_gate,
            },
            series={"boot": boot},
        )
        print(f"wrote {path}")
        if boot_gate > 0 and boot["read_speedup"] < boot_gate:
            print(
                f"FAIL: columnar read speedup {boot['read_speedup']:.1f}x "
                f"below the {boot_gate:.0f}x gate"
            )
            return 1
        return 0

    if args.sharded_only:
        gate = args.min_shard_speedup
        if gate is None:
            gate = 2.5 if (os.cpu_count() or 1) >= 4 else 0.0
        print(
            f"sharded router phase (sweep={args.shards_sweep}, "
            f"gate={gate:.1f}x):"
        )
        sh = sharded_phase(args)
        print(
            f"\nspeedup at {sh['best_shards']} shards: {sh['speedup']:.2f}x  "
            f"parity mismatches: {sh['parity']['mismatches']}/"
            f"{sh['parity']['trials'] * sh['parity']['verbs']}"
        )
        path = emit_bench_record(
            "serving_sharded",
            params={
                "n": args.n,
                "seed": args.seed,
                "clients": max(args.clients),
                "per_client": args.per_client,
                "window_side": args.side,
                "conns": args.conns,
                "shards_sweep": args.shards_sweep,
                "min_shard_speedup": gate,
            },
            series={"sharded": sh},
        )
        print(f"wrote {path}")
        if sh["parity"]["mismatches"] > 0:
            print("FAIL: sharded scatter-gather diverged from single-process")
            return 1
        if gate > 0 and sh["speedup"] < gate:
            print(
                f"FAIL: sharded speedup {sh['speedup']:.2f}x below "
                f"the {gate:.1f}x gate"
            )
            return 1
        return 0

    if args.telemetry_only:
        print("telemetry overhead (closed loop, batched):")
        tel = telemetry_phase(args)
        print(
            f"\ntelemetry on={tel['on_rps']:.0f} req/s "
            f"off={tel['off_rps']:.0f} req/s "
            f"overhead={tel['overhead_pct']:.2f}%"
        )
        path = emit_bench_record(
            "serving_telemetry",
            params={
                "n": args.n,
                "seed": args.seed,
                "clients": max(args.clients),
                "per_client": args.per_client,
                "window_side": args.side,
                "conns": args.conns,
                "reps": args.telemetry_reps,
            },
            series={"telemetry": tel},
        )
        print(f"wrote {path}")
        if (
            args.max_telemetry_overhead > 0
            and tel["overhead_pct"] > args.max_telemetry_overhead
        ):
            print(
                f"FAIL: telemetry overhead {tel['overhead_pct']:.2f}% "
                f"exceeds {args.max_telemetry_overhead:.1f}%"
            )
            return 1
        return 0

    modes = {
        "unbatched": ["--max-batch", "1"],
        "batched": ["--max-batch", "64"],
    }
    sweep_telemetry = "off" if args.telemetry == "off" else "on"
    common = [
        "--n", str(args.n), "--seed", str(args.seed),
        "--queue-depth", "4096", "--telemetry", sweep_telemetry,
    ]
    series: dict[str, dict] = {}
    for mode, flags in modes.items():
        proc, host, port = spawn_server(*common, *flags)
        try:
            # warm the snapshot/caches off the clock
            with SpatialClient(host, port) as cli:
                cli.window(0.4, 0.4, 0.5, 0.5)
            for clients in args.clients:
                cell = closed_loop(
                    host, port, clients, args.per_client, args.side,
                    args.conns,
                )
                series[f"{mode}/c{clients}"] = cell
                print(
                    f"{mode:>10} clients={clients:<3d} "
                    f"{cell['throughput_rps']:8.0f} req/s  "
                    f"p50={cell['p50_ms']:.2f}ms "
                    f"p95={cell['p95_ms']:.2f}ms "
                    f"p99={cell['p99_ms']:.2f}ms"
                )
        finally:
            stop_server(proc)

    top = max(args.clients)
    ratio = (
        series[f"batched/c{top}"]["throughput_rps"]
        / series[f"unbatched/c{top}"]["throughput_rps"]
    )
    series["speedup"] = {"clients": top, "batched_over_unbatched": ratio}
    print(f"\nbatched/unbatched throughput at {top} clients: {ratio:.2f}x")

    print("\nopen-loop overload phase (queue_depth=8):")
    series["overload"] = overload_phase(args.n, args.seed)
    print(
        f"  burst={series['overload']['burst']} "
        f"accepted={series['overload']['accepted']} "
        f"rejected={series['overload']['rejected']}"
    )
    if series["overload"]["rejected"] == 0:
        print("  WARNING: expected some overload rejections, saw none")

    telemetry_ok = True
    if args.telemetry == "both":
        print("\ntelemetry overhead (closed loop, batched):")
        tel = telemetry_phase(args)
        series["telemetry"] = tel
        print(
            f"  on={tel['on_rps']:.0f} req/s off={tel['off_rps']:.0f} req/s "
            f"overhead={tel['overhead_pct']:.2f}% "
            f"(budget {args.max_telemetry_overhead:.1f}%)"
        )
        if (
            args.max_telemetry_overhead > 0
            and tel["overhead_pct"] > args.max_telemetry_overhead
        ):
            telemetry_ok = False
            print("  FAIL: telemetry overhead exceeds the budget")

    shard_gate = args.min_shard_speedup
    if shard_gate is None:
        shard_gate = 2.5 if (os.cpu_count() or 1) >= 4 else 0.0
    sharded_ok = True
    print(
        f"\nsharded router phase (sweep={args.shards_sweep}, "
        f"gate={shard_gate:.1f}x):"
    )
    sh = sharded_phase(args)
    series["sharded"] = sh
    print(
        f"  speedup at {sh['best_shards']} shards: {sh['speedup']:.2f}x  "
        f"parity mismatches: {sh['parity']['mismatches']}/"
        f"{sh['parity']['trials'] * sh['parity']['verbs']}"
    )
    if sh["parity"]["mismatches"] > 0:
        sharded_ok = False
        print("  FAIL: sharded scatter-gather diverged from single-process")
    if shard_gate > 0 and sh["speedup"] < shard_gate:
        sharded_ok = False
        print(
            f"  FAIL: sharded speedup {sh['speedup']:.2f}x "
            f"below the {shard_gate:.1f}x gate"
        )

    boot_gate = args.min_boot_speedup if args.boot_n >= 1_000_000 else 0.0
    print(
        f"\nindex boot phase (--serve --index cold start, "
        f"n={args.boot_n}, gate={boot_gate:.0f}x):"
    )
    boot = series["boot"] = boot_phase(args.boot_n, args.seed)
    print(
        f"  columnar read={boot['read_ms']:.2f}ms "
        f"build={boot['build_ms']:.1f}ms total={boot['total_ms']:.1f}ms "
        f"({boot['archive_bytes'] / 1e6:.1f} MB container)\n"
        f"  npz      read={boot['npz_read_ms']:.1f}ms "
        f"build={boot['npz_build_ms']:.1f}ms "
        f"({boot['npz_bytes'] / 1e6:.1f} MB archive)\n"
        f"  read speedup: {boot['read_speedup']:.0f}x"
    )
    boot_ok = True
    if boot_gate > 0 and boot["read_speedup"] < boot_gate:
        boot_ok = False
        print(
            f"  FAIL: columnar read speedup {boot['read_speedup']:.1f}x "
            f"below the {boot_gate:.0f}x gate"
        )

    path = emit_bench_record(
        "serving",
        params={
            "n": args.n,
            "seed": args.seed,
            "clients": args.clients,
            "per_client": args.per_client,
            "window_side": args.side,
            "conns": args.conns,
            "telemetry": sweep_telemetry,
            "telemetry_reps": args.telemetry_reps,
            "shards_sweep": args.shards_sweep,
            "min_shard_speedup": shard_gate,
            "boot_n": args.boot_n,
            "min_boot_speedup": boot_gate,
            "modes": {k: " ".join(v) for k, v in modes.items()},
        },
        series=series,
    )
    print(f"\nwrote {path}")
    ok = (
        ratio >= args.min_speedup
        and series["overload"]["rejected"] > 0
        and telemetry_ok
        and sharded_ok
        and boot_ok
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
