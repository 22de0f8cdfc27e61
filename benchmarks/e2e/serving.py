"""The served workloads: server processes, the load generator, health guards.

The server is ``python -m repro --serve 127.0.0.1:0 --index <container>``
with default flags (plus ``--shards 2`` for ``served_sharded``).  Load
comes from this one process over two connections and no extra threads:
phase A is an open loop at a fixed rate (latency timed from each request's
*due* time, generator lateness reported), phase B a closed loop of
pipelined callers.
"""

from __future__ import annotations

import json
import os
import re
import selectors
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from repro.api import SpatialCollection
from repro.datasets import RectDataset
from repro.server.client import ServerError, SpatialClient
from repro.server.protocol import encode_request

from workloads import (
    ORACLE_EVERY,
    SERVE_MIX,
    SERVE_READ_MIX,
    Op,
    Oracle,
    Outcome,
    build_stream,
    generate_roads,
    percentile_us,
)

__all__ = [
    "LoadGen",
    "PhaseLog",
    "ServedEnv",
    "ServerProc",
    "check_phase",
    "check_read_your_writes",
    "measure_served",
    "setup_served",
    "teardown_served",
    "traced_open_phase",
]

CONNECTIONS = 2
# ISSUE 11 planned 800 req/s; on the 2-core box this benchmark was defined
# on, the default server completes ~1.2k req/s of serve_mix in a closed loop
# and overflows its default admission queue (depth 128) at 800 req/s open
# loop.  A workload on which operations fail measures nothing, so phase A
# runs at a third of closed-loop capacity.
OPEN_LOOP_RATE = 400.0
CALLERS_PER_CONNECTION = 8
#: give up on a phase when the server has been silent this long.
STALL_S = 20.0

ARG_NAMES = {
    "window": ("xl", "yl", "xu", "yu"),
    "count": ("xl", "yl", "xu", "yu"),
    "insert": ("xl", "yl", "xu", "yu"),
    "disk": ("cx", "cy", "radius"),
    "knn": ("cx", "cy", "k"),
    "delete": ("id",),
}
_WRITES = ("insert", "delete")


# -- server process ----------------------------------------------------------


def _shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _pid_alive(pid: int) -> bool:
    return os.path.exists(f"/proc/{pid}")


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process [MB]."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class ServerProc:
    """One ``python -m repro --serve`` process tree."""

    def __init__(self, index_path: str, shards: int, workdir: str, src_dir: str):
        self.shards = shards
        self._shm_before = _shm_entries()
        self.stderr_path = os.path.join(workdir, f"server_{shards}.stderr")
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        cmd = [
            sys.executable, "-m", "repro",
            "--serve", "127.0.0.1:0", "--index", index_path,
        ]
        if shards > 1:
            cmd += ["--shards", str(shards)]
        t0 = time.perf_counter()
        self._stderr = open(self.stderr_path, "wb")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._stderr, env=env
        )
        line = self.proc.stdout.readline().decode()
        match = re.search(r"serving on ([\d.]+):(\d+)", line)
        if not match:
            self.proc.kill()
            self.proc.wait()
            self._stderr.close()
            raise RuntimeError(
                f"server failed to start: {line!r}\n{self.stderr_tail()}"
            )
        self.boot_s = time.perf_counter() - t0
        self.host, self.port = match.group(1), int(match.group(2))
        self.worker_pids: list[int] = []
        if shards > 1:
            with self.client() as cli:
                self.worker_pids = list(cli.stats()["shards"]["pids"])

    def client(self) -> SpatialClient:
        return SpatialClient(self.host, self.port)

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of the server (router) and its workers."""
        return sum(_vm_hwm_mb(pid) for pid in [self.proc.pid, *self.worker_pids])

    def stderr_tail(self, lines: int = 30) -> str:
        try:
            with open(self.stderr_path, "rb") as fh:
                tail = fh.read().decode(errors="replace").splitlines()[-lines:]
        except OSError:
            return ""
        return "\n".join(tail)

    def stop(self) -> list[str]:
        """SIGTERM, wait, and report what the shutdown left behind."""
        problems: list[str] = []
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            problems.append("server ignored SIGTERM for 30 s and was killed")
        self._stderr.close()
        if self.proc.returncode != 0:
            problems.append(f"server exited with code {self.proc.returncode}")
        deadline = time.perf_counter() + 10.0
        left = [p for p in self.worker_pids if _pid_alive(p)]
        while left and time.perf_counter() < deadline:
            time.sleep(0.05)
            left = [p for p in left if _pid_alive(p)]
        for pid in left:
            problems.append(f"worker pid {pid} still alive after shutdown")
            os.kill(pid, signal.SIGKILL)
        leaked = _shm_entries() - self._shm_before
        if leaked:
            problems.append(f"/dev/shm gained {sorted(leaked)}")
        return problems


@dataclass
class ServedEnv:
    server: ServerProc
    gen: "LoadGen"
    data: RectDataset
    index_bytes: int
    #: summed VmHWM of the server tree, read before it is stopped.
    peak_rss_mb: float = 0.0


def setup_served(
    scale: float, workdir: str, src_dir: str, shards: int
) -> ServedEnv:
    """Generate, build, save, boot and connect."""
    data = generate_roads(scale)
    path = os.path.join(workdir, "roads.idx")
    SpatialCollection.from_dataset(data).save(path)
    server = ServerProc(path, shards, workdir, src_dir)
    try:
        gen = LoadGen(server.host, server.port)
    except OSError:
        server.stop()
        raise
    return ServedEnv(server, gen, data, os.path.getsize(path))


# -- load generator ----------------------------------------------------------


@dataclass
class PhaseLog:
    """Everything one phase sent and received."""

    ops: list[Op]
    #: when each request was due (open loop) or sent (closed loop) [ns].
    due_ns: np.ndarray
    #: how late each request left, open loop only [ns].
    lag_ns: np.ndarray
    #: when each response arrived [ns]; 0 = it never did.
    done_ns: np.ndarray
    ok: np.ndarray
    #: response frames kept for checking: every ORACLE_EVERY-th read,
    #: every write, and every frame of a traced phase.
    frames: dict[int, dict] = field(default_factory=dict)
    #: error frames by code.
    errors: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    t_start_ns: int = 0
    t_end_ns: int = 0

    @property
    def sent(self) -> np.ndarray:
        return self.due_ns > 0

    def latency_ns(self, mask: "np.ndarray | None" = None) -> np.ndarray:
        keep = self.ok if mask is None else (self.ok & mask)
        return (self.done_ns - self.due_ns)[keep]

    def verb_mask(self, *verbs: str) -> np.ndarray:
        return np.asarray([op.verb in verbs for op in self.ops])

    def fail(self, message: str) -> None:
        if len(self.problems) < 10:
            self.problems.append(message)


class LoadGen:
    """Single-threaded request generator over ``CONNECTIONS`` sockets."""

    def __init__(self, host: str, port: int):
        self._sel = selectors.DefaultSelector()
        self._socks: list[socket.socket] = []
        self._bufs: list[bytearray] = []
        for k in range(CONNECTIONS):
            sock = socket.create_connection((host, port), timeout=STALL_S)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._socks.append(sock)
            self._bufs.append(bytearray())
            self._sel.register(sock, selectors.EVENT_READ, k)
        #: id the server returned for the insert at a stream position.
        self._new_ids: dict[int, int] = {}
        #: ids inserted and not yet deleted, in insertion order.
        self.live: dict[int, None] = {}

    def close(self) -> None:
        self._sel.close()
        for sock in self._socks:
            sock.close()

    # -- plumbing ---------------------------------------------------------

    def _begin(self, ops: list[Op], trace: "str | None") -> PhaseLog:
        n = len(ops)
        self._log = PhaseLog(
            ops,
            np.zeros(n, dtype=np.int64),
            np.zeros(n, dtype=np.int64),
            np.zeros(n, dtype=np.int64),
            np.zeros(n, dtype=bool),
        )
        self._trace = trace
        self._new_ids = {}
        # everything but the deletes that wait for their insert's id is
        # encoded before the clock starts
        self._wire = [
            None
            if op.verb == "delete" and not op.args
            else encode_request(
                i,
                op.verb,
                dict(zip(ARG_NAMES[op.verb], op.args)),
                trace=self._trace_id(i),
            )
            for i, op in enumerate(ops)
        ]
        return self._log

    def _trace_id(self, i: int) -> "str | None":
        return None if self._trace is None else f"{self._trace}-{i}"

    def _send(self, i: int, conn: int) -> bool:
        """Send request ``i``; False when it cannot be built (a delete
        whose insert was never answered), which counts as a failed op."""
        payload = self._wire[i]
        if payload is None:
            new_id = self._new_ids.get(self._log.ops[i].ref)
            if new_id is None:
                self._log.fail(f"delete {i}: its insert has no answer yet")
                return False
            payload = encode_request(
                i,
                "delete",
                {"id": new_id},
                trace=self._trace_id(i),
            )
            self.live.pop(new_id, None)
        self._socks[conn].sendall(payload)
        return True

    def drain(self) -> PhaseLog:
        """Delete, off the clock, whatever is still inserted: a closed-loop
        segment that ends on its deadline leaves a few inserts without
        their delete, and the overlay they sit in would slow down every
        read of the next segment by a run-dependent amount."""
        ops = [Op("delete", (obj_id,)) for obj_id in self.live]
        self.live.clear()
        return self.run_closed(ops, STALL_S)

    def _poll(self, timeout: float) -> list[tuple[int, int]]:
        """Read what has arrived; returns ``(request, connection)`` pairs."""
        log = self._log
        finished: list[tuple[int, int]] = []
        for key, _events in self._sel.select(max(timeout, 0.0)):
            conn = key.data
            chunk = self._socks[conn].recv(1 << 20)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buf = self._bufs[conn]
            buf += chunk
            *lines, rest = bytes(buf).split(b"\n")
            self._bufs[conn] = bytearray(rest)
            for line in lines:
                t = time.perf_counter_ns()
                frame = json.loads(line)
                i = frame["id"]
                log.done_ns[i] = t
                verb = log.ops[i].verb
                if frame["ok"]:
                    log.ok[i] = True
                    if verb == "insert":
                        self._new_ids[i] = frame["result"]["id"]
                        self.live[frame["result"]["id"]] = None
                else:
                    code = frame["error"]["code"]
                    log.errors[code] = log.errors.get(code, 0) + 1
                    log.fail(f"request {i} {verb}: {frame['error']}")
                if (
                    self._trace is not None
                    or verb in _WRITES
                    or i % ORACLE_EVERY == 0
                ):
                    log.frames[i] = frame
                finished.append((i, conn))
        return finished

    # -- phases -----------------------------------------------------------

    def run_open(
        self, ops: list[Op], rate: float, trace: "str | None" = None
    ) -> PhaseLog:
        """Open loop: request ``i`` is due at ``start + i / rate`` whatever
        the server does; connection ``i % CONNECTIONS`` carries it."""
        log = self._begin(ops, trace)
        n = len(ops)
        now = time.perf_counter_ns
        interval = 1e9 / rate
        start = now() + 1_000_000
        log.t_start_ns = start
        sent = answered = skipped = 0
        last_progress = now()
        while answered + skipped < n:
            t = now()
            while sent < n and start + int(sent * interval) <= t:
                due = start + int(sent * interval)
                log.due_ns[sent] = due
                log.lag_ns[sent] = t - due
                if not self._send(sent, sent % CONNECTIONS):
                    skipped += 1
                sent += 1
                t = now()
            # Spin on a zero-timeout poll until the next request is due: a
            # timed wait oversleeps by 0.2-2 ms on small sandboxes, which
            # would make the generator, not the server, the late party.
            got = self._poll(0.0)
            if got:
                answered += len(got)
                last_progress = now()
            elif sent == n and now() - last_progress > STALL_S * 1e9:
                log.fail(f"{n - answered - skipped} requests never answered")
                break
        log.t_end_ns = now()
        return log

    def run_closed(
        self, ops: list[Op], seconds: float, trace: "str | None" = None
    ) -> PhaseLog:
        """Closed loop: ``CALLERS_PER_CONNECTION`` callers per connection,
        each sending its next request when its previous one is answered,
        until ``seconds`` have passed or the stream runs out."""
        log = self._begin(ops, trace)
        n = len(ops)
        now = time.perf_counter_ns
        start = now()
        log.t_start_ns = start
        deadline = start + int(seconds * 1e9)
        nxt = in_flight = 0

        def send_next(conn: int) -> None:
            nonlocal nxt, in_flight
            while nxt < n and now() < deadline:
                i = nxt
                nxt += 1
                log.due_ns[i] = now()
                if self._send(i, conn):
                    in_flight += 1
                    return
                log.done_ns[i] = log.due_ns[i]  # unbuildable: failed at once

        for _ in range(CALLERS_PER_CONNECTION):
            for conn in range(CONNECTIONS):
                send_next(conn)
        last_progress = now()
        while in_flight:
            got = self._poll(0.5)
            for _i, conn in got:
                in_flight -= 1
                send_next(conn)
            if got:
                last_progress = now()
            elif now() - last_progress > STALL_S * 1e9:
                log.fail(f"{in_flight} requests never answered")
                break
        log.t_end_ns = now()
        return log


# -- checking ----------------------------------------------------------------


def _rect_window_hit(rect: tuple, w: tuple) -> bool:
    return rect[2] >= w[0] and rect[0] <= w[2] and rect[3] >= w[1] and rect[1] <= w[3]


def _rect_point_dist2(rect: tuple, cx: float, cy: float) -> float:
    dx = max(rect[0] - cx, 0.0, cx - rect[2])
    dy = max(rect[1] - cy, 0.0, cy - rect[3])
    return dx * dx + dy * dy


def check_phase(log: PhaseLog, oracle: Oracle, inserted: dict) -> int:
    """Compare a phase's kept responses with the brute-force scan; returns
    the number of operations that failed (errors and refusals included).
    ``inserted`` (id -> rectangle) carries this generator's inserts across
    phases and gains this phase's.

    The base dataset is static — the stream only deletes what it inserted —
    so ids below ``oracle.n_base`` must match the scan exactly.  Ids above
    it are this stream's own inserts, landing concurrently with the reads:
    each one reported must satisfy the query; whether a given insert is
    *already* visible to a given read depends on timing.  Visibility in
    program order is checked separately by :func:`check_read_your_writes`.
    """
    failed = int(np.count_nonzero(log.sent & ~log.ok))
    n_base = oracle.n_base
    for i, frame in log.frames.items():
        if frame["ok"] and log.ops[i].verb == "insert":
            new_id = frame["result"]["id"]
            if new_id < n_base or new_id in inserted:
                failed += 1
                log.fail(f"insert {i}: id {new_id} is not fresh")
            inserted[new_id] = log.ops[i].args
    for i, frame in log.frames.items():
        op = log.ops[i]
        # a traced phase keeps every frame, for its spans; the scan still
        # only judges every ORACLE_EVERY-th read and every write
        if not frame["ok"] or (i % ORACLE_EVERY and op.verb not in _WRITES):
            continue
        verdict = _check_frame(op, frame["result"], oracle, n_base, inserted)
        if verdict is not None:
            failed += 1
            log.fail(f"request {i} {op.verb}: {verdict}")
    return failed


def _check_frame(
    op: Op, result: dict, oracle: Oracle, n_base: int, inserted: dict
) -> "str | None":
    verb, a = op.verb, op.args
    if verb == "insert":
        return None
    if verb == "delete":
        return None if result["found"] is True else "delete found nothing"
    if verb == "count":
        base = len(oracle.window_ids(*a))
        extra = sum(_rect_window_hit(r, a) for r in inserted.values())
        got = result["count"]
        return None if base <= got <= base + extra else f"count {got}, scan {base}"
    got = np.asarray(result["ids"], dtype=np.int64)
    if len(np.unique(got)) != len(got):
        return "duplicate ids in result"
    own = got[got >= n_base]
    if any(int(j) not in inserted for j in own):
        return "result holds an id nobody inserted"
    if verb == "knn":
        cx, cy, k = a
        if len(got) != k:
            return f"{len(got)} ids for k={k}"
        d2 = np.sort(
            [
                _rect_point_dist2(
                    inserted[int(j)] if j >= n_base else oracle.rect(int(j)), cx, cy
                )
                for j in got
            ]
        )
        want = np.sort(np.partition(oracle.mbr_dists2(cx, cy), k - 1)[:k])
        # concurrent inserts can only bring neighbours closer
        if len(own) == 0 and not np.allclose(d2, want, rtol=1e-9, atol=1e-30):
            return "distances differ from the k nearest"
        return None if np.all(d2 <= want * (1 + 1e-9) + 1e-30) else "not the k nearest"
    if verb == "window":
        want = oracle.window_ids(*a)
        bad = [j for j in own if not _rect_window_hit(inserted[int(j)], a)]
    else:
        want = oracle.disk_ids(*a)
        r2 = a[2] * a[2]
        bad = [j for j in own if _rect_point_dist2(inserted[int(j)], a[0], a[1]) > r2]
    if bad:
        return "an inserted id does not satisfy the query"
    base = np.sort(got[got < n_base])
    if len(base) == len(want) and np.array_equal(base, want):
        return None
    return f"{len(base)} base ids, brute force finds {len(want)}"


def check_read_your_writes(server: ServerProc, ops: list[Op]) -> tuple[int, list[str]]:
    """One caller, program order: a window over each freshly inserted
    rectangle sees it, and stops seeing it once it is deleted.  The
    rectangles are those of the first ``READ_YOUR_WRITES`` inserts in ``ops``.

    Returns ``(operations attempted, problems)``."""
    problems: list[str] = []
    rects = [op.args for op in ops if op.verb == "insert"][:READ_YOUR_WRITES]
    with server.client() as cli:
        for rect in rects:
            try:
                new_id = cli.insert(*rect)
                if new_id not in cli.window(*rect):
                    problems.append(f"inserted id {new_id} not visible")
                if not cli.delete(new_id):
                    problems.append(f"delete({new_id}) found nothing")
                if new_id in cli.window(*rect):
                    problems.append(f"deleted id {new_id} still visible")
            except ServerError as exc:
                problems.append(f"read-your-writes: {exc}")
    return 4 * len(rects), problems


# -- statistics and the two served workloads -----------------------------------

#: share of ``--seconds`` spent in the open-loop phase; the rest is phase B.
OPEN_LOOP_SHARE = 0.6
#: phase B's stream at scale 1 and 10 s: several times what the server
#: completes today, so the phase ends on time, not on an empty stream.
CLOSED_LOOP_STREAM_PER_S = 4000
#: times the two phases alternate within one run.
ROUNDS = 4
#: phase B's rate is taken over this many consecutive completions (about
#: half a second's worth).
RATE_WINDOW = 1000
#: sequential insert/window/delete/window round trips checked after the phases.
READ_YOUR_WRITES = 20




def best_rate(log: PhaseLog, window: int = RATE_WINDOW) -> float:
    """Completions per second over the fastest run of ``window`` consecutive
    completions of a closed-loop phase (the whole phase if it has fewer)."""
    done = np.sort(log.done_ns[log.ok])
    if len(done) <= window:
        return len(done) / ((log.t_end_ns - log.t_start_ns) / 1e9)
    return window / (float((done[window:] - done[:-window]).min()) / 1e9)


def _reads(env: ServedEnv, seed: int, n: int) -> list[Op]:
    """Phase A's stream: ``serve_mix``'s reads, identical for both servers."""
    return build_stream(env.data, SERVE_READ_MIX, max(200, n), seed)


def _mixed(env: ServedEnv, seed: int, n: int) -> list[Op]:
    """Phase B's stream: all of ``serve_mix`` — minus the writes when the
    server is sharded (see ``workloads.SERVE_READ_MIX``)."""
    mix = SERVE_MIX if env.server.shards == 1 else SERVE_READ_MIX
    return build_stream(env.data, mix, max(200, n), seed)


def measure_served(
    env: ServedEnv, seed: int, scale: float, seconds: float, recorder=None
) -> Outcome:
    """Warm-up, then ``ROUNDS`` rounds of phase A (open loop, reads) and
    phase B (closed loop, reads and writes), then the checks.

    Writes are kept out of the open loop on purpose.  An insert copies the
    O(N) dataset columns on the service loop — 12 ms at 1M objects when the
    allocator hands back warm pages, several hundred when the sandbox has
    to fault 32 MB in afresh — and at a fixed arrival rate one such stall
    fills the default admission queue (depth 128): 1 run in 10 ended with
    ``overloaded`` refusals.  In the closed loop a stall only makes the 16
    callers wait, so that is where writes run; their cost shows in
    ``throughput_ops_s`` and in ``write_p50_us`` (detail).

    Alternating the phases lets each of them sample the whole run: the
    sandbox slows down for 5-15 s at a time, and a phase run in one piece
    can sit entirely inside such a stretch.  Each metric reports its best
    segment (phase A) or best ``RATE_WINDOW`` completions (phase B).

    A traced run splits every segment in two: one half plain, one half
    with a trace id on every request, which makes the server assemble and
    ship its per-phase timings.
    """
    share = (1.0 if recorder is None else 0.5) / ROUNDS
    a_s = OPEN_LOOP_SHARE * seconds * share
    b_s = (1 - OPEN_LOOP_SHARE) * seconds * share
    n_a = int(OPEN_LOOP_RATE * a_s)
    n_b = int(CLOSED_LOOP_STREAM_PER_S * b_s)
    gen = env.gen
    # the first insert pages in and copies every dataset column: writes
    # belong in the warm-up as much as reads do
    # every log, in the order it ran: the checks need that order
    logs = [gen.run_closed(_mixed(env, seed + 9, n_a // 2), seconds), gen.drain()]
    open_logs: list[PhaseLog] = []
    closed_logs: list[PhaseLog] = []
    traced_closed: list[PhaseLog] = []
    layers: list[dict[str, float]] = []
    for r in range(ROUNDS):
        sub = seed * 100 + r * 10
        open_logs.append(gen.run_open(_reads(env, sub, n_a), OPEN_LOOP_RATE))
        closed_logs.append(gen.run_closed(_mixed(env, sub + 1, n_b), b_s))
        logs += [open_logs[-1], closed_logs[-1], gen.drain()]
        if recorder is not None:
            log, layer = traced_open_phase(
                env, _reads(env, sub + 2, n_a), recorder, request_base=r * 1_000_000
            )
            layers.append(layer)
            traced_closed.append(
                gen.run_closed(_mixed(env, sub + 3, n_b), b_s, trace="b")
            )
            logs += [log, traced_closed[-1], gen.drain()]

    oracle = Oracle(env.data)
    inserted: dict[int, tuple] = {}  # every object the phases inserted
    failed = sum(check_phase(log, oracle, inserted) for log in logs)
    problems = [p for log in logs for p in log.problems]
    attempted = sum(int(np.count_nonzero(log.sent)) for log in logs)
    if env.server.shards == 1:  # served_sharded sends no writes at all
        ryw_n, ryw_problems = check_read_your_writes(
            env.server, _mixed(env, seed + 8, 40 * READ_YOUR_WRITES)
        )
        attempted += ryw_n
        failed += len(ryw_problems)
        problems += ryw_problems
    refused = sum(
        log.errors.get(code, 0) for log in logs for code in ("overloaded", "degraded")
    )
    if refused:
        problems.append(f"{refused} overloaded/degraded frames")

    def best(q: float, *verbs: str) -> float:
        return min(
            percentile_us(log.latency_ns(log.verb_mask(*verbs) if verbs else None), q)
            for log in open_logs
        )

    throughput = max(best_rate(log) for log in closed_logs)
    metrics = {
        "throughput_ops_s": throughput,
        "op_p50_us": best(50),
        "op_p99_us": best(99),
        "window_p50_us": best(50, "window"),
    }
    first = open_logs[0]
    detail = {
        "window_p99_us": best(99, "window"),
        "closed_loop_p50_us": min(percentile_us(b.latency_ns(), 50) for b in closed_logs),
        "gen_lag_p99_us": min(percentile_us(a.lag_ns, 99) for a in open_logs),
        "op_n_per_segment": float(np.count_nonzero(first.ok)),
        "window_n_per_segment": float(np.count_nonzero(first.ok & first.verb_mask("window"))),
        "closed_loop_n": float(sum(np.count_nonzero(b.ok) for b in closed_logs)),
        "refused": float(refused),
    }
    if env.server.shards == 1:
        detail["write_p50_us"] = _write_p50_us(closed_logs)
    if recorder is not None:
        for key in layers[0]:
            detail[key] = float(np.median([layer[key] for layer in layers]))
        if env.server.shards == 1:
            detail["server.write_p50_us"] = _write_p50_us(traced_closed)
        traced_rate = max(best_rate(log) for log in traced_closed)
        detail["tracing_overhead_pct"] = (throughput - traced_rate) / throughput * 100.0
    env.peak_rss_mb = env.server.peak_rss_mb()
    return Outcome(metrics, detail, attempted, failed, problems)


def _write_p50_us(closed_logs: list[PhaseLog]) -> float:
    """Best segment's median insert+delete latency in the closed loop."""
    return min(
        percentile_us(log.latency_ns(log.verb_mask(*_WRITES)), 50)
        for log in closed_logs
        if np.any(log.ok & log.verb_mask(*_WRITES))
    )


def teardown_served(env: ServedEnv) -> list[str]:
    """Close the connections and stop the server; returns what the
    shutdown guards found (with the server's stderr tail, if anything)."""
    env.gen.close()
    problems = env.server.stop()
    if problems:
        problems.append("server stderr tail:\n" + env.server.stderr_tail())
    return problems


# -- traced phase --------------------------------------------------------------

_PHASES = ("queue", "coalesce", "snapshot_pin", "scatter", "kernel", "serialize")


def phase_spans(
    log: PhaseLog, ring: list[dict], recorder, request_base: int = 0
) -> dict[str, float]:
    """Turn a traced phase into spans and per-layer medians [us].

    Each answered request becomes a ``client.request`` span (due time to
    arrival) whose children are the phases the server reported for it in
    ``server.phases`` (durations are the server's; they are laid end to end
    in the middle of the client span, their true offsets not being on the
    wire).  ``serialize`` comes from the ``traces`` verb, for the requests
    still in its ring.  The client span's self time is what no server phase
    accounts for: both network directions, protocol decode, the
    generator's own parse.
    """
    serialize = {
        entry["trace"]: entry["phases"].get("serialize_ms")
        for entry in ring
        if "phases" in entry
    }
    cols: dict[str, list[float]] = {name: [] for name in _PHASES}
    cols["unattributed"] = []
    fanout: list[int] = []
    for i, frame in sorted(log.frames.items()):
        meta = frame.get("server") or {}
        phases = meta.get("phases")
        if not frame["ok"] or phases is None:
            continue
        durs = {
            name: phases[f"{name}_ms"] * 1e6
            for name in _PHASES
            if f"{name}_ms" in phases
        }
        ser = serialize.get(frame.get("trace"))
        if ser is not None:
            durs["serialize"] = ser * 1e6
        start, end = int(log.due_ns[i]), int(log.done_ns[i])
        request = request_base + i
        root = recorder.add("client.request", start, end, None, request)
        cursor = start + max(0, (end - start - int(sum(durs.values()))) // 2)
        for name, dur in durs.items():
            layer = "shard.phase.shard" if name == "scatter" else f"server.phase.{name}"
            recorder.add(layer, cursor, cursor + int(dur), root, request)
            cursor += int(dur)
            cols[name].append(dur / 1e3)
        cols["unattributed"].append((end - start - sum(durs.values())) / 1e3)
        if "shards" in meta:
            fanout.append(len(meta["shards"]))
    out = {
        ("shard.phase.shard_us" if name == "scatter" else f"server.phase.{name}_us"): (
            float(np.median(values)) if values else 0.0
        )
        for name, values in cols.items()
    }
    out["shard.fanout_mean"] = float(np.mean(fanout)) if fanout else 0.0
    out["bench.gen_lag_p99_us"] = percentile_us(log.lag_ns, 99)
    return out


def traced_open_phase(
    env: ServedEnv, ops: list[Op], recorder, request_base: int = 0
) -> tuple[PhaseLog, dict[str, float]]:
    """Phase A with a trace id on every request; returns its log and the
    per-layer readings taken from it (server phases, batch size, lag).
    Request ``i`` is ``request_base + i`` in the span file."""
    with env.server.client() as cli:
        before = cli.stats()["metrics"]
    log = env.gen.run_open(ops, OPEN_LOOP_RATE, trace="a")
    with env.server.client() as cli:
        after = cli.stats()["metrics"]
        ring = cli.traces(limit=256)["entries"]
    layer = phase_spans(log, ring, recorder, request_base)
    layer.update(_stats_delta(before, after))
    return log, layer


def _stats_delta(before: dict, after: dict) -> dict[str, float]:
    """Mean micro-batch size and admission rejections between two ``stats``."""
    n0 = before.get("server.batch_size.count", 0.0)
    n1 = after.get("server.batch_size.count", 0.0)
    total = after.get("server.batch_size.mean", 0.0) * n1 - (
        before.get("server.batch_size.mean", 0.0) * n0
    )
    return {
        "server.batch_size_mean": total / (n1 - n0) if n1 > n0 else 0.0,
        "server.overloaded_total": after.get("server.rejected", 0.0)
        - before.get("server.rejected", 0.0),
    }
