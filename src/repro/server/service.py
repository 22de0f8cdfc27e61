"""The asyncio query service: admission, batching, writes, shutdown.

Data flow::

    client ──line──> _handle_conn ──try_submit──> MicroBatcher ─┐
                         │  (reject: overloaded)                │ batch
                         ├──────────> write queue ──> writer    ▼
                         │                    task   _execute_batch
                         <──send queue (per-conn, ──────┘   (one snapshot)
                            write-timeout bounded)

Reads are admitted into the bounded :class:`MicroBatcher` queue and
executed in micro-batches against one :class:`Snapshot`: local verbs
answer from the service's own state, data verbs go through one
:meth:`Snapshot.evaluate` call per batch.  ``insert`` / ``delete`` are
serialised onto a single writer task that publishes new snapshots
atomically through :meth:`SnapshotStore.apply`.  Every stage records
into a ``server.*`` metrics namespace on a :class:`MetricsRegistry`
(exposed over the wire by the ``stats`` verb) and runs under tracing
spans, so a profiling session sees the server the way it sees the
in-process engine.

Overload never blocks the event loop: full queues answer ``overloaded``
with a retry-after hint, slow consumers are disconnected by the
per-connection write timeout, and SIGTERM (via :meth:`run`) drains
in-flight requests before the process exits.
"""

from __future__ import annotations

import asyncio
import itertools
import signal
import time
from typing import Callable
from dataclasses import dataclass

from repro.datasets.dataset import RectDataset
from repro.datasets.queries import DiskQuery
from repro.errors import InvalidQueryError, ProtocolError, ReproError
from repro.geometry.mbr import Rect
from repro.core.two_layer import TwoLayerGrid
from repro.obs import tracing as _tracing
from repro.obs.live import LiveTelemetry
from repro.obs.metrics import MetricsRegistry
from repro.server.batcher import MicroBatcher, PendingRequest
from repro.server.protocol import (
    DATA_VERBS,
    PROTOCOL_VERSION,
    VERBS,
    WRITE_VERBS,
    Request,
    decode_request,
    encode_error,
    encode_response,
)
from repro.server.snapshot import Snapshot, SnapshotStore, error_outcome

__all__ = ["ServerConfig", "SpatialQueryService"]


@dataclass
class ServerConfig:
    """Tunables for one service instance (see docs/serving.md)."""

    host: str = "127.0.0.1"
    port: int = 0
    #: admission-control depth of the read queue (requests, not bytes).
    queue_depth: int = 128
    #: maximum requests executed as one micro-batch.
    max_batch: int = 64
    #: admission-control depth of the serialised write queue.
    write_queue_depth: int = 64
    #: back-off hint sent with ``overloaded`` errors [ms].
    retry_after_ms: int = 10
    #: per-connection timeout for draining a response write [s].
    write_timeout_s: float = 5.0
    #: per-connection outgoing response queue depth (slow-consumer cap).
    send_queue_depth: int = 256
    #: how long shutdown waits for in-flight requests to finish [s].
    drain_timeout_s: float = 10.0
    #: maximum request line length [bytes].
    max_line_bytes: int = 1 << 20
    #: live telemetry master switch: request traces, per-verb latency
    #: histograms, tile heat, slow-query capture, admin verbs.
    telemetry: bool = True
    #: capacity of the finished-trace ring (``traces`` verb).
    trace_ring: int = 256
    #: requests slower than this are captured in the slow-query log [ms].
    slowlog_ms: float = 100.0
    #: capacity of the slow-query log ring (``slowlog`` verb).
    slowlog_ring: int = 128
    #: tile-heat exponential-decay half life [s]; 0 disables decay.
    heat_half_life_s: float = 600.0
    #: feed kernel QueryStats into the heat map on 1-in-N batches only.
    #: Stats-threaded kernels give up the stats-free fast path, so this
    #: is the dominant telemetry cost; 1-in-32 keeps the heat map fed
    #: (thousands of samples per decay half-life at serving rates) while
    #: staying inside the 3% serving overhead budget.
    heat_sample: int = 32
    #: retain 1-in-N *untraced* requests in the trace ring (client-traced
    #: and over-threshold requests are always retained).
    trace_sample: int = 16
    #: serve Prometheus text on this HTTP port when set (0 = ephemeral).
    metrics_port: "int | None" = None
    #: bind host for the metrics listener.
    metrics_host: str = "127.0.0.1"


#: transport write-buffer level above which responses stop taking the
#: direct-write fast path and go through the sender task (drain timeout).
_DIRECT_WRITE_HIGHWATER = 1 << 16


class _Connection:
    """One client connection: reader side plus a bounded sender task."""

    __slots__ = ("service", "reader", "writer", "send_q", "sender", "aborted")

    def __init__(self, service: "SpatialQueryService", reader, writer):
        self.service = service
        self.reader = reader
        self.writer = writer
        self.send_q: "asyncio.Queue[bytes | None]" = asyncio.Queue(
            maxsize=service.config.send_queue_depth
        )
        self.aborted = False
        self.sender = asyncio.ensure_future(self._send_loop())

    def send(self, payload: bytes) -> bool:
        """Enqueue a response; a full queue marks the consumer slow and
        aborts the connection (backpressure never buffers unboundedly).

        Fast path: while the transport's write buffer is comfortably
        below the high-water mark and nothing is queued behind the
        sender, the frame is written straight to the transport —
        ``Transport.write`` never blocks, and skipping the queue avoids
        a sender-task wakeup per response.  A slow consumer grows the
        buffer past the mark, which diverts frames back through the
        sender task where the drain timeout applies.
        """
        if self.aborted:
            return False
        if self.send_q.empty():
            transport = self.writer.transport
            if (
                transport is not None
                and not transport.is_closing()
                and transport.get_write_buffer_size() < _DIRECT_WRITE_HIGHWATER
            ):
                self.writer.write(payload)
                return True
        try:
            self.send_q.put_nowait(payload)
        except asyncio.QueueFull:
            self.service.registry.counter("server.slow_consumer_drops").inc()
            self.abort()
            return False
        return True

    def abort(self) -> None:
        self.aborted = True
        try:
            self.send_q.put_nowait(None)
        except asyncio.QueueFull:
            # sender will notice `aborted` after the current drain
            pass

    async def _send_loop(self) -> None:
        cfg = self.service.config
        try:
            while True:
                payload = await self.send_q.get()
                if payload is None or self.aborted:
                    break
                self.writer.write(payload)
                try:
                    await asyncio.wait_for(
                        self.writer.drain(), cfg.write_timeout_s
                    )
                except asyncio.TimeoutError:
                    self.service.registry.counter(
                        "server.write_timeouts"
                    ).inc()
                    self.aborted = True
                    break
                except (ConnectionError, OSError):
                    self.aborted = True
                    break
        finally:
            self.aborted = True
            try:
                self.writer.close()
            except Exception:
                pass

    async def flush_close(self) -> None:
        """Send everything queued, then close the transport."""
        try:
            self.send_q.put_nowait(None)
        except asyncio.QueueFull:
            self.aborted = True
        try:
            await self.sender
        except asyncio.CancelledError:  # pragma: no cover - teardown race
            pass


class _BatchCtx:
    """Per-batch telemetry scalars shared by every member's trace.

    Built once per micro-batch when telemetry is on; phase dicts are
    assembled lazily from these scalars only for requests that are
    actually retained (client-traced, slow, or ring-sampled), so the
    per-request hot-path cost stays a few float reads.
    """

    __slots__ = ("t_exec", "pin_ms", "kernel_ms", "stats")

    def __init__(self, t_exec: float, pin_ms: float, stats):
        self.t_exec = t_exec
        self.pin_ms = pin_ms
        # Wall time of the batch's one Snapshot.evaluate call, set before
        # its data verbs respond (a local verb sets its own handler's).
        self.kernel_ms = 0.0
        self.stats = stats  # HeatStats on sampled batches, else None


class SpatialQueryService:
    """Serve window/disk/kNN/count/insert/delete/describe/explain/stats
    over a snapshot-isolated two-layer grid, with live telemetry
    (``heatmap``/``slowlog``/``traces`` verbs) when enabled."""

    def __init__(
        self,
        index: TwoLayerGrid,
        data: RectDataset,
        config: "ServerConfig | None" = None,
        registry: "MetricsRegistry | None" = None,
    ):
        self.config = config or ServerConfig()
        self.store = SnapshotStore(index, data)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = _tracing.Tracer()
        self.batcher = MicroBatcher(
            queue_depth=self.config.queue_depth,
            max_batch=self.config.max_batch,
        )
        self._write_q: "asyncio.Queue[PendingRequest | None]" = asyncio.Queue(
            maxsize=self.config.write_queue_depth
        )
        self._server: "asyncio.base_events.Server | None" = None
        self._batch_task: "asyncio.Task | None" = None
        self._writer_task: "asyncio.Task | None" = None
        self._conns: set[_Connection] = set()
        self._in_flight = 0
        self._draining = False
        self._stop_requested = asyncio.Event()
        self._stopped = asyncio.Event()
        # hot-path instrument handles, resolved once (the registry's
        # get-or-create path takes a lock per lookup — too much per request)
        self._m_requests = self.registry.counter("server.requests")
        self._m_queue_depth = self.registry.gauge("server.queue_depth")
        self._m_batch_size = self.registry.histogram("server.batch_size")
        self._m_latency = self.registry.histogram("server.latency_ms")
        self._m_verbs = {
            verb: self.registry.counter(f"server.requests.{verb}")
            for verb in VERBS
        }
        self._t_start = time.perf_counter()
        self._trace_seq = itertools.count(1)
        self._heat_tick = 0
        self._trace_tick = 0
        self.metrics_http = None  # set by start() when metrics_port is set
        self.telemetry: "LiveTelemetry | None" = None
        self._m_verb_latency = {}
        if self.config.telemetry:
            self.telemetry = LiveTelemetry(
                index.grid.nx,
                index.grid.ny,
                trace_capacity=self.config.trace_ring,
                slowlog_capacity=self.config.slowlog_ring,
                slowlog_ms=self.config.slowlog_ms,
                half_life_s=self.config.heat_half_life_s,
            )
            self._m_verb_latency = {
                verb: self.registry.histogram(f"server.latency_ms.{verb}")
                for verb in VERBS
            }
            tel = self.telemetry
            self.registry.register_source(
                "server.live",
                lambda: {
                    "traces_retained": float(len(tel.traces)),
                    "slowlog_captured": float(tel.slowlog.total),
                    "heat_visits": float(tel.heat.total_visits),
                },
            )

    # -- lifecycle --------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0``)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("service is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_conn,
            self.config.host,
            self.config.port,
            limit=self.config.max_line_bytes,
        )
        if self.config.metrics_port is not None:
            from repro.server.admin import MetricsHTTPServer

            self.metrics_http = MetricsHTTPServer(
                self.registry,
                host=self.config.metrics_host,
                port=self.config.metrics_port,
            )
            self.metrics_http.start()
        self._batch_task = asyncio.ensure_future(self._batch_loop())
        self._writer_task = asyncio.ensure_future(self._writer_loop())

    def request_shutdown(self) -> None:
        """Signal-safe shutdown trigger (drains before stopping)."""
        self._stop_requested.set()

    async def run(
        self, ready: "Callable[[SpatialQueryService], None] | None" = None
    ) -> None:
        """Start, install SIGTERM/SIGINT drain handlers, serve until a
        shutdown is requested, then drain and stop."""
        await self.start()
        loop = asyncio.get_running_loop()
        installed = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_shutdown)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        try:
            if ready is not None:
                ready(self)
            await self._stop_requested.wait()
            await self.shutdown()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)

    async def shutdown(self) -> None:
        """Stop accepting, drain in-flight requests, close connections."""
        if self._stopped.is_set():
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_timeout_s
        while self._in_flight > 0 and loop.time() < deadline:
            await asyncio.sleep(0.01)
        self.batcher.close()
        try:
            self._write_q.put_nowait(None)
        except asyncio.QueueFull:  # pragma: no cover - drained above
            pass
        for task in (self._batch_task, self._writer_task):
            if task is not None:
                try:
                    await asyncio.wait_for(task, 5.0)
                except asyncio.TimeoutError:  # pragma: no cover
                    task.cancel()
        for conn in list(self._conns):
            await conn.flush_close()
        if self.metrics_http is not None:
            self.metrics_http.stop()
        self._stopped.set()

    # -- connection handling ----------------------------------------------

    async def _handle_conn(self, reader, writer) -> None:
        conn = _Connection(self, reader, writer)
        self._conns.add(conn)
        gauge = self.registry.gauge("server.connections")
        gauge.inc()
        try:
            while not conn.aborted:
                try:
                    line = await reader.readline()
                except ValueError:
                    # line exceeded the stream limit; cannot resync
                    conn.send(
                        encode_error(
                            None,
                            "bad_request",
                            f"request line over "
                            f"{self.config.max_line_bytes} bytes",
                        )
                    )
                    break
                except (ConnectionError, OSError):
                    break
                if not line:
                    break
                if line.strip() == b"":
                    continue
                self._dispatch(line, conn)
        finally:
            self._conns.discard(conn)
            gauge.dec()
            await conn.flush_close()

    def _dispatch(self, line: bytes, conn: _Connection) -> None:
        self._m_requests.inc()
        try:
            req = decode_request(line)
        except ProtocolError as exc:
            self.registry.counter("server.errors.bad_request").inc()
            conn.send(
                encode_error(None, getattr(exc, "code", "bad_request"), str(exc))
            )
            return
        if self._draining:
            conn.send(
                encode_error(
                    req.id,
                    "shutting_down",
                    "server is draining; reconnect later",
                    trace=req.trace,
                )
            )
            return
        pending = PendingRequest(req, conn)
        if req.verb in WRITE_VERBS:
            try:
                self._write_q.put_nowait(pending)
            except asyncio.QueueFull:
                self._reject(req, conn)
                return
        else:
            if not self.batcher.try_submit(pending):
                self._reject(req, conn)
                return
        self._in_flight += 1

    def _reject(self, req: Request, conn: _Connection) -> None:
        self.registry.counter("server.rejected").inc()
        conn.send(
            encode_error(
                req.id,
                "overloaded",
                f"request queue full (depth {self.config.queue_depth})",
                retry_after_ms=self.config.retry_after_ms,
                trace=req.trace,
            )
        )

    # -- execution --------------------------------------------------------

    async def _batch_loop(self) -> None:
        while True:
            batch = await self.batcher.next_batch()
            if batch is None:
                return
            self._execute_batch(batch)

    def _execute_batch(self, batch: "list[PendingRequest]") -> None:
        # Responses are aggregated per connection and flushed as one
        # write per connection after the batch — clients multiplexing
        # several in-flight requests over one connection get all their
        # answers in a single frame burst (and the kernel one syscall).
        out: dict[_Connection, list[bytes]] = {}
        with _tracing.activate(self.tracer), _tracing.span("server.batch"):
            snap, meta, bctx, reads = self._begin_batch(batch, out)
            if reads:
                t0 = time.perf_counter()
                outcomes = snap.evaluate(
                    [(p.request.verb, p.request.args) for p in reads],
                    None if bctx is None else bctx.stats,
                )
                if bctx is not None:
                    bctx.kernel_ms = (time.perf_counter() - t0) * 1e3
                for pending, outcome in zip(reads, outcomes):
                    self._answer(pending, outcome, meta, out, bctx)
        self._flush(out)

    def _begin_batch(
        self,
        batch: "list[PendingRequest]",
        out: "dict[_Connection, list[bytes]]",
    ) -> "tuple[Snapshot, dict, _BatchCtx | None, list[PendingRequest]]":
        """Pin one snapshot for ``batch`` and answer its local verbs.

        Returns ``(snapshot, response meta, telemetry ctx, data-verb
        requests)``; the data verbs are left to the caller, which
        evaluates them in process or scatters them to shard workers.
        """
        t_exec = time.perf_counter()
        self._m_queue_depth.set(self.batcher.depth())
        self._m_batch_size.observe(len(batch))
        snap = self.store.current
        bctx: "_BatchCtx | None" = None
        if self.telemetry is not None:
            pin_ms = (time.perf_counter() - t_exec) * 1e3
            self._heat_tick += 1
            stats = (
                self.telemetry.stats
                if self._heat_tick % self.config.heat_sample == 0
                else None
            )
            bctx = _BatchCtx(t_exec, pin_ms, stats)
        meta = {"snapshot": snap.version, "batch_size": len(batch)}
        reads: list[PendingRequest] = []
        for pending in batch:
            req = pending.request
            if req.verb in DATA_VERBS:
                reads.append(pending)
                continue
            t0 = time.perf_counter()
            try:
                with _tracing.span(f"server.{req.verb}"):
                    outcome = {"ok": True, "result": self._run_verb(snap, req)}
            except Exception as exc:
                outcome = error_outcome(exc)
            if bctx is not None:
                bctx.kernel_ms = (time.perf_counter() - t0) * 1e3
            self._answer(pending, outcome, meta, out, bctx)
        return snap, meta, bctx, reads

    def _answer(
        self,
        pending: PendingRequest,
        outcome: dict,
        meta: dict,
        out: "dict[_Connection, list[bytes]]",
        bctx: "_BatchCtx | None",
    ) -> None:
        """Respond with one evaluation outcome (see :meth:`Snapshot.evaluate`)."""
        if outcome["ok"]:
            self._deliver(pending, outcome["result"], meta, out, bctx)
            return
        req = pending.request
        err = outcome["error"]
        if err["code"] == "internal":
            self.registry.counter("server.errors.internal").inc()
        self._respond(
            pending,
            encode_error(req.id, err["code"], err["message"], trace=req.trace),
            out,
        )

    @staticmethod
    def _flush(out: "dict[_Connection, list[bytes]]") -> None:
        for conn, frames in out.items():
            conn.send(frames[0] if len(frames) == 1 else b"".join(frames))

    def _run_verb(self, snap: Snapshot, req: Request):
        """Answer one local (non-data, non-write) verb."""
        args = req.args
        index, data = snap.index, snap.data
        if req.verb == "ping":
            return {
                "pong": True,
                "protocol": PROTOCOL_VERSION,
                "snapshot": snap.version,
            }
        if req.verb == "describe":
            avg_w, avg_h = data.average_extents() if len(data) else (0.0, 0.0)
            return {
                "objects": len(data),
                "partitions_per_dim": index.grid.nx,
                "replicas": index.replica_count,
                "replication_ratio": index.replica_count / max(len(data), 1),
                "class_counts": index.class_counts(),
                "avg_extent": [avg_w, avg_h],
                "index_bytes": index.nbytes,
                "snapshot": snap.version,
            }
        if req.verb == "explain":
            return self._run_explain(snap, args)
        if req.verb == "stats":
            cfg = self.config
            return {
                "metrics": self.registry.collect(),
                "spans": self.tracer.phase_totals(),
                "snapshot": snap.version,
                "uptime_s": round(time.perf_counter() - self._t_start, 3),
                "telemetry": self.telemetry is not None,
                "config": {
                    "queue_depth": cfg.queue_depth,
                    "max_batch": cfg.max_batch,
                    "slowlog_ms": cfg.slowlog_ms,
                    "heat_sample": cfg.heat_sample,
                    "trace_sample": cfg.trace_sample,
                },
            }
        if req.verb == "heatmap":
            tel = self._require_telemetry()
            return tel.heat_snapshot(top=args["top"])
        if req.verb == "traces":
            tel = self._require_telemetry()
            return {
                "capacity": tel.traces.capacity,
                "total": tel.traces.total,
                "entries": tel.traces.last(args["limit"]),
            }
        if req.verb == "slowlog":
            tel = self._require_telemetry()
            entries = tel.slowlog.entries(args["limit"])
            if args["explain"]:
                for entry in entries:
                    self._attach_explain(snap, entry)
            return {
                "threshold_ms": tel.slowlog.threshold_ms,
                "total": tel.slowlog.total,
                "entries": entries,
            }
        raise InvalidQueryError(f"verb {req.verb!r} is not servable")

    def _require_telemetry(self) -> LiveTelemetry:
        if self.telemetry is None:
            raise InvalidQueryError(
                "telemetry is disabled on this server (--telemetry off)"
            )
        return self.telemetry

    def _attach_explain(self, snap: Snapshot, entry: dict) -> None:
        """Fill a slowlog entry's lazily-computed EXPLAIN plan.

        Runs at ``slowlog`` read time against the *current* snapshot
        (never on the request path); the plan is cached on the ring
        entry so repeated reads pay once.
        """
        if entry.get("explain") is not None:
            return
        verb = entry.get("verb")
        args = entry.get("args") or {}
        try:
            if verb in ("window", "count") and (
                verb == "count" or args.get("predicate") == "intersects"
            ):
                entry["explain"] = self._run_explain(
                    snap, {"kind": "window", **{
                        k: args[k] for k in ("xl", "yl", "xu", "yu")
                    }},
                )
            elif verb == "disk":
                entry["explain"] = self._run_explain(
                    snap, {"kind": "disk", **{
                        k: args[k] for k in ("cx", "cy", "radius")
                    }},
                )
            elif verb == "knn":
                entry["explain"] = self._run_explain(
                    snap, {"kind": "knn", **{
                        k: args[k] for k in ("cx", "cy", "k")
                    }},
                )
            else:
                entry["explain"] = {"skipped": f"no EXPLAIN for verb {verb!r}"}
        except ReproError as exc:
            entry["explain"] = {"error": str(exc)}

    def _run_explain(self, snap: Snapshot, args: dict) -> dict:
        from repro.obs.explain import explain_disk, explain_knn, explain_window

        kind = args["kind"]
        if kind == "window":
            plan = explain_window(
                snap.index, Rect(args["xl"], args["yl"], args["xu"], args["yu"])
            )
        elif kind == "disk":
            plan = explain_disk(
                snap.index, DiskQuery(args["cx"], args["cy"], args["radius"])
            )
        else:
            plan = explain_knn(
                snap.index, snap.data, args["cx"], args["cy"], args["k"]
            )
        return plan.as_dict()

    # -- writes -----------------------------------------------------------

    async def _writer_loop(self) -> None:
        while True:
            pending = await self._write_q.get()
            if pending is None:
                return
            req = pending.request
            tel = self.telemetry
            trace_id = None
            if tel is not None:
                trace_id = req.trace or f"t-{next(self._trace_seq):06x}"
            t0 = time.perf_counter()
            shards = None
            try:
                with _tracing.activate(self.tracer):
                    with _tracing.span(f"server.{req.verb}"):
                        result, version = self.store.apply(req.verb, req.args)
            except ReproError as exc:
                payload = encode_error(
                    req.id, "invalid_query", str(exc), trace=trace_id
                )
            except Exception as exc:  # pragma: no cover - defensive
                self.registry.counter("server.errors.internal").inc()
                payload = encode_error(
                    req.id, "internal", repr(exc), trace=trace_id
                )
            else:
                payload = encode_response(req.id, result, trace=trace_id)
                shards = await self._replicate(req.verb, req.args, version)
            record = None
            if tel is not None:
                # Writes are rare: always retain their trace (the COW
                # fork time is the kernel phase; no batching phases).
                record = {
                    "trace": trace_id,
                    "id": req.id,
                    "verb": req.verb,
                    "args": req.args,
                    "phases": {
                        "queue_ms": round(
                            (t0 - pending.enqueued_at) * 1e3, 3
                        ),
                        "kernel_ms": round(
                            (time.perf_counter() - t0) * 1e3, 3
                        ),
                    },
                }
                if shards is not None:
                    record["shards"] = shards
            self._respond(pending, payload, record=record)

    async def _replicate(
        self, verb: str, args: dict, version: int
    ) -> "list[int] | None":
        """Propagate one locally applied write; returns the shards that
        hold it (``None``: no shards, the local store is the only copy)."""
        return None

    # -- bookkeeping ------------------------------------------------------

    def _phases(
        self,
        pending: PendingRequest,
        bctx: _BatchCtx,
        extra_phases: "dict | None" = None,
    ) -> dict:
        """Per-phase timing [ms] of one request, from batch scalars.

        ``refine_ms`` is structurally zero — serving is MBR-only, no
        refinement stage runs — but the key is kept so trace consumers
        see the full phase taxonomy.  ``serialize_ms`` is patched onto
        retained records after the envelope encode (the wire envelope
        necessarily freezes before that measurement completes).
        ``extra_phases`` (a scattered request's ``scatter_ms``, ``shard``
        and shard-side ``kernel_ms``) are merged over the batch's.
        """
        phases = {
            "queue_ms": round(
                (pending.dequeued_at - pending.enqueued_at) * 1e3, 3
            ),
            "coalesce_ms": round(
                (bctx.t_exec - pending.dequeued_at) * 1e3, 3
            ),
            "snapshot_pin_ms": round(bctx.pin_ms, 4),
            "kernel_ms": round(bctx.kernel_ms, 3),
            "refine_ms": 0.0,
        }
        if extra_phases:
            phases.update(extra_phases)
        return phases

    def _deliver(
        self,
        pending: PendingRequest,
        result: dict,
        meta: dict,
        out: "dict[_Connection, list[bytes]]",
        bctx: "_BatchCtx | None",
        extra_phases: "dict | None" = None,
    ) -> None:
        """Encode one success response and hand it to :meth:`_respond`.

        Telemetry on: every response envelope carries a ``trace`` id
        (the client's, else server-assigned).  Client-traced requests
        additionally get the per-phase breakdown inline and are always
        retained in the trace ring; untraced requests stay lean on the
        hot path (phases are assembled only if the request turns out
        slow or is ring-sampled, from the batch scalars).  A retained
        record carries ``meta`` (snapshot, batch size and, scattered,
        the shards).
        """
        req = pending.request
        tel = self.telemetry
        if bctx is None or tel is None:
            # Telemetry off: stay lean — no server-assigned ids — but a
            # client-supplied trace must still be echoed (RV205).
            self._respond(
                pending,
                encode_response(req.id, result, meta, trace=req.trace),
                out,
            )
            return
        trace_id = req.trace or f"t-{next(self._trace_seq):06x}"
        phases = None
        if req.trace is not None:
            phases = self._phases(pending, bctx, extra_phases)
            t0 = time.perf_counter()
            payload = encode_response(
                req.id, result, {**meta, "phases": phases}, trace=trace_id
            )
            phases["serialize_ms"] = round(
                (time.perf_counter() - t0) * 1e3, 3
            )
        else:
            payload = encode_response(req.id, result, meta, trace=trace_id)
            self._trace_tick += 1
            if (
                self._trace_tick % self.config.trace_sample == 0
                or (time.perf_counter() - pending.enqueued_at) * 1e3
                >= tel.slowlog.threshold_ms
            ):
                phases = self._phases(pending, bctx, extra_phases)
        record = None
        if phases is not None:
            record = {
                "trace": trace_id,
                "id": req.id,
                "verb": req.verb,
                "args": req.args,
                **meta,
                "phases": phases,
            }
        self._respond(pending, payload, out, record)

    def _respond(
        self,
        pending: PendingRequest,
        payload: bytes,
        out: "dict[_Connection, list[bytes]] | None" = None,
        record: "dict | None" = None,
    ) -> None:
        """Account for one finished request and deliver its response.

        With ``out`` the frame is staged in the batch's per-connection
        aggregation buffer (flushed as one write per connection); without
        it the frame is sent directly.  A non-``None`` ``record`` is
        finalised with the latency and retained in the trace ring.
        """
        latency_ms = (time.perf_counter() - pending.enqueued_at) * 1e3
        verb = pending.request.verb
        self._m_verbs[verb].inc()
        self._m_latency.observe(latency_ms)
        tel = self.telemetry
        if tel is not None:
            self._m_verb_latency[verb].observe(latency_ms)
            if record is not None:
                record["latency_ms"] = round(latency_ms, 3)
                tel.finish(record)
        if out is None:
            pending.conn.send(payload)
        else:
            out.setdefault(pending.conn, []).append(payload)
        pending.answered = True
        self._in_flight -= 1
