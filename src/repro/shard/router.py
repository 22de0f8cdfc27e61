"""Scatter-gather router: the public NDJSON server in sharded mode.

:class:`ShardedQueryService` subclasses the single-process
:class:`~repro.server.service.SpatialQueryService` and replaces only the
execution layers — the protocol edge, admission control, micro-batcher,
telemetry and drain machinery are inherited unchanged:

* **boot** publishes the packed base into one shm arena, spawns one
  ShardWorker process per band (``spawn`` context — no forked locks),
  and waits for each worker to dial back over a loopback rendezvous
  socket before accepting clients.
* **reads**: each micro-batch goes through the parent's prologue —
  one pinned snapshot, *local* verbs (ping, describe, explain, stats
  and the admin verbs) answered from the router's own full snapshot —
  and its data verbs (:data:`~repro.server.protocol.DATA_VERBS`) are
  parsed by the same :func:`~repro.server.snapshot.parse_read` the
  workers' evaluator uses, then routed by tile footprint — the band
  table answers "which shards own part of this range" in O(K) — and
  coalesced into **one envelope per shard per batch**, stamped with the
  router's snapshot epoch.  Workers answer at exactly that epoch, so
  the merge (band-ordered concatenation — tile ownership partitions the
  result space, see :mod:`repro.shard.banded`) never mixes versions; a
  mismatched epoch in any sub-response fails the request with a
  structured error instead of merging garbage.  kNN is sent whole to
  the worker owning the query point's tile (any live worker is
  equivalent — all hold full state).  Merged answers leave through the
  parent's ``_deliver`` with the ``scatter_ms``/``shard`` phases added.
* **writes** go through the inherited writer: the router applies each
  write to its *local* store first (the source of truth its own verbs
  serve from), then its ``_replicate`` step broadcasts it to every live
  worker and verifies each ack reports the identical new version —
  deterministic application means the per-shard epoch vector stays
  uniform without coordination; a worker that diverges or dies is
  marked dead and subsequent requests needing it get ``degraded``
  errors (the :class:`~repro.errors.ParallelExecutionError` discipline:
  structured failure, never a hang).
* **SIGTERM** drains exactly like the parent, then sends each worker a
  shutdown envelope, reaps the processes and unlinks the arena.

Under ``REPRO_SANITIZE=1`` the router additionally cross-checks sampled
merged window/disk results against a local evaluation on the same
pinned snapshot — the sharded twin of the single-process sanitizer's
naive-scan check, and the merge-time consistency check for the
cross-shard epoch contract.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import os
import time
import traceback
from typing import Any

import numpy as np

from repro.analysis import sanitize as _sanitize
from repro.datasets.dataset import RectDataset
from repro.errors import IndexStateError, ParallelExecutionError, ReproError
from repro.obs import tracing as _tracing
from repro.server.batcher import PendingRequest
from repro.server.protocol import Request, encode_error
from repro.server.service import (
    ServerConfig,
    SpatialQueryService,
    _BatchCtx,
    _Connection,
)
from repro.server.snapshot import Snapshot, error_outcome, parse_read
from repro.shard.partition import (
    ShardBand,
    bands_for_range,
    plan_bands,
    shard_for_tile,
)
from repro.shard.shm import file_arena_manifest, publish_arena, unlink_arena
from repro.shard.wire import STREAM_LIMIT, decode_frame, encode_frame
from repro.shard.worker import run_worker

if False:  # pragma: no cover - typing only
    from repro.core.two_layer import TwoLayerGrid
    from repro.obs.metrics import MetricsRegistry

__all__ = ["ShardedQueryService"]


class _ShardLink:
    """The router's end of one worker connection: frame mux + liveness."""

    def __init__(
        self,
        service: "ShardedQueryService",
        shard: int,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        pid: "int | None" = None,
    ):
        self.service = service
        self.shard = shard
        self.reader = reader
        self.writer = writer
        self.pid = pid
        self.alive = True
        #: why the link died (exception text / "connection closed"),
        #: quoted in every ``degraded`` error it causes.
        self.death = ""
        self.last_epoch = 0
        self._batches: dict[int, asyncio.Future] = {}
        self._writes: dict[int, asyncio.Future] = {}

    def _send(self, frame: dict[str, Any], fut: asyncio.Future) -> None:
        try:
            self.writer.write(encode_frame(frame))
        except Exception as exc:
            self.mark_dead(f"send failed: {type(exc).__name__}: {exc}")
        if not self.alive and not fut.done():
            fut.set_exception(
                ParallelExecutionError(
                    f"shard {self.shard} worker is dead ({self.death})"
                )
            )

    def send_batch(
        self, bid: int, epoch: int, reqs: list[dict[str, Any]]
    ) -> asyncio.Future:
        fut = asyncio.get_running_loop().create_future()
        self._batches[bid] = fut
        self._send({"t": "batch", "bid": bid, "epoch": epoch, "reqs": reqs}, fut)
        return fut

    def send_write(
        self, seq: int, verb: str, args: dict[str, Any]
    ) -> asyncio.Future:
        fut = asyncio.get_running_loop().create_future()
        self._writes[seq] = fut
        self._send({"t": "write", "seq": seq, "verb": verb, "args": args}, fut)
        return fut

    def send_shutdown(self) -> None:
        try:
            self.writer.write(encode_frame({"t": "shutdown"}))
        except Exception:
            pass

    async def read_loop(self) -> None:
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                frame = decode_frame(line)
                kind = frame["t"]
                if kind == "batch_r":
                    self.last_epoch = max(self.last_epoch, frame["epoch"])
                    fut = self._batches.pop(frame["bid"], None)
                elif kind == "write_r":
                    if frame.get("ok"):
                        self.last_epoch = max(self.last_epoch, frame["version"])
                    fut = self._writes.pop(frame["seq"], None)
                else:
                    continue
                if fut is not None and not fut.done():
                    fut.set_result(frame)
        except Exception as exc:
            self.mark_dead(f"read failed: {type(exc).__name__}: {exc}")
        finally:
            self.mark_dead("connection closed")

    def mark_dead(self, why: str) -> None:
        """Fail every pending future now — degraded responses, no hangs."""
        if not self.alive:
            return
        self.alive = False
        self.death = why
        exc = ParallelExecutionError(
            f"shard {self.shard} worker died ({why})"
        )
        for fut in list(self._batches.values()) + list(self._writes.values()):
            if not fut.done():
                fut.set_exception(exc)
        self._batches.clear()
        self._writes.clear()
        try:
            self.writer.close()
        except Exception:
            pass
        self.service._on_link_dead(self.shard)


class ShardedQueryService(SpatialQueryService):
    """Router mode: K shared-memory shard workers behind one NDJSON edge."""

    def __init__(
        self,
        index: "TwoLayerGrid",
        data: RectDataset,
        config: "ServerConfig | None" = None,
        registry: "MetricsRegistry | None" = None,
        shards: int = 2,
        scatter_timeout_s: float = 5.0,
    ):
        if shards < 1:
            raise IndexStateError(f"shards must be >= 1, got {shards}")
        if index._store is None or index._tiles or index._store.n_dead:
            # Workers map the immutable base; fold any overlay first so
            # the arena carries the complete state.
            index.compact()
        super().__init__(index, data, config, registry)
        self.shards = shards
        self.scatter_timeout_s = scatter_timeout_s
        self._grid = index.grid
        self.bands: list[ShardBand] = plan_bands(
            index._store.offsets[::4], shards
        )
        self._links: "list[_ShardLink | None]" = [None] * shards
        self._procs: list = [None] * shards
        self._seg = None
        self.manifest: "dict[str, Any] | None" = None
        self._internal_server: "asyncio.base_events.Server | None" = None
        self._hello_waiters: list[asyncio.Future] = []
        self._scatter_tasks: set[asyncio.Task] = set()
        self._bid_seq = itertools.count(1)
        self._wseq = itertools.count(1)
        self._rid_seq = itertools.count(1)
        self._sanitize_tick = 0
        self._token = os.urandom(8).hex()
        self._m_shard_req = [
            self.registry.counter(f"server.shard.{k}.requests")
            for k in range(shards)
        ]
        self._m_shard_batches = [
            self.registry.counter(f"server.shard.{k}.batches")
            for k in range(shards)
        ]
        self._m_shard_dead = [
            self.registry.gauge(f"server.shard.{k}.dead") for k in range(shards)
        ]
        self._m_shard_epoch = [
            self.registry.gauge(f"server.shard.{k}.epoch")
            for k in range(shards)
        ]
        self._m_degraded = self.registry.counter("server.errors.degraded")
        self._m_epoch_mismatch = self.registry.counter(
            "server.shard.epoch_mismatch"
        )

    # -- boot --------------------------------------------------------------

    def _publish(self) -> None:
        snap = self.store.current
        index = snap.index
        store = index._store
        if index._fast_q is None:
            index._build_fast_q()  # built once here, shared by every worker
        grid = self._grid
        manifest = self._file_manifest(snap)
        if manifest is not None:
            # The base came straight out of a columnar container and is
            # untouched: workers map the index file itself — no shm
            # segment, no publication copy, one shared page cache.
            self._seg = None
        else:
            arrays = {
                "offsets": store.offsets,
                "xl": store.xl,
                "yl": store.yl,
                "xu": store.xu,
                "yu": store.yu,
                "ids": store.ids,
                "fast_q": index._fast_q,
                "data_xl": snap.data.xl,
                "data_yl": snap.data.yl,
                "data_xu": snap.data.xu,
                "data_yu": snap.data.yu,
            }
            self._seg, manifest = publish_arena(arrays)
        d = grid.domain
        manifest["nx"] = grid.nx
        manifest["ny"] = grid.ny
        manifest["domain"] = (d.xl, d.yl, d.xu, d.yu)
        manifest["n_objects"] = len(snap.data)
        manifest["bands"] = [b.to_tuple() for b in self.bands]
        self.manifest = manifest

    #: arrays every worker needs; a file manifest must cover all of them.
    _ARENA_ARRAYS = (
        "offsets", "xl", "yl", "xu", "yu", "ids", "fast_q",
        "data_xl", "data_yl", "data_xu", "data_yu",
    )

    def _file_manifest(self, snap) -> "dict[str, Any] | None":
        """A file-arena manifest when the base is a pristine mapped index.

        Requires the snapshot's index to still be exactly the columnar
        container it was loaded from — no delta overlay, no tombstones
        (workers rebuild those states from write broadcasts, but the
        *base* columns must match the file bytes) — and the container to
        carry the dataset columns (a collection archive).
        """
        index = snap.index
        mman = getattr(index, "_mmap_manifest", None)
        if (
            mman is None
            or index._tiles
            or index._store is None
            or index._store.n_dead
        ):
            return None
        arrays = mman.get("arrays", {})
        if any(name not in arrays for name in self._ARENA_ARRAYS):
            return None
        return file_arena_manifest(
            mman["path"],
            {name: arrays[name] for name in self._ARENA_ARRAYS},
        )

    async def _handle_worker(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        line = await reader.readline()
        if not line:
            writer.close()
            return
        try:
            hello = decode_frame(line)
        except ReproError:
            writer.close()
            return
        if (
            hello.get("t") != "hello"
            or hello.get("token") != self._token
            or not isinstance(hello.get("shard"), int)
            or not (0 <= hello["shard"] < self.shards)
        ):
            writer.close()
            return
        k = hello["shard"]
        link = _ShardLink(self, k, reader, writer, pid=hello.get("pid"))
        self._links[k] = link
        waiter = self._hello_waiters[k]
        if not waiter.done():
            waiter.set_result(k)
        await link.read_loop()

    async def start(self) -> None:
        t0 = time.perf_counter()
        loop = asyncio.get_running_loop()
        self._hello_waiters = [loop.create_future() for _ in range(self.shards)]
        self._internal_server = await asyncio.start_server(
            self._handle_worker, "127.0.0.1", 0, limit=STREAM_LIMIT
        )
        ihost, iport = self._internal_server.sockets[0].getsockname()[:2]
        self._publish()
        ctx = multiprocessing.get_context("spawn")
        for k in range(self.shards):
            proc = ctx.Process(
                target=run_worker,
                args=(self.manifest, k, ihost, iport, self._token),
                daemon=True,
                name=f"repro-shard-{k}",
            )
            proc.start()
            self._procs[k] = proc
        try:
            await asyncio.wait_for(
                asyncio.gather(*self._hello_waiters), timeout=60.0
            )
        except asyncio.TimeoutError:
            await self._stop_workers()
            raise IndexStateError("shard workers failed to connect at boot")
        self.registry.gauge("server.boot.shards_ms").set(
            round((time.perf_counter() - t0) * 1e3, 3)
        )
        await super().start()

    # -- liveness ----------------------------------------------------------

    def _on_link_dead(self, shard: int) -> None:
        self._m_shard_dead[shard].set(1.0)
        waiter = (
            self._hello_waiters[shard]
            if shard < len(self._hello_waiters)
            else None
        )
        if waiter is not None and not waiter.done():
            waiter.set_exception(
                ParallelExecutionError(f"shard {shard} died during boot")
            )

    def _live_link(self, shard: int) -> "_ShardLink | None":
        link = self._links[shard]
        return link if link is not None and link.alive else None

    def _death_note(self, shard: int) -> str:
        """`` (why)`` for a dead shard's error message, if known."""
        link = self._links[shard]
        return f" ({link.death})" if link is not None and link.death else ""

    def shard_status(self) -> dict[str, Any]:
        """The cross-shard epoch vector + liveness, as served by stats."""
        return {
            "count": self.shards,
            "local_epoch": self.store.current.version,
            "epochs": [
                link.last_epoch if (link := self._links[k]) is not None else None
                for k in range(self.shards)
            ],
            "dead": [
                k for k in range(self.shards) if self._live_link(k) is None
            ],
            "bands": [[b.t_lo, b.t_hi] for b in self.bands],
            "pids": [
                link.pid if (link := self._links[k]) is not None else None
                for k in range(self.shards)
            ],
        }

    def _run_verb(self, snap: Snapshot, req: Request):
        result = super()._run_verb(snap, req)
        if req.verb in ("stats", "describe"):
            result["shards"] = self.shard_status()
        return result

    # -- scatter-gather reads ---------------------------------------------

    def _execute_batch(self, batch: "list[PendingRequest]") -> None:
        out: dict[_Connection, list[bytes]] = {}
        with _tracing.activate(self.tracer), _tracing.span("server.batch"):
            snap, meta, bctx, reads = self._begin_batch(batch, out)
        # Local verbs answered — flush them now rather than holding them
        # hostage to the worker round-trip.
        self._flush(out)
        if reads:
            task = asyncio.ensure_future(self._scatter(snap, reads, meta, bctx))
            self._scatter_tasks.add(task)
            task.add_done_callback(self._scatter_tasks.discard)

    async def _batch_loop(self) -> None:
        await super()._batch_loop()
        if self._scatter_tasks:
            await asyncio.gather(
                *list(self._scatter_tasks), return_exceptions=True
            )

    def _route(
        self, verb: str, query: Any
    ) -> "tuple[list[int], tuple[int, int, int, int] | None]":
        """Owner shards of one parsed data verb (+ tile footprint for heat)."""
        grid = self._grid
        if verb == "knn":
            tid = grid.tile_iy(query.cy) * grid.nx + grid.tile_ix(query.cx)
            home = shard_for_tile(self.bands, tid)
            if self._live_link(home) is not None:
                return [home], None
            # Any live worker is equivalent for knn (full state).
            for k in range(self.shards):
                if self._live_link(k) is not None:
                    return [k], None
            return [home], None  # all dead: fails as degraded downstream
        window = query.mbr() if verb == "disk" else query
        ix0, ix1, iy0, iy1 = grid.tile_range_for_window(window)
        shards = bands_for_range(self.bands, grid.nx, ix0, ix1, iy0, iy1)
        return shards, (ix0, ix1, iy0, iy1)

    async def _scatter(
        self,
        snap: Snapshot,
        reads: "list[PendingRequest]",
        meta: dict,
        bctx: "_BatchCtx | None",
    ) -> None:
        out: dict[_Connection, list[bytes]] = {}
        try:
            await self._scatter_gather(snap, reads, meta, out, bctx)
        except Exception as exc:
            # A failed scatter still answers every request it holds: an
            # unanswered one would hang its client and the drain.
            traceback.print_exc()
            for pending in reads:
                if not pending.answered:
                    self._answer(pending, error_outcome(exc), meta, out, bctx)
        self._flush(out)

    async def _scatter_gather(
        self,
        snap: Snapshot,
        reads: "list[PendingRequest]",
        meta: dict,
        out: "dict[_Connection, list[bytes]]",
        bctx: "_BatchCtx | None",
    ) -> None:
        epoch = snap.version
        per_shard, scatters = self._split(reads, out, bctx)
        if not scatters:
            return
        t_scatter = time.perf_counter()
        futs: dict[int, asyncio.Future] = {}
        bid = next(self._bid_seq)
        for k, reqs in per_shard.items():
            link = self._live_link(k)
            if link is None:
                continue  # already degraded in merge (no frame for k)
            self._m_shard_batches[k].inc()
            self._m_shard_req[k].inc(len(reqs))
            futs[k] = link.send_batch(bid, epoch, reqs)
        if futs:
            done, not_done = await asyncio.wait(
                futs.values(), timeout=self.scatter_timeout_s
            )
            if not_done:
                # A hung worker is a dead worker: fail its futures now.
                for k, fut in futs.items():
                    if fut in not_done:
                        link = self._links[k]
                        if link is not None:
                            link.mark_dead(
                                f"no batch_r within {self.scatter_timeout_s}s"
                            )
                await asyncio.gather(*not_done, return_exceptions=True)
        frames: dict[int, "dict[str, Any] | None"] = {}
        for k, fut in futs.items():
            frames[k] = fut.result() if fut.exception() is None else None
        scatter_ms = (time.perf_counter() - t_scatter) * 1e3
        self._merge(snap, scatters, frames, meta, out, bctx, scatter_ms)

    def _split(
        self,
        reads: "list[PendingRequest]",
        out: "dict[_Connection, list[bytes]]",
        bctx: "_BatchCtx | None",
    ) -> tuple[
        "dict[int, list[dict[str, Any]]]",
        "dict[int, tuple[PendingRequest, list[int], Any]]",
    ]:
        """Parse and route data verbs into per-shard scatter envelopes.

        Routing sees only queries :func:`parse_read` validated; invalid
        ones and those owned by a dead shard are answered here.
        """
        per_shard: dict[int, list[dict[str, Any]]] = {}
        scatters: dict[int, tuple[PendingRequest, list[int], Any]] = {}
        for pending in reads:
            req = pending.request
            try:
                query = parse_read(req.verb, req.args)
            except ReproError as exc:
                self._respond(
                    pending,
                    encode_error(
                        req.id, "invalid_query", str(exc), trace=req.trace
                    ),
                    out,
                )
                continue
            shards, footprint = self._route(req.verb, query)
            dead = [k for k in shards if self._live_link(k) is None]
            if dead:
                self._m_degraded.inc()
                self._respond(
                    pending,
                    encode_error(
                        req.id,
                        "degraded",
                        f"shard(s) {dead} unavailable for "
                        f"{req.verb}{self._death_note(dead[0])}; "
                        "partial results withheld",
                        trace=req.trace,
                    ),
                    out,
                )
                continue
            rid = next(self._rid_seq)
            scatters[rid] = (pending, shards, query)
            env = {
                "id": rid,
                "verb": req.verb,
                "args": req.args,
                "trace": req.trace,
            }
            for k in shards:
                per_shard.setdefault(k, []).append(env)
            if footprint is not None and bctx is not None and bctx.stats is not None:
                self._record_footprint(footprint)
        return per_shard, scatters

    def _record_footprint(self, footprint: tuple[int, int, int, int]) -> None:
        """Feed the heat map with the query's tile footprint.

        The router never runs kernels for scattered verbs, so its heat
        signal is footprint density (scans only; rows stay zero) — the
        hot-tile ranking ``--top`` shows is preserved.
        """
        ix0, ix1, iy0, iy1 = footprint
        heat = self.telemetry.heat
        nx = self._grid.nx
        tids = (
            np.arange(iy0, iy1 + 1, dtype=np.int64)[:, None] * nx
            + np.arange(ix0, ix1 + 1, dtype=np.int64)[None, :]
        ).ravel()
        heat.scans[tids] += 1.0
        heat.total_visits += int(tids.shape[0])

    def _merge(
        self,
        snap: Snapshot,
        scatters: "dict[int, tuple[PendingRequest, list[int], Any]]",
        frames: "dict[int, dict[str, Any] | None]",
        meta: dict,
        out: "dict[_Connection, list[bytes]]",
        bctx: "_BatchCtx | None",
        scatter_ms: float,
    ) -> None:
        """Band-ordered merge of worker sub-results, one epoch, no dedup."""
        epoch = snap.version
        by_id: dict[int, dict[int, dict[str, Any]]] = {}
        for k, frame in frames.items():
            if frame is not None:
                by_id[k] = {r["id"]: r for r in frame["results"]}
        for rid, (pending, shards, query) in scatters.items():
            req = pending.request
            subs: list[dict[str, Any]] = []
            failure: "tuple[str, str] | None" = None
            kernel_ms = 0.0
            for k in shards:
                frame = frames.get(k)
                if frame is None:
                    failure = (
                        "degraded",
                        f"shard {k} worker died mid-query"
                        f"{self._death_note(k)}; reissue the request",
                    )
                    break
                if frame["epoch"] != epoch:
                    # The merge-time cross-shard consistency check: every
                    # sub-response must be cut at the stamped epoch.
                    self._m_epoch_mismatch.inc()
                    failure = (
                        "degraded",
                        f"shard {k} answered at epoch {frame['epoch']}, "
                        f"batch stamped {epoch}",
                    )
                    break
                entry = by_id[k].get(rid)
                if entry is None:
                    failure = ("internal", f"shard {k} dropped request")
                    break
                if not entry["ok"]:
                    err = entry["error"]
                    failure = (
                        "degraded" if err["code"] == "internal" else err["code"],
                        f"shard {k}: {err['message']}",
                    )
                    break
                kernel_ms = max(kernel_ms, frame.get("kernel_ms", 0.0))
                subs.append(entry["result"])
            if failure is not None:
                if failure[0] == "degraded":
                    self._m_degraded.inc()
                self._respond(
                    pending,
                    encode_error(req.id, failure[0], failure[1], trace=req.trace),
                    out,
                )
                continue
            if req.verb == "count":
                result: dict[str, Any] = {
                    "count": sum(s["count"] for s in subs)
                }
            elif req.verb == "knn":
                result = subs[0]
            else:
                ids: list[int] = []
                for s in subs:
                    ids.extend(s["ids"])
                result = {"ids": ids, "count": len(ids)}
                if _sanitize.enabled():
                    self._sanitize_merge(snap, req, query, result["ids"])
            self._deliver(
                pending,
                result,
                {**meta, "shards": shards},
                out,
                bctx,
                {
                    "scatter_ms": round(scatter_ms, 3),
                    "kernel_ms": round(kernel_ms, 3),
                    "shard": shards[0] if len(shards) == 1 else shards,
                },
            )

    def _sanitize_merge(
        self, snap: Snapshot, req: Request, query: Any, merged_ids: list[int]
    ) -> None:
        """REPRO_SANITIZE: sampled cross-check of a merged scatter result
        against a local evaluation on the same pinned snapshot."""
        self._sanitize_tick += 1
        if self._sanitize_tick % _sanitize._sample_every() != 0:
            return
        if req.verb == "disk":
            ref = snap.index.disk_query(query)
        elif req.args.get("predicate") == "within":
            ref = snap.index.window_query_within(query)
        else:
            ref = snap.index.window_query(query)
        got = sorted(merged_ids)
        want = sorted(int(i) for i in ref)
        if got != want:
            raise _sanitize.SanitizerError(
                "shard_merge_parity",
                f"router._merge[{req.verb}]",
                {
                    "merged": len(got),
                    "local": len(want),
                    "epoch": snap.version,
                },
            )

    # -- writes ------------------------------------------------------------

    async def _replicate(
        self, verb: str, args: dict[str, Any], version: int
    ) -> list[int]:
        await self._broadcast_write(verb, args, version)
        return [k for k in range(self.shards) if self._live_link(k) is not None]

    async def _broadcast_write(
        self, verb: str, args: dict[str, Any], version: int
    ) -> None:
        futs: dict[int, asyncio.Future] = {}
        seq = next(self._wseq)
        for k in range(self.shards):
            link = self._live_link(k)
            if link is not None:
                futs[k] = link.send_write(seq, verb, args)
        if not futs:
            return
        done, not_done = await asyncio.wait(
            futs.values(), timeout=self.config.write_timeout_s
        )
        if not_done:
            for k, fut in futs.items():
                if fut in not_done:
                    link = self._links[k]
                    if link is not None:
                        link.mark_dead(
                            f"no write_r within {self.config.write_timeout_s}s"
                        )
            await asyncio.gather(*not_done, return_exceptions=True)
        for k, fut in futs.items():
            if fut.exception() is not None:
                continue  # link already marked dead
            ack = fut.result()
            if not ack.get("ok") or ack.get("version") != version:
                # Replica diverged from the deterministic contract —
                # quarantine it rather than serve inconsistent merges.
                self._m_epoch_mismatch.inc()
                link = self._links[k]
                if link is not None:
                    link.mark_dead(
                        f"write acked {ack.get('version')!r}, expected "
                        f"{version}"
                    )
            else:
                self._m_shard_epoch[k].set(float(version))

    # -- shutdown ----------------------------------------------------------

    async def shutdown(self) -> None:
        if self._stopped.is_set():
            return
        await super().shutdown()
        await self._stop_workers()

    async def _stop_workers(self) -> None:
        for k in range(self.shards):
            link = self._links[k]
            if link is not None and link.alive:
                link.send_shutdown()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 5.0
        for proc in self._procs:
            if proc is None:
                continue
            while proc.is_alive() and loop.time() < deadline:
                await asyncio.sleep(0.05)
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            if proc is not None:
                await loop.run_in_executor(None, proc.join, 1.0)
        for k in range(self.shards):
            link = self._links[k]
            if link is not None:
                link.mark_dead("router shutdown")
        if self._internal_server is not None:
            self._internal_server.close()
            await self._internal_server.wait_closed()
            self._internal_server = None
        unlink_arena(self._seg)
        self._seg = None
