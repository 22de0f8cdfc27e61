"""The ShardWorker process: banded kernels over shared-memory columns.

One worker per shard, spawned by the router.  A worker rebuilds the
full serving state without copying a byte of column data — the packed
CSR base, the dataset columns and the fast-path query matrix are all
read-only views into the router's shm arena — wraps it in a
:class:`~repro.shard.banded.BandedTwoLayerGrid` clamped to its band,
and serves a strictly sequential asyncio loop over a single TCP
connection back to the router:

* **reads** arrive as one ``batch`` envelope per micro-batch, stamped
  with the router's snapshot epoch.  The worker runs the single-process
  server's evaluator (:meth:`~repro.server.snapshot.Snapshot.evaluate`)
  against its replica of exactly that version (it keeps a ring of
  recent snapshots); a batch stamped *ahead* of the replica (the write
  that produced it is still in flight) is parked and drained as soon as
  the write lands — never executed against an older version, so
  scatter-gather merges are cut at one consistent epoch.  A parked
  batch whose write never arrives fails with a structured error at
  ``stale_after_s`` (the router turns that into a degraded response —
  no hangs).
* **writes** are broadcast by the router to every worker and applied
  inline in arrival order through the router's own write path
  (:meth:`~repro.server.snapshot.SnapshotStore.apply`).  Application is
  deterministic (object ids assigned from a counter, delete-misses
  don't bump the version), so every replica independently produces the
  identical version sequence the router's own local store produces —
  the cross-shard "epoch vector" stays uniform without any
  coordination.

The worker needs no metrics, no telemetry and no public protocol: the
router owns the client edge and already validated every request.  Exit
paths: a ``shutdown`` envelope, EOF from the router (router gone), or
being killed — in all cases the worker only ever ``close()``-es the
arena (the router is the sole unlinker; see :mod:`repro.shard.shm`).
"""

from __future__ import annotations

import asyncio
import os
import time
from typing import Any

from repro.analysis import sanitize as _sanitize
from repro.datasets.dataset import RectDataset
from repro.errors import ReproError
from repro.geometry.mbr import Rect
from repro.grid.base import GridPartitioner
from repro.grid.storage import PackedStore
from repro.server.snapshot import Snapshot, SnapshotStore
from repro.shard.banded import BandedTwoLayerGrid
from repro.shard.partition import ShardBand
from repro.shard.shm import attach_arena
from repro.shard.wire import STREAM_LIMIT, decode_frame, encode_frame

__all__ = ["build_worker_state", "run_worker"]

#: snapshot versions a replica keeps behind its head — a read stamped
#: further back than this (the router would have to lag the broadcast by
#: this many writes) fails structurally instead of answering stale.
_RING_KEEP = 64

#: how long a parked (ahead-of-replica) batch waits for its write.
_STALE_AFTER_S = 5.0


def build_worker_state(
    manifest: dict[str, Any], views: dict[str, Any], shard_id: int
) -> tuple[BandedTwoLayerGrid, RectDataset]:
    """Reconstruct the banded index + dataset from attached shm views."""
    domain = manifest["domain"]
    grid = GridPartitioner(
        manifest["nx"],
        manifest["ny"],
        Rect(domain[0], domain[1], domain[2], domain[3]),
    )
    store = PackedStore(
        4,
        views["offsets"],
        views["xl"],
        views["yl"],
        views["xu"],
        views["yu"],
        views["ids"],
    )
    if _sanitize.enabled():
        _sanitize.check_packed_store(store, "shard.worker.attach")
    band = ShardBand.from_tuple(manifest["bands"][shard_id])
    index = BandedTwoLayerGrid(grid, band)
    index._store = store
    index._n_objects = int(manifest["n_objects"])
    index._fast_q = views.get("fast_q")  # else built on first query
    data = RectDataset(
        views["data_xl"], views["data_yl"], views["data_xu"], views["data_yu"]
    )
    return index, data


def _err(rid: int, code: str, message: str) -> dict[str, Any]:
    return {"id": rid, "ok": False, "error": {"code": code, "message": message}}


class _WorkerLoop:
    """Sequential frame processor: reads parked by epoch, writes inline."""

    def __init__(self, index: BandedTwoLayerGrid, data: RectDataset):
        self.store = SnapshotStore(index, data)
        head = self.store.current
        self.ring: dict[int, Snapshot] = {head.version: head}
        #: parked read batches: (frame, monotonic deadline)
        self.parked: list[tuple[dict[str, Any], float]] = []

    # -- reads -------------------------------------------------------------

    def _snapshot_at(self, epoch: int) -> "Snapshot | None":
        head = self.store.current
        if epoch == head.version:
            return head
        return self.ring.get(epoch)

    def try_batch(self, frame: dict[str, Any]) -> "dict[str, Any] | None":
        """Execute a batch envelope, or return None to park it."""
        epoch = frame["epoch"]
        snap = self._snapshot_at(epoch)
        if snap is None:
            if epoch > self.store.current.version:
                return None  # write still in flight; drained on arrival
            return self._fail_batch(
                frame,
                f"epoch {epoch} evicted (replica at "
                f"{self.store.current.version}, ring {_RING_KEEP})",
            )
        return self._run_batch(snap, frame)

    def _fail_batch(self, frame: dict[str, Any], message: str) -> dict[str, Any]:
        return {
            "t": "batch_r",
            "bid": frame["bid"],
            "epoch": self.store.current.version,
            "kernel_ms": 0.0,
            "results": [
                _err(r["id"], "internal", message) for r in frame["reqs"]
            ],
        }

    def _run_batch(self, snap: Snapshot, frame: dict[str, Any]) -> dict[str, Any]:
        t0 = time.perf_counter()
        reqs = frame["reqs"]
        outcomes = snap.evaluate([(r["verb"], r["args"]) for r in reqs])
        return {
            "t": "batch_r",
            "bid": frame["bid"],
            "epoch": snap.version,
            "kernel_ms": round((time.perf_counter() - t0) * 1e3, 3),
            "results": [
                {"id": r["id"], **outcome} for r, outcome in zip(reqs, outcomes)
            ],
        }

    # -- writes ------------------------------------------------------------

    def apply_write(self, frame: dict[str, Any]) -> dict[str, Any]:
        try:
            result, version = self.store.apply(frame["verb"], frame["args"])
        except ReproError as exc:
            return {
                "t": "write_r",
                "seq": frame["seq"],
                "ok": False,
                "version": self.store.current.version,
                "error": {"code": "invalid_query", "message": str(exc)},
            }
        head = self.store.current
        self.ring[head.version] = head
        for v in [v for v in self.ring if v < head.version - _RING_KEEP]:
            del self.ring[v]
        return {
            "t": "write_r",
            "seq": frame["seq"],
            "ok": True,
            "version": version,
            "result": result,
        }

    # -- parking -----------------------------------------------------------

    def park(self, frame: dict[str, Any], now: float) -> None:
        self.parked.append((frame, now + _STALE_AFTER_S))

    def drain_parked(self, now: float) -> list[dict[str, Any]]:
        """Responses for parked batches that became runnable or stale."""
        if not self.parked:
            return []
        out: list[dict[str, Any]] = []
        still: list[tuple[dict[str, Any], float]] = []
        for frame, deadline in self.parked:
            response = self.try_batch(frame)
            if response is not None:
                out.append(response)
            elif now >= deadline:
                out.append(
                    self._fail_batch(
                        frame,
                        f"epoch {frame['epoch']} never reached (replica at "
                        f"{self.store.current.version})",
                    )
                )
            else:
                still.append((frame, deadline))
        self.parked = still
        return out


async def _worker_main(
    manifest: dict[str, Any], shard_id: int, host: str, port: int, token: str
) -> None:
    # untrack=False: we are a spawn child sharing the router's resource
    # tracker, and must not erase its registration (see shm docstring).
    seg, views = attach_arena(manifest, untrack=False)
    try:
        index, data = build_worker_state(manifest, views, shard_id)
        loop_state = _WorkerLoop(index, data)
        reader, writer = await asyncio.open_connection(
            host, port, limit=STREAM_LIMIT
        )
        writer.write(
            encode_frame(
                {
                    "t": "hello",
                    "shard": shard_id,
                    "pid": os.getpid(),
                    "token": token,
                }
            )
        )
        await writer.drain()
        aloop = asyncio.get_running_loop()
        try:
            while True:
                try:
                    line = await asyncio.wait_for(reader.readline(), 0.25)
                except asyncio.TimeoutError:
                    # Idle tick: expire parked batches whose write never
                    # arrived (structured error beats an infinite park).
                    for response in loop_state.drain_parked(aloop.time()):
                        writer.write(encode_frame(response))
                    await writer.drain()
                    continue
                if not line:
                    return  # router gone: exit quietly, never unlink
                frame = decode_frame(line)
                kind = frame["t"]
                if kind == "batch":
                    response = loop_state.try_batch(frame)
                    if response is None:
                        loop_state.park(frame, aloop.time())
                    else:
                        writer.write(encode_frame(response))
                elif kind == "write":
                    writer.write(encode_frame(loop_state.apply_write(frame)))
                    for response in loop_state.drain_parked(aloop.time()):
                        writer.write(encode_frame(response))
                elif kind == "shutdown":
                    return
                await writer.drain()
        finally:
            writer.close()
    finally:
        seg.close()


def run_worker(
    manifest: dict[str, Any], shard_id: int, host: str, port: int, token: str
) -> None:
    """Spawn-target entrypoint (must be a module-level function)."""
    asyncio.run(_worker_main(manifest, shard_id, host, port, token))
