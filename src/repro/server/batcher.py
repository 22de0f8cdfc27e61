"""Request micro-batching: bounded admission queue + timer-free drain.

The server enqueues every accepted read request here.  The batch loop
takes the first request plus whatever is *already queued* (up to
``max_batch``) and executes the whole batch against one snapshot —
window and disk queries through the Section VI tiles-based evaluator,
so concurrent clients pay the per-tile scan setup once instead of once
per request.  No timer holds a batch open: under load, arrivals queue
up while the previous batch executes, so batches form exactly when
there is something to share, and an idle server answers a lone request
at the cost of its kernel.

The queue is bounded: :meth:`MicroBatcher.try_submit` never blocks and
returns ``False`` when the queue is full, which the service translates
into a structured ``overloaded`` error with a retry-after hint.  That is
the admission-control half of backpressure; the per-connection write
timeout in :mod:`repro.server.service` is the other half.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any

from repro.server.protocol import Request

__all__ = ["MicroBatcher", "PendingRequest"]


class PendingRequest:
    """One admitted request waiting for (batched) execution."""

    __slots__ = ("request", "conn", "enqueued_at", "dequeued_at", "answered")

    # `conn` is the service layer's _Connection; typed loosely to keep
    # the batcher importable without the service (no circular import).
    def __init__(
        self, request: Request, conn: Any, enqueued_at: "float | None" = None
    ):
        self.request = request
        self.conn = conn
        self.enqueued_at = (
            enqueued_at if enqueued_at is not None else time.perf_counter()
        )
        #: stamped by the drain loop when the request leaves the queue;
        #: ``dequeued_at - enqueued_at`` is the admission-queue wait and
        #: ``exec_start - dequeued_at`` the dequeue-to-execute gap of a
        #: trace (reported as its ``coalesce_ms`` phase).
        self.dequeued_at = self.enqueued_at
        #: set once the service has sent (or staged) the response.
        self.answered = False


class MicroBatcher:
    """Bounded queue drained as first request plus what is already queued.

    ``max_batch`` caps the batch size.  :meth:`next_batch` never waits
    for more arrivals once it holds a request, so ``max_batch=1`` is
    per-request execution — the unbatched baseline the serving benchmark
    compares against.
    """

    def __init__(self, queue_depth: int = 128, max_batch: int = 64):
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.queue_depth = queue_depth
        self.max_batch = max_batch
        self._queue: "asyncio.Queue[PendingRequest | None]" = asyncio.Queue(
            maxsize=queue_depth
        )
        self._closed = False

    # -- submission (never blocks) ----------------------------------------

    def try_submit(self, pending: PendingRequest) -> bool:
        """Admit a request; ``False`` means the queue is full (reject)."""
        if self._closed:
            return False
        try:
            self._queue.put_nowait(pending)
        except asyncio.QueueFull:
            return False
        return True

    def depth(self) -> int:
        """Requests currently queued (the backpressure gauge)."""
        return self._queue.qsize()

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop admitting; wake the drain loop once the queue empties."""
        self._closed = True
        try:
            self._queue.put_nowait(None)
        except asyncio.QueueFull:
            pass  # the drain loop is behind; it will see _closed

    # -- draining ---------------------------------------------------------

    async def next_batch(self) -> "list[PendingRequest] | None":
        """The next micro-batch, or ``None`` once closed and drained."""
        while True:
            # close() drops its sentinel when the queue is full, so a
            # closed, drained queue must not be awaited on.
            if self._closed and self._queue.empty():
                return None
            first = await self._queue.get()
            if first is not None:
                break
        now = time.perf_counter()
        first.dequeued_at = now
        batch = [first]
        while len(batch) < self.max_batch:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is None:
                # closed: nothing queues behind the sentinel, and the
                # next call returns None once the queue is empty
                break
            item.dequeued_at = now
            batch.append(item)
        return batch
