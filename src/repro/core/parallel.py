"""Parallel batch query processing — Sections VI and VII-C.

The paper parallelises with OpenMP threads on a 40-hyperthread Xeon; in
CPython the GIL rules out thread-level speedup for index code, so this
module uses *forked worker processes* instead (documented substitution,
see DESIGN.md).  The two strategies mirror Section VI:

* **queries-based** — the batch's queries are dealt to workers round-robin
  style; every worker evaluates its queries independently against the
  (copy-on-write shared) index.
* **tiles-based** — the per-tile subtasks are computed once, tiles are
  sharded across workers, and each worker sweeps only its own tiles.  A
  worker therefore touches a bounded working set, the process-level
  analogue of the cache-consciousness argument, and no two workers ever
  scan the same tile.

Two entry points:

* :func:`parallel_window_queries` — one-shot: forks a pool, runs the
  batch, tears the pool down.  Convenient, but pool startup is part of
  the call.
* :class:`ParallelBatchEvaluator` — a persistent worker pool (the
  process analogue of OpenMP's thread team, which exists before the
  timed region in the paper's experiments).  Use this for measuring
  speedup curves and for services running many batches.

Both return the per-query *result counts* (shipping full id arrays across
process boundaries would measure pickling, not query evaluation; the
paper's throughput numbers likewise count results without materialising
them to a client).  ``workers=1`` runs the same shard functions inline
over a single shard, providing the speedup-1 baseline.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Sequence

import numpy as np

from repro.errors import InvalidQueryError, ParallelExecutionError
from repro.geometry.mbr import Rect
from repro.core.selection import plan_tile
from repro.core.two_layer import TwoLayerGrid

__all__ = [
    "parallel_window_queries",
    "ParallelBatchEvaluator",
    "PARALLEL_METHODS",
    "available_workers",
]

PARALLEL_METHODS = ("queries", "tiles")

# Worker-side state, populated by the pool initializer after fork (the
# index is inherited copy-on-write; nothing index-sized is pickled).
_STATE: dict = {}


def available_workers() -> int:
    """Workers usable on this machine (like the paper's thread counts)."""
    try:
        return max(len(os.sched_getaffinity(0)), 1)
    except AttributeError:  # non-Linux
        return max(os.cpu_count() or 1, 1)


def _init_worker(index) -> None:
    _STATE["index"] = index


def _run_query_shard(payload, index=None) -> list[tuple[int, int]]:
    """queries-based worker: evaluate whole queries from the payload.

    Workers read the index from their fork state; the inline (one
    worker) run passes it.
    """
    index = _STATE["index"] if index is None else index
    return [
        (qi, int(index.window_query(window).shape[0]))
        for qi, window in payload
    ]


def _run_tile_shard(payload, index=None) -> list[tuple[int, int]]:
    """tiles-based worker: drain the subtasks of a shard of tiles.

    ``payload`` is ``(windows, ranges, shard)`` where ``shard`` is a list
    of ``(tile_id, [query indices])``; ``index`` as for
    :func:`_run_query_shard`.
    """
    windows, ranges, shard = payload
    index = _STATE["index"] if index is None else index
    grid = index.grid
    counts: dict[int, int] = {}
    for tile_id, q_list in shard:
        ix, iy = grid.tile_coords(tile_id)
        for qi in q_list:
            ix0, ix1, iy0, iy1 = ranges[qi]
            plan = plan_tile(ix, iy, ix0, ix1, iy0, iy1)
            pieces: list[np.ndarray] = []
            index._scan_tile_window(tile_id, windows[qi], plan, pieces)
            got = sum(p.shape[0] for p in pieces)
            if got:
                counts[qi] = counts.get(qi, 0) + got
    return list(counts.items())


class ParallelBatchEvaluator:
    """A persistent pool of forked workers sharing one two-layer index.

    The pool is created once (workers inherit the index copy-on-write)
    and then evaluates any number of batches; per-batch work ships only
    the query windows.  Use as a context manager::

        with ParallelBatchEvaluator(index, workers=4) as pool:
            counts = pool.run(windows, method="tiles")
    """

    def __init__(self, index: TwoLayerGrid, workers: int = 2):
        if workers < 1:
            raise InvalidQueryError(f"workers must be >= 1, got {workers}")
        self.index = index
        self.workers = workers
        self._pool = None
        self._broken = False
        if workers > 1:
            ctx = multiprocessing.get_context("fork")
            self._pool = ctx.Pool(
                processes=workers, initializer=_init_worker, initargs=(index,)
            )

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        if self._pool is not None:
            if self._broken:
                self._pool.terminate()
            else:
                self._pool.close()
            self._pool.join()
            self._pool = None

    def _map_or_raise(self, fn, payloads) -> list:
        """``pool.map`` that fails loudly when a worker dies mid-batch.

        ``multiprocessing.Pool`` silently respawns a killed worker and
        leaves its in-flight task unfinished, so a plain ``map`` would
        hang forever (or surface a bare ``BrokenPipeError``).  The wait
        loop watches the pool's worker set; any death mid-batch raises
        :class:`~repro.errors.ParallelExecutionError` and marks the
        evaluator broken (terminated on :meth:`close`).
        """
        pool = self._pool
        workers = getattr(pool, "_pool", None)  # CPython Pool internals
        baseline = (
            {w.pid for w in workers} if workers is not None else None
        )
        result = pool.map_async(fn, payloads)
        while not result.ready():
            result.wait(0.05)
            if result.ready() or baseline is None:
                break
            dead = any(not w.is_alive() for w in workers)
            if dead or {w.pid for w in workers} != baseline:
                self._broken = True
                self.close()
                raise ParallelExecutionError(
                    "a parallel batch worker died mid-batch (killed or "
                    "crashed); the pool was terminated — results for "
                    "this batch are lost"
                )
        try:
            return result.get()
        except ParallelExecutionError:
            raise
        except Exception as exc:
            self._broken = True
            self.close()
            raise ParallelExecutionError(
                f"parallel batch failed in a worker: "
                f"{type(exc).__name__}: {exc}"
            ) from exc

    def __enter__(self) -> "ParallelBatchEvaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- evaluation ----------------------------------------------------------

    def run(self, windows: Sequence[Rect], method: str = "queries") -> np.ndarray:
        """Evaluate a batch; returns per-query result counts."""
        if method not in PARALLEL_METHODS:
            raise InvalidQueryError(
                f"unknown parallel method {method!r}; expected one of "
                f"{PARALLEL_METHODS}"
            )
        if self._broken:
            raise ParallelExecutionError(
                "this evaluator's worker pool is broken (a worker died); "
                "create a new ParallelBatchEvaluator"
            )
        windows = list(windows)
        counts = np.zeros(len(windows), dtype=np.int64)
        if not windows:
            return counts

        if method == "queries":
            payloads = [
                [(qi, windows[qi]) for qi in range(w, len(windows), self.workers)]
                for w in range(self.workers)
            ]
            run = _run_query_shard
        else:
            grid = self.index.grid
            ranges = [grid.tile_range_for_window(w) for w in windows]
            index = self.index
            subtasks: dict[int, list[int]] = {}
            for qi, (ix0, ix1, iy0, iy1) in enumerate(ranges):
                for iy in range(iy0, iy1 + 1):
                    base = iy * grid.nx
                    for ix in range(ix0, ix1 + 1):
                        tile_id = base + ix
                        if tile_id in subtasks or index._tile_has_rows(tile_id):
                            subtasks.setdefault(tile_id, []).append(qi)
            items = sorted(subtasks.items())
            payloads = [
                (windows, ranges, items[w :: self.workers])
                for w in range(self.workers)
            ]
            run = _run_tile_shard

        if self._pool is None:
            # One worker: the same shard function over the one shard,
            # inline — it counts as it goes, like the pool's workers.
            results = [run(payload, self.index) for payload in payloads]
        else:
            results = self._map_or_raise(run, payloads)
        for shard_result in results:
            for qi, cnt in shard_result:
                counts[qi] += cnt
        return counts


def parallel_window_queries(
    index: TwoLayerGrid,
    windows: Sequence[Rect],
    workers: int = 2,
    method: str = "queries",
) -> np.ndarray:
    """One-shot parallel batch evaluation; returns per-query counts.

    ``method`` selects queries-based or tiles-based sharding (Section VI).
    ``workers=1`` evaluates inline (no processes) — the speedup baseline.
    Pool startup/teardown is included; measure speedup curves with
    :class:`ParallelBatchEvaluator` instead.
    """
    with ParallelBatchEvaluator(index, workers) as pool:
        return pool.run(windows, method)
