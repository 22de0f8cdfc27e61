"""Snapshot isolation for serving: immutable index versions, COW writes.

Readers grab :attr:`SnapshotStore.current` — an immutable
:class:`Snapshot` of (index, data, version) — and evaluate whole batches
against it (:meth:`Snapshot.evaluate`) without ever taking a lock.
Writers go through :meth:`SnapshotStore.apply`, i.e.
:meth:`SnapshotStore.insert` / :meth:`SnapshotStore.delete`, which build
a *new* index sharing every untouched tile with the old one (the tile
dict is copied shallowly; only the secondary partitions the write lands
in are rebuilt) and publish it with one atomic reference swap.  A reader
holding version *v* therefore sees version *v* forever: no torn batches,
no reader/writer blocking, and memory cost proportional to the touched
tiles, not the index.

The bulk-loaded base is an immutable
:class:`~repro.grid.storage.PackedStore` shared *by reference* across
every forked version — publishing a new snapshot costs one delta-dict
copy, never a base copy.  Inserts land in the fork's copy-on-write delta
overlay; deletes that hit base rows fork the
tombstone bitmap (:meth:`~repro.grid.storage.PackedStore
.with_private_dead`) so the published version's base stays untouched.

Invariant: every :class:`~repro.grid.storage.TileTable` reachable from a
published snapshot is *compacted* (no pending append tail).  Bulk
loading and this module's COW constructors only ever produce compacted
tables, so concurrent readers calling ``columns()`` perform pure reads.
"""

from __future__ import annotations

import threading
from typing import Any, Sequence

import numpy as np

from repro.analysis import sanitize as _sanitize
from repro.core.batch import evaluate_disk_tiles_based, evaluate_tiles_based
from repro.core.knn import knn_query
from repro.datasets.dataset import RectDataset
from repro.datasets.queries import DiskQuery
from repro.errors import (
    IndexStateError,
    InvalidQueryError,
    ProtocolError,
    ReproError,
)
from repro.geometry.mbr import Rect
from repro.grid.storage import TileTable
from repro.core.two_layer import TwoLayerGrid
from repro.core.two_layer_plus import TwoLayerPlusGrid
from repro.obs import tracing as _tracing
from repro.stats import QueryStats

__all__ = ["Snapshot", "SnapshotStore", "error_outcome", "parse_read"]


def parse_read(verb: str, args: dict[str, Any]) -> "Rect | DiskQuery":
    """The validated query object of one data verb.

    Raises a :class:`~repro.errors.ReproError` on a semantically invalid
    query (non-finite coordinates, an inverted window, a negative
    radius, ``k < 1``).  A ``knn`` parses to its query point, as a
    radius-0 disk.
    """
    if verb == "disk":
        return DiskQuery(args["cx"], args["cy"], args["radius"])
    if verb == "knn":
        if args["k"] < 1:
            raise InvalidQueryError(f"k must be >= 1, got {args['k']}")
        return DiskQuery(args["cx"], args["cy"], 0.0)
    return Rect(args["xl"], args["yl"], args["xu"], args["yu"])


def _failure(code: str, message: str) -> dict[str, Any]:
    return {"ok": False, "error": {"code": code, "message": message}}


def error_outcome(exc: Exception) -> dict[str, Any]:
    """The failed outcome of a request whose handler raised ``exc``: a
    caller's mistake is ``invalid_query``, anything else ``internal``."""
    if isinstance(exc, (InvalidQueryError, ProtocolError)):
        return _failure("invalid_query", str(exc))
    if isinstance(exc, ReproError):
        return _failure("internal", str(exc))
    return _failure("internal", repr(exc))


def _ids_outcome(ids: np.ndarray, count_only: bool) -> dict[str, Any]:
    n = int(ids.shape[0])
    return {
        "ok": True,
        "result": {"count": n} if count_only else {"ids": ids.tolist(), "count": n},
    }


class Snapshot:
    """One immutable version of the collection: index + data + version."""

    __slots__ = ("index", "data", "version")

    def __init__(self, index: TwoLayerGrid, data: RectDataset, version: int):
        self.index = index
        self.data = data
        self.version = version

    def evaluate(
        self,
        reqs: Sequence[tuple[str, dict[str, Any]]],
        stats: "QueryStats | None" = None,
    ) -> list[dict[str, Any]]:
        """Answer data-verb requests against this version.

        ``reqs`` are ``(verb, args)`` pairs with protocol-validated args
        (:data:`~repro.server.protocol.DATA_VERBS`).  Returns one outcome
        per request, in order: ``{"ok": True, "result": ...}`` or
        ``{"ok": False, "error": {"code", "message"}}``.  Intersects
        windows and counts share one Section VI tiles-based sweep and
        disks another; ``within`` windows and kNN run singly.  Every
        serving tier runs this evaluator: the single-process service on
        its snapshot, each shard worker on its band-clamped replica
        (whose per-band answers concatenate into the global one).
        """
        out: list[Any] = [None] * len(reqs)
        tiles: list[tuple[int, str, Any]] = []
        disks: list[tuple[int, str, Any]] = []
        singles: list[tuple[int, str, dict[str, Any], Any]] = []
        for i, (verb, args) in enumerate(reqs):
            try:
                query = parse_read(verb, args)
            except ReproError as exc:
                out[i] = _failure("invalid_query", str(exc))
                continue
            if verb == "disk":
                disks.append((i, verb, query))
            elif verb == "knn" or (
                verb == "window" and args.get("predicate") == "within"
            ):
                singles.append((i, verb, args, query))
            else:
                tiles.append((i, verb, query))
        index = self.index
        for name, kernel, group in (
            ("server.window", evaluate_tiles_based, tiles),
            ("server.disk", evaluate_disk_tiles_based, disks),
        ):
            if not group:
                continue
            try:
                with _tracing.span(name):
                    results = kernel(index, [q for _, _, q in group], stats)
            except Exception as exc:
                for i, _, _ in group:
                    out[i] = error_outcome(exc)
                continue
            for (i, verb, _), ids in zip(group, results):
                out[i] = _ids_outcome(ids, verb == "count")
        for i, verb, args, query in singles:
            try:
                with _tracing.span(f"server.{verb}"):
                    if verb == "knn":
                        # the k-th distance bound is global: never banded
                        ids = knn_query(
                            index.global_view(),
                            self.data,
                            query.cx,
                            query.cy,
                            args["k"],
                            stats=stats,
                        )
                    else:
                        ids = index.window_query_within(query, stats)
            except Exception as exc:
                out[i] = error_outcome(exc)
                continue
            out[i] = _ids_outcome(ids, False)
        return out

    def __repr__(self) -> str:
        return (
            f"Snapshot(version={self.version}, objects={len(self.index)}, "
            f"replicas={self.index.replica_count})"
        )


def _tile_range(grid, rect: Rect):
    return (
        grid.tile_ix(rect.xl),
        grid.tile_ix(rect.xu),
        grid.tile_iy(rect.yl),
        grid.tile_iy(rect.yu),
    )


def _shallow_fork(index: TwoLayerGrid) -> TwoLayerGrid:
    fork = index._fork_shell()  # preserves subclass (e.g. shard bands)
    fork._store = index._store  # immutable base shared by reference
    fork._fast_q = index._fast_q  # derived caches: same base, same rows
    fork._tile_row_bounds = index._tile_row_bounds
    fork._tiles = dict(index._tiles)
    fork._n_objects = index._n_objects
    return fork


class SnapshotStore:
    """Atomic snapshot publication over a two-layer grid.

    Writes are serialised by an internal lock (callers may also be
    asyncio tasks funnelled through one writer); reads are lock-free —
    ``store.current`` is a single attribute load.
    """

    def __init__(self, index: TwoLayerGrid, data: RectDataset):
        if isinstance(index, TwoLayerPlusGrid) or not isinstance(
            index, TwoLayerGrid
        ):
            raise IndexStateError(
                "SnapshotStore serves the plain TwoLayerGrid; got "
                f"{type(index).__name__}"
            )
        if len(index) != len(data):
            raise IndexStateError(
                f"index covers {len(index)} objects but the dataset has "
                f"{len(data)} rows; ids must stay positional"
            )
        self._write_lock = threading.Lock()
        # Published columns are shared by reference with every reader;
        # freeze them so a stray in-place write fails loudly instead of
        # corrupting pinned snapshots.  This is unconditional hardening —
        # REPRO_SANITIZE only adds the structural cross-checks below.
        _sanitize.freeze_arrays((data.xl, data.yl, data.xu, data.yu))
        if _sanitize.enabled():
            _sanitize.check_snapshot(index, "SnapshotStore.__init__")
        self._current = Snapshot(index, data, 0)

    @property
    def current(self) -> Snapshot:
        """The latest published snapshot (atomic reference read)."""
        return self._current

    #: Deterministic-scheduling hook: the write path announces named
    #: points (``insert.locked`` … ``insert.published``) so the
    #: interleaving explorer (:mod:`repro.analysis.verify.schedule`) can
    #: probe reader-visible state at every step.  A reader is one atomic
    #: ``current`` load, so probing at every yield point covers every
    #: reader/writer interleaving.  No-op in production; overridden per
    #: *instance* only (never at class/module scope).
    @staticmethod
    def _yield_point(tag: str) -> None:
        return None

    # -- writes -----------------------------------------------------------

    def apply(self, verb: str, args: dict[str, Any]) -> tuple[dict[str, Any], int]:
        """Apply one protocol write; returns ``(result, published version)``.

        The single place a wire ``insert``/``delete`` becomes a store
        write: the service's writer and every shard replica go through
        it, so replicas fed the same writes walk the same versions.
        """
        if verb == "insert":
            rect = Rect(args["xl"], args["yl"], args["xu"], args["yu"])
            obj_id, version = self.insert(rect)
            return {"id": obj_id, "snapshot": version}, version
        found, version = self.delete(args["id"])
        return {"found": found, "snapshot": version}, version

    def insert(self, rect: Rect) -> tuple[int, int]:
        """Insert one MBR; returns ``(object id, published version)``.

        Collections carrying exact geometries cannot be grown over the
        wire (the MBR-only protocol would silently degrade refinement),
        mirroring :meth:`SpatialCollection.insert`'s requirement.
        """
        with self._write_lock:
            self._yield_point("insert.locked")
            snap = self._current
            if snap.data.geometries is not None:
                raise InvalidQueryError(
                    "this collection stores exact geometries; serving "
                    "inserts are MBR-only"
                )
            index = snap.index
            obj_id = index._n_objects
            fork = _shallow_fork(index)
            fork._n_objects = obj_id + 1
            self._yield_point("insert.forked")
            ix0, ix1, iy0, iy1 = _tile_range(index.grid, rect)
            for iy in range(iy0, iy1 + 1):
                base = iy * index.grid.nx
                for ix in range(ix0, ix1 + 1):
                    code = 2 * (ix > ix0) + (iy > iy0)
                    old_tables = fork._tiles.get(base + ix)
                    tables = (
                        [None, None, None, None]
                        if old_tables is None
                        else list(old_tables)
                    )
                    old = tables[code]
                    if old is None:
                        tables[code] = TileTable(
                            np.array([rect.xl]),
                            np.array([rect.yl]),
                            np.array([rect.xu]),
                            np.array([rect.yu]),
                            np.array([obj_id], dtype=np.int64),
                        )
                    else:
                        xl, yl, xu, yu, ids = old.columns()
                        tables[code] = TileTable(
                            np.append(xl, rect.xl),
                            np.append(yl, rect.yl),
                            np.append(xu, rect.xu),
                            np.append(yu, rect.yu),
                            np.append(ids, np.int64(obj_id)),
                        )
                    fork._tiles[base + ix] = tables
            self._yield_point("insert.indexed")
            data = snap.data
            new_data = RectDataset(
                np.append(data.xl, rect.xl),
                np.append(data.yl, rect.yl),
                np.append(data.xu, rect.xu),
                np.append(data.yu, rect.yu),
                None,
            )
            _sanitize.freeze_arrays(
                (new_data.xl, new_data.yl, new_data.xu, new_data.yu)
            )
            if _sanitize.enabled():
                _sanitize.check_snapshot(fork, "SnapshotStore.insert")
            version = snap.version + 1
            self._yield_point("insert.pre_publish")
            self._current = Snapshot(fork, new_data, version)
            self._yield_point("insert.published")
            return obj_id, version

    def delete(self, obj_id: int) -> tuple[bool, int]:
        """Remove one object by id; returns ``(found, current version)``.

        Like the facade, the dataset row is kept (ids are positional) —
        only the index entries disappear.  The version advances only
        when something was actually removed.
        """
        with self._write_lock:
            self._yield_point("delete.locked")
            snap = self._current
            if not 0 <= obj_id < len(snap.data):
                return False, snap.version
            rect = snap.data.rect(obj_id)
            index = snap.index
            fork = _shallow_fork(index)
            self._yield_point("delete.forked")
            ix0, ix1, iy0, iy1 = _tile_range(index.grid, rect)
            removed = 0
            base_store = fork._store
            forked_store = None
            for iy in range(iy0, iy1 + 1):
                base = iy * index.grid.nx
                for ix in range(ix0, ix1 + 1):
                    code = 2 * (ix > ix0) + (iy > iy0)
                    if base_store is not None:
                        # Base rows are tombstoned on a private copy of
                        # the dead bitmap (allocated lazily on the first
                        # hit); the published base stays immutable.
                        rows = (forked_store or base_store).find_rows(
                            (base + ix) * 4 + code, obj_id
                        )
                        if rows.shape[0]:
                            if forked_store is None:
                                forked_store = base_store.with_private_dead()
                                fork._store = forked_store
                            removed += forked_store.mark_dead(rows)
                    old_tables = fork._tiles.get(base + ix)
                    if old_tables is None:
                        continue
                    old = old_tables[code]
                    if old is None:
                        continue
                    xl, yl, xu, yu, ids = old.columns()
                    keep = ids != obj_id
                    hits = int(ids.shape[0] - keep.sum())
                    if not hits:
                        continue
                    removed += hits
                    tables = list(old_tables)
                    if keep.any():
                        tables[code] = TileTable(
                            xl[keep], yl[keep], xu[keep], yu[keep], ids[keep]
                        )
                    else:
                        tables[code] = None
                    if all(t is None for t in tables):
                        del fork._tiles[base + ix]
                    else:
                        fork._tiles[base + ix] = tables
            self._yield_point("delete.indexed")
            if removed == 0:
                return False, snap.version
            if _sanitize.enabled():
                _sanitize.check_snapshot(fork, "SnapshotStore.delete")
            version = snap.version + 1
            self._yield_point("delete.pre_publish")
            self._current = Snapshot(fork, snap.data, version)
            self._yield_point("delete.published")
            return True, version

    def __repr__(self) -> str:
        snap = self._current
        return f"SnapshotStore(version={snap.version}, objects={len(snap.index)})"
