"""The 2-layer grid index — the paper's primary contribution (Section III).

Each grid tile's (MBR, id) pairs are physically divided into four
secondary partitions by *class* (A/B/C/D, see :mod:`repro.grid.base`).
Window queries then scan, per tile, only the classes that cannot produce
duplicate results (Lemmas 1-2) with only the comparisons that are not
already guaranteed (Lemmas 3-4, Section IV-B) — duplicates are *avoided*,
never generated, so no deduplication step exists at all (Algorithm 1).

Disk queries (Section IV-E) skip classes based on whether the previous
tile per dimension also intersects the disk, report fully-covered tiles
without distance tests, and resolve the residual boundary-arc duplicates
of classes B/D with a constant-time canonical-tile test.

Storage
-------

One physical layout sits behind the index (see :mod:`repro.grid.storage`):

* the bulk-loaded **base** lives in one CSR
  :class:`~repro.grid.storage.PackedStore` keyed by fused
  ``(tile, class)``.  Per grid row of a query's tile range the tiles are
  one contiguous row slab, so a window query (or count) is one
  comparison pass per slab against a per-row query matrix whose
  ``±inf`` columns encode the class-scanning rule of Lemmas 1-2
  (:meth:`TwoLayerGrid._build_fast_q`) — run by the single slab
  executor :func:`repro.grid.kernels.window_slabs`, no Python-per-tile
  loop.  Deletes tombstone base rows in place; the executor masks them.
* inserts land in a per-tile **delta overlay** of
  :class:`~repro.grid.storage.TileTable` (O(1), Table VI); overlay tiles
  inside a query's range add their rows through a per-tile class scan.
  :meth:`compact` folds overlay and tombstones back into a fresh base.
  Compaction is always explicit — queries never trigger it, so
  published snapshots can share the base by reference.

QueryStats/EXPLAIN accounting is *derived from the plan*
(:meth:`TwoLayerGrid._account_window`: group sizes per plan-uniform
region, no row is read), so the ids a query returns never depend on
whether ``stats`` was passed.  An index grown by :meth:`insert` alone
has no base at all (``_store is None``) and answers through the
per-tile scans only — the reference the parity tests compare against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis import sanitize as _sanitize
from repro.datasets.dataset import RectDataset
from repro.datasets.queries import DiskQuery
from repro.errors import IndexStateError
from repro.geometry.mbr import Rect, max_dist_point_rect, min_dist_point_rect
from repro.grid.base import (
    CLASS_A,
    CLASS_B,
    CLASS_C,
    CLASS_D,
    CLASS_NAMES,
    GridPartitioner,
    replicate,
)
from repro.grid import kernels as _kernels
from repro.grid.storage import PackedStore, TileTable
from repro.core.selection import ClassPlan, TilePlan, plan_tile, window_regions
from repro.obs.tracing import active as tracing_active, span as trace_span
from repro.stats import QueryStats

__all__ = ["TwoLayerGrid"]

_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_F = np.empty(0, dtype=np.float64)


# Pure mask helper; every caller owns the QueryStats accounting for the
# rows this mask qualifies, hence the REP004 waiver.
def _window_class_mask(  # repro-lint: disable=REP004
    cp: ClassPlan,
    window: Rect,
    xl: np.ndarray,
    yl: np.ndarray,
    xu: np.ndarray,
    yu: np.ndarray,
) -> "np.ndarray | None":
    """Qualification mask for one class's rows (``None`` = all qualify)."""
    mask: "np.ndarray | None" = None
    if cp.xu_ge:
        mask = xu >= window.xl
    if cp.xl_le:
        m = xl <= window.xu
        mask = m if mask is None else mask & m
    if cp.yu_ge:
        m = yu >= window.yl
        mask = m if mask is None else mask & m
    if cp.yl_le:
        m = yl <= window.yu
        mask = m if mask is None else mask & m
    return mask


class TwoLayerGrid:
    """In-memory regular grid with secondary (class) partitioning."""

    #: how duplicate results are handled: avoided up front (Lemmas 1-2),
    #: never generated.  EXPLAIN uses this to pick its accounting mode.
    dedup_strategy = "avoid"

    #: CSR row range ``[lo, hi)`` the slab scan is confined to; banded
    #: subclasses (:mod:`repro.shard`) set it to the rows they own.
    _row_clamp: "tuple[int, int] | None" = None

    def __init__(self, grid: GridPartitioner):
        self.grid = grid
        #: the immutable CSR base (None until bulk load or compact).
        self._store: "PackedStore | None" = None
        #: the mutable delta overlay on top of the base: tile id ->
        #: [table or None] indexed by class code.
        self._tiles: dict[int, list["TileTable | None"]] = {}
        self._n_objects = 0
        #: lazy per-row query matrix + per-tile row extents for the slab
        #: executor (rebuilt after :meth:`compact`, shared by reference
        #: across snapshot forks).
        self._fast_q: "np.ndarray | None" = None
        self._tile_row_bounds: "Sequence[int] | None" = None

    @property
    def kernel_mode(self) -> str:
        """``"compiled"`` (numba installed) or ``"vectorized"``."""
        return _kernels.kernel_mode()

    # -- construction ----------------------------------------------------

    @classmethod
    def build(
        cls,
        data: RectDataset,
        partitions_per_dim: int = 128,
        domain: "Rect | None" = None,
    ) -> "TwoLayerGrid":
        """Bulk-load from a dataset (square N x N grid, like the paper)."""
        grid = GridPartitioner(
            partitions_per_dim,
            partitions_per_dim,
            domain if domain is not None else Rect(0.0, 0.0, 1.0, 1.0),
        )
        index = cls(grid)
        index._bulk_load(data)
        return index

    def _bulk_load(self, data: RectDataset) -> None:
        rep = replicate(data, self.grid)
        # Fuse tile id and class code into one sort key; group once.
        keys = rep.tile_ids * 4 + rep.class_codes
        obj = rep.obj_ids
        self._store = PackedStore.from_rows(
            4 * self.grid.nx * self.grid.ny,
            4,
            keys,
            data.xl[obj],
            data.yl[obj],
            data.xu[obj],
            data.yu[obj],
            obj.astype(np.int64, copy=False),
        )
        self._n_objects = len(data)

    def insert(self, rect: Rect, obj_id: "int | None" = None) -> int:
        """Insert one object; its class is determined per overlapped tile.

        O(1) per replica: the packed base is never rebuilt — new entries
        go to the delta overlay until :meth:`compact`.
        """
        if obj_id is None:
            obj_id = self._n_objects
        self._n_objects = max(self._n_objects, obj_id + 1)
        ix0 = self.grid.tile_ix(rect.xl)
        ix1 = self.grid.tile_ix(rect.xu)
        iy0 = self.grid.tile_iy(rect.yl)
        iy1 = self.grid.tile_iy(rect.yu)
        for iy in range(iy0, iy1 + 1):
            base = iy * self.grid.nx
            for ix in range(ix0, ix1 + 1):
                code = 2 * (ix > ix0) + (iy > iy0)
                tables = self._tiles.get(base + ix)
                if tables is None:
                    tables = [None, None, None, None]
                    self._tiles[base + ix] = tables
                table = tables[code]
                if table is None:
                    table = TileTable()
                    tables[code] = table
                table.append(rect.xl, rect.yl, rect.xu, rect.yu, obj_id)
        return obj_id

    def delete(self, rect: Rect, obj_id: int) -> bool:
        """Remove object ``obj_id`` whose MBR is ``rect``; True if found.

        The replica class per tile is recomputed from the MBR, so only
        the exact secondary partitions holding the object are touched.
        Base entries are tombstoned (no rebuild); delta entries are
        filtered out of their overlay tables.
        """
        ix0 = self.grid.tile_ix(rect.xl)
        ix1 = self.grid.tile_ix(rect.xu)
        iy0 = self.grid.tile_iy(rect.yl)
        iy1 = self.grid.tile_iy(rect.yu)
        store = self._store
        removed = 0
        for iy in range(iy0, iy1 + 1):
            base = iy * self.grid.nx
            for ix in range(ix0, ix1 + 1):
                code = 2 * (ix > ix0) + (iy > iy0)
                tile_id = base + ix
                tables = self._tiles.get(tile_id)
                if tables is not None:
                    table = tables[code]
                    if table is not None:
                        removed += table.delete(obj_id)
                        if len(table) == 0:
                            tables[code] = None
                    if all(t is None for t in tables):
                        del self._tiles[tile_id]
                if store is not None:
                    removed += store.mark_dead(
                        store.find_rows(tile_id * 4 + code, obj_id)
                    )
        return removed > 0

    def compact(self) -> None:
        """Fold the delta overlay and tombstones into a fresh packed base.

        Explicitly invoked only — queries and updates never compact, so a
        published snapshot's base is safe to share across threads.  Until
        compaction, query cost degrades gracefully: overlay tiles add
        one per-tile class scan each on top of the base slab scan.
        """
        parts_keys: list[np.ndarray] = []
        parts_cols: list[tuple[np.ndarray, ...]] = []
        if self._store is not None:
            keys, xl, yl, xu, yu, ids = self._store.flat_live_rows()
            parts_keys.append(keys)
            parts_cols.append((xl, yl, xu, yu, ids))
        for tile_id, tables in self._tiles.items():
            for code, table in enumerate(tables):
                if table is None or len(table) == 0:
                    continue
                cols = table.columns()
                parts_keys.append(
                    np.full(cols[4].shape[0], tile_id * 4 + code, dtype=np.int64)
                )
                parts_cols.append(cols)
        if parts_keys:
            keys = np.concatenate(parts_keys)
            cols = [
                np.concatenate([p[c] for p in parts_cols]) for c in range(5)
            ]
        else:
            keys = _EMPTY_IDS
            cols = [_EMPTY_F, _EMPTY_F, _EMPTY_F, _EMPTY_F, _EMPTY_IDS]
        self._store = PackedStore.from_rows(
            4 * self.grid.nx * self.grid.ny, 4, keys, *cols
        )
        self._tiles = {}
        self._fast_q = None
        self._tile_row_bounds = None

    # -- storage accessors -------------------------------------------------

    def _partition_columns(
        self, tile_id: int, code: int
    ) -> "tuple[np.ndarray, ...] | None":
        """Live ``(xl, yl, xu, yu, ids)`` of one secondary partition.

        Merges the packed base group with the delta overlay; ``None``
        when the partition holds no live rows.  Zero-copy (views of the
        base) whenever the partition has no delta and no tombstones.
        """
        base = None
        if self._store is not None:
            base = self._store.group_columns(tile_id * 4 + code)
        delta = None
        tables = self._tiles.get(tile_id)
        if tables is not None:
            table = tables[code]
            if table is not None and len(table):
                delta = table.columns()
        if base is None:
            return delta
        if delta is None:
            return base
        return tuple(np.concatenate([b, d]) for b, d in zip(base, delta))

    def _tile_has_rows(self, tile_id: int) -> bool:
        """Does any secondary partition of the tile hold a live row?"""
        if tile_id in self._tiles:
            return True  # overlay tables are pruned when emptied
        store = self._store
        if store is None:
            return False
        n = int(store.offsets[tile_id * 4 + 4] - store.offsets[tile_id * 4])
        if n and store.n_dead:
            n -= int(store.dead_per_group[tile_id * 4 : tile_id * 4 + 4].sum())
        return n > 0

    def _tile_live_counts(self, tids: np.ndarray) -> np.ndarray:
        """Live rows per tile (all four classes) in the packed base."""
        store = self._store
        tot = store.offsets[tids * 4 + 4] - store.offsets[tids * 4]
        if store.n_dead:
            dpg = store.dead_per_group
            tot = tot - (
                dpg[tids * 4]
                + dpg[tids * 4 + 1]
                + dpg[tids * 4 + 2]
                + dpg[tids * 4 + 3]
            )
        return tot

    def _tile_live_rows(self, tile_id: int) -> int:
        """Live rows in one tile across the base and overlay tables."""
        n = 0
        store = self._store
        if store is not None:
            n = int(store.offsets[tile_id * 4 + 4] - store.offsets[tile_id * 4])
            if n and store.n_dead:
                n -= int(
                    store.dead_per_group[tile_id * 4 : tile_id * 4 + 4].sum()
                )
        tables = self._tiles.get(tile_id)
        if tables is not None:
            n += sum(len(t) for t in tables if t is not None)
        return n

    def _region_tids(self, ax: int, bx: int, ay: int, by: int) -> np.ndarray:
        """Row-major tile ids of one rectangular region of the grid.

        The single tile-enumeration point of every fused kernel — banded
        subclasses (:mod:`repro.shard`) override this to drop tiles
        outside their owned contiguous range, which bands the window
        accounting and the within kernel at once (the per-class offsets
        walks simply never see foreign tiles).
        """
        nx = self.grid.nx
        return (
            np.arange(ay, by + 1, dtype=np.int64)[:, None] * nx
            + np.arange(ax, bx + 1, dtype=np.int64)[None, :]
        ).ravel()

    def _on_window_result(self, window: Rect, out: np.ndarray) -> None:
        """Post-query hook: sampled sanitizer cross-check of a result.

        Banded subclasses override this with a no-op — a band's partial
        result would falsely fail the *global* naive reference, and a
        banded naive scan is not well-defined (replicas whose canonical
        class lives in another band).  The shard router re-checks the
        merged result against a full local index instead.
        """
        if _sanitize.enabled():
            _sanitize.on_window_query(self, window, out)

    def _fork_shell(self) -> "TwoLayerGrid":
        """An empty index shell of the same concrete type over this grid.

        Snapshot forks (:mod:`repro.server.snapshot`) populate the shell
        by reference; subclasses override so forks keep their type (and
        any extra state such as a shard band).
        """
        return type(self)(self.grid)

    def global_view(self) -> "TwoLayerGrid":
        """This index seen over the whole grid — itself; a shard band's
        view (:class:`~repro.shard.banded.BandedTwoLayerGrid`) unclamps."""
        return self

    def _delta_tiles_in_range(
        self, ix0: int, ix1: int, iy0: int, iy1: int
    ) -> list[int]:
        """Sorted overlay tile ids inside a tile range.

        Iterates whichever is smaller — the overlay dict or the range —
        so an empty or tiny overlay costs nothing per query.
        """
        tiles = self._tiles
        if not tiles:
            return []
        nx = self.grid.nx
        if len(tiles) <= (ix1 - ix0 + 1) * (iy1 - iy0 + 1):
            out = [
                tid
                for tid in tiles
                if ix0 <= tid % nx <= ix1 and iy0 <= tid // nx <= iy1
            ]
        else:
            out = [
                base + ix
                for iy in range(iy0, iy1 + 1)
                for base in (iy * nx,)
                for ix in range(ix0, ix1 + 1)
                if base + ix in tiles
            ]
        out.sort()
        return out

    def _class_a_counts(self) -> dict[int, int]:
        """Per-tile live class-A counts (the selectivity histogram)."""
        counts: dict[int, int] = {}
        if self._store is not None:
            a = self._store.group_counts()[0::4]
            for tid in np.flatnonzero(a):
                counts[int(tid)] = int(a[tid])
        for tile_id, tables in self._tiles.items():
            table = tables[CLASS_A]
            if table is not None and len(table):
                counts[tile_id] = counts.get(tile_id, 0) + len(table)
        return counts

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return self._n_objects

    @property
    def replica_count(self) -> int:
        """Total stored entries — identical to the 1-layer grid's by design."""
        total = sum(
            len(t) for tables in self._tiles.values() for t in tables if t is not None
        )
        if self._store is not None:
            total += self._store.n_live
        return total

    @property
    def nbytes(self) -> int:
        total = sum(
            t.nbytes for tables in self._tiles.values() for t in tables if t is not None
        )
        if self._store is not None:
            total += self._store.nbytes
        return total

    @property
    def nonempty_tiles(self) -> int:
        if self._store is None:
            return len(self._tiles)
        counts = self._store.tile_counts()
        n = int(np.count_nonzero(counts))
        n += sum(1 for tile_id in self._tiles if counts[tile_id] == 0)
        return n

    def class_counts(self) -> dict[str, int]:
        """Stored entries per class — A holds exactly one entry per object."""
        names = ("A", "B", "C", "D")
        counts = dict.fromkeys(names, 0)
        if self._store is not None:
            per_code = self._store.group_counts().reshape(-1, 4).sum(axis=0)
            for code in range(4):
                counts[names[code]] += int(per_code[code])
        for tables in self._tiles.values():
            for code, t in enumerate(tables):
                if t is not None:
                    counts[names[code]] += len(t)
        return counts

    def __repr__(self) -> str:
        return (
            f"TwoLayerGrid(grid={self.grid.nx}x{self.grid.ny}, "
            f"objects={self._n_objects}, replicas={self.replica_count})"
        )

    def tile_class_table(self, ix: int, iy: int, code: int) -> "TileTable | None":
        """Raw secondary-partition storage (testing / inspection only).

        With a packed base the returned table is a merged *read-only
        view* of base + delta; mutate the index through
        :meth:`insert`/:meth:`delete`, never through this table.
        """
        if not (0 <= ix < self.grid.nx and 0 <= iy < self.grid.ny):
            raise IndexStateError(f"tile ({ix}, {iy}) outside the grid")
        if code not in (CLASS_A, CLASS_B, CLASS_C, CLASS_D):
            raise IndexStateError(f"invalid class code {code}")
        tile_id = self.grid.tile_id(ix, iy)
        if self._store is None:
            tables = self._tiles.get(tile_id)
            return None if tables is None else tables[code]
        cols = self._partition_columns(tile_id, code)
        return None if cols is None else TileTable(*cols)

    def explain_partitions(
        self, window: Rect
    ) -> list[tuple[Rect, np.ndarray]]:
        """EXPLAIN introspection: ``(tile rect, stored ids)`` for every
        non-empty tile a 1-layer scan of ``window`` would touch.

        All four class tables of a tile are pooled — the returned lists
        describe *storage* (where replicas live), not the class-pruned
        query path, which is exactly what the duplicates-avoided and
        replication-factor figures of a :class:`~repro.obs.explain.QueryPlan`
        need.
        """
        if self._n_objects == 0:
            return []
        out: list[tuple[Rect, np.ndarray]] = []
        ix0, ix1, iy0, iy1 = self.grid.tile_range_for_window(window)
        for iy in range(iy0, iy1 + 1):
            base = iy * self.grid.nx
            for ix in range(ix0, ix1 + 1):
                ids = [
                    cols[4]
                    for code in (CLASS_A, CLASS_B, CLASS_C, CLASS_D)
                    for cols in (self._partition_columns(base + ix, code),)
                    if cols is not None
                ]
                if not ids:
                    continue
                out.append((self.grid.tile_rect(ix, iy), np.concatenate(ids)))
        return out

    # -- window queries ---------------------------------------------------------

    def window_query(
        self, window: Rect, stats: "QueryStats | None" = None
    ) -> np.ndarray:
        """Ids of all indexed MBRs intersecting ``window``.

        Duplicate-free by construction: each result is produced exactly
        once, in the tile where its reporting class survives Lemmas 1-2.
        No deduplication of any kind is performed (Algorithm 1).
        """
        if self._n_objects == 0:
            return _EMPTY_IDS
        if stats is None and tracing_active() is None:
            # Hot route: the span/context plumbing alone costs as much
            # as the scan at typical selectivities.
            out = self._window_ids(
                window, *self.grid.tile_range_for_window(window)
            )
        else:
            with trace_span("query.window"):
                with trace_span("filter.lookup"):
                    ix0, ix1, iy0, iy1 = self.grid.tile_range_for_window(window)
                with trace_span("filter.scan"):
                    out = self._window_scan(window, ix0, ix1, iy0, iy1, stats)
                with trace_span("dedup"):
                    pass  # duplicate-free by construction (Lemmas 1-2)
        self._on_window_result(window, out)
        return out

    def _window_scan(
        self,
        window: Rect,
        ix0: int,
        ix1: int,
        iy0: int,
        iy1: int,
        stats: "QueryStats | None",
    ) -> np.ndarray:
        """The traced / accounted route's scan (2-layer⁺ overrides it).

        Same ids as the hot route; the accounting is a separate pass
        over the plan, so requesting ``stats`` cannot change a result.
        """
        out = self._window_ids(window, ix0, ix1, iy0, iy1)
        if stats is not None:
            self._account_window(ix0, ix1, iy0, iy1, stats)
        return out

    def _window_ids(
        self,
        window: Rect,
        ix0: int,
        ix1: int,
        iy0: int,
        iy1: int,
        count: bool = False,
    ) -> "np.ndarray | int":
        """Ids (or, with ``count``, the number) of one window's results.

        Base rows — tombstoned or not — always come from the slab
        executor: one comparison of the :meth:`_build_fast_q` matrix
        against ``[w.xl, -w.xu, w.yl, -w.yu, -ix0, -iy0]`` per grid-row
        slab does the intersection test and the class selection at once.
        Full four-way comparisons are applied to every scanned row; the
        ones §IV-B proves redundant are tautologies there, so the result
        set is identical (:meth:`_account_window` keeps the exact
        per-class comparison accounting).  Overlay tiles in range add
        their rows through the per-tile class scan.
        """
        store = self._store
        base: "np.ndarray | int" = 0 if count else _EMPTY_IDS
        if store is not None:
            q = self._fast_q
            if q is None:
                q = self._build_fast_q()
            tb = self._tile_row_bounds
            if tb is None:
                # A memmap-loaded index ships its query matrix but
                # derives the row extents lazily (keeps load from paging
                # the offsets slab in before the first query).
                tb = self._tile_row_bounds = _kernels.tile_row_bounds(
                    store.offsets, 4
                )
            base = _kernels.window_slabs(
                q,
                store.ids,
                tb,
                self.grid.nx,
                ix0,
                ix1,
                iy0,
                iy1,
                np.array(
                    [window.xl, -window.xu, window.yl, -window.yu,
                     float(-ix0), float(-iy0)]
                ),
                store.dead if store.n_dead else None,
                self._row_clamp,
                count,
            )
        if not self._tiles:
            return base
        nx = self.grid.nx
        pieces: list[np.ndarray] = []
        for tile_id in self._delta_tiles_in_range(ix0, ix1, iy0, iy1):
            plan = plan_tile(tile_id % nx, tile_id // nx, ix0, ix1, iy0, iy1)
            tables = self._tiles[tile_id]
            for cp in plan.classes:
                table = tables[cp.code]
                if table is None or len(table) == 0:
                    continue
                xl, yl, xu, yu, ids = table.columns()
                mask = _window_class_mask(cp, window, xl, yl, xu, yu)
                pieces.append(ids if mask is None else ids[mask])
        if count:
            return base + sum(p.shape[0] for p in pieces)
        if not pieces:
            return base
        return np.concatenate([base, *pieces])

    def _account_window(
        self, ix0: int, ix1: int, iy0: int, iy1: int, stats: QueryStats
    ) -> None:
        """Derive a window query's accounting from its plan alone.

        The tile range decomposes into at most 9 plan-uniform regions;
        per region the live size of every scanned ``(tile, class)``
        group — ``offsets`` minus ``dead_per_group`` plus the overlay
        table lengths — gives partitions, rows, §IV-B comparisons and
        the per-class / per-tile visits exactly as a per-tile scan
        threading ``stats`` counts them.  No row is read.
        """
        store = self._store
        delta = self._delta_tiles_in_range(ix0, ix1, iy0, iy1)
        for ax, bx, ay, by, plan in window_regions(ix0, ix1, iy0, iy1):
            tids = self._region_tids(ax, bx, ay, by)
            n = tids.shape[0]
            if n == 0:
                continue
            # Overlay tiles of this region: their positions in ``tids``
            # (ascending, row-major) and per-class table lengths.
            at: list[int] = []
            lens: list[list[int]] = []
            if delta:
                for tile_id, i in zip(delta, np.searchsorted(tids, delta).tolist()):
                    if i < n and tids[i] == tile_id:
                        at.append(i)
                        lens.append(
                            [0 if t is None else len(t) for t in self._tiles[tile_id]]
                        )
            extra = np.asarray(lens, dtype=np.int64).reshape(-1, 4)
            if store is None:
                tile_tot = np.zeros(n, dtype=np.int64)
            else:
                tile_tot = self._tile_live_counts(tids)
            tile_tot[at] += extra.sum(axis=1)
            stats.partitions_visited += int(np.count_nonzero(tile_tot))
            scanned = np.zeros(n, dtype=np.int64)
            for cp in plan.classes:
                if store is None:
                    counts = np.zeros(n, dtype=np.int64)
                else:
                    counts = store.live_counts_for(tids * 4 + cp.code)
                counts[at] += extra[:, cp.code]
                total = int(counts.sum())
                if total == 0:
                    continue
                stats.rects_scanned += total
                stats.comparisons += cp.n_comparisons * total
                scanned += counts
                name = CLASS_NAMES[cp.code]
                for _ in range(int(np.count_nonzero(counts))):
                    stats.visit_class(name)
            stats.visit_tiles(tids, scanned, tile_tot)

    def _build_fast_q(self) -> np.ndarray:
        """Materialise the per-row query matrix for the fast kernel.

        Row ``r`` gets six float64 columns ``[xu, -xl, yu, -yl, cx, by]``
        where ``cx`` is ``-tile_ix`` for class C/D rows (``+inf``
        otherwise) and ``by`` is ``-tile_iy`` for class B/D rows.  A
        window query then reduces to one broadcast comparison against
        ``[w.xl, -w.xu, w.yl, -w.yu, -ix0, -iy0]``: the first four
        columns are the intersection test, the last two encode the
        Lemma 1-2 class-scanning rule (a C/D row only counts in the
        window's first column, ``tile_ix == ix0``; a B/D row only in its
        first row) — ``+inf`` rows pass those conditions vacuously.
        """
        store = self._store
        nx = self.grid.nx
        counts = np.diff(store.offsets)
        keys = np.repeat(
            np.arange(store.offsets.shape[0] - 1, dtype=np.int64), counts
        )
        tiles = keys >> 2
        # Condition-major layout: each condition is one contiguous row,
        # so the per-slab reduction is six vectorised passes (reducing
        # the short axis of a row-major matrix would strided-loop).
        q = np.empty((6, store.n_rows), dtype=np.float64)
        q[0] = store.xu
        q[1] = -store.xl
        q[2] = store.yu
        q[3] = -store.yl
        q[4] = np.where(keys & 2, -(tiles % nx), np.inf)
        q[5] = np.where(keys & 1, -(tiles // nx), np.inf)
        self._fast_q = q
        return q

    def _scan_tile_window(
        self,
        tile_id: int,
        window: Rect,
        plan: TilePlan,
        pieces: list[np.ndarray],
        stats: "QueryStats | None" = None,
    ) -> None:
        """Scan one tile's relevant secondary partitions for one window.

        Appends the qualifying id arrays to ``pieces`` (base group and
        overlay table of each class merged).  The tiles-based batch
        evaluator's subtasks (:mod:`repro.core.batch`) are exactly calls
        of this method.
        """
        if stats is not None:
            if not self._tile_has_rows(tile_id):
                return
            stats.partitions_visited += 1
        scanned = 0
        for cp in plan.classes:
            cols = self._partition_columns(tile_id, cp.code)
            if cols is None:
                continue
            xl, yl, xu, yu, ids = cols
            if ids.shape[0] == 0:
                continue
            if stats is not None:
                stats.rects_scanned += ids.shape[0]
                stats.comparisons += cp.n_comparisons * ids.shape[0]
                stats.visit_class(CLASS_NAMES[cp.code])
                scanned += ids.shape[0]
            mask = _window_class_mask(cp, window, xl, yl, xu, yu)
            pieces.append(ids if mask is None else ids[mask])
        if stats is not None:
            stats.visit_tile(tile_id, scanned, self._tile_live_rows(tile_id))

    def window_query_within(
        self, window: Rect, stats: "QueryStats | None" = None
    ) -> np.ndarray:
        """Ids of all MBRs **fully contained** in ``window`` (a "within"
        predicate, the other standard range semantics).

        Duplicate avoidance is even cheaper than for intersection: an
        object inside ``W`` has its start point inside ``W``, so its
        (unique) class-A replica lives in a tile of the query range —
        scanning *only* class A everywhere yields each candidate exactly
        once.  Comparisons: the start-side tests are automatic except in
        the query's first tile per dimension; the end-side tests are
        always required (an object may leave its start tile).
        """
        if self._n_objects == 0:
            return _EMPTY_IDS
        with trace_span("query.window"):
            with trace_span("filter.lookup"):
                ix0, ix1, iy0, iy1 = self.grid.tile_range_for_window(window)
            pieces: list[np.ndarray] = []
            with trace_span("filter.scan"):
                if self._store is not None:
                    self._fused_within(window, ix0, ix1, iy0, iy1, pieces, stats)
                else:
                    for iy in range(iy0, iy1 + 1):
                        base = iy * self.grid.nx
                        for ix in range(ix0, ix1 + 1):
                            self._scan_tile_within(
                                base + ix,
                                window,
                                ix == ix0,
                                iy == iy0,
                                pieces,
                                stats,
                            )
            with trace_span("dedup"):
                pass  # class A only — each object appears once
            if not pieces:
                return _EMPTY_IDS
            return np.concatenate(pieces)

    def _fused_within(
        self,
        window: Rect,
        ix0: int,
        ix1: int,
        iy0: int,
        iy1: int,
        pieces: list[np.ndarray],
        stats: "QueryStats | None" = None,
    ) -> None:
        """Fused "within" kernel: class A per plan-uniform region."""
        store = self._store
        nx = self.grid.nx
        delta = self._delta_tiles_in_range(ix0, ix1, iy0, iy1)
        delta_arr = np.asarray(delta, dtype=np.int64) if delta else None
        for ax, bx, ay, by, plan in window_regions(ix0, ix1, iy0, iy1):
            tids = self._region_tids(ax, bx, ay, by)
            if delta_arr is not None:
                tids = tids[~np.isin(tids, delta_arr)]
            if tids.shape[0] == 0:
                continue
            keys = tids * 4  # class A groups
            counts = store.live_counts_for(keys)
            total = int(counts.sum())
            if total == 0:
                continue
            n_comparisons = 2 + int(plan.at_x0) + int(plan.at_y0)
            if stats is not None:
                stats.partitions_visited += int(np.count_nonzero(counts))
                stats.rects_scanned += total
                stats.comparisons += n_comparisons * total
                for _ in range(int(np.count_nonzero(counts))):
                    stats.visit_class("A")
                stats.visit_tiles(tids, counts, self._tile_live_counts(tids))
            rows = store.gather(keys)
            mask = (store.xu[rows] <= window.xu) & (store.yu[rows] <= window.yu)
            if plan.at_x0:
                mask &= store.xl[rows] >= window.xl
            if plan.at_y0:
                mask &= store.yl[rows] >= window.yl
            pieces.append(store.ids[rows][mask])
        for tile_id in delta:
            self._scan_tile_within(
                tile_id,
                window,
                tile_id % nx == ix0,
                tile_id // nx == iy0,
                pieces,
                stats,
            )

    def _scan_tile_within(
        self,
        tile_id: int,
        window: Rect,
        at_x0: bool,
        at_y0: bool,
        pieces: list[np.ndarray],
        stats: "QueryStats | None" = None,
    ) -> None:
        """Per-tile class-A scan for the "within" predicate."""
        cols = self._partition_columns(tile_id, CLASS_A)
        if cols is None:
            return
        xl, yl, xu, yu, ids = cols
        if ids.shape[0] == 0:
            return
        if stats is not None:
            stats.partitions_visited += 1
            stats.rects_scanned += ids.shape[0]
            stats.visit_class("A")
            stats.visit_tile(
                tile_id, ids.shape[0], self._tile_live_rows(tile_id)
            )
        mask = (xu <= window.xu) & (yu <= window.yu)
        n_comparisons = 2
        if at_x0:
            mask &= xl >= window.xl
            n_comparisons += 1
        if at_y0:
            mask &= yl >= window.yl
            n_comparisons += 1
        if stats is not None:
            stats.comparisons += n_comparisons * ids.shape[0]
        pieces.append(ids[mask])

    def count_window(self, window: Rect) -> int:
        """Number of results of a window query (no id materialisation)."""
        return self._window_ids(
            window, *self.grid.tile_range_for_window(window), count=True
        )

    # -- disk queries -------------------------------------------------------------

    def disk_query(
        self, query: DiskQuery, stats: "QueryStats | None" = None
    ) -> np.ndarray:
        """Ids of all indexed MBRs whose distance to the centre is <= radius.

        Section IV-E: only tiles intersecting the disk are visited; a class
        is skipped when the previous tile in its "starts before" dimension
        also intersects the disk (the result would be a duplicate of that
        tile's).  Tiles fully covered by the disk are reported without
        distance computations.  Classes B and D additionally pass a
        canonical-tile test that removes the duplicates arising along the
        disk's boundary arc (the paper's diagonal rule; see Fig. 5).
        """
        if self._n_objects == 0:
            return _EMPTY_IDS
        if (
            stats is None
            and _kernels.compiled_available()
            and self._store is not None
            and not self._tiles
            and not self._store.n_dead
            and self._row_clamp is None
            and tracing_active() is None
        ):
            # Compiled §IV-E scan: planning (disk spans), class skipping,
            # covered-tile shortcut, distance tests and the canonical
            # B/D dedup all run in one jitted pass over the CSR slabs
            # (the whole base: a banded index keeps the clamped plan).
            g = self.grid
            ix0, ix1, iy0, iy1 = g.tile_range_for_window(query.mbr())
            store = self._store
            return _kernels.disk_scan(
                store.offsets,
                store.xl,
                store.yl,
                store.xu,
                store.yu,
                store.ids,
                g.nx,
                g.ny,
                g.domain.xl,
                g.domain.yl,
                g.domain.xu,
                g.domain.yu,
                g.tile_w,
                g.tile_h,
                ix0,
                ix1,
                iy0,
                iy1,
                query.cx,
                query.cy,
                query.radius,
            )
        with trace_span("query.disk"):
            with trace_span("filter.lookup"):
                row_span, tile_jobs = self._disk_plan(query)
            pieces: list[np.ndarray] = []
            with trace_span("filter.scan"):
                if self._store is not None:
                    self._fused_disk(query, row_span, tile_jobs, pieces, stats)
                else:
                    tiles = self._tiles
                    for tile_id, codes, covered, iy in tile_jobs:
                        if tile_id not in tiles:
                            continue
                        self._scan_tile_disk(
                            tile_id, query, codes, covered, iy, row_span, pieces, stats
                        )
            with trace_span("dedup"):
                pass  # residual B/D duplicates removed in-scan (canonical tile)
            if not pieces:
                return _EMPTY_IDS
            return np.concatenate(pieces)

    def _disk_plan(
        self, query: DiskQuery
    ) -> tuple[
        dict[int, tuple[int, int]],
        list[tuple[int, tuple[int, ...], bool, int]],
    ]:
        """The §IV-E evaluation plan for one disk query.

        Returns the per-row contiguous tile spans (disk convexity) and a
        flat job list ``(tile_id, scanned class codes, fully_covered,
        row)`` — everything a per-tile scan needs, so the tiles-based
        batch evaluator (:mod:`repro.core.batch`) can group jobs by tile.
        """
        window = query.mbr()
        ix0, ix1, iy0, iy1 = self.grid.tile_range_for_window(window)
        radius = query.radius
        cx, cy = query.cx, query.cy

        row_span: dict[int, tuple[int, int]] = {}
        for iy in range(iy0, iy1 + 1):
            lo = None
            hi = None
            for ix in range(ix0, ix1 + 1):
                if min_dist_point_rect(cx, cy, self.grid.tile_rect(ix, iy)) <= radius:
                    if lo is None:
                        lo = ix
                    hi = ix
            if lo is not None:
                row_span[iy] = (lo, hi)  # type: ignore[assignment]

        jobs: list[tuple[int, tuple[int, ...], bool, int]] = []
        for iy, (lx, rx) in row_span.items():
            base = iy * self.grid.nx
            prev_row = row_span.get(iy - 1)
            for ix in range(lx, rx + 1):
                prev_x_in = ix > lx
                prev_y_in = prev_row is not None and prev_row[0] <= ix <= prev_row[1]
                codes = [CLASS_A]
                if not prev_y_in:
                    codes.append(CLASS_B)
                if not prev_x_in:
                    codes.append(CLASS_C)
                if not prev_x_in and not prev_y_in:
                    codes.append(CLASS_D)
                covered = (
                    max_dist_point_rect(cx, cy, self.grid.tile_rect(ix, iy)) <= radius
                )
                jobs.append((base + ix, tuple(codes), covered, iy))
        return row_span, jobs

    def _fused_disk(
        self,
        query: DiskQuery,
        row_span: dict[int, tuple[int, int]],
        tile_jobs: list[tuple[int, tuple[int, ...], bool, int]],
        pieces: list[np.ndarray],
        stats: "QueryStats | None" = None,
    ) -> None:
        """Fused disk kernel: jobs batched by (class, coverage).

        All tiles scanning the same class with the same coverage status
        are gathered and distance-tested in one vectorised pass; the
        canonical-tile test for classes B/D runs on the stitched rows
        with per-row tile-row indices.  Overlay tiles fall back to the
        per-tile scan.
        """
        store = self._store
        radius = query.radius
        cx, cy = query.cx, query.cy
        fused_jobs = []
        delta_jobs = []
        for job in tile_jobs:
            (delta_jobs if job[0] in self._tiles else fused_jobs).append(job)
        if fused_jobs:
            if stats is not None:
                tids_all = np.asarray([j[0] for j in fused_jobs], dtype=np.int64)
                tile_tot = self._tile_live_counts(tids_all)
                stats.partitions_visited += int(np.count_nonzero(tile_tot))
                tid_pos = {int(t): i for i, t in enumerate(tids_all)}
                scanned_all = np.zeros(tids_all.shape[0], dtype=np.int64)
            for code in (CLASS_A, CLASS_B, CLASS_C, CLASS_D):
                for want_covered in (False, True):
                    batch = [
                        j
                        for j in fused_jobs
                        if j[2] is want_covered and code in j[1]
                    ]
                    if not batch:
                        continue
                    tids = np.asarray([j[0] for j in batch], dtype=np.int64)
                    keys = tids * 4 + code
                    counts = store.live_counts_for(keys)
                    total = int(counts.sum())
                    if total == 0:
                        continue
                    if stats is not None:
                        stats.rects_scanned += total
                        scanned_all[
                            np.fromiter(
                                (tid_pos[int(t)] for t in tids),
                                dtype=np.int64,
                                count=tids.shape[0],
                            )
                        ] += counts
                        name = CLASS_NAMES[code]
                        for _ in range(int(np.count_nonzero(counts))):
                            stats.visit_class(name)
                    rows = store.gather(keys)
                    if want_covered:
                        qual = np.ones(total, dtype=bool)
                    else:
                        dx = np.maximum(
                            np.maximum(store.xl[rows] - cx, 0.0),
                            cx - store.xu[rows],
                        )
                        dy = np.maximum(
                            np.maximum(store.yl[rows] - cy, 0.0),
                            cy - store.yu[rows],
                        )
                        qual = dx * dx + dy * dy <= radius * radius
                        if stats is not None:
                            stats.comparisons += 2 * total
                    if code in (CLASS_B, CLASS_D):
                        iys = np.repeat(
                            np.asarray([j[3] for j in batch], dtype=np.int64),
                            counts,
                        )
                        qual &= self._canonical_keep_rows(
                            store.xl[rows],
                            store.yl[rows],
                            store.xu[rows],
                            iys,
                            row_span,
                            stats,
                        )
                    pieces.append(store.ids[rows][qual])
            if stats is not None:
                stats.visit_tiles(tids_all, scanned_all, tile_tot)
        for tile_id, codes, covered, iy in delta_jobs:
            self._scan_tile_disk(
                tile_id, query, codes, covered, iy, row_span, pieces, stats
            )

    def _scan_tile_disk(
        self,
        tile_id: int,
        query: DiskQuery,
        codes: tuple[int, ...],
        covered: bool,
        iy: int,
        row_span: dict[int, tuple[int, int]],
        pieces: list[np.ndarray],
        stats: "QueryStats | None" = None,
    ) -> None:
        """Scan one tile's relevant classes for one disk query."""
        radius = query.radius
        cx, cy = query.cx, query.cy
        if self._store is None:
            if tile_id not in self._tiles:
                return
            if stats is not None:
                stats.partitions_visited += 1
        elif stats is not None:
            if not self._tile_has_rows(tile_id):
                return
            stats.partitions_visited += 1
        scanned = 0
        for code in codes:
            cols = self._partition_columns(tile_id, code)
            if cols is None:
                continue
            xl, yl, xu, yu, ids = cols
            if ids.shape[0] == 0:
                continue
            if stats is not None:
                stats.rects_scanned += ids.shape[0]
                stats.visit_class(CLASS_NAMES[code])
                scanned += ids.shape[0]
            if covered:
                qual = np.ones(ids.shape[0], dtype=bool)
            else:
                dx = np.maximum(np.maximum(xl - cx, 0.0), cx - xu)
                dy = np.maximum(np.maximum(yl - cy, 0.0), cy - yu)
                qual = dx * dx + dy * dy <= radius * radius
                if stats is not None:
                    stats.comparisons += 2 * ids.shape[0]
            if code in (CLASS_B, CLASS_D):
                qual &= self._canonical_keep(xl, yl, xu, iy, row_span, stats)
            pieces.append(ids[qual])
        if stats is not None:
            stats.visit_tile(tile_id, scanned, self._tile_live_rows(tile_id))

    def _canonical_keep(
        self,
        xl: np.ndarray,
        yl: np.ndarray,
        xu: np.ndarray,
        iy: int,
        row_span: dict[int, tuple[int, int]],
        stats: "QueryStats | None",
    ) -> np.ndarray:
        """Keep mask for class-B/D rectangles of one tile (scalar row)."""
        iys = np.full(xl.shape[0], iy, dtype=np.int64)
        return self._canonical_keep_rows(xl, yl, xu, iys, row_span, stats)

    def _canonical_keep_rows(
        self,
        xl: np.ndarray,
        yl: np.ndarray,
        xu: np.ndarray,
        iys: np.ndarray,
        row_span: dict[int, tuple[int, int]],
        stats: "QueryStats | None",
    ) -> np.ndarray:
        """Keep mask for class-B/D rectangles: is this their canonical tile?

        A rectangle's canonical reporting tile is the first tile (in
        row-major order) among the disk-intersecting tiles its MBR covers.
        Class-B/D rectangles start above their scan row (``iys[k]``), so
        the test scans the rows between the rectangle's start row and the
        scan row for an overlap with the rectangle's column span; any
        overlap means the rectangle was already reported there.
        """
        n = xl.shape[0]
        keep = np.ones(n, dtype=bool)
        start_rows = self.grid.tile_iy_array(yl)
        start_cols = self.grid.tile_ix_array(xl)
        end_cols = self.grid.tile_ix_array(xu)
        for k in range(n):
            for j in range(int(start_rows[k]), int(iys[k])):
                span = row_span.get(j)
                if span is None:
                    continue
                if max(int(start_cols[k]), span[0]) <= min(int(end_cols[k]), span[1]):
                    keep[k] = False
                    break
            if stats is not None:
                stats.dedup_checks += 1
        return keep
