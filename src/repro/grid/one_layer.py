"""The 1-layer grid baseline: SOP grid + duplicate *elimination*.

This is the paper's ``1-layer`` competitor (Table V): a regular grid with
the identical primary partitioning as the two-layer index, evaluating
window queries with the comparison-reduction optimisation of Section IV-B
(only the boundary tiles of a query need coordinate comparisons) and
eliminating duplicate results with the reference-point technique of
Dittrich & Seeger [9] — or, for ablation, naive hashing or the
active-border method of Aref & Samet [2].

Comparing this index against :class:`repro.core.two_layer.TwoLayerGrid`
isolates exactly the contribution of the paper's secondary partitioning.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis import sanitize as _sanitize
from repro.datasets.dataset import RectDataset
from repro.datasets.queries import DiskQuery
from repro.errors import IndexStateError, InvalidGridError
from repro.geometry.mbr import Rect, max_dist_point_rect
from repro.grid.base import GridPartitioner, replicate
from repro.grid.dedup import ActiveBorder, reference_point_keep_mask
from repro.grid import kernels as _kernels
from repro.grid.storage import PackedStore, TileTable
from repro.obs.tracing import active as tracing_active, span as trace_span
from repro.stats import QueryStats

__all__ = ["OneLayerGrid", "DEDUP_METHODS"]

DEDUP_METHODS = ("refpoint", "hash", "active_border")


def _axis_segments(lo: int, hi: int) -> list[tuple[int, int, bool, bool]]:
    """Split ``[lo, hi]`` into runs of uniform (at-start, at-end) flags."""
    if lo == hi:
        return [(lo, hi, True, True)]
    segments = [(lo, lo, True, False)]
    if hi - lo > 1:
        segments.append((lo + 1, hi - 1, False, False))
    segments.append((hi, hi, False, True))
    return segments


class OneLayerGrid:
    """In-memory regular grid with duplicate elimination (the baseline)."""

    @property
    def dedup_strategy(self) -> str:
        """EXPLAIN accounting mode: duplicates are generated then
        eliminated by the configured technique."""
        return self.dedup

    def __init__(
        self,
        grid: GridPartitioner,
        dedup: str = "refpoint",
    ):
        if dedup not in DEDUP_METHODS:
            raise InvalidGridError(
                f"unknown dedup method {dedup!r}; expected one of {DEDUP_METHODS}"
            )
        self.grid = grid
        self.dedup = dedup
        #: the CSR base (one group per tile; None until bulk load or
        #: compact).
        self._store: "PackedStore | None" = None
        #: the delta overlay on top of the base.
        self._tiles: dict[int, TileTable] = {}
        self._n_objects = 0
        # Lazy per-row query matrix + per-tile row extents for the slab
        # executor; rebuilt after compact().
        self._fast_q: "np.ndarray | None" = None
        self._tile_row_bounds: "Sequence[int] | None" = None

    @property
    def kernel_mode(self) -> str:
        """``"compiled"`` (numba installed) or ``"vectorized"``."""
        return _kernels.kernel_mode()

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        data: RectDataset,
        partitions_per_dim: int = 128,
        domain: "Rect | None" = None,
        dedup: str = "refpoint",
    ) -> "OneLayerGrid":
        """Bulk-load the grid from a dataset.

        ``partitions_per_dim`` is the paper's grid granularity knob
        (Fig. 7); the grid is square (N x N) like the paper's.
        """
        grid = GridPartitioner(
            partitions_per_dim,
            partitions_per_dim,
            domain if domain is not None else Rect(0.0, 0.0, 1.0, 1.0),
        )
        index = cls(grid, dedup=dedup)
        index._bulk_load(data)
        return index

    def _bulk_load(self, data: RectDataset) -> None:
        rep = replicate(data, self.grid)
        obj = rep.obj_ids
        self._store = PackedStore.from_rows(
            self.grid.nx * self.grid.ny,
            1,
            rep.tile_ids,
            data.xl[obj],
            data.yl[obj],
            data.xu[obj],
            data.yu[obj],
            obj.astype(np.int64, copy=False),
        )
        self._n_objects = len(data)

    def insert(self, rect: Rect, obj_id: "int | None" = None) -> int:
        """Insert one object; returns its id.  O(tiles overlapped)."""
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
                table = self._tiles.get(base + ix)
                if table is None:
                    table = TileTable()
                    self._tiles[base + ix] = table
                table.append(rect.xl, rect.yl, rect.xu, rect.yu, obj_id)
        return obj_id

    def delete(self, rect: Rect, obj_id: int) -> bool:
        """Remove object ``obj_id`` whose MBR is ``rect``; True if found.

        The caller supplies the MBR (the paper's storage scheme keeps
        exact object data outside the tiles, addressed by id), which
        pinpoints the tiles holding the replicas.
        """
        ix0 = self.grid.tile_ix(rect.xl)
        ix1 = self.grid.tile_ix(rect.xu)
        iy0 = self.grid.tile_iy(rect.yl)
        iy1 = self.grid.tile_iy(rect.yu)
        removed = 0
        store = self._store
        for iy in range(iy0, iy1 + 1):
            base = iy * self.grid.nx
            for ix in range(ix0, ix1 + 1):
                table = self._tiles.get(base + ix)
                if table is not None:
                    removed += table.delete(obj_id)
                    if len(table) == 0:
                        del self._tiles[base + ix]
                if store is not None:
                    removed += store.mark_dead(store.find_rows(base + ix, obj_id))
        return removed > 0

    # -- storage accessors -------------------------------------------------

    def _tile_columns(self, tile_id: int) -> "tuple[np.ndarray, ...] | None":
        """Live ``(xl, yl, xu, yu, ids)`` of one tile (base + overlay)."""
        base = None
        if self._store is not None:
            base = self._store.group_columns(tile_id)
        table = self._tiles.get(tile_id)
        delta = (
            table.columns() if table is not None and len(table) else None
        )
        if base is None:
            return delta
        if delta is None:
            return base
        return tuple(np.concatenate([b, d]) for b, d in zip(base, delta))

    def _tile_has_rows(self, tile_id: int) -> bool:
        if tile_id in self._tiles:
            return True
        store = self._store
        if store is None:
            return False
        return int(store.live_counts_for(np.asarray([tile_id]))[0]) > 0

    def _delta_tiles_in_range(
        self, ix0: int, ix1: int, iy0: int, iy1: int
    ) -> list[int]:
        """Sorted overlay tile ids inside a tile range."""
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

    def compact(self) -> None:
        """Fold the delta overlay and tombstones into a fresh packed base.

        Explicit only, mirroring :meth:`TwoLayerGrid.compact`.
        """
        parts_keys: list[np.ndarray] = []
        parts_cols: list[tuple[np.ndarray, ...]] = []
        if self._store is not None:
            keys, xl, yl, xu, yu, ids = self._store.flat_live_rows()
            parts_keys.append(keys)
            parts_cols.append((xl, yl, xu, yu, ids))
        for tile_id, table in self._tiles.items():
            if len(table) == 0:
                continue
            cols = table.columns()
            parts_keys.append(
                np.full(cols[4].shape[0], tile_id, dtype=np.int64)
            )
            parts_cols.append(cols)
        if parts_keys:
            keys = np.concatenate(parts_keys)
            cols = [
                np.concatenate([p[c] for p in parts_cols]) for c in range(5)
            ]
        else:
            keys = np.empty(0, dtype=np.int64)
            cols = [np.empty(0, dtype=np.float64)] * 4 + [keys]
        self._store = PackedStore.from_rows(
            self.grid.nx * self.grid.ny, 1, keys, *cols
        )
        self._tiles = {}
        self._fast_q = None
        self._tile_row_bounds = None

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return self._n_objects

    @property
    def replica_count(self) -> int:
        """Total stored entries (object replicas) — the Fig. 7 size metric."""
        total = sum(len(t) for t in self._tiles.values())
        if self._store is not None:
            total += self._store.n_live
        return total

    @property
    def nbytes(self) -> int:
        total = sum(t.nbytes for t in self._tiles.values())
        if self._store is not None:
            total += self._store.nbytes
        return total

    @property
    def nonempty_tiles(self) -> int:
        if self._store is None:
            return len(self._tiles)
        counts = self._store.group_counts()
        n = int(np.count_nonzero(counts))
        n += sum(1 for tile_id in self._tiles if counts[tile_id] == 0)
        return n

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(grid={self.grid.nx}x{self.grid.ny}, "
            f"objects={self._n_objects}, replicas={self.replica_count}, "
            f"dedup={self.dedup!r})"
        )

    # -- window queries -----------------------------------------------------

    def window_query(
        self, window: Rect, stats: "QueryStats | None" = None
    ) -> np.ndarray:
        """Ids of all indexed MBRs intersecting ``window`` (no duplicates).

        Every candidate in every overlapped tile is compared against the
        window (with the Section IV-B reduction: no comparisons in covered
        dimensions) and duplicates are then eliminated with the configured
        technique — this is exactly the generate-then-eliminate paradigm
        the two-layer index avoids.
        """
        if self._n_objects == 0:
            return np.empty(0, dtype=np.int64)
        if (
            stats is None
            and self._store is not None
            and not self._tiles
            and not self._store.n_dead
            and self.dedup != "active_border"
            and tracing_active() is None
        ):
            out = self._fused_window_fast(
                window, *self.grid.tile_range_for_window(window)
            )
            if _sanitize.enabled():
                _sanitize.on_window_query(self, window, out)
            return out
        with trace_span("query.window"):
            with trace_span("filter.lookup"):
                ix0, ix1, iy0, iy1 = self.grid.tile_range_for_window(window)
            with trace_span("filter.scan"):
                pieces = self._scan_window_tiles(window, ix0, ix1, iy0, iy1, stats)
            # The terminal duplicate-elimination stage (hash mode); the
            # refpoint / active-border tests run per tile inside the scan
            # and are accounted by the dedup_checks counter instead.
            with trace_span("dedup"):
                if not pieces:
                    out = np.empty(0, dtype=np.int64)
                else:
                    out = np.concatenate(pieces)
                    if self.dedup == "hash":
                        deduped = np.unique(out)
                        if stats is not None:
                            stats.dedup_checks += out.shape[0]
                            stats.duplicates_generated += int(
                                out.shape[0] - deduped.shape[0]
                            )
                        out = deduped
        if _sanitize.enabled():
            _sanitize.on_window_query(self, window, out)
        return out

    def _build_fast_q(self) -> np.ndarray:
        """Precompute the per-row query matrix over the packed base.

        Eight conditions per row, condition-major so each per-slab
        reduction is a handful of contiguous vectorised passes: four
        window-intersection thresholds plus four that encode the
        reference-point test of Dittrich & Seeger as ``>=`` comparisons.
        A row in tile ``(tx, ty)`` is the reporting replica iff
        ``tx == max(ref_ix, ix0)`` (same in y), where ``ref_ix`` is the
        tile of its own lower-left corner.  Rows stored in their own tile
        (``tx == ref_ix``) pass vacuously — the slab guarantees
        ``tx >= ix0`` — so their dedup columns are ``+inf``; replicated
        rows must see ``ref_ix < ix0`` and ``tx == ix0``, i.e.
        ``-ref_ix >= -(ix0 - 1)`` and ``-tx >= -ix0``.
        """
        store = self._store
        grid = self.grid
        nx = grid.nx
        counts = np.diff(store.offsets)
        tiles = np.repeat(
            np.arange(store.offsets.shape[0] - 1, dtype=np.int64), counts
        )
        tx = tiles % nx
        ty = tiles // nx
        ref_ix = grid.tile_ix_array(store.xl)
        ref_iy = grid.tile_iy_array(store.yl)
        q = np.empty((8, store.n_rows), dtype=np.float64)
        q[0] = store.xu
        q[1] = -store.xl
        q[2] = store.yu
        q[3] = -store.yl
        own_x = tx == ref_ix
        own_y = ty == ref_iy
        q[4] = np.where(own_x, np.inf, -ref_ix)
        q[5] = np.where(own_x, np.inf, -tx)
        q[6] = np.where(own_y, np.inf, -ref_iy)
        q[7] = np.where(own_y, np.inf, -ty)
        self._fast_q = q
        return q

    def _fused_window_fast(
        self, window: Rect, ix0: int, ix1: int, iy0: int, iy1: int
    ) -> np.ndarray:
        """Stats-free window route over a pristine base: the slab executor.

        The precomputed matrix folds intersection and reference-point
        dedup into the executor's single ``>=`` per slab.  The hash
        technique skips the dedup columns and squashes duplicates
        terminally; the stats-carrying scan keeps the paper's exact
        §IV-B comparison accounting.
        """
        q = self._fast_q
        if q is None:
            q = self._build_fast_q()
        tb = self._tile_row_bounds
        if tb is None:
            # Derived on first use so a memmap load touches no slab bytes.
            tb = self._tile_row_bounds = _kernels.tile_row_bounds(
                self._store.offsets, 1
            )
        bounds = [window.xl, -window.xu, window.yl, -window.yu]
        if self.dedup == "refpoint":
            bounds += [
                float(-(ix0 - 1)), float(-ix0), float(-(iy0 - 1)), float(-iy0)
            ]
        else:  # hash: plain intersection filter, duplicates squashed below
            q = q[:4]
        out = _kernels.window_slabs(
            q, self._store.ids, tb, self.grid.nx, ix0, ix1, iy0, iy1,
            np.array(bounds),
        )
        if self.dedup == "hash":
            return np.unique(out)
        return out

    def _scan_window_tiles(
        self,
        window: Rect,
        ix0: int,
        ix1: int,
        iy0: int,
        iy1: int,
        stats: "QueryStats | None",
    ) -> list[np.ndarray]:
        """Per-tile candidate scan (with in-scan dedup for refpoint/border).

        A packed base runs the fused region kernel for the refpoint and
        hash techniques; the active-border sweep is inherently sequential
        in row-major tile order, so it always scans per tile (as does an
        index with no base at all).
        """
        if self._store is not None and self.dedup != "active_border":
            return self._fused_window_tiles(window, ix0, ix1, iy0, iy1, stats)
        pieces: list[np.ndarray] = []
        border = ActiveBorder() if self.dedup == "active_border" else None
        for iy in range(iy0, iy1 + 1):
            if border is not None:
                border.start_row(iy)
            base = iy * self.grid.nx
            for ix in range(ix0, ix1 + 1):
                cols = self._tile_columns(base + ix)
                if cols is None:
                    continue
                xl, yl, xu, yu, ids = cols
                if stats is not None:
                    stats.partitions_visited += 1
                    stats.rects_scanned += ids.shape[0]
                    stats.visit_class("tile")
                    # 1-layer scans every row of every visited tile, so
                    # scanned == present (nothing is class-pruned).
                    stats.visit_tile(base + ix, ids.shape[0], ids.shape[0])
                mask = self._window_mask(
                    xl, yl, xu, yu, window, ix, ix0, ix1, iy, iy0, iy1, stats
                )
                if mask is None:
                    cand = slice(None)
                    cand_xl, cand_yl, cand_ids = xl, yl, ids
                else:
                    cand = mask
                    cand_xl = xl[cand]
                    cand_yl = yl[cand]
                    cand_ids = ids[cand]
                if cand_ids.shape[0] == 0:
                    continue
                if self.dedup == "refpoint":
                    keep = reference_point_keep_mask(
                        cand_xl, cand_yl, window, self.grid, ix, iy
                    )
                    if stats is not None:
                        stats.dedup_checks += cand_ids.shape[0]
                        stats.duplicates_generated += int(
                            cand_ids.shape[0] - keep.sum()
                        )
                    pieces.append(cand_ids[keep])
                elif self.dedup == "hash":
                    pieces.append(cand_ids)
                else:  # active_border
                    assert border is not None
                    cand_yu = yu[cand]
                    cand_xu = xu[cand]
                    last_rows = np.minimum(self.grid.tile_iy_array(cand_yu), iy1)
                    last_cols = np.minimum(self.grid.tile_ix_array(cand_xu), ix1)
                    kept = []
                    for k in range(cand_ids.shape[0]):
                        extends = last_rows[k] > iy or last_cols[k] > ix
                        if stats is not None:
                            stats.dedup_checks += 1
                        if border.report(int(cand_ids[k]), int(last_rows[k]), extends):
                            kept.append(cand_ids[k])
                        elif stats is not None:
                            stats.duplicates_generated += 1
                    pieces.append(np.asarray(kept, dtype=np.int64))
        return pieces

    def _fused_window_tiles(
        self,
        window: Rect,
        ix0: int,
        ix1: int,
        iy0: int,
        iy1: int,
        stats: "QueryStats | None",
    ) -> list[np.ndarray]:
        """Fused window kernel (refpoint / hash dedup).

        The tile range decomposes into at most 9 regions of uniform
        §IV-B comparison sets; each region is one offsets walk over the
        CSR base plus one vectorised comparison pass — including the
        reference-point test, which generalises across tiles by carrying
        per-row tile coordinates.  Overlay tiles fall back to per-tile.
        """
        store = self._store
        grid = self.grid
        nx = grid.nx
        pieces: list[np.ndarray] = []
        delta = self._delta_tiles_in_range(ix0, ix1, iy0, iy1)
        delta_arr = np.asarray(delta, dtype=np.int64) if delta else None
        for ay, by, at_y0, at_y1 in _axis_segments(iy0, iy1):
            for ax, bx, at_x0, at_x1 in _axis_segments(ix0, ix1):
                tids = (
                    np.arange(ay, by + 1, dtype=np.int64)[:, None] * nx
                    + np.arange(ax, bx + 1, dtype=np.int64)[None, :]
                ).ravel()
                if delta_arr is not None:
                    tids = tids[~np.isin(tids, delta_arr)]
                    if tids.shape[0] == 0:
                        continue
                counts = store.live_counts_for(tids)
                total = int(counts.sum())
                if total == 0:
                    continue
                n_comparisons = (
                    int(at_x0) + int(at_x1) + int(at_y0) + int(at_y1)
                )
                if stats is not None:
                    stats.partitions_visited += int(np.count_nonzero(counts))
                    stats.rects_scanned += total
                    stats.comparisons += n_comparisons * total
                    for _ in range(int(np.count_nonzero(counts))):
                        stats.visit_class("tile")
                    stats.visit_tiles(tids, counts, counts)
                rows = store.gather(tids)
                mask: "np.ndarray | None" = None
                if at_x0:
                    mask = store.xu[rows] >= window.xl
                if at_x1:
                    m = store.xl[rows] <= window.xu
                    mask = m if mask is None else mask & m
                if at_y0:
                    m = store.yu[rows] >= window.yl
                    mask = m if mask is None else mask & m
                if at_y1:
                    m = store.yl[rows] <= window.yu
                    mask = m if mask is None else mask & m
                if mask is None:
                    cand_rows = rows
                else:
                    cand_rows = rows[mask]
                if cand_rows.shape[0] == 0:
                    continue
                cand_ids = store.ids[cand_rows]
                if self.dedup == "hash":
                    pieces.append(cand_ids)
                    continue
                # Reference-point test over the stitched rows: each row
                # keeps its own tile coordinates.
                tix_rows = np.repeat(tids % nx, counts)
                tiy_rows = np.repeat(tids // nx, counts)
                if mask is not None:
                    tix_rows = tix_rows[mask]
                    tiy_rows = tiy_rows[mask]
                px = np.maximum(store.xl[cand_rows], window.xl)
                py = np.maximum(store.yl[cand_rows], window.yl)
                keep = (grid.tile_ix_array(px) == tix_rows) & (
                    grid.tile_iy_array(py) == tiy_rows
                )
                if stats is not None:
                    stats.dedup_checks += cand_ids.shape[0]
                    stats.duplicates_generated += int(
                        cand_ids.shape[0] - keep.sum()
                    )
                pieces.append(cand_ids[keep])
        for tile_id in delta:
            ix = tile_id % nx
            iy = tile_id // nx
            cols = self._tile_columns(tile_id)
            if cols is None:
                continue
            xl, yl, xu, yu, ids = cols
            if stats is not None:
                stats.partitions_visited += 1
                stats.rects_scanned += ids.shape[0]
                stats.visit_class("tile")
                stats.visit_tile(tile_id, ids.shape[0], ids.shape[0])
            mask = self._window_mask(
                xl, yl, xu, yu, window, ix, ix0, ix1, iy, iy0, iy1, stats
            )
            if mask is None:
                cand_xl, cand_yl, cand_ids = xl, yl, ids
            else:
                cand_xl = xl[mask]
                cand_yl = yl[mask]
                cand_ids = ids[mask]
            if cand_ids.shape[0] == 0:
                continue
            if self.dedup == "hash":
                pieces.append(cand_ids)
                continue
            keep = reference_point_keep_mask(
                cand_xl, cand_yl, window, grid, ix, iy
            )
            if stats is not None:
                stats.dedup_checks += cand_ids.shape[0]
                stats.duplicates_generated += int(
                    cand_ids.shape[0] - keep.sum()
                )
            pieces.append(cand_ids[keep])
        return pieces

    @staticmethod
    def _window_mask(
        xl: np.ndarray,
        yl: np.ndarray,
        xu: np.ndarray,
        yu: np.ndarray,
        window: Rect,
        ix: int,
        ix0: int,
        ix1: int,
        iy: int,
        iy0: int,
        iy1: int,
        stats: "QueryStats | None",
    ) -> "np.ndarray | None":
        """Intersection mask with only the comparisons Section IV-B requires.

        A tile strictly between the query's first and last tile in a
        dimension is covered by the window there, so no comparison is
        needed in that dimension.  Returns ``None`` when the tile is
        covered in both dimensions (every rectangle qualifies).
        """
        mask: "np.ndarray | None" = None
        n_comparisons = 0
        if ix == ix0:
            mask = xu >= window.xl
            n_comparisons += 1
        if ix == ix1:
            m = xl <= window.xu
            mask = m if mask is None else mask & m
            n_comparisons += 1
        if iy == iy0:
            m = yu >= window.yl
            mask = m if mask is None else mask & m
            n_comparisons += 1
        if iy == iy1:
            m = yl <= window.yu
            mask = m if mask is None else mask & m
            n_comparisons += 1
        if stats is not None:
            stats.comparisons += n_comparisons * xl.shape[0]
        return mask

    # -- disk queries ---------------------------------------------------------

    def disk_query(
        self, query: DiskQuery, stats: "QueryStats | None" = None
    ) -> np.ndarray:
        """Ids of all indexed MBRs within ``query.radius`` of the centre.

        Implemented as the paper prescribes for the 1-layer baseline: run a
        window query with the disk's MBR (reference-point deduplication
        against that window), report results in fully-covered tiles
        directly and distance-verify the rest (Section VII, "Disk range
        queries").
        """
        if self._n_objects == 0:
            return np.empty(0, dtype=np.int64)
        with trace_span("query.disk"):
            with trace_span("filter.lookup"):
                window = query.mbr()
                ix0, ix1, iy0, iy1 = self.grid.tile_range_for_window(window)
            with trace_span("filter.scan"):
                pieces = self._scan_disk_tiles(query, window, ix0, ix1, iy0, iy1, stats)
            with trace_span("dedup"):
                pass  # reference-point test runs per tile inside the scan
            if not pieces:
                return np.empty(0, dtype=np.int64)
            return np.concatenate(pieces)

    def _scan_disk_tiles(
        self,
        query: DiskQuery,
        window: Rect,
        ix0: int,
        ix1: int,
        iy0: int,
        iy1: int,
        stats: "QueryStats | None",
    ) -> list[np.ndarray]:
        """Per-tile disk-candidate scan with in-scan refpoint dedup."""
        radius = query.radius
        pieces: list[np.ndarray] = []
        for iy in range(iy0, iy1 + 1):
            base = iy * self.grid.nx
            for ix in range(ix0, ix1 + 1):
                # NOTE: tiles of the MBR that do not intersect the disk are
                # still visited — a candidate's reference point may fall in
                # them, and this extra work is precisely the 1-layer
                # baseline's handicap on disk queries.
                cols = self._tile_columns(base + ix)
                if cols is None:
                    continue
                xl, yl, xu, yu, ids = cols
                if stats is not None:
                    stats.partitions_visited += 1
                    stats.rects_scanned += ids.shape[0]
                    stats.visit_class("tile")
                    stats.visit_tile(base + ix, ids.shape[0], ids.shape[0])
                mask = self._window_mask(
                    xl, yl, xu, yu, window, ix, ix0, ix1, iy, iy0, iy1, stats
                )
                if mask is None:
                    cand_xl, cand_yl, cand_xu, cand_yu, cand_ids = xl, yl, xu, yu, ids
                else:
                    cand_xl = xl[mask]
                    cand_yl = yl[mask]
                    cand_xu = xu[mask]
                    cand_yu = yu[mask]
                    cand_ids = ids[mask]
                if cand_ids.shape[0] == 0:
                    continue
                keep = reference_point_keep_mask(
                    cand_xl, cand_yl, window, self.grid, ix, iy
                )
                if stats is not None:
                    stats.dedup_checks += cand_ids.shape[0]
                    stats.duplicates_generated += int(cand_ids.shape[0] - keep.sum())
                tile_rect = self.grid.tile_rect(ix, iy)
                covered = max_dist_point_rect(query.cx, query.cy, tile_rect) <= radius
                if covered:
                    pieces.append(cand_ids[keep])
                    continue
                dx = np.maximum(
                    np.maximum(cand_xl[keep] - query.cx, 0.0),
                    query.cx - cand_xu[keep],
                )
                dy = np.maximum(
                    np.maximum(cand_yl[keep] - query.cy, 0.0),
                    query.cy - cand_yu[keep],
                )
                within = dx * dx + dy * dy <= radius * radius
                pieces.append(cand_ids[keep][within])
        return pieces

    # -- helpers for tests ------------------------------------------------------

    def tile_table(self, ix: int, iy: int) -> "TileTable | None":
        """The raw tile storage (testing / inspection only).

        With a packed base the returned table is a merged read-only view
        of base + overlay; mutate through :meth:`insert`/:meth:`delete`.
        """
        if not (0 <= ix < self.grid.nx and 0 <= iy < self.grid.ny):
            raise IndexStateError(f"tile ({ix}, {iy}) outside the grid")
        tile_id = self.grid.tile_id(ix, iy)
        if self._store is None:
            return self._tiles.get(tile_id)
        cols = self._tile_columns(tile_id)
        return None if cols is None else TileTable(*cols)

    def explain_partitions(
        self, window: Rect
    ) -> list[tuple[Rect, np.ndarray]]:
        """EXPLAIN introspection: ``(tile rect, stored ids)`` for every
        non-empty tile a window scan of ``window`` touches."""
        if self._n_objects == 0:
            return []
        out: list[tuple[Rect, np.ndarray]] = []
        ix0, ix1, iy0, iy1 = self.grid.tile_range_for_window(window)
        for iy in range(iy0, iy1 + 1):
            base = iy * self.grid.nx
            for ix in range(ix0, ix1 + 1):
                cols = self._tile_columns(base + ix)
                if cols is None or cols[4].shape[0] == 0:
                    continue
                out.append((self.grid.tile_rect(ix, iy), cols[4]))
        return out
