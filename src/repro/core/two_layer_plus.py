"""2-layer⁺: the two-layer grid with decomposed (DSM) storage — Section IV-C.

2-layer⁺ stores, on top of the plain secondary partitions of
:class:`~repro.core.two_layer.TwoLayerGrid`, a second *decomposed* copy of
every partition's rectangles (sorted ``(coordinate, id)`` tables, Table
II).  Window queries on boundary tiles then replace per-rectangle
comparisons with binary searches:

* one needed comparison — a single ``searchsorted`` yields the qualifying
  prefix/suffix, zero per-rectangle comparisons;
* several needed comparisons — the search runs on the table of the
  dimension *least covered* by the window (most selective first), and the
  survivors verify the remaining comparisons against the full MBRs.

The extra copy makes 2-layer⁺ larger and slower to build than 2-layer
(Fig. 7) and more expensive to update, which the paper deems acceptable
for static collections; inserts here rebuild the affected partitions'
decomposed tables lazily on the next query.

Disk queries are inherited unchanged from :class:`TwoLayerGrid` — storage
decomposition cannot improve distance computations (Section VII).
"""

from __future__ import annotations

import numpy as np

from repro.datasets.dataset import RectDataset
from repro.geometry.mbr import Rect
from repro.core.decomposed import (
    COMP_XL_LE,
    COMP_XU_GE,
    COMP_YL_LE,
    COMP_YU_GE,
    REQUIRED_TABLES,
    _SOURCE_COLUMN,
    DecomposedTables,
)
from repro.core.selection import plan_tile
from repro.core.two_layer import TwoLayerGrid
from repro.grid.base import CLASS_NAMES, GridPartitioner
from repro.stats import QueryStats

__all__ = ["TwoLayerPlusGrid"]

_EMPTY_IDS = np.empty(0, dtype=np.int64)


#: strategies for partitions needing more than one comparison:
#: ``"scan"`` evaluates them with vectorised comparisons on the plain class
#: table (fastest under NumPy's per-call cost model), ``"search_verify"``
#: follows Section IV-C literally (binary search on the least-covered
#: dimension, verify survivors against the full MBRs).  ``"auto"`` picks
#: ``"scan"``.  The ablation benchmark compares the two.
MULTI_COMPARISON_STRATEGIES = ("auto", "scan", "search_verify")


class TwoLayerPlusGrid(TwoLayerGrid):
    """Two-layer grid + decomposed sorted tables per secondary partition.

    Single-comparison partitions (the common case for queries spanning
    several tiles, by Lemmas 3-4) are answered with one binary search and
    zero per-rectangle comparisons.  Multi-comparison partitions honour
    ``multi_comparison_strategy`` (see
    :data:`MULTI_COMPARISON_STRATEGIES`): the paper's search+verify order
    is available, but the default scans the class table vectorised, which
    is faster under Python/NumPy where a random id-gather costs more than
    a sequential compare — a documented deviation from the C++ original.
    """

    def __init__(
        self,
        grid: GridPartitioner,
        multi_comparison_strategy: str = "auto",
    ):
        super().__init__(grid)
        if multi_comparison_strategy not in MULTI_COMPARISON_STRATEGIES:
            raise ValueError(
                f"unknown strategy {multi_comparison_strategy!r}; "
                f"expected one of {MULTI_COMPARISON_STRATEGIES}"
            )
        self.multi_comparison_strategy = (
            "scan" if multi_comparison_strategy == "auto" else multi_comparison_strategy
        )
        # (tile_id, class_code) -> DecomposedTables; rebuilt lazily after
        # inserts invalidate a partition.
        self._decomposed: dict[tuple[int, int], DecomposedTables] = {}
        self._stale: set[tuple[int, int]] = set()
        # Per-column sort orders over the whole packed base (absolute row
        # indices, segment-sorted per partition), restored from a
        # columnar archive; lets _decomposed_for skip the per-partition
        # argsort.  Cleared by any update — the base rows shift.
        self._persisted_orders: "tuple[np.ndarray, ...] | None" = None
        # Global MBR columns by object id, used to verify residual
        # comparisons after a binary search ("accessing the entire MBR").
        self._g_xl = _EMPTY_IDS.astype(np.float64)
        self._g_yl = self._g_xl
        self._g_xu = self._g_xl
        self._g_yu = self._g_xl

    # -- construction -----------------------------------------------------

    @classmethod
    def build(
        cls,
        data: RectDataset,
        partitions_per_dim: int = 128,
        domain: "Rect | None" = None,
        multi_comparison_strategy: str = "auto",
    ) -> "TwoLayerPlusGrid":
        """Bulk-load from a dataset (square N x N grid, like the paper)."""
        from repro.grid.base import GridPartitioner

        grid = GridPartitioner(
            partitions_per_dim,
            partitions_per_dim,
            domain if domain is not None else Rect(0.0, 0.0, 1.0, 1.0),
        )
        index = cls(grid, multi_comparison_strategy=multi_comparison_strategy)
        index._bulk_load(data)
        return index

    def _bulk_load(self, data: RectDataset) -> None:
        super()._bulk_load(data)
        self._g_xl = data.xl.copy()
        self._g_yl = data.yl.copy()
        self._g_xu = data.xu.copy()
        self._g_yu = data.yu.copy()
        for key in np.flatnonzero(self._store.group_counts()):
            tile_id, code = divmod(int(key), 4)
            cols = self._store.group_columns(int(key))
            self._decomposed[(tile_id, code)] = DecomposedTables(*cols, code)

    def insert(self, rect: Rect, obj_id: "int | None" = None) -> int:
        obj_id = super().insert(rect, obj_id)
        self._persisted_orders = None
        # Memmap-loaded global columns are read-only snapshots; fork
        # them copy-on-write before the first in-place update.
        if not self._g_xl.flags.writeable:
            self._g_xl = self._g_xl.copy()
            self._g_yl = self._g_yl.copy()
            self._g_xu = self._g_xu.copy()
            self._g_yu = self._g_yu.copy()
        # Grow the global columns if needed, then record the new MBR.
        if obj_id >= self._g_xl.shape[0]:
            grow = obj_id + 1 - self._g_xl.shape[0]
            self._g_xl = np.concatenate([self._g_xl, np.empty(grow)])
            self._g_yl = np.concatenate([self._g_yl, np.empty(grow)])
            self._g_xu = np.concatenate([self._g_xu, np.empty(grow)])
            self._g_yu = np.concatenate([self._g_yu, np.empty(grow)])
        self._g_xl[obj_id] = rect.xl
        self._g_yl[obj_id] = rect.yl
        self._g_xu[obj_id] = rect.xu
        self._g_yu[obj_id] = rect.yu
        # Invalidate every decomposed partition the insert touched.
        ix0 = self.grid.tile_ix(rect.xl)
        ix1 = self.grid.tile_ix(rect.xu)
        iy0 = self.grid.tile_iy(rect.yl)
        iy1 = self.grid.tile_iy(rect.yu)
        for iy in range(iy0, iy1 + 1):
            base = iy * self.grid.nx
            for ix in range(ix0, ix1 + 1):
                code = 2 * (ix > ix0) + (iy > iy0)
                self._stale.add((base + ix, code))
        return obj_id

    def delete(self, rect: Rect, obj_id: int) -> bool:
        """Remove an object and invalidate the affected decomposed tables."""
        found = super().delete(rect, obj_id)
        if found:
            self._persisted_orders = None
            ix0 = self.grid.tile_ix(rect.xl)
            ix1 = self.grid.tile_ix(rect.xu)
            iy0 = self.grid.tile_iy(rect.yl)
            iy1 = self.grid.tile_iy(rect.yu)
            for iy in range(iy0, iy1 + 1):
                base = iy * self.grid.nx
                for ix in range(ix0, ix1 + 1):
                    code = 2 * (ix > ix0) + (iy > iy0)
                    key = (base + ix, code)
                    if self._partition_columns(base + ix, code) is None:
                        # Partition vanished: drop its decomposed copy.
                        self._decomposed.pop(key, None)
                        self._stale.discard(key)
                    else:
                        self._stale.add(key)
        return found

    def compact(self) -> None:
        super().compact()
        # Compaction renumbers base rows; the persisted orders are stale.
        self._persisted_orders = None

    def _decomposed_for(self, tile_id: int, code: int) -> DecomposedTables:
        key = (tile_id, code)
        tables = self._decomposed.get(key)
        if tables is None or key in self._stale:
            tables = self._decomposed_from_orders(tile_id, code)
            if tables is None:
                cols = self._partition_columns(tile_id, code)
                assert cols is not None
                tables = DecomposedTables(*cols, code)
            self._decomposed[key] = tables
            self._stale.discard(key)
        return tables

    def _decomposed_from_orders(
        self, tile_id: int, code: int
    ) -> "DecomposedTables | None":
        """Gather one partition's DSM tables from the persisted orders.

        One slice + gather per required comparison — no argsort.  Only
        valid while the packed base is exactly what the archive held
        (no overlay, no tombstones); any update clears the orders.
        """
        orders = self._persisted_orders
        store = self._store
        if (
            orders is None
            or store is None
            or self._tiles
            or store.n_dead
        ):
            return None
        group = tile_id * 4 + code
        s = int(store.offsets[group])
        e = int(store.offsets[group + 1])
        columns = (store.xl, store.yl, store.xu, store.yu)
        tables: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for comp in REQUIRED_TABLES[code]:
            col = _SOURCE_COLUMN[comp]
            rows = orders[col][s:e]
            tables[comp] = (columns[col][rows], store.ids[rows])
        return DecomposedTables.from_sorted(code, e - s, tables)

    @property
    def nbytes(self) -> int:
        """Base partitions plus the decomposed copy (the Fig. 7 gap)."""
        return super().nbytes + sum(d.nbytes for d in self._decomposed.values())

    # -- window queries ----------------------------------------------------

    def _window_scan(
        self,
        window: Rect,
        ix0: int,
        ix1: int,
        iy0: int,
        iy1: int,
        stats: "QueryStats | None",
    ) -> np.ndarray:
        """Accounted / traced window scan through the decomposed tables.

        Decomposition only changes *how* residual comparisons are paid
        for, so :meth:`window_query` is inherited whole: with no stats
        and no tracer the packed query matrix answers in one comparison
        pass per slab, which beats a binary search per partition under
        NumPy dispatch costs at smoke scale and ties at full scale; this
        hook is what runs otherwise, with §IV-C's own accounting.
        """
        pieces: list[np.ndarray] = []
        self._scan_window_tiles(window, ix0, ix1, iy0, iy1, pieces, stats)
        if not pieces:
            return _EMPTY_IDS
        return np.concatenate(pieces)

    def _scan_window_tiles(
        self,
        window: Rect,
        ix0: int,
        ix1: int,
        iy0: int,
        iy1: int,
        pieces: list[np.ndarray],
        stats: "QueryStats | None",
    ) -> None:
        # The (comparison, bound) list of a class plan is fixed for the
        # whole query; build each at most once, keyed by plan identity.
        comps_cache: dict[int, tuple[tuple[str, float], ...]] = {}
        for iy in range(iy0, iy1 + 1):
            base = iy * self.grid.nx
            for ix in range(ix0, ix1 + 1):
                if not self._tile_has_rows(base + ix):
                    continue
                plan = plan_tile(ix, iy, ix0, ix1, iy0, iy1)
                if stats is not None:
                    stats.partitions_visited += 1
                for cp in plan.classes:
                    cols = self._partition_columns(base + ix, cp.code)
                    if cols is None:
                        continue
                    comps = comps_cache.get(id(cp))
                    if comps is None:
                        built = []
                        if cp.xu_ge:
                            built.append((COMP_XU_GE, window.xl))
                        if cp.xl_le:
                            built.append((COMP_XL_LE, window.xu))
                        if cp.yu_ge:
                            built.append((COMP_YU_GE, window.yl))
                        if cp.yl_le:
                            built.append((COMP_YL_LE, window.yu))
                        comps = tuple(built)
                        comps_cache[id(cp)] = comps
                    if not comps:
                        # Covered tile: report the whole partition.
                        ids = cols[4]
                        if stats is not None and ids.shape[0]:
                            stats.rects_scanned += ids.shape[0]
                            stats.visit_class(CLASS_NAMES[cp.code])
                        pieces.append(ids)
                        continue
                    if len(comps) == 1:
                        decomposed = self._decomposed_for(base + ix, cp.code)
                        if decomposed.n == 0:
                            continue
                        if stats is not None:
                            stats.rects_scanned += decomposed.n
                            stats.comparisons += max(
                                1, int(np.ceil(np.log2(max(decomposed.n, 2))))
                            )
                            stats.visit_class(CLASS_NAMES[cp.code])
                        pieces.append(decomposed.search(*comps[0]))
                        continue
                    if self.multi_comparison_strategy == "scan":
                        xl, yl, xu, yu, ids = cols
                        if ids.shape[0] == 0:
                            continue
                        if stats is not None:
                            stats.rects_scanned += ids.shape[0]
                            stats.comparisons += len(comps) * ids.shape[0]
                            stats.visit_class(CLASS_NAMES[cp.code])
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
                        assert mask is not None
                        pieces.append(ids[mask])
                        continue
                    # Section IV-C literal order: binary search on the
                    # least-covered dimension, verify survivors on MBRs.
                    decomposed = self._decomposed_for(base + ix, cp.code)
                    if decomposed.n == 0:
                        continue
                    if stats is not None:
                        stats.rects_scanned += decomposed.n
                        stats.visit_class(CLASS_NAMES[cp.code])
                    search, rest = self._order_comparisons(
                        list(comps), window, ix, iy
                    )
                    cand = decomposed.search(*search)
                    if stats is not None:
                        stats.comparisons += max(
                            1, int(np.ceil(np.log2(max(decomposed.n, 2))))
                        )
                        stats.comparisons += len(rest) * cand.shape[0]
                    for comp, bound in rest:
                        if cand.shape[0] == 0:
                            break
                        cand = self._verify(cand, comp, bound)
                    pieces.append(cand)

    def _order_comparisons(
        self,
        comps: list[tuple[str, float]],
        window: Rect,
        ix: int,
        iy: int,
    ) -> tuple[tuple[str, float], list[tuple[str, float]]]:
        """Pick the binary-search comparison; the rest are verified.

        Following Section IV-C, the search uses the table of the dimension
        covered the *least* by the window over this tile, which minimises
        the number of survivors needing verification.
        """
        if len(comps) == 1:
            return comps[0], []
        grid = self.grid
        txl = grid.domain.xl + ix * grid.tile_w
        tyl = grid.domain.yl + iy * grid.tile_h
        cover_x = (
            min(window.xu, txl + grid.tile_w) - max(window.xl, txl)
        ) / grid.tile_w
        cover_y = (
            min(window.yu, tyl + grid.tile_h) - max(window.yl, tyl)
        ) / grid.tile_h
        x_comps = [c for c in comps if c[0] in (COMP_XU_GE, COMP_XL_LE)]
        y_comps = [c for c in comps if c[0] not in (COMP_XU_GE, COMP_XL_LE)]
        ordered = x_comps + y_comps if cover_x <= cover_y else y_comps + x_comps
        return ordered[0], ordered[1:]

    def _verify(self, cand: np.ndarray, comp: str, bound: float) -> np.ndarray:
        """Filter candidate ids on one comparison via the global MBRs."""
        if comp == COMP_XU_GE:
            return cand[self._g_xu[cand] >= bound]
        if comp == COMP_XL_LE:
            return cand[self._g_xl[cand] <= bound]
        if comp == COMP_YU_GE:
            return cand[self._g_yu[cand] >= bound]
        return cand[self._g_yl[cand] <= bound]
