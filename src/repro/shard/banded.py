"""A TwoLayerGrid whose kernels are clamped to one contiguous tile band.

Each shard worker holds the *full* index state — the whole packed base
mapped from shared memory, the whole delta overlay replicated by the
write broadcast — but answers queries only for the tiles its band owns.
Clamping (rather than physically slicing the columns) keeps every global
invariant intact:

* plans stay global — region decomposition, class scanning rules and
  the disk canonical-tile ``row_span`` are computed over the full grid,
  so each replica's *reporting* tile is the same tile it would report
  from in a single-process index;
* tile ownership partitions the tile space, and the two-layer scheme
  emits every result in exactly one tile (Lemmas 1-2 / §IV-E), so the
  union of band results over all shards equals the global result with
  no duplicates and no misses — the scatter-gather merge is pure
  concatenation;
* a band is a contiguous CSR row slab, so the slab executor bands by
  clamping each per-grid-row slab to ``[row_lo, row_hi)``
  (:attr:`~repro.core.two_layer.TwoLayerGrid._row_clamp`) — still one
  broadcast comparison per row.

The rest of the clamp rides on three parent hooks: :meth:`~repro.core
.two_layer.TwoLayerGrid._region_tids` (window accounting and the fused
within kernel),
:meth:`~repro.core.two_layer.TwoLayerGrid._tile_has_rows` (per-tile
paths and the tiles-based batch evaluators) and
:meth:`~repro.core.two_layer.TwoLayerGrid._fork_shell` (snapshot forks
keep the band).  kNN is *not* banded — its radius-doubling search is
routed to a single worker which runs it on :meth:`global_view`.
"""

from __future__ import annotations

import numpy as np

from repro.core.two_layer import TwoLayerGrid
from repro.datasets.queries import DiskQuery
from repro.geometry.mbr import Rect
from repro.grid.base import GridPartitioner
from repro.shard.partition import ShardBand

__all__ = ["BandedTwoLayerGrid"]


class BandedTwoLayerGrid(TwoLayerGrid):
    """Full-state two-layer grid answering only for an owned tile band."""

    def __init__(self, grid: GridPartitioner, band: ShardBand):
        super().__init__(grid)
        self.band = band
        self._row_clamp = (band.row_lo, band.row_hi)

    def _fork_shell(self) -> "BandedTwoLayerGrid":
        return BandedTwoLayerGrid(self.grid, self.band)

    # -- band clamps --------------------------------------------------------

    def _region_tids(self, ax: int, bx: int, ay: int, by: int) -> np.ndarray:
        tids = super()._region_tids(ax, bx, ay, by)
        keep = (tids >= self.band.t_lo) & (tids < self.band.t_hi)
        if bool(keep.all()):
            return tids
        return tids[keep]

    def _tile_has_rows(self, tile_id: int) -> bool:
        if not self.band.owns_tile(tile_id):
            return False
        return super()._tile_has_rows(tile_id)

    def _delta_tiles_in_range(
        self, ix0: int, ix1: int, iy0: int, iy1: int
    ) -> list[int]:
        band = self.band
        return [
            tid
            for tid in super()._delta_tiles_in_range(ix0, ix1, iy0, iy1)
            if band.t_lo <= tid < band.t_hi
        ]

    def _disk_plan(
        self, query: DiskQuery
    ) -> tuple[
        dict[int, tuple[int, int]],
        list[tuple[int, tuple[int, ...], bool, int]],
    ]:
        # Keep the *global* row spans — the canonical-tile B/D dedup is
        # geometric and must see every disk-intersecting tile, owned or
        # not — but only scan jobs for owned tiles.
        row_span, jobs = super()._disk_plan(query)
        band = self.band
        return row_span, [j for j in jobs if band.t_lo <= j[0] < band.t_hi]

    def _on_window_result(self, window: Rect, out: np.ndarray) -> None:
        # A band's partial result would falsely fail the global naive
        # reference; the router cross-checks the *merged* result.
        return None

    # -- escape hatch -------------------------------------------------------

    def global_view(self) -> TwoLayerGrid:
        """A plain (unbanded) twin sharing every column by reference.

        Used for kNN: the radius-doubling search needs global visibility
        (the k-th distance bound is a global property), so the router
        sends each knn to one worker, which answers from this view.
        Cheap enough to build per call — six attribute copies.
        """
        twin = TwoLayerGrid(self.grid)
        twin._store = self._store
        twin._tiles = self._tiles
        twin._fast_q = self._fast_q
        twin._tile_row_bounds = self._tile_row_bounds
        twin._n_objects = self._n_objects
        return twin
