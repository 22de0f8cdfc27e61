"""Primary space-oriented partitioning: the regular grid (Section III).

The grid divides the data space into ``nx * ny`` disjoint *tiles* using
axis-parallel lines.  Tiles are **half-open**: tile ``(ix, iy)`` covers
``[x0 + ix*tw, x0 + (ix+1)*tw) x [y0 + iy*th, y0 + (iy+1)*th)`` with the
last tile per axis closed at the domain edge.  Half-openness makes tile
membership of any point unique, which in turn makes the *class-A tile* of
every rectangle unique — the property the two-layer scheme's duplicate
avoidance rests on.

An object is assigned (replicated) to every tile its MBR intersects.  The
tiles intersecting a window are found in O(1) by the algebraic index
computation of Section IV.

This module also provides :func:`replicate`, the vectorised
object-to-tile assignment shared by the 1-layer and 2-layer indices.  Each
replica carries a *class code* (Section III):

====  =====  =================================================
code  class  meaning (for the replica's tile T)
====  =====  =================================================
0     A      starts inside T in both dimensions
1     B      starts inside T in x, before T in y
2     C      starts before T in x, inside T in y
3     D      starts before T in both dimensions
====  =====  =================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.datasets.dataset import RectDataset
from repro.errors import InvalidGridError
from repro.geometry.mbr import Rect

__all__ = [
    "CLASS_A",
    "CLASS_B",
    "CLASS_C",
    "CLASS_D",
    "CLASS_NAMES",
    "GridPartitioner",
    "Replication",
    "replicate",
]

CLASS_A = 0
CLASS_B = 1
CLASS_C = 2
CLASS_D = 3
CLASS_NAMES = ("A", "B", "C", "D")

#: default indexed domain — datasets in this library are normalised to it.
UNIT_DOMAIN = Rect(0.0, 0.0, 1.0, 1.0)


class GridPartitioner:
    """Tile arithmetic for a regular ``nx * ny`` grid over a domain."""

    __slots__ = ("domain", "nx", "ny", "tile_w", "tile_h")

    def __init__(self, nx: int, ny: int, domain: Rect = UNIT_DOMAIN):
        if nx < 1 or ny < 1:
            raise InvalidGridError(f"grid needs >= 1 partition per dim, got {nx}x{ny}")
        if domain.width <= 0 or domain.height <= 0:
            raise InvalidGridError(f"grid domain must have positive area: {domain}")
        self.domain = domain
        self.nx = nx
        self.ny = ny
        self.tile_w = domain.width / nx
        self.tile_h = domain.height / ny

    @property
    def tile_count(self) -> int:
        return self.nx * self.ny

    # -- persistence -----------------------------------------------------

    def meta(self) -> "dict[str, Any]":
        """JSON-serialisable description, for index container metadata."""
        return {
            "nx": self.nx,
            "ny": self.ny,
            "domain": list(self.domain.as_tuple()),
        }

    @classmethod
    def from_meta(cls, meta: "dict[str, Any]") -> "GridPartitioner":
        """Rebuild a partitioner from :meth:`meta` output."""
        return cls(int(meta["nx"]), int(meta["ny"]), Rect(*meta["domain"]))

    def __repr__(self) -> str:
        return f"GridPartitioner({self.nx}x{self.ny}, domain={self.domain.as_tuple()})"

    # -- scalar tile arithmetic ------------------------------------------

    def tile_ix(self, x: float) -> int:
        """Column of the tile containing coordinate ``x`` (clamped)."""
        ix = int((x - self.domain.xl) / self.tile_w)
        return min(max(ix, 0), self.nx - 1)

    def tile_iy(self, y: float) -> int:
        """Row of the tile containing coordinate ``y`` (clamped)."""
        iy = int((y - self.domain.yl) / self.tile_h)
        return min(max(iy, 0), self.ny - 1)

    def tile_id(self, ix: int, iy: int) -> int:
        """Linear id of tile ``(ix, iy)`` (row-major)."""
        return iy * self.nx + ix

    def tile_coords(self, tile_id: int) -> tuple[int, int]:
        return tile_id % self.nx, tile_id // self.nx

    def tile_rect(self, ix: int, iy: int) -> Rect:
        """The (closed Rect representation of the) extent of a tile.

        The last tile per axis ends exactly at the domain edge:
        ``xl + tile_w`` can round to just under ``domain.xu``, and that
        1-ulp gap would let a distance test exclude a boundary point the
        tile actually owns (e.g. a radius-0 disk query at ``x = 1.0``).
        """
        xl = self.domain.xl + ix * self.tile_w
        yl = self.domain.yl + iy * self.tile_h
        xu = self.domain.xu if ix == self.nx - 1 else xl + self.tile_w
        yu = self.domain.yu if iy == self.ny - 1 else yl + self.tile_h
        return Rect(xl, yl, xu, yu)

    def tile_range_for_window(self, window: Rect) -> tuple[int, int, int, int]:
        """``(ix0, ix1, iy0, iy1)`` of tiles intersecting ``window`` — O(1).

        This is the algebraic tile lookup of Section IV; the range is
        clamped to the grid, so windows may extend beyond the domain.
        Every window query starts here, so the four :meth:`tile_ix` /
        :meth:`tile_iy` lookups are inlined (one call, no ``min``/``max``).
        """
        d = self.domain
        ix0 = int((window.xl - d.xl) / self.tile_w)
        ix1 = int((window.xu - d.xl) / self.tile_w)
        iy0 = int((window.yl - d.yl) / self.tile_h)
        iy1 = int((window.yu - d.yl) / self.tile_h)
        last = self.nx - 1
        ix0 = 0 if ix0 < 0 else (last if ix0 > last else ix0)
        ix1 = 0 if ix1 < 0 else (last if ix1 > last else ix1)
        last = self.ny - 1
        iy0 = 0 if iy0 < 0 else (last if iy0 > last else iy0)
        iy1 = 0 if iy1 < 0 else (last if iy1 > last else iy1)
        return ix0, ix1, iy0, iy1

    # -- vectorised tile arithmetic ------------------------------------------

    def tile_ix_array(self, xs: np.ndarray) -> np.ndarray:
        ixs = ((xs - self.domain.xl) / self.tile_w).astype(np.int64)
        return np.clip(ixs, 0, self.nx - 1)

    def tile_iy_array(self, ys: np.ndarray) -> np.ndarray:
        iys = ((ys - self.domain.yl) / self.tile_h).astype(np.int64)
        return np.clip(iys, 0, self.ny - 1)


@dataclass(frozen=True)
class Replication:
    """Flat replica table: one row per (object, tile) assignment.

    ``tile_ids``, ``obj_ids`` and ``class_codes`` are parallel arrays.
    ``total`` equals the stored-entry count the paper reports as index
    size; ``replication_ratio`` is ``total / n_objects``.
    """

    tile_ids: np.ndarray
    obj_ids: np.ndarray
    class_codes: np.ndarray

    @property
    def total(self) -> int:
        return int(self.tile_ids.shape[0])

    def replication_ratio(self, n_objects: int) -> float:
        return self.total / max(n_objects, 1)


def replicate(data: RectDataset, grid: GridPartitioner) -> Replication:
    """Assign every object to every tile its MBR intersects (vectorised).

    For each replica the class code is derived from whether the object's
    start point falls inside the replica tile per dimension: the tile
    ``(ix0, iy0)`` containing ``(r.xl, r.yl)`` hosts the (unique) class-A
    replica; tiles to the right host C/D, tiles below host B/D.
    """
    n = len(data)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return Replication(empty, empty.copy(), empty.copy())

    ix0 = grid.tile_ix_array(data.xl)
    ix1 = grid.tile_ix_array(data.xu)
    iy0 = grid.tile_iy_array(data.yl)
    iy1 = grid.tile_iy_array(data.yu)

    span_x = ix1 - ix0 + 1
    span_y = iy1 - iy0 + 1
    reps = span_x * span_y
    total = int(reps.sum())

    obj_ids = np.repeat(np.arange(n, dtype=np.int64), reps)
    # Rank of each replica within its object: 0 .. reps[obj]-1.
    starts = np.cumsum(reps) - reps
    rank = np.arange(total, dtype=np.int64) - np.repeat(starts, reps)
    sx = span_x[obj_ids]
    dx = rank % sx
    dy = rank // sx
    ix = ix0[obj_ids] + dx
    iy = iy0[obj_ids] + dy

    tile_ids = iy * grid.nx + ix
    class_codes = (2 * (dx > 0) + (dy > 0)).astype(np.int64)
    return Replication(tile_ids, obj_ids, class_codes)
