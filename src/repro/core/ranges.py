"""Convex range queries on the two-layer grid's window executor (§IV-E).

The paper generalises disk queries to *any* query range.  For a
**convex** range the window executor already does the hard part: every
object that meets the range meets the range's bounding box, and a window
query over that box reports each such object exactly once (Lemmas 1-2,
Algorithm 1).  A convex range query is therefore that window query plus
one exact, vectorised predicate over the candidates' MBRs — a
separating-axis test against the range's vertex ring (box axes plus the
ring's edge normals, closed boundaries).  Two concrete ranges are
provided:

* :class:`ConvexPolygonRange` — a convex polygon query region;
* :class:`HalfPlaneStripRange` — the intersection of half-planes
  (e.g. "everything north-west of this line within the map"), a common
  analytic region shape; it is evaluated as its clip box cut by the
  half-planes, i.e. as a (possibly empty or degenerate) convex polygon.

Disk queries keep their dedicated §IV-E path in
:meth:`TwoLayerGrid.disk_query`.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.datasets.dataset import RectDataset
from repro.errors import InvalidQueryError
from repro.geometry.mbr import Rect
from repro.geometry.polygon import Polygon
from repro.core.two_layer import TwoLayerGrid
from repro.stats import QueryStats

__all__ = [
    "ConvexPolygonRange",
    "HalfPlaneStripRange",
    "convex_range_query",
]

_EMPTY_IDS = np.empty(0, dtype=np.int64)


def _is_convex(xs: np.ndarray, ys: np.ndarray) -> bool:
    """Do the ring's turns share one sign and add up to one turn at most?

    Zero-length edges are dropped first; collinear vertices turn by 0.
    The total-turn bound rejects self-intersecting rings such as a
    pentagram, whose turns all share a sign but wind twice.
    """
    ex = np.roll(xs, -1) - xs
    ey = np.roll(ys, -1) - ys
    keep = (ex != 0.0) | (ey != 0.0)
    ex, ey = ex[keep], ey[keep]
    nx, ny = np.roll(ex, -1), np.roll(ey, -1)
    cross = ex * ny - ey * nx
    turning = cross[np.abs(cross) >= 1e-15]
    if not ((turning > 0).all() or (turning < 0).all()):
        return False
    total = float(np.arctan2(cross, ex * nx + ey * ny).sum())
    return abs(total) <= 2.0 * math.pi + 1e-9


class ConvexPolygonRange:
    """A convex-polygon query range.

    Vertices may be given in either orientation; convexity is validated
    (the window-plus-predicate evaluation relies on it).
    """

    def __init__(self, vertices: "Sequence[tuple[float, float]]"):
        ring = np.asarray(Polygon(vertices).vertices, dtype=np.float64)
        if not _is_convex(ring[:, 0], ring[:, 1]):
            raise InvalidQueryError(
                "ConvexPolygonRange requires a convex polygon; use multiple "
                "convex pieces for concave regions"
            )
        self._set_ring(ring)

    def _set_ring(self, ring: np.ndarray) -> None:
        """Store the vertex ring counter-clockwise (shoelace sign)."""
        xs, ys = ring[:, 0], ring[:, 1]
        if float(np.dot(xs, np.roll(ys, -1)) - np.dot(np.roll(xs, -1), ys)) < 0:
            ring = ring[::-1]
        self._ring = ring

    def bounding_box(self) -> "Rect | None":
        """The range's MBR (``None`` for an empty range)."""
        if self._ring.shape[0] == 0:
            return None
        lo = self._ring.min(axis=0)
        hi = self._ring.max(axis=0)
        return Rect(float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1]))

    def intersects_rects(
        self,
        xl: np.ndarray,
        yl: np.ndarray,
        xu: np.ndarray,
        yu: np.ndarray,
    ) -> np.ndarray:
        """Boolean mask: which of the given MBRs meet the range.

        Separating-axis test with closed boundaries.  The two box axes
        are the bounding-box overlap; per counter-clockwise edge
        ``a -> b``, a rectangle is separated iff even its corner farthest
        to the left of the edge lies strictly to its right.
        """
        box = self.bounding_box()
        if box is None:
            return np.zeros(np.shape(xl), dtype=bool)
        mask = (xl <= box.xu) & (xu >= box.xl) & (yl <= box.yu) & (yu >= box.yl)
        ring = self._ring.tolist()
        for (ax, ay), (bx, by) in zip(ring, ring[1:] + ring[:1]):
            ex, ey = bx - ax, by - ay
            px = xl if ey > 0 else xu
            py = yu if ex > 0 else yl
            mask &= ex * (py - ay) - ey * (px - ax) >= 0
        return mask


class HalfPlaneStripRange(ConvexPolygonRange):
    """Intersection of half-planes ``a*x + b*y <= c``, clipped to a box.

    A flexible convex region for analytic queries ("south of this road,
    west of this meridian").  The clip box bounds the otherwise unbounded
    intersection; the region is the box cut by every half-plane in turn
    (Sutherland-Hodgman), a convex ring that may be empty, a segment or a
    point.
    """

    def __init__(
        self,
        half_planes: "Iterable[tuple[float, float, float]]",
        clip: "Rect | None" = None,
    ):
        self.half_planes = [(float(a), float(b), float(c)) for a, b, c in half_planes]
        if not self.half_planes:
            raise InvalidQueryError("need at least one half-plane")
        self.clip = clip if clip is not None else Rect(0.0, 0.0, 1.0, 1.0)
        ring = list(self.clip.corners())
        for a, b, c in self.half_planes:
            cut: list[tuple[float, float]] = []
            for (px, py), (qx, qy) in zip(ring, ring[1:] + ring[:1]):
                sp = a * px + b * py - c
                sq = a * qx + b * qy - c
                if sp <= 0:
                    cut.append((px, py))
                if (sp < 0 < sq) or (sq < 0 < sp):
                    t = sp / (sp - sq)
                    cut.append((px + t * (qx - px), py + t * (qy - py)))
            ring = cut
        self._set_ring(np.asarray(ring, dtype=np.float64).reshape(-1, 2))


def convex_range_query(
    index: TwoLayerGrid,
    data: RectDataset,
    query: ConvexPolygonRange,
    stats: "QueryStats | None" = None,
) -> np.ndarray:
    """Ids of all indexed MBRs intersecting a convex range — no duplicates.

    One window query over the range's bounding box (duplicate-free by
    Lemmas 1-2), then the range's exact predicate over the candidates'
    MBRs, gathered from ``data`` by id.
    """
    box = query.bounding_box()
    if box is None:
        return _EMPTY_IDS
    ids = index.window_query(box, stats)
    keep = query.intersects_rects(
        data.xl[ids], data.yl[ids], data.xu[ids], data.yu[ids]
    )
    return ids[keep]
