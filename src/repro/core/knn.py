"""k-nearest-neighbour queries over the two-layer grid (paper future work).

The paper's conclusions list nearest-neighbour queries over SOP indices
with secondary partitioning as future work.  This module implements kNN
by *radius doubling over duplicate-free disk queries*: the two-layer
disk query (Section IV-E) already enumerates each object at most once,
so kNN needs no extra deduplication machinery.

Algorithm: start from a radius estimated from the average object density
(so the first probe already lands near k results; for a point outside
the domain, added to its distance from the domain), run the class-based
disk query, and double the radius until at least ``k`` objects are
found or the disk reaches the farthest domain corner; then compute exact MBR distances for the found set, take the
k-th smallest, and — because objects may have been missed between the
k-th distance and the probe circle only if the k-th distance exceeds the
probe radius — run one final disk query at the k-th distance to close
the boundary.  Expected cost: O(1) probes for uniform-ish data, each a
duplicate-free two-layer disk query.
"""

from __future__ import annotations

import math

import numpy as np

from repro.datasets.dataset import RectDataset
from repro.datasets.queries import DiskQuery
from repro.errors import InvalidQueryError
from repro.core.two_layer import TwoLayerGrid
from repro.obs.tracing import span as trace_span
from repro.stats import QueryStats

__all__ = ["knn_query"]


def knn_query(
    index: TwoLayerGrid,
    data: RectDataset,
    cx: float,
    cy: float,
    k: int,
    stats: "QueryStats | None" = None,
) -> np.ndarray:
    """Ids of the ``k`` indexed objects nearest to ``(cx, cy)``.

    Distances are MBR minimum distances (the filtering-step metric).
    ``data`` is the :class:`~repro.datasets.dataset.RectDataset` the
    index was built over (the paper's design stores exact per-object data
    once, outside the tiles — Section III).  Ties at the k-th distance
    are broken by id for determinism.
    """
    if k < 1:
        raise InvalidQueryError(f"k must be >= 1, got {k}")
    n = len(index)
    if n != len(data):
        raise InvalidQueryError(
            f"index covers {n} objects but dataset has {len(data)}"
        )
    if k >= n:
        return np.arange(n, dtype=np.int64)

    def dists(ids: np.ndarray) -> np.ndarray:
        dx = np.maximum(np.maximum(data.xl[ids] - cx, 0.0), cx - data.xu[ids])
        dy = np.maximum(np.maximum(data.yl[ids] - cy, 0.0), cy - data.yu[ids])
        return np.hypot(dx, dy)

    with trace_span("query.knn"):
        dom = index.grid.domain
        # Density-guided initial radius (expect ~k results in pi*r^2 *
        # n/area), measured from the domain edge for an outside point.
        density = n / max(dom.area, 1e-300)
        gap = math.hypot(
            max(dom.xl - cx, 0.0, cx - dom.xu), max(dom.yl - cy, 0.0, cy - dom.yu)
        )
        # A disk reaching the farthest domain corner covers the domain.
        max_radius = math.hypot(
            max(cx - dom.xl, dom.xu - cx), max(cy - dom.yl, dom.yu - cy)
        ) + 1e-9
        radius = min(
            gap
            + max(
                math.sqrt(k / (math.pi * density)),
                min(index.grid.tile_w, index.grid.tile_h) / 4.0,
            ),
            max_radius,
        )

        found = index.disk_query(DiskQuery(cx, cy, radius), stats)
        while found.shape[0] < k and radius < max_radius:
            radius = min(radius * 2.0, max_radius)
            found = index.disk_query(DiskQuery(cx, cy, radius), stats)

        with trace_span("knn.rank"):
            d = dists(found)
            order = np.lexsort((found, d))
        # Fewer than k found at max_radius means deletes left fewer than
        # k live objects, all of them in ``found``.
        kth_dist = float(d[order[k - 1]]) if found.shape[0] >= k else 0.0
        if kth_dist > radius:
            # Close the boundary: everything within the k-th distance.
            found = index.disk_query(DiskQuery(cx, cy, kth_dist), stats)
            with trace_span("knn.rank"):
                d = dists(found)
                order = np.lexsort((found, d))
        return found[order[:k]].astype(np.int64)
