"""Refinement step of range queries over exact geometries — Section V.

A range query over non-point objects runs in two steps: *filtering* finds
the candidate MBRs intersecting the range (the index's job) and
*refinement* tests each candidate's exact geometry.  Refinement dominates
query cost for window queries, so the paper adds a *secondary filter*
between the steps:

* **Simple** — every filtering candidate is refined (the baseline).
* **RefAvoid** — Lemma 5: if at least one side of a candidate's MBR lies
  inside the range, the object certainly intersects the range; for
  windows this is "one MBR projection covered by the window's" (<= 4
  comparisons), for disks "two MBR corners inside the disk" (<= 4
  distance computations).  Only candidates failing the test are refined.
* **RefAvoid⁺** — windows only: the two-layer index's class knowledge
  pays again.  In a tile the window starts before in dimension ``d``,
  every scanned class starts *inside* the tile, hence ``W.dl < r.dl`` is
  already known and the coverage test in ``d`` shrinks to
  ``r.du <= W.du``; conversely a class that starts before the tile can
  never be covered in ``d`` and the test is skipped outright.

The engine reports a per-phase time breakdown (filtering / secondary
filtering / refinement), which is what Fig. 6 plots.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.datasets.dataset import RectDataset
from repro.datasets.queries import DiskQuery
from repro.errors import InvalidQueryError
from repro.geometry.mbr import Rect
from repro.geometry.predicates import (
    geometry_intersects_disk,
    geometry_intersects_window,
)
from repro.core.two_layer import TwoLayerGrid
from repro.obs.tracing import span as trace_span
from repro.stats import QueryStats

__all__ = ["REFINEMENT_MODES", "RefinementBreakdown", "RefinementEngine"]

REFINEMENT_MODES = ("simple", "refavoid", "refavoid_plus")

_EMPTY_IDS = np.empty(0, dtype=np.int64)


@dataclass
class RefinementBreakdown:
    """Per-phase accounting of one or more refined range queries."""

    filtering_time: float = 0.0
    secondary_filter_time: float = 0.0
    refinement_time: float = 0.0
    candidates: int = 0
    refinements_avoided: int = 0
    refinement_tests: int = 0
    results: int = 0
    queries: int = 0

    @property
    def total_time(self) -> float:
        return self.filtering_time + self.secondary_filter_time + self.refinement_time

    @property
    def avoided_fraction(self) -> float:
        """Fraction of candidates certified without refinement (Fig. 6 claim)."""
        return self.refinements_avoided / max(self.candidates, 1)

    def merge(self, other: "RefinementBreakdown") -> None:
        self.filtering_time += other.filtering_time
        self.secondary_filter_time += other.secondary_filter_time
        self.refinement_time += other.refinement_time
        self.candidates += other.candidates
        self.refinements_avoided += other.refinements_avoided
        self.refinement_tests += other.refinement_tests
        self.results += other.results
        self.queries += other.queries


class RefinementEngine:
    """Evaluates refined (exact-geometry) range queries over a 2-layer grid.

    Parameters
    ----------
    index:
        a built :class:`TwoLayerGrid` (or subclass) over ``data``'s MBRs.
    data:
        the dataset; ``data.geometries`` supplies the exact geometries
        (datasets without geometries degenerate to MBR-equals-geometry,
        for which every refinement trivially succeeds).
    """

    def __init__(self, index: TwoLayerGrid, data: RectDataset):
        if len(index) != len(data):
            raise InvalidQueryError(
                f"index covers {len(index)} objects but dataset has {len(data)}"
            )
        self.index = index
        self.data = data

    # -- window queries ------------------------------------------------------

    def window(
        self,
        window: Rect,
        mode: str = "refavoid_plus",
        breakdown: "RefinementBreakdown | None" = None,
        stats: "QueryStats | None" = None,
    ) -> np.ndarray:
        """Ids of objects whose *exact geometry* intersects ``window``."""
        if mode not in REFINEMENT_MODES:
            raise InvalidQueryError(
                f"unknown refinement mode {mode!r}; expected one of {REFINEMENT_MODES}"
            )
        track = breakdown if breakdown is not None else RefinementBreakdown()

        with trace_span("query.window"):
            # Phase 1 — filtering; the index's own spans nest underneath.
            t0 = time.perf_counter()
            cand = self.index.window_query(window, stats)
            t1 = time.perf_counter()
            track.filtering_time += t1 - t0
            track.candidates += cand.shape[0]

            # Phase 2 — secondary filtering (Lemma 5).
            certified = _EMPTY_IDS
            to_refine = cand
            with trace_span("refine.secondary"):
                if mode != "simple":
                    covered = self._window_coverage_mask(cand, window, mode, stats)
                    certified = cand[covered]
                    to_refine = cand[~covered]
            t2 = time.perf_counter()
            track.secondary_filter_time += t2 - t1
            track.refinements_avoided += certified.shape[0]
            if stats is not None:
                stats.refinements_avoided += certified.shape[0]

            # Phase 3 — refinement: exact geometry tests on the rest.
            survivors: list[int] = []
            geometries = self.data.geometries
            with trace_span("refine.exact"):
                for oid in to_refine:
                    oid = int(oid)
                    track.refinement_tests += 1
                    if stats is not None:
                        stats.refinement_tests += 1
                    if geometries is None or geometry_intersects_window(
                        geometries[oid], window
                    ):
                        survivors.append(oid)
            t3 = time.perf_counter()
            track.refinement_time += t3 - t2
            track.queries += 1

            out = np.concatenate([certified, np.asarray(survivors, dtype=np.int64)])
            track.results += out.shape[0]
            return out

    def _window_coverage_mask(
        self,
        cand: np.ndarray,
        window: Rect,
        mode: str,
        stats: "QueryStats | None",
    ) -> np.ndarray:
        """Vectorised Lemma 5 test: is some projection covered by W's?

        ``refavoid`` applies the full four-comparison test.  In
        ``refavoid_plus`` each candidate's tile context, read off its MBR,
        removes the comparisons that are already decided (end of Section
        V).  Per dimension, with ``s`` the offset of the object's start
        tile from the window's first tile: ``s < 0`` — the object starts
        before the window's first column or row (class C/D there), so it
        cannot be covered and nothing is compared; ``s == 0`` — the full
        two-comparison test; ``s > 0`` — the object starts inside an
        interior tile, so ``W.xl < r.xl`` is known and only ``r.xu <=
        W.xu`` is tested.
        """
        xl = self.data.xl[cand]
        yl = self.data.yl[cand]
        xu = self.data.xu[cand]
        yu = self.data.yu[cand]
        if mode == "refavoid":
            if stats is not None:
                stats.secondary_filter_comparisons += 4 * cand.shape[0]
            return ((window.xl <= xl) & (xu <= window.xu)) | (
                (window.yl <= yl) & (yu <= window.yu)
            )

        grid = self.index.grid
        ix0, _, iy0, _ = grid.tile_range_for_window(window)
        sx = grid.tile_ix_array(xl) - ix0
        sy = grid.tile_iy_array(yl) - iy0
        inside_x, inside_y = sx >= 0, sy >= 0
        covered_x = inside_x & (xu <= window.xu) & ((sx > 0) | (window.xl <= xl))
        covered_y = inside_y & (yu <= window.yu) & ((sy > 0) | (window.yl <= yl))
        if stats is not None:
            # one comparison per dimension where s >= 0, a second where s == 0
            stats.secondary_filter_comparisons += int(
                np.count_nonzero(inside_x)
                + np.count_nonzero(sx == 0)
                + np.count_nonzero(inside_y)
                + np.count_nonzero(sy == 0)
            )
        return covered_x | covered_y

    # -- disk queries -------------------------------------------------------------

    def disk(
        self,
        query: DiskQuery,
        mode: str = "refavoid",
        breakdown: "RefinementBreakdown | None" = None,
        stats: "QueryStats | None" = None,
    ) -> np.ndarray:
        """Ids of objects whose exact geometry intersects the disk.

        ``refavoid_plus`` is not applicable to disk queries (the paper
        evaluates Simple and RefAvoid only, Fig. 6).
        """
        if mode not in ("simple", "refavoid"):
            raise InvalidQueryError(
                f"disk refinement supports 'simple' and 'refavoid', got {mode!r}"
            )
        track = breakdown if breakdown is not None else RefinementBreakdown()

        with trace_span("query.disk"):
            # Phase 1 — filtering; the index's own spans nest underneath.
            t0 = time.perf_counter()
            cand = self.index.disk_query(query, stats)
            t1 = time.perf_counter()
            track.filtering_time += t1 - t0
            track.candidates += cand.shape[0]

            certified = _EMPTY_IDS
            to_refine = cand
            with trace_span("refine.secondary"):
                if mode == "refavoid":
                    covered = self._disk_coverage_mask(cand, query, stats)
                    certified = cand[covered]
                    to_refine = cand[~covered]
            t2 = time.perf_counter()
            track.secondary_filter_time += t2 - t1
            track.refinements_avoided += certified.shape[0]
            if stats is not None:
                stats.refinements_avoided += certified.shape[0]

            survivors: list[int] = []
            geometries = self.data.geometries
            with trace_span("refine.exact"):
                for oid in to_refine:
                    oid = int(oid)
                    track.refinement_tests += 1
                    if stats is not None:
                        stats.refinement_tests += 1
                    if geometries is None or geometry_intersects_disk(
                        geometries[oid], query.cx, query.cy, query.radius
                    ):
                        survivors.append(oid)
            t3 = time.perf_counter()
            track.refinement_time += t3 - t2
            track.queries += 1

            out = np.concatenate([certified, np.asarray(survivors, dtype=np.int64)])
            track.results += out.shape[0]
            return out

    # -- exact k nearest neighbours ---------------------------------------------

    def knn(self, cx: float, cy: float, k: int) -> np.ndarray:
        """The ``k`` objects with the smallest *exact geometry* distance.

        Filter-and-refine kNN: (1) take MBR-level nearest candidates (MBR
        distance lower-bounds the exact distance), (2) refine their exact
        distances, (3) close the search with one duplicate-free disk
        query at the k-th exact distance — any object that could still
        beat the current k-th has an MBR within that radius.  Ties break
        by id.
        """
        from repro.geometry.predicates import geometry_distance_to_point
        from repro.core.knn import knn_query

        n = len(self.data)
        if k < 1:
            raise InvalidQueryError(f"k must be >= 1, got {k}")
        geometries = self.data.geometries

        def exact_dists(ids: np.ndarray) -> np.ndarray:
            if geometries is None:
                dx = np.maximum(
                    np.maximum(self.data.xl[ids] - cx, 0.0), cx - self.data.xu[ids]
                )
                dy = np.maximum(
                    np.maximum(self.data.yl[ids] - cy, 0.0), cy - self.data.yu[ids]
                )
                return np.hypot(dx, dy)
            return np.asarray(
                [geometry_distance_to_point(geometries[int(i)], cx, cy) for i in ids]
            )

        if k >= n:
            ids = np.arange(n, dtype=np.int64)
            d = exact_dists(ids)
            return ids[np.lexsort((ids, d))]

        # Phase 1-2: MBR candidates (some headroom), exact distances.
        probe = min(n, max(2 * k, k + 16))
        cand = knn_query(self.index, self.data, cx, cy, probe)
        d = exact_dists(cand)
        order = np.lexsort((cand, d))
        kth = float(d[order[k - 1]])

        # Phase 3: close the boundary — every object whose MBR is within
        # the k-th exact distance could still belong to the answer.
        pool = self.index.disk_query(DiskQuery(cx, cy, kth))
        if pool.shape[0] > cand.shape[0]:
            d = exact_dists(pool)
            order = np.lexsort((pool, d))
            return pool[order[:k]].astype(np.int64)
        return cand[order[:k]].astype(np.int64)

    def _disk_coverage_mask(
        self, cand: np.ndarray, query: DiskQuery, stats: "QueryStats | None"
    ) -> np.ndarray:
        """Vectorised Lemma 5 disk test: >= 2 MBR corners inside the disk."""
        xl = self.data.xl[cand]
        yl = self.data.yl[cand]
        xu = self.data.xu[cand]
        yu = self.data.yu[cand]
        r2 = query.radius * query.radius
        cx, cy = query.cx, query.cy
        inside = (
            (((xl - cx) ** 2 + (yl - cy) ** 2) <= r2).astype(np.int8)
            + (((xu - cx) ** 2 + (yl - cy) ** 2) <= r2)
            + (((xu - cx) ** 2 + (yu - cy) ** 2) <= r2)
            + (((xl - cx) ** 2 + (yu - cy) ** 2) <= r2)
        )
        if stats is not None:
            stats.secondary_filter_comparisons += 4 * cand.shape[0]
        return inside >= 2
