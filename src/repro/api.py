"""High-level facade: one object that does everything the library offers.

:class:`SpatialCollection` wraps a dataset (MBRs, optionally exact
geometries) together with a two-layer grid index and exposes every query
the repo implements through one coherent interface — the entry point a
downstream application would actually use:

* window / disk / convex-polygon range queries (MBR-level or exact);
* k-nearest neighbours;
* spatial joins against another collection;
* inserts and deletes;
* selectivity estimates, granularity auto-tuning, persistence.

Example::

    from repro.api import SpatialCollection
    from repro.datasets import generate_uniform_rects

    col = SpatialCollection.from_dataset(generate_uniform_rects(100_000))
    hits = col.window(0.2, 0.2, 0.3, 0.3)
    near = col.knn(0.5, 0.5, k=10)
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.datasets.dataset import RectDataset
from repro.datasets.queries import DiskQuery
from repro.errors import InvalidQueryError
from repro.geometry.mbr import Rect
from repro.geometry.predicates import Geometry
from repro.core.estimate import SelectivityEstimator
from repro.core.join import two_layer_spatial_join
from repro.core.knn import knn_query
from repro.core.ranges import ConvexPolygonRange, convex_range_query
from repro.core.refinement import RefinementEngine
from repro.core.tuning import suggest_partitions
from repro.core.two_layer import TwoLayerGrid
from repro.core.two_layer_plus import TwoLayerPlusGrid
from repro.obs import tracing as _tracing
from repro.obs.profiler import Profile
from repro.stats import QueryStats

__all__ = ["SpatialCollection"]


class SpatialCollection:
    """A queryable collection of spatial objects over a two-layer grid."""

    def __init__(
        self,
        data: RectDataset,
        partitions_per_dim: "int | None" = None,
        decomposed: bool = False,
        domain: "Rect | None" = None,
    ):
        self.data = data
        if domain is None:
            domain = self._auto_domain(data)
        if partitions_per_dim is None:
            if len(data):
                partitions_per_dim = suggest_partitions(
                    data, domain_extent=max(domain.width, domain.height)
                )
            else:
                partitions_per_dim = 16
        index_cls = TwoLayerPlusGrid if decomposed else TwoLayerGrid
        self.index = index_cls.build(
            data, partitions_per_dim=partitions_per_dim, domain=domain
        )
        self._refiner = RefinementEngine(self.index, data)
        self._estimator: "SelectivityEstimator | None" = None
        self._profile: "Profile | None" = None

    @staticmethod
    def _auto_domain(data: RectDataset) -> Rect:
        """The grid domain for arbitrary (non-normalised) coordinates.

        Real datasets arrive in metres, degrees or pixels; clamping them
        into a unit grid would pile everything into edge tiles (correct
        but slow).  The domain is the data's MBR padded by 1% per side —
        the padding keeps later inserts near the boundary in play.
        """
        if len(data) == 0:
            return Rect(0.0, 0.0, 1.0, 1.0)
        mbr = data.mbr()
        pad_x = max(mbr.width, 1e-9) * 0.01
        pad_y = max(mbr.height, 1e-9) * 0.01
        return Rect(
            mbr.xl - pad_x, mbr.yl - pad_y, mbr.xu + pad_x, mbr.yu + pad_y
        )

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dataset(cls, data: RectDataset, **kwargs) -> "SpatialCollection":
        """Wrap an existing :class:`RectDataset`."""
        return cls(data, **kwargs)

    @classmethod
    def from_geometries(
        cls, geometries: Iterable[Geometry], **kwargs
    ) -> "SpatialCollection":
        """Index exact geometries (their MBRs drive the filtering step)."""
        return cls(RectDataset.from_geometries(geometries), **kwargs)

    @classmethod
    def from_rects(cls, rects: Sequence[Rect], **kwargs) -> "SpatialCollection":
        return cls(RectDataset.from_rects(rects), **kwargs)

    # -- persistence -------------------------------------------------------

    def save(
        self, path, *, format: str = "columnar", if_dirty: str = "compact"
    ) -> None:
        """Persist the collection (index + dataset) to one archive.

        The default ``format="columnar"`` writes the memmap-native
        container (:mod:`repro.core.format`): :meth:`load` then maps it
        in milliseconds regardless of size and pages rows in lazily,
        which is what lets ``python -m repro --serve --index PATH`` boot
        a multi-GB index instantly and shard workers share one page
        cache.  ``format="npz"`` keeps the legacy compressed archive.
        A loaded collection answers every query identically — no
        re-replication or re-sorting on process start.  ``if_dirty``
        controls saving with un-compacted updates (``"compact"`` folds
        them first, ``"error"`` raises).  Collections carrying exact
        geometries are refused (archives store MBRs only).
        """
        from repro.core.persistence import save_collection

        save_collection(
            self.index, self.data, path, format=format, if_dirty=if_dirty
        )

    @classmethod
    def load(cls, path, timings: "dict | None" = None) -> "SpatialCollection":
        """Restore a collection written by :meth:`save` without rebuilding.

        The on-disk format is sniffed from the file: columnar containers
        memmap in place, legacy npz archives decompress.  ``timings``
        (optional dict) receives the boot split — ``read_ms`` vs
        ``build_ms`` — which ``--serve --index`` surfaces in the
        ``stats`` verb and the serving benchmark records.
        """
        from repro.core.persistence import load_collection

        index, data = load_collection(path, timings=timings)
        col = cls.__new__(cls)
        col.data = data
        col.index = index
        col._refiner = RefinementEngine(index, data)
        col._estimator = None
        col._profile = None
        return col

    # -- introspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return (
            f"SpatialCollection(n={len(self)}, "
            f"grid={self.index.grid.nx}x{self.index.grid.ny}, "
            f"exact_geometries={self.data.geometries is not None})"
        )

    def describe(self) -> dict:
        """Summary statistics of the collection and its index."""
        avg_w, avg_h = (
            self.data.average_extents() if len(self.data) else (0.0, 0.0)
        )
        return {
            "objects": len(self.data),
            "partitions_per_dim": self.index.grid.nx,
            "replicas": self.index.replica_count,
            "replication_ratio": self.index.replica_count / max(len(self.data), 1),
            "class_counts": self.index.class_counts(),
            "avg_extent": (avg_w, avg_h),
            "index_bytes": self.index.nbytes,
        }

    # -- profiling ---------------------------------------------------------------

    @contextmanager
    def profile(self) -> Iterator[Profile]:
        """Profile every query issued inside the block.

        Activates a tracer (per-phase spans) and a metrics registry
        (per-kind latency histograms + merged :class:`QueryStats`) for
        the duration of the block and yields the live
        :class:`~repro.obs.profiler.Profile`::

            with col.profile() as prof:
                col.window(0.2, 0.2, 0.3, 0.3)
                col.knn(0.5, 0.5, k=10)
            print(prof.span_tree())
            report = prof.summary()   # p50/p95/p99 latencies, stats, phases

        Profiles nest: the innermost active profile captures the
        queries.  Queries outside any block run on the fast path.
        """
        prof = Profile()
        prev = self._profile
        self._profile = prof
        try:
            with _tracing.activate(prof.tracer):
                yield prof
        finally:
            self._profile = prev

    # -- EXPLAIN -----------------------------------------------------------------

    def explain(
        self,
        query: "Rect | DiskQuery | Sequence[float] | None" = None,
        knn: "tuple[float, float, int] | None" = None,
        join: "SpatialCollection | None" = None,
        exact: bool = False,
        predicate: str = "intersects",
        partitions_per_dim: "int | None" = None,
    ):
        """Run one query under EXPLAIN and return its
        :class:`~repro.obs.explain.QueryPlan`.

        Exactly one query form must be given:

        * ``query`` — a :class:`Rect` (or 4-sequence ``(xl, yl, xu, yu)``)
          for a window query, or a :class:`DiskQuery` for a disk query;
          ``exact`` / ``predicate`` select the same variants as
          :meth:`window` / :meth:`disk`;
        * ``knn=(cx, cy, k)`` — a k-nearest-neighbour query;
        * ``join=other_collection`` — a two-layer spatial join.

        The plan carries per-class tile scans, candidate flow per phase,
        duplicate and comparison accounting, and per-phase wall-clock;
        print it (``str(plan)``) or export it (``plan.to_json()``).
        """
        given = sum(x is not None for x in (query, knn, join))
        if given != 1:
            raise InvalidQueryError(
                "explain() needs exactly one of query=, knn= or join="
            )
        if knn is not None:
            from repro.obs.explain import explain_knn

            cx, cy, k = knn
            if exact:
                raise InvalidQueryError(
                    "EXPLAIN supports the MBR-level (filtering-step) kNN only"
                )
            return explain_knn(self.index, self.data, float(cx), float(cy), int(k))
        if join is not None:
            from repro.obs.explain import explain_join

            ppd = (
                partitions_per_dim
                if partitions_per_dim is not None
                else self.index.grid.nx
            )
            # accept either a SpatialCollection or a bare RectDataset
            other = getattr(join, "data", join)
            return explain_join(self.data, other, partitions_per_dim=ppd)
        if isinstance(query, DiskQuery):
            return self._explain_disk(query, exact)
        if not isinstance(query, Rect):
            xl, yl, xu, yu = query  # type: ignore[misc]
            query = Rect(float(xl), float(yl), float(xu), float(yu))
        return self._explain_window(query, exact, predicate)

    def _explain_window(self, window: Rect, exact: bool, predicate: str):
        from repro.obs.explain import explain_window

        if predicate == "within":
            if exact:
                raise InvalidQueryError(
                    "'within' is already exact at the MBR level"
                )
            return explain_window(
                self.index,
                window,
                runner=lambda s: self.index.window_query_within(window, s),
                kind="window[within]",
            )
        if predicate != "intersects":
            raise InvalidQueryError(
                f"unknown predicate {predicate!r}; expected 'intersects' or 'within'"
            )
        if exact:
            return explain_window(
                self.index,
                window,
                runner=lambda s: self._refiner.window(
                    window, mode="refavoid_plus", stats=s
                ),
                kind="window[exact]",
            )
        return explain_window(self.index, window)

    def _explain_disk(self, query: DiskQuery, exact: bool):
        from repro.obs.explain import explain_disk

        if exact:
            return explain_disk(
                self.index,
                query,
                runner=lambda s: self._refiner.disk(
                    query, mode="refavoid", stats=s
                ),
            )
        return explain_disk(self.index, query)

    def _run_query(self, kind: str, fn, stats: "QueryStats | None") -> np.ndarray:
        """Run ``fn(stats)``; under an active profile, also record the
        query's latency and work counters."""
        prof = self._profile
        if prof is None:
            return fn(stats)
        with prof.measure(kind) as local:
            out = fn(local)
        if stats is not None:
            stats.merge(local)
        return out

    # -- queries -----------------------------------------------------------------

    def window(
        self,
        xl: float,
        yl: float,
        xu: float,
        yu: float,
        exact: bool = False,
        predicate: str = "intersects",
        stats: "QueryStats | None" = None,
        explain: bool = False,
    ) -> np.ndarray:
        """Objects matching the window.

        ``predicate="intersects"`` (default) or ``"within"`` (objects
        fully contained in the window).  ``exact=True`` runs the full
        filter + Lemma 5 secondary filter + refinement pipeline
        (intersects only — an MBR within the window implies the geometry
        is within it, so ``within`` needs no refinement).
        ``explain=True`` returns a :class:`~repro.obs.explain.QueryPlan`
        instead of the result ids.
        """
        window = Rect(xl, yl, xu, yu)
        if explain:
            return self._explain_window(window, exact, predicate)
        if predicate == "within":
            if exact:
                raise InvalidQueryError(
                    "'within' is already exact at the MBR level"
                )
            return self._run_query(
                "window", lambda s: self.index.window_query_within(window, s), stats
            )
        if predicate != "intersects":
            raise InvalidQueryError(
                f"unknown predicate {predicate!r}; expected 'intersects' or 'within'"
            )
        if exact:
            return self._run_query(
                "window",
                lambda s: self._refiner.window(
                    window, mode="refavoid_plus", stats=s
                ),
                stats,
            )
        return self._run_query(
            "window", lambda s: self.index.window_query(window, s), stats
        )

    def disk(
        self,
        cx: float,
        cy: float,
        radius: float,
        exact: bool = False,
        stats: "QueryStats | None" = None,
        explain: bool = False,
    ) -> np.ndarray:
        """Objects within ``radius`` of the centre (exact or MBR-level).

        ``explain=True`` returns a :class:`~repro.obs.explain.QueryPlan`.
        """
        query = DiskQuery(cx, cy, radius)
        if explain:
            return self._explain_disk(query, exact)
        if exact:
            return self._run_query(
                "disk",
                lambda s: self._refiner.disk(query, mode="refavoid", stats=s),
                stats,
            )
        return self._run_query(
            "disk", lambda s: self.index.disk_query(query, s), stats
        )

    def polygon(
        self, vertices: Sequence[tuple[float, float]], stats: "QueryStats | None" = None
    ) -> np.ndarray:
        """Objects whose MBR intersects a convex polygon range (§IV-E)."""
        poly = ConvexPolygonRange(vertices)
        return self._run_query(
            "polygon",
            lambda s: convex_range_query(self.index, self.data, poly, s),
            stats,
        )

    def knn(
        self,
        cx: float,
        cy: float,
        k: int,
        exact: bool = False,
        explain: bool = False,
    ) -> np.ndarray:
        """The ``k`` objects nearest to a point.

        ``exact=False`` ranks by MBR minimum distance (the filtering-step
        metric); ``exact=True`` refines with true geometry distances
        (filter-and-refine kNN).  ``explain=True`` returns a
        :class:`~repro.obs.explain.QueryPlan` (MBR-level kNN only).
        """
        if explain:
            return self.explain(knn=(cx, cy, k), exact=exact)
        if exact:
            return self._run_query(
                "knn", lambda s: self._refiner.knn(cx, cy, k), None
            )
        return self._run_query(
            "knn", lambda s: knn_query(self.index, self.data, cx, cy, k, s), None
        )

    def join(
        self,
        other: "SpatialCollection",
        partitions_per_dim: "int | None" = None,
        explain: bool = False,
    ) -> np.ndarray:
        """All intersecting (self, other) id pairs, duplicate-free.

        ``explain=True`` returns a :class:`~repro.obs.explain.QueryPlan`.
        """
        if explain:
            return self.explain(join=other, partitions_per_dim=partitions_per_dim)
        if partitions_per_dim is None:
            partitions_per_dim = self.index.grid.nx
        ppd = partitions_per_dim
        # accept either a SpatialCollection or a bare RectDataset
        other_data = getattr(other, "data", other)
        return self._run_query(
            "join",
            lambda s: two_layer_spatial_join(
                self.data, other_data, partitions_per_dim=ppd, stats=s
            ),
            None,
        )

    def count(self, xl: float, yl: float, xu: float, yu: float) -> int:
        """Exact result count of a window query (no id materialisation)."""
        return self.index.count_window(Rect(xl, yl, xu, yu))

    def estimate(self, xl: float, yl: float, xu: float, yu: float) -> float:
        """Histogram-based estimate of a window query's result count."""
        if self._estimator is None:
            avg = self.data.average_extents() if len(self.data) else (0.0, 0.0)
            self._estimator = SelectivityEstimator(self.index, avg_extent=avg)
        return self._estimator.estimate_window(Rect(xl, yl, xu, yu))

    # -- maintenance ---------------------------------------------------------------

    def insert(self, rect: Rect, geometry: "Geometry | None" = None) -> int:
        """Insert a new object; returns its id.

        Collections carrying exact geometries require one for the new
        object (refined queries would otherwise silently degrade).
        """
        if self.data.geometries is not None and geometry is None:
            raise InvalidQueryError(
                "this collection stores exact geometries; provide one"
            )
        new_id = self.index.insert(rect)
        self.data = RectDataset(
            np.append(self.data.xl, rect.xl),
            np.append(self.data.yl, rect.yl),
            np.append(self.data.xu, rect.xu),
            np.append(self.data.yu, rect.yu),
            None
            if self.data.geometries is None
            else self.data.geometries + [geometry],
        )
        self._refiner = RefinementEngine(self.index, self.data)
        self._estimator = None
        return new_id

    def delete(self, obj_id: int) -> bool:
        """Remove an object by id (its MBR is looked up internally).

        The dataset row is kept (ids are positional) but the index entry
        disappears, so the object stops matching any query.
        """
        if not 0 <= obj_id < len(self.data):
            return False
        found = self.index.delete(self.data.rect(obj_id), obj_id)
        if found:
            self._estimator = None
        return found
