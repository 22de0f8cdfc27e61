"""Query EXPLAIN: a structured account of how a query was answered.

``explain_window`` / ``explain_disk`` / ``explain_knn`` / ``explain_join``
run one query under a private tracer with an :class:`ExplainStats`
collector and return a :class:`QueryPlan` — the per-phase, per-class
breakdown the paper's analysis talks about in prose:

* secondary-partition scans split by class (A/B/C/D for the two-layer
  families, ``tile``/``leaf``/``node``/``L<level>`` for the others); the
  per-class counts **sum to the total tiles visited** by construction,
  because both come from the same :meth:`QueryStats.visit_class` hook;
* candidates flowing through each phase (``filter.lookup`` →
  ``filter.scan`` → ``dedup`` → ``refine.*``) with wall-clock per phase;
* duplicate accounting: how many duplicate results a replicating index
  *would* have produced for this query (computed from the storage via
  ``explain_partitions``) — "avoided" for families that are
  duplicate-free by construction (Lemmas 1-2), "eliminated" for families
  that deduplicate explicitly (reference points / hashing);
* comparisons saved versus the 4-comparisons-per-rectangle baseline
  (the §IV-B claim, Corollary 1);
* replication factor over the partitions the query actually touched.

Every index family exposes ``explain_partitions(window)`` (the touched
partitions with their stored ids) and a ``dedup_strategy`` attribute
(``"avoid"``, ``"refpoint"``, ``"hash"``, ``"active_border"`` or
``"none"``); asking EXPLAIN of an object without them raises
:class:`~repro.errors.ObsError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

import numpy as np

from repro.errors import ObsError
from repro.geometry.mbr import Rect
from repro.obs.tracing import SpanNode, Tracer, activate
from repro.stats import QueryStats

__all__ = [
    "ExplainStats",
    "PhaseStep",
    "QueryPlan",
    "explain_window",
    "explain_disk",
    "explain_knn",
    "explain_join",
]


class ExplainStats(QueryStats):
    """Query stats that also record the per-class scan breakdown.

    A deliberate *plain* subclass (not a dataclass): ``class_scans`` is
    an instance attribute, not a dataclass field, so ``merge``/``diff``/
    ``__add__`` — which iterate ``fields()`` — keep working on the
    counter set they know about.
    """

    def __init__(self, **kwargs: int):
        super().__init__(**kwargs)
        self.class_scans: dict[str, int] = {}

    def visit_class(self, label: str) -> None:
        self.class_scans[label] = self.class_scans.get(label, 0) + 1


@dataclass
class PhaseStep:
    """One phase of the query pipeline, as recorded by the tracer."""

    path: str
    name: str
    depth: int
    calls: int
    total_ms: float
    self_ms: float
    candidates_in: "int | None" = None
    candidates_out: "int | None" = None
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "calls": self.calls,
            "total_ms": self.total_ms,
            "self_ms": self.self_ms,
            "candidates_in": self.candidates_in,
            "candidates_out": self.candidates_out,
            "note": self.note,
        }


@dataclass
class QueryPlan:
    """Structured EXPLAIN output for one query."""

    kind: str
    query: dict
    index: dict
    result_count: int
    wall_ms: float
    #: total secondary-partition scans == sum(tiles_by_class.values()).
    tiles_visited: int
    #: scans per class label ("A".."D", "tile", "leaf", "L0", "A·B", ...).
    tiles_by_class: dict[str, int]
    #: primary partitions (tiles/nodes/cells) visited, from QueryStats.
    primary_partitions: int
    #: non-empty partitions the query's window overlaps in storage.
    touched_partitions: int
    #: entries stored in the touched partitions.
    touched_entries: int
    #: distinct objects stored in the touched partitions.
    touched_objects: int
    #: touched_entries / touched_objects (1.0 when nothing is touched).
    replication_factor: float
    #: duplicate results a replicating scan of the touched partitions
    #: would produce, that this index never generated (Lemmas 1-2).
    duplicates_avoided: int
    #: duplicate results generated and then removed by explicit dedup.
    duplicates_eliminated: int
    dedup_strategy: str
    comparisons: int
    #: comparisons below the 4-per-scanned-rectangle baseline (§IV-B).
    comparisons_saved: int
    phases: list[PhaseStep]
    stats: dict
    result: np.ndarray = field(repr=False, default=None)

    # -- invariants -------------------------------------------------------

    def check(self) -> None:
        """Raise :class:`ObsError` if the plan is internally inconsistent."""
        total = sum(self.tiles_by_class.values())
        if total != self.tiles_visited:
            raise ObsError(
                f"per-class scans sum to {total} but tiles_visited is "
                f"{self.tiles_visited}"
            )

    # -- export -----------------------------------------------------------

    def as_dict(self) -> dict:
        """JSON-ready view; the raw result array becomes a preview."""
        preview: "list[int] | list[list[int]]"
        if self.result is None:
            preview = []
        else:
            arr = np.asarray(self.result)
            preview = arr[:50].tolist()
        return {
            "kind": self.kind,
            "query": self.query,
            "index": self.index,
            "result_count": self.result_count,
            "result_preview": preview,
            "wall_ms": self.wall_ms,
            "tiles_visited": self.tiles_visited,
            "tiles_by_class": dict(self.tiles_by_class),
            "primary_partitions": self.primary_partitions,
            "touched_partitions": self.touched_partitions,
            "touched_entries": self.touched_entries,
            "touched_objects": self.touched_objects,
            "replication_factor": self.replication_factor,
            "duplicates_avoided": self.duplicates_avoided,
            "duplicates_eliminated": self.duplicates_eliminated,
            "dedup_strategy": self.dedup_strategy,
            "comparisons": self.comparisons,
            "comparisons_saved": self.comparisons_saved,
            "phases": [p.as_dict() for p in self.phases],
            "stats": self.stats,
        }

    def to_json(self, indent: "int | None" = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def format_tree(self) -> str:
        """Human-readable console rendering of the plan."""
        idx = self.index
        grid = f" {idx['grid']}" if idx.get("grid") else ""
        lines = [
            f"EXPLAIN {self.kind}"
            f"  ({idx['family']}{grid}, {idx.get('objects', '?')} objects)",
            f"  query    {_fmt_query(self.query)}",
            f"  result   {self.result_count} "
            f"{'pairs' if self.kind == 'join' else 'ids'}"
            f" in {self.wall_ms:.3f} ms",
        ]
        by_class = "  ".join(
            f"{k}={v}" for k, v in sorted(self.tiles_by_class.items())
        )
        lines.append("  partitions")
        lines.append(
            f"    secondary scans (tiles visited) . {self.tiles_visited}"
            + (f"   [{by_class}]" if by_class else "")
        )
        lines.append(
            f"    primary partitions visited ...... {self.primary_partitions}"
        )
        lines.append(
            f"    touched in storage .............. {self.touched_partitions}"
            f" partitions / {self.touched_entries} entries /"
            f" {self.touched_objects} objects"
            f" (replication {self.replication_factor:.2f})"
        )
        lines.append("  duplicates")
        lines.append(
            f"    avoided ......................... {self.duplicates_avoided}"
            f"   (strategy: {self.dedup_strategy})"
        )
        lines.append(
            f"    eliminated ...................... "
            f"{self.duplicates_eliminated}"
        )
        lines.append("  comparisons")
        lines.append(
            f"    performed ....................... {self.comparisons}"
        )
        lines.append(
            f"    saved vs 4-per-rect baseline .... {self.comparisons_saved}"
        )
        lines.append("  phases")
        for p in self.phases:
            flow = ""
            if p.candidates_in is not None or p.candidates_out is not None:
                left = "·" if p.candidates_in is None else p.candidates_in
                right = "·" if p.candidates_out is None else p.candidates_out
                flow = f"  [{left} -> {right}]"
            note = f"  {p.note}" if p.note else ""
            label = "  " * p.depth + p.name
            lines.append(
                f"    {label:<28} calls={p.calls:<5} "
                f"{p.total_ms:>9.3f} ms{flow}{note}"
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.format_tree()


def _fmt_query(query: dict) -> str:
    parts = []
    for k, v in query.items():
        if isinstance(v, float):
            parts.append(f"{k}={v:g}")
        else:
            parts.append(f"{k}={v}")
    return " ".join(parts)


# -- accounting helpers -----------------------------------------------------


def _partitions_of(index, window: Rect) -> list[tuple[Rect, np.ndarray]]:
    fn = getattr(index, "explain_partitions", None)
    if fn is None:
        raise ObsError(
            f"{type(index).__name__} does not expose explain_partitions(); "
            "EXPLAIN needs storage introspection"
        )
    return fn(window)


def _replica_hits(
    partitions: list[tuple[Rect, np.ndarray]], result_ids: np.ndarray
) -> int:
    """Total occurrences of the result ids across the touched partitions."""
    if not partitions or result_ids.shape[0] == 0:
        return int(result_ids.shape[0])
    stored = np.sort(np.concatenate([ids for _, ids in partitions]))
    lo = np.searchsorted(stored, result_ids, side="left")
    hi = np.searchsorted(stored, result_ids, side="right")
    return int((hi - lo).sum())


def _touched_summary(
    partitions: list[tuple[Rect, np.ndarray]]
) -> tuple[int, int, int, float]:
    """(partitions, entries, distinct objects, replication factor)."""
    if not partitions:
        return 0, 0, 0, 1.0
    all_ids = np.concatenate([ids for _, ids in partitions])
    entries = int(all_ids.shape[0])
    objects = int(np.unique(all_ids).shape[0])
    factor = entries / objects if objects else 1.0
    return len(partitions), entries, objects, factor


def _describe_index(index) -> dict:
    desc: dict = {
        "family": type(index).__name__,
        "dedup_strategy": getattr(index, "dedup_strategy", "none"),
    }
    grid = getattr(index, "grid", None)
    if grid is not None:
        desc["grid"] = f"{grid.nx}x{grid.ny}"
    try:
        desc["objects"] = len(index)
    except TypeError:
        pass
    replicas = getattr(index, "replica_count", None)
    if replicas is not None:
        desc["entries"] = int(replicas)
    return desc


def _dedup_note(strategy: str, eliminated: int) -> str:
    if strategy == "avoid":
        return "duplicate-free by construction (class partitioning)"
    if strategy == "refpoint":
        return f"{eliminated} duplicates eliminated (reference-point test)"
    if strategy == "hash":
        return f"{eliminated} duplicates eliminated (hash set)"
    if strategy == "active_border":
        return f"{eliminated} duplicates eliminated (active border)"
    return "unique placement; nothing to eliminate"


def _build_phases(
    tracer: Tracer,
    stats: QueryStats,
    result_count: int,
    eliminated: int,
    strategy: str,
) -> list[PhaseStep]:
    candidates = result_count + eliminated
    annotations: dict[str, tuple["int | None", "int | None", str]] = {
        "filter.lookup": (None, stats.partitions_visited, ""),
        "filter.scan": (
            stats.rects_scanned,
            candidates,
            f"{stats.comparisons} comparisons",
        ),
        "dedup": (candidates, result_count, _dedup_note(strategy, eliminated)),
        "refine.secondary": (
            candidates,
            None,
            f"{stats.refinements_avoided} certified without refinement",
        ),
        "refine.exact": (stats.refinement_tests, result_count, ""),
        "join.partition": (None, None, "replicate R and S onto the grid"),
        "knn.rank": (None, None, "rank candidates by MBR distance"),
    }

    steps: list[PhaseStep] = []

    def walk(node: SpanNode, prefix: str, depth: int) -> None:
        for child in node.children.values():
            path = f"{prefix}{child.name}"
            cin, cout, note = annotations.get(child.name, (None, None, ""))
            steps.append(
                PhaseStep(
                    path=path,
                    name=child.name,
                    depth=depth,
                    calls=child.calls,
                    total_ms=child.total_s * 1e3,
                    self_ms=child.self_s * 1e3,
                    candidates_in=cin,
                    candidates_out=cout,
                    note=note,
                )
            )
            walk(child, path + "/", depth + 1)

    walk(tracer.root, "", 0)
    return steps


def _run_traced(
    runner: Callable[[QueryStats], np.ndarray]
) -> tuple[np.ndarray, ExplainStats, Tracer, float]:
    stats = ExplainStats()
    tracer = Tracer()
    t0 = perf_counter()
    with activate(tracer):
        result = runner(stats)
    wall_ms = (perf_counter() - t0) * 1e3
    return result, stats, tracer, wall_ms


def _assemble(
    kind: str,
    query_desc: dict,
    index_desc: dict,
    strategy: str,
    result: np.ndarray,
    result_count: int,
    stats: ExplainStats,
    tracer: Tracer,
    wall_ms: float,
    partitions: list[tuple[Rect, np.ndarray]],
    would_be_duplicates: int,
) -> QueryPlan:
    n_parts, entries, objects, factor = _touched_summary(partitions)
    if strategy == "avoid":
        avoided = would_be_duplicates
        eliminated = stats.duplicates_generated
    elif strategy == "none":
        avoided = 0
        eliminated = 0
    else:
        avoided = 0
        eliminated = stats.duplicates_generated
    plan = QueryPlan(
        kind=kind,
        query=query_desc,
        index=index_desc,
        result_count=result_count,
        wall_ms=wall_ms,
        tiles_visited=sum(stats.class_scans.values()),
        tiles_by_class=dict(stats.class_scans),
        primary_partitions=stats.partitions_visited,
        touched_partitions=n_parts,
        touched_entries=entries,
        touched_objects=objects,
        replication_factor=factor,
        duplicates_avoided=avoided,
        duplicates_eliminated=eliminated,
        dedup_strategy=strategy,
        comparisons=stats.comparisons,
        comparisons_saved=max(0, 4 * stats.rects_scanned - stats.comparisons),
        phases=_build_phases(tracer, stats, result_count, eliminated, strategy),
        stats=stats.as_dict(),
        result=result,
    )
    plan.check()
    return plan


# -- public entry points ----------------------------------------------------


def explain_window(
    index: Any,
    window: Rect,
    runner: "Callable[[QueryStats], np.ndarray] | None" = None,
    kind: str = "window",
    query_desc: "dict | None" = None,
) -> QueryPlan:
    """EXPLAIN a window query against any index family.

    ``runner`` overrides the executed query (e.g. the exact
    filter-and-refine pipeline); it must accept a stats object and
    return result ids.  Duplicate accounting always compares the result
    against the index's own storage over ``window``.
    """
    if runner is None:
        runner = lambda s: index.window_query(window, s)  # noqa: E731
    partitions = _partitions_of(index, window)
    result, stats, tracer, wall_ms = _run_traced(runner)
    would_be = _replica_hits(partitions, result) - int(result.shape[0])
    return _assemble(
        kind=kind,
        query_desc=query_desc
        or {
            "window": [window.xl, window.yl, window.xu, window.yu],
        },
        index_desc=_describe_index(index),
        strategy=getattr(index, "dedup_strategy", "none"),
        result=result,
        result_count=int(result.shape[0]),
        stats=stats,
        tracer=tracer,
        wall_ms=wall_ms,
        partitions=partitions,
        would_be_duplicates=would_be,
    )


def explain_disk(
    index: Any,
    query: Any,
    runner: "Callable[[QueryStats], np.ndarray] | None" = None,
) -> QueryPlan:
    """EXPLAIN a disk query; storage accounting runs over the disk's MBR."""
    if runner is None:
        runner = lambda s: index.disk_query(query, s)  # noqa: E731
    return explain_window(
        index,
        query.mbr(),
        runner=runner,
        kind="disk",
        query_desc={
            "center": [query.cx, query.cy],
            "radius": query.radius,
        },
    )


def explain_knn(
    index: Any, data: Any, cx: float, cy: float, k: int
) -> QueryPlan:
    """EXPLAIN a kNN query.

    Storage accounting runs over the MBR of the k-th-distance disk — the
    region the final boundary-closing probe of the radius-doubling
    algorithm covers (Section IV-E).
    """
    from repro.core.knn import knn_query

    runner = lambda s: knn_query(index, data, cx, cy, k, s)  # noqa: E731
    result, stats, tracer, wall_ms = _run_traced(runner)
    if result.shape[0]:
        dx = np.maximum(
            np.maximum(data.xl[result] - cx, 0.0), cx - data.xu[result]
        )
        dy = np.maximum(
            np.maximum(data.yl[result] - cy, 0.0), cy - data.yu[result]
        )
        kth = float(np.hypot(dx, dy).max())
    else:
        kth = 0.0
    window = Rect(cx - kth, cy - kth, cx + kth, cy + kth)
    partitions = _partitions_of(index, window)
    would_be = _replica_hits(partitions, result) - int(result.shape[0])
    return _assemble(
        kind="knn",
        query_desc={"center": [cx, cy], "k": k, "kth_distance": kth},
        index_desc=_describe_index(index),
        strategy=getattr(index, "dedup_strategy", "none"),
        result=result,
        result_count=int(result.shape[0]),
        stats=stats,
        tracer=tracer,
        wall_ms=wall_ms,
        partitions=partitions,
        would_be_duplicates=would_be,
    )


def explain_join(
    data_r: Any,
    data_s: Any,
    partitions_per_dim: int = 64,
    domain: "Rect | None" = None,
    baseline: bool = False,
) -> QueryPlan:
    """EXPLAIN a spatial join of two datasets.

    ``baseline=True`` explains the 1-layer (reference-point dedup) join
    instead of the two-layer class-combination join.  Duplicates avoided
    are computed per result pair as the number of grid tiles the pair's
    MBR intersection spans, minus one — exactly the duplicates a plain
    replicating partitioned join would generate (Lemma 2 applied to
    joins).
    """
    from repro.core.join import one_layer_spatial_join, two_layer_spatial_join
    from repro.grid.base import GridPartitioner, replicate

    grid = GridPartitioner(
        partitions_per_dim,
        partitions_per_dim,
        domain if domain is not None else Rect(0.0, 0.0, 1.0, 1.0),
    )
    if baseline:
        runner = lambda s: one_layer_spatial_join(  # noqa: E731
            data_r, data_s, partitions_per_dim, domain, s
        )
        strategy = "refpoint"
        family = "one_layer_spatial_join"
    else:
        runner = lambda s: two_layer_spatial_join(  # noqa: E731
            data_r, data_s, partitions_per_dim, domain, s
        )
        strategy = "avoid"
        family = "two_layer_spatial_join"
    result, stats, tracer, wall_ms = _run_traced(runner)
    n_pairs = int(result.shape[0])

    # Duplicates a replicating join would produce: tiles spanned by each
    # result pair's MBR intersection, minus one per pair.
    if n_pairs:
        pr = result[:, 0]
        ps = result[:, 1]
        ix0 = grid.tile_ix_array(np.maximum(data_r.xl[pr], data_s.xl[ps]))
        ix1 = grid.tile_ix_array(np.minimum(data_r.xu[pr], data_s.xu[ps]))
        iy0 = grid.tile_iy_array(np.maximum(data_r.yl[pr], data_s.yl[ps]))
        iy1 = grid.tile_iy_array(np.minimum(data_r.yu[pr], data_s.yu[ps]))
        spans = (ix1 - ix0 + 1) * (iy1 - iy0 + 1)
        would_be = int(spans.sum()) - n_pairs
    else:
        would_be = 0

    # Touched storage: tiles holding replicas from BOTH inputs (only
    # those produce candidate pairs).
    rep_r = replicate(data_r, grid)
    rep_s = replicate(data_s, grid)
    common = np.intersect1d(rep_r.tile_ids, rep_s.tile_ids)
    mask_r = np.isin(rep_r.tile_ids, common)
    mask_s = np.isin(rep_s.tile_ids, common)
    entries = int(mask_r.sum()) + int(mask_s.sum())
    objects = int(np.unique(rep_r.obj_ids[mask_r]).shape[0]) + int(
        np.unique(rep_s.obj_ids[mask_s]).shape[0]
    )
    factor = entries / objects if objects else 1.0

    n_parts_, entries_, objects_, factor_ = (
        int(common.shape[0]),
        entries,
        objects,
        factor,
    )
    if strategy == "avoid":
        avoided, eliminated = would_be, stats.duplicates_generated
    else:
        avoided, eliminated = 0, stats.duplicates_generated
    plan = QueryPlan(
        kind="join",
        query={
            "r_objects": len(data_r),
            "s_objects": len(data_s),
            "partitions_per_dim": partitions_per_dim,
        },
        index={
            "family": family,
            "dedup_strategy": strategy,
            "grid": f"{grid.nx}x{grid.ny}",
            "objects": len(data_r) + len(data_s),
        },
        result_count=n_pairs,
        wall_ms=wall_ms,
        tiles_visited=sum(stats.class_scans.values()),
        tiles_by_class=dict(stats.class_scans),
        primary_partitions=stats.partitions_visited,
        touched_partitions=n_parts_,
        touched_entries=entries_,
        touched_objects=objects_,
        replication_factor=factor_,
        duplicates_avoided=avoided,
        duplicates_eliminated=eliminated,
        dedup_strategy=strategy,
        comparisons=stats.comparisons,
        comparisons_saved=max(0, 4 * stats.rects_scanned - stats.comparisons),
        phases=_build_phases(
            tracer, stats, n_pairs, eliminated, strategy
        ),
        stats=stats.as_dict(),
        result=result,
    )
    plan.check()
    return plan
