"""Spatial intersection joins over two-layer grids (paper future work).

The paper's conclusions name spatial joins over SOP indices with
secondary partitioning as future work; this module implements them with
the same duplicate-*avoidance* reasoning as window queries.

Replicate both inputs R and S onto the same grid.  A pair ``(r, s)`` of
intersecting MBRs is conventionally found in *every* tile both overlap,
so classic partition-based joins deduplicate with the reference-point
test on ``r ∩ s`` [9].  With classes, deduplication disappears: report
the pair only where its class combination is *allowed*.

Derivation.  Let ``p = (max(r.xl, s.xl), max(r.yl, s.yl))`` — the lower
corner of ``r ∩ s``, which lies in exactly one (half-open) tile, and in
both rectangles.  In that tile and per dimension, the rectangle whose
start realises the max starts *inside* the tile; the other starts inside
or before.  Hence a combination ``(class_r, class_s)`` is allowed iff in
neither dimension do *both* rectangles start before the tile:

    (A,A) (A,B) (A,C) (A,D) (B,A) (B,C) (C,A) (C,B) (D,A)

and conversely, if a pair matches an allowed combination in a tile, that
tile *is* the tile of ``p`` (per dimension, the max of two starts that
are inside-or-before, at least one inside, falls inside).  Every
intersecting pair is therefore produced exactly once, with zero
deduplication work — the join-shaped analogue of Lemmas 1-2.

A reference-point baseline (:func:`one_layer_spatial_join`) is provided
for comparison, mirroring the 1-layer situation for window queries.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.dataset import RectDataset
from repro.errors import InvalidGridError
from repro.geometry.mbr import Rect
from repro.grid.base import (
    CLASS_A,
    CLASS_B,
    CLASS_C,
    CLASS_D,
    CLASS_NAMES,
    GridPartitioner,
    Replication,
    replicate,
)
from repro.grid.storage import group_rows
from repro.obs.tracing import span as trace_span
from repro.stats import QueryStats

__all__ = [
    "ALLOWED_CLASS_COMBOS",
    "two_layer_spatial_join",
    "one_layer_spatial_join",
    "refine_join_pairs",
    "brute_force_join",
]

#: class combinations (class of r, class of s) that report a pair —
#: exactly those where no dimension has both rectangles starting before
#: the tile.
ALLOWED_CLASS_COMBOS: tuple[tuple[int, int], ...] = (
    (CLASS_A, CLASS_A),
    (CLASS_A, CLASS_B),
    (CLASS_A, CLASS_C),
    (CLASS_A, CLASS_D),
    (CLASS_B, CLASS_A),
    (CLASS_B, CLASS_C),
    (CLASS_C, CLASS_A),
    (CLASS_C, CLASS_B),
    (CLASS_D, CLASS_A),
)


#: candidate pairs expanded at once: bounds memory on coarse grids,
#: where one run can hold most of S.
_CHUNK_PAIRS = 1 << 21


def _join_grid(partitions_per_dim: int, domain: "Rect | None") -> GridPartitioner:
    if partitions_per_dim < 1:
        raise InvalidGridError(
            f"partitions_per_dim must be >= 1, got {partitions_per_dim}"
        )
    return GridPartitioner(
        partitions_per_dim,
        partitions_per_dim,
        domain if domain is not None else Rect(0.0, 0.0, 1.0, 1.0),
    )


def _sorted_replicas(
    rep: Replication, values: np.ndarray, xl_sorted: np.ndarray, m: int
) -> "tuple[np.ndarray, np.ndarray]":
    """Sorted replica keys ``(tile*4 + class)*m + rank(values[obj])`` and
    the replicas' object ids in that order; ``rank(v)`` counts the
    entries of ``xl_sorted`` that are ``<= v`` (searched with sorted
    needles: several times faster than in data order)."""
    order = np.argsort(values)
    ranks = np.empty(values.shape[0], dtype=np.int64)
    ranks[order] = np.searchsorted(xl_sorted, values[order], side="right")
    keys = (rep.tile_ids * 4 + rep.class_codes) * m + ranks[rep.obj_ids]
    order = np.argsort(keys)
    return keys[order], rep.obj_ids[order]


def two_layer_spatial_join(
    data_r: RectDataset,
    data_s: RectDataset,
    partitions_per_dim: int = 64,
    domain: "Rect | None" = None,
    stats: "QueryStats | None" = None,
) -> np.ndarray:
    """All intersecting (r, s) id pairs — duplicate-free by construction.

    Returns an ``(n, 2)`` int array of ``[id_in_R, id_in_S]`` rows.  Only
    the nine allowed class combinations are evaluated per tile; no
    deduplication of any kind runs.

    Replicas are sorted on ``(tile*4 + class)*M + rank``, ``rank`` being
    how many S objects have ``xl`` at most ``s.xl`` (S) or ``r.xu`` (R):
    per R replica and allowed S class, the S replicas with ``s.xl <=
    r.xu`` are one key run, found without float arithmetic.  Runs expand
    by one ``repeat``/``arange`` per batch of ``_CHUNK_PAIRS`` candidates;
    one mask applies the three remaining comparisons.
    """
    grid = _join_grid(partitions_per_dim, domain)
    with trace_span("query.join"):
        with trace_span("join.partition"):
            m = len(data_s) + 1
            xl_sorted = np.sort(data_s.xl)
            keys_s, obj_s = _sorted_replicas(
                replicate(data_s, grid), data_s.xl, xl_sorted, m
            )
            keys_r, obj_r = _sorted_replicas(
                replicate(data_r, grid), data_r.xu, xl_sorted, m
            )

        with trace_span("filter.scan"):
            # One S run per R replica and allowed combination (sorted
            # needles for every search).
            groups_r = keys_r // m
            by_class = [np.flatnonzero(groups_r % 4 == c) for c in range(4)]
            los, his, objs = [], [], []
            for code_r, code_s in ALLOWED_CLASS_COMBOS:
                sel = by_class[code_r]
                shift = (code_s - code_r) * m
                los.append(np.searchsorted(keys_s, groups_r[sel] * m + shift))
                his.append(np.searchsorted(keys_s, keys_r[sel] + shift, "right"))
                objs.append(obj_r[sel])
            lo = np.concatenate(los)
            lengths = np.concatenate(his) - lo
            run_obj = np.concatenate(objs)
            ends = np.cumsum(lengths)
            total = int(lengths.sum())
            cuts = np.searchsorted(ends, range(_CHUNK_PAIRS, total, _CHUNK_PAIRS))
            bounds = [0, *cuts.tolist(), lengths.shape[0]]
            out = [np.empty((0, 2), dtype=np.int64)]
            for a, b in zip(bounds, bounds[1:]):
                run = lengths[a:b]
                r = np.repeat(run_obj[a:b], run)
                s = obj_s[
                    np.repeat(lo[a:b] - np.cumsum(run) + run, run)
                    + np.arange(run.sum())
                ]
                keep = (
                    (data_s.xu[s] >= data_r.xl[r])
                    & (data_s.yu[s] >= data_r.yl[r])
                    & (data_s.yl[s] <= data_r.yu[r])
                )
                out.append(np.stack([r[keep], s[keep]], axis=1))
            if stats is not None:
                # A tile counts once if it holds both inputs, a
                # combination once per tile with both groups non-empty.
                gr, gs = np.unique(groups_r), np.unique(keys_s // m)
                stats.partitions_visited += np.intersect1d(gr // 4, gs // 4).size
                for code_r, code_s in ALLOWED_CLASS_COMBOS:
                    own = gr[gr % 4 == code_r] + (code_s - code_r)
                    label = f"{CLASS_NAMES[code_r]}·{CLASS_NAMES[code_s]}"
                    for _ in range(int(np.isin(own, gs).sum())):
                        stats.visit_class(label)
                stats.comparisons += 3 * total
        with trace_span("dedup"):
            pass  # allowed class combinations produce each pair once
        return np.concatenate(out)


def one_layer_spatial_join(
    data_r: RectDataset,
    data_s: RectDataset,
    partitions_per_dim: int = 64,
    domain: "Rect | None" = None,
    stats: "QueryStats | None" = None,
) -> np.ndarray:
    """Partition-based join baseline with reference-point dedup [9].

    Every common tile joins *all* its R entries against *all* its S
    entries; a pair is kept only in the tile containing the lower corner
    of ``r ∩ s`` — duplicates are generated and then eliminated, like the
    1-layer grid does for window queries.
    """
    grid = _join_grid(partitions_per_dim, domain)

    def tile_tables(data):
        rep = replicate(data, grid)
        tiles = {}
        for tile_id, rows in group_rows(rep.tile_ids):
            obj = rep.obj_ids[rows]
            cols = (data.xl, data.yl, data.xu, data.yu)
            tiles[tile_id] = tuple(c[obj] for c in cols) + (obj,)
        return tiles

    with trace_span("query.join"):
        with trace_span("join.partition"):
            tiles_r = tile_tables(data_r)
            tiles_s = tile_tables(data_s)
        out = [np.empty((0, 2), dtype=np.int64)]
        with trace_span("filter.scan"):
            for tile_id, table_r in tiles_r.items():
                table_s = tiles_s.get(tile_id)
                if table_s is None:
                    continue
                if stats is not None:
                    stats.partitions_visited += 1
                    stats.visit_class("tile")
                ix, iy = grid.tile_coords(tile_id)
                rxl, ryl, rxu, ryu, rids = table_r
                sxl, syl, sxu, syu, sids = table_s
                for k in range(rids.shape[0]):
                    mask = (
                        (sxu >= rxl[k])
                        & (sxl <= rxu[k])
                        & (syu >= ryl[k])
                        & (syl <= ryu[k])
                    )
                    hit = np.flatnonzero(mask)
                    if hit.shape[0] == 0:
                        continue
                    # Reference point of each pair's intersection.
                    px = np.maximum(sxl[hit], rxl[k])
                    py = np.maximum(syl[hit], ryl[k])
                    keep = (grid.tile_ix_array(px) == ix) & (
                        grid.tile_iy_array(py) == iy
                    )
                    if stats is not None:
                        stats.dedup_checks += hit.shape[0]
                        stats.duplicates_generated += int(
                            hit.shape[0] - keep.sum()
                        )
                    hit = sids[hit[keep]]
                    out.append(np.stack([np.full_like(hit, rids[k]), hit], axis=1))
                if stats is not None:
                    stats.comparisons += 4 * rids.shape[0] * sids.shape[0]
        with trace_span("dedup"):
            pass  # interleaved with the scan, counted in dedup_checks
        return np.concatenate(out)


def refine_join_pairs(
    data_r: RectDataset, data_s: RectDataset, pairs: np.ndarray
) -> np.ndarray:
    """Refinement step for a spatial join: keep pairs whose *exact*
    geometries intersect (Section V applied to joins).

    ``pairs`` is the MBR-level output of a join function.  Datasets
    without exact geometries pass through unchanged (MBR == geometry).
    """
    from repro.geometry.predicates import geometry_intersects_geometry

    if data_r.geometries is None and data_s.geometries is None:
        return pairs
    keep = [
        k
        for k in range(pairs.shape[0])
        if geometry_intersects_geometry(
            data_r.geometry(int(pairs[k, 0])), data_s.geometry(int(pairs[k, 1]))
        )
    ]
    return pairs[keep] if keep else np.empty((0, 2), dtype=np.int64)


def brute_force_join(data_r: RectDataset, data_s: RectDataset) -> np.ndarray:
    """Ground-truth O(|R| * |S|) join (testing / verification)."""
    out = [np.empty((0, 2), dtype=np.int64)]
    for k in range(len(data_r)):
        hit = np.flatnonzero(
            (data_s.xu >= data_r.xl[k])
            & (data_s.xl <= data_r.xu[k])
            & (data_s.yu >= data_r.yl[k])
            & (data_s.yl <= data_r.yu[k])
        ).astype(np.int64)
        out.append(np.stack([np.full_like(hit, k), hit], axis=1))
    return np.concatenate(out)
