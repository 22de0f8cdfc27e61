"""Persistence for built grid indexes.

Two on-disk formats live behind one API:

* **columnar** (default, format version 2, :mod:`repro.core.format`) — a
  memmap-native container: fixed header + section table, then 64-byte
  aligned slabs holding the packed CSR base (``offsets`` + key-sorted
  columns), the precomputed fused query matrix, the 2-layer⁺ per-class
  sort orders and, for collections, the dataset columns.  Loading is
  ``mmap`` + view construction — zero deserialization, zero copies — so
  a multi-GB index boots in milliseconds and pages in lazily as queries
  touch rows.  Shard workers map the very same file
  (:func:`repro.shard.shm.attach_arena`), sharing one page cache.

* **npz** (legacy, format version 1) — the original compressed archive
  of per-row ``(tile_id, code)`` columns.  Still read transparently
  (:func:`load_index` sniffs the container magic) and still writable
  via ``format="npz"`` for compatibility and benchmarking.

Saving an index that carries un-compacted state (a live delta overlay
or tombstones) would either persist rows twice or silently drop the
updates; ``if_dirty`` controls the contract — auto-``compact()`` (the
default) or a structured :class:`~repro.errors.IndexStateError`.

Every loaded column is ``writeable=False`` regardless of format: a
loaded index is a pinned snapshot, and updates go through the delta
overlay / tombstone machinery, never in-place.
"""

from __future__ import annotations

import os
import time
from typing import Any

import numpy as np

from repro.datasets.dataset import RectDataset
from repro.errors import DatasetError, IndexStateError
from repro.geometry.mbr import Rect
from repro.grid.base import GridPartitioner
from repro.grid.one_layer import OneLayerGrid
from repro.grid.storage import PackedStore, TileTable
from repro.core import format as container
from repro.core.two_layer import TwoLayerGrid
from repro.core.two_layer_plus import TwoLayerPlusGrid

__all__ = [
    "save_index",
    "load_index",
    "save_collection",
    "load_collection",
    "SAVE_FORMATS",
    "IF_DIRTY_MODES",
]

_NPZ_FORMAT_VERSION = 1
_KINDS = {
    "OneLayerGrid": OneLayerGrid,
    "TwoLayerGrid": TwoLayerGrid,
    "TwoLayerPlusGrid": TwoLayerPlusGrid,
}

SAVE_FORMATS = ("columnar", "npz")
IF_DIRTY_MODES = ("compact", "error")

#: container sections holding the 2-layer⁺ per-column sort orders, in
#: source-column order (xl, yl, xu, yu) — the gather order
#: :meth:`TwoLayerPlusGrid._decomposed_from_orders` expects.
_ORDER_SECTIONS = ("sort_xl", "sort_yl", "sort_xu", "sort_yu")


def _n_classes(index: "TwoLayerGrid | OneLayerGrid") -> int:
    return 4 if isinstance(index, TwoLayerGrid) else 1


def _check_clean(index: "TwoLayerGrid | OneLayerGrid", if_dirty: str) -> None:
    """Enforce the un-compacted-state contract before any save.

    Indexes accumulate inserts in a delta overlay and deletes as
    tombstones; both must be folded before the base is persisted.  An
    index with no base yet (grown by ``insert()`` alone) has nothing to
    fold twice, so it is never dirty.
    """
    if if_dirty not in IF_DIRTY_MODES:
        raise ValueError(
            f"unknown if_dirty mode {if_dirty!r}; expected one of "
            f"{IF_DIRTY_MODES}"
        )
    if index._store is None:
        return
    overlay = sum(len(t) for t in _overlay_tables(index))
    if not overlay and not index._store.n_dead:
        return
    if if_dirty == "compact":
        index.compact()
        return
    raise IndexStateError(
        f"cannot save {type(index).__name__} with un-compacted state "
        f"({overlay} overlay rows, {index._store.n_dead} tombstones); "
        "call compact() first or save with if_dirty='compact'"
    )


def _overlay_tables(index: "TwoLayerGrid | OneLayerGrid"):
    if isinstance(index, TwoLayerGrid):
        for tables in index._tiles.values():
            for table in tables:
                if table is not None:
                    yield table
    else:
        yield from index._tiles.values()


def _flatten(index: "TwoLayerGrid | OneLayerGrid") -> dict[str, np.ndarray]:
    tile_ids: list[np.ndarray] = []
    codes: list[np.ndarray] = []
    cols: list[list[np.ndarray]] = [[], [], [], [], []]

    def emit(tile_id: int, code: int, table: TileTable) -> None:
        columns = table.columns()
        n = columns[4].shape[0]
        if n == 0:
            return
        tile_ids.append(np.full(n, tile_id, dtype=np.int64))
        codes.append(np.full(n, code, dtype=np.int64))
        for slot, col in zip(cols, columns):
            slot.append(col)

    n_classes = _n_classes(index)
    if index._store is not None:
        # Packed fast path: the base's live rows come out in fused-key
        # order, so an archive with an empty delta reloads zero-copy.
        keys, xl, yl, xu, yu, ids = index._store.flat_live_rows()
        if keys.shape[0]:
            tile_ids.append(keys // n_classes)
            codes.append(keys % n_classes)
            for slot, col in zip(cols, (xl, yl, xu, yu, ids)):
                slot.append(col)
    if isinstance(index, TwoLayerGrid):
        for tile_id, tables in index._tiles.items():
            for code, table in enumerate(tables):
                if table is not None:
                    emit(tile_id, code, table)
    else:
        for tile_id, table in index._tiles.items():
            emit(tile_id, 0, table)

    def cat(parts, dtype):
        if not parts:
            return np.empty(0, dtype=dtype)
        return np.concatenate(parts)

    return {
        "tile_ids": cat(tile_ids, np.int64),
        "codes": cat(codes, np.int64),
        "xl": cat(cols[0], np.float64),
        "yl": cat(cols[1], np.float64),
        "xu": cat(cols[2], np.float64),
        "yu": cat(cols[3], np.float64),
        "ids": cat(cols[4], np.int64),
    }


def _check_kind(index) -> str:
    kind = type(index).__name__
    if kind not in _KINDS:
        raise DatasetError(f"save_index supports {sorted(_KINDS)}, got {kind}")
    return kind


# -- npz writer (legacy format, version 1) ---------------------------------


def _save_npz(index, path, extra: "dict[str, np.ndarray] | None") -> None:
    kind = _check_kind(index)
    flat = _flatten(index)
    # An explicit file handle keeps the path exact (np.savez would
    # silently append ".npz"), so save(path) / load(path) round-trip.
    with open(path, "wb") as fh:
        np.savez_compressed(
            fh,
            version=np.int64(_NPZ_FORMAT_VERSION),
            kind=np.array(kind),
            nx=np.int64(index.grid.nx),
            ny=np.int64(index.grid.ny),
            domain=np.asarray(index.grid.domain.as_tuple()),
            n_objects=np.int64(len(index)),
            **flat,
            **(extra or {}),
        )


# -- columnar writer (format version 2) ------------------------------------


def _packed_view(
    index: "TwoLayerGrid | OneLayerGrid",
) -> "tuple[PackedStore, np.ndarray]":
    """``(store, fast_q)`` of the index, building a CSR view if needed.

    A clean index contributes its own base and (cached or fresh) query
    matrix.  One grown by ``insert()`` alone (all overlay, no base) is
    flattened into a temporary packed twin without being mutated.
    """
    if index._store is not None and not index._tiles:
        q = index._fast_q
        if q is None:
            q = index._build_fast_q()
        return index._store, q
    flat = _flatten(index)
    n_classes = _n_classes(index)
    keys = flat["tile_ids"] * n_classes + flat["codes"]
    store = PackedStore.from_rows(
        n_classes * index.grid.nx * index.grid.ny,
        n_classes,
        keys,
        flat["xl"],
        flat["yl"],
        flat["xu"],
        flat["yu"],
        flat["ids"],
    )
    twin_cls = TwoLayerGrid if isinstance(index, TwoLayerGrid) else OneLayerGrid
    twin = twin_cls(index.grid)
    twin._store = store
    twin._n_objects = index._n_objects
    return store, twin._build_fast_q()


def _save_columnar(
    index, path, extra: "dict[str, np.ndarray] | None", if_dirty: str
) -> None:
    kind = _check_kind(index)
    _check_clean(index, if_dirty)
    store, fast_q = _packed_view(index)
    sections: dict[str, np.ndarray] = {
        "offsets": store.offsets,
        "xl": store.xl,
        "yl": store.yl,
        "xu": store.xu,
        "yu": store.yu,
        "ids": store.ids,
        "fast_q": fast_q,
    }
    if isinstance(index, TwoLayerPlusGrid):
        n = len(index)
        for name, col in zip(
            ("g_xl", "g_yl", "g_xu", "g_yu"),
            (index._g_xl, index._g_yl, index._g_xu, index._g_yu),
        ):
            sections[name] = col[:n]
        # Per-column sort orders, segment-sorted by partition: the rows
        # of group g land at positions offsets[g]:offsets[g+1], already
        # ascending in the coordinate — the StartSort/EndSort idea.
        keys = np.repeat(
            np.arange(store.offsets.shape[0] - 1, dtype=np.int64),
            np.diff(store.offsets),
        )
        for name, col in zip(
            _ORDER_SECTIONS, (store.xl, store.yl, store.xu, store.yu)
        ):
            sections[name] = np.lexsort((col, keys)).astype(
                np.int64, copy=False
            )
    if extra:
        sections.update(extra)
    meta: dict[str, Any] = {
        "kind": kind,
        "n_classes": store.n_classes,
        "n_objects": len(index),
    }
    meta.update(index.grid.meta())
    container.write_container(path, meta, sections)


def save_index(
    index: "TwoLayerGrid | OneLayerGrid",
    path: "str | os.PathLike[str]",
    *,
    format: str = "columnar",
    if_dirty: str = "compact",
) -> None:
    """Persist a built grid index to ``path``.

    ``format`` picks the on-disk layout: ``"columnar"`` (the default
    memmap container, see :mod:`repro.core.format`) or ``"npz"`` (the
    legacy compressed archive).  ``if_dirty`` controls what happens when
    the index carries a live delta overlay or tombstones:
    ``"compact"`` folds them first, ``"error"`` raises
    :class:`~repro.errors.IndexStateError`.
    """
    if format == "columnar":
        _save_columnar(index, path, None, if_dirty)
    elif format == "npz":
        _check_clean(index, if_dirty)
        _save_npz(index, path, None)
    else:
        raise ValueError(
            f"unknown save format {format!r}; expected one of {SAVE_FORMATS}"
        )


def save_collection(
    index: "TwoLayerGrid | OneLayerGrid",
    data: RectDataset,
    path: "str | os.PathLike[str]",
    *,
    format: str = "columnar",
    if_dirty: str = "compact",
) -> None:
    """Persist an index *plus its dataset columns* in one archive.

    The dataset rows are stored positionally (including rows whose index
    entries were deleted — ids stay positional), so a loaded collection
    answers every query, including kNN and further maintenance, exactly
    like the original.  Exact geometries are not serialisable; collections
    carrying them are refused rather than silently degraded.
    """
    if data.geometries is not None:
        raise DatasetError(
            "collections with exact geometries cannot be persisted "
            "(archives store MBRs only); drop the geometries or persist "
            "the index alone with save_index"
        )
    if len(index) != len(data):
        raise DatasetError(
            f"index covers {len(index)} objects but the dataset has "
            f"{len(data)} rows"
        )
    extra = {
        "data_xl": data.xl,
        "data_yl": data.yl,
        "data_xu": data.xu,
        "data_yu": data.yu,
    }
    if format == "columnar":
        _save_columnar(index, path, extra, if_dirty)
    elif format == "npz":
        _check_clean(index, if_dirty)
        _save_npz(index, path, extra)
    else:
        raise ValueError(
            f"unknown save format {format!r}; expected one of {SAVE_FORMATS}"
        )


# -- loading ---------------------------------------------------------------


def _freeze(*arrays: np.ndarray) -> None:
    """Pin loaded columns: a restored index is an immutable snapshot."""
    for arr in arrays:
        arr.setflags(write=False)


def _freeze_store(store: PackedStore) -> None:
    _freeze(store.offsets, store.xl, store.yl, store.xu, store.yu, store.ids)


def _load_columnar(
    path: "str | os.PathLike[str]",
    timings: "dict | None",
    with_data: bool,
) -> "tuple[TwoLayerGrid | OneLayerGrid, RectDataset | None]":
    t0 = time.perf_counter()
    _version, meta, specs = container.read_header(path)
    meta, views = container.read_container(path)
    t1 = time.perf_counter()

    kind = str(meta.get("kind", ""))
    cls = _KINDS.get(kind)
    if cls is None:
        raise DatasetError(f"{path}: unknown index kind {kind!r}")
    grid = GridPartitioner.from_meta(meta)
    index = cls(grid)
    index._n_objects = int(meta["n_objects"])
    n_classes = _n_classes(index)
    if int(meta["n_classes"]) != n_classes:
        raise DatasetError(
            f"{path}: archive has {meta['n_classes']} classes per tile "
            f"but {kind} expects {n_classes}"
        )
    # Pure adoption: the container persisted the CSR offsets and the
    # fused query matrix, so nothing below reads a single slab byte —
    # rows page in on first query.
    index._store = PackedStore.adopt(
        n_classes,
        views["offsets"],
        views["xl"],
        views["yl"],
        views["xu"],
        views["yu"],
        views["ids"],
    )
    index._fast_q = views["fast_q"]
    # _tile_row_bounds stays None; the fast kernels derive it lazily.
    index._mmap_manifest = {
        "kind": "file",
        "path": os.path.abspath(os.fspath(path)),
        "arrays": {
            name: {
                "offset": spec.offset,
                "dtype": spec.dtype.str,
                "shape": list(spec.shape),
            }
            for name, spec in specs.items()
        },
    }
    if isinstance(index, TwoLayerPlusGrid):
        index._g_xl = views["g_xl"]
        index._g_yl = views["g_yl"]
        index._g_xu = views["g_xu"]
        index._g_yu = views["g_yu"]
        if all(name in views for name in _ORDER_SECTIONS):
            index._persisted_orders = tuple(
                views[name] for name in _ORDER_SECTIONS
            )

    data: "RectDataset | None" = None
    if with_data and "data_xl" in views:
        data = RectDataset(
            views["data_xl"],
            views["data_yl"],
            views["data_xu"],
            views["data_yu"],
        )
    if timings is not None:
        timings["read_ms"] = timings.get("read_ms", 0.0) + (t1 - t0) * 1e3
        timings["build_ms"] = (
            timings.get("build_ms", 0.0) + (time.perf_counter() - t1) * 1e3
        )
    return index, data


def _load_npz(
    path: "str | os.PathLike[str]",
    timings: "dict | None",
) -> "TwoLayerGrid | OneLayerGrid":
    t0 = time.perf_counter()
    try:
        archive_cm = np.load(path, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise DatasetError(f"{path}: not a repro index archive") from exc
    with archive_cm as archive:
        try:
            version = int(archive["version"])
            kind = str(archive["kind"])
            nx = int(archive["nx"])
            ny = int(archive["ny"])
            domain = Rect(*archive["domain"].tolist())
            n_objects = int(archive["n_objects"])
            tile_ids = archive["tile_ids"]
            codes = archive["codes"]
            xl = archive["xl"]
            yl = archive["yl"]
            xu = archive["xu"]
            yu = archive["yu"]
            ids = archive["ids"]
        except KeyError as exc:
            raise DatasetError(f"{path}: not a repro index archive") from exc
    if version != _NPZ_FORMAT_VERSION:
        raise DatasetError(
            f"{path}: unsupported index format version {version}"
        )
    cls = _KINDS.get(kind)
    if cls is None:
        raise DatasetError(f"{path}: unknown index kind {kind!r}")
    t1 = time.perf_counter()

    grid = GridPartitioner(nx, ny, domain)
    index = cls(grid)
    index._n_objects = n_objects
    n_classes = _n_classes(index)
    # Pre-sorted archives (written from an index with an empty delta)
    # are adopted zero-copy by from_rows.
    index._store = PackedStore.from_rows(
        n_classes * nx * ny, n_classes, tile_ids * n_classes + codes,
        xl, yl, xu, yu, ids.astype(np.int64, copy=False),
    )
    _freeze_store(index._store)
    if isinstance(index, TwoLayerPlusGrid):
        # Restore the global MBR columns from the class-A replicas
        # (each object has exactly one); decomposed tables rebuild
        # lazily per partition on first use.
        g_xl = np.empty(n_objects)
        g_yl = np.empty(n_objects)
        g_xu = np.empty(n_objects)
        g_yu = np.empty(n_objects)
        a_rows = codes == 0
        g_xl[ids[a_rows]] = xl[a_rows]
        g_yl[ids[a_rows]] = yl[a_rows]
        g_xu[ids[a_rows]] = xu[a_rows]
        g_yu[ids[a_rows]] = yu[a_rows]
        index._g_xl = g_xl
        index._g_yl = g_yl
        index._g_xu = g_xu
        index._g_yu = g_yu
    if timings is not None:
        timings["read_ms"] = timings.get("read_ms", 0.0) + (t1 - t0) * 1e3
        timings["build_ms"] = (
            timings.get("build_ms", 0.0) + (time.perf_counter() - t1) * 1e3
        )
    return index


def load_index(
    path: "str | os.PathLike[str]",
    timings: "dict | None" = None,
) -> "TwoLayerGrid | OneLayerGrid":
    """Restore an index previously written by :func:`save_index`.

    The on-disk format is sniffed from the file itself: the columnar
    container maps in place (milliseconds, lazily paged), the legacy npz
    archive decompresses and rebuilds its packed base.

    ``timings``, when given, receives the boot-time split: ``read_ms``
    (container map / npz decompression) and ``build_ms`` (index
    reconstruction) accumulate onto any existing values, so one dict can
    total a multi-file boot.
    """
    if container.is_columnar(path):
        index, _data = _load_columnar(path, timings, with_data=False)
        return index
    return _load_npz(path, timings)


def load_collection(
    path: "str | os.PathLike[str]",
    timings: "dict | None" = None,
) -> "tuple[TwoLayerGrid | OneLayerGrid, RectDataset]":
    """Restore ``(index, dataset)`` from a :func:`save_collection` archive.

    ``timings`` is forwarded to the index load; the dataset-column read
    adds onto its ``read_ms``.
    """
    if container.is_columnar(path):
        index, data = _load_columnar(path, timings, with_data=True)
        if data is None:
            raise DatasetError(
                f"{path}: archive has no dataset columns (written by "
                "save_index, not save_collection)"
            )
        if len(data) != len(index):
            raise DatasetError(
                f"{path}: dataset has {len(data)} rows but the index "
                f"covers {len(index)} objects"
            )
        return index, data
    index = _load_npz(path, timings)
    t0 = time.perf_counter()
    with np.load(path, allow_pickle=False) as archive:
        try:
            cols = (
                archive["data_xl"].copy(),
                archive["data_yl"].copy(),
                archive["data_xu"].copy(),
                archive["data_yu"].copy(),
            )
        except KeyError as exc:
            raise DatasetError(
                f"{path}: archive has no dataset columns (written by "
                "save_index, not save_collection)"
            ) from exc
    _freeze(*cols)
    data = RectDataset(*cols)
    if len(data) != len(index):
        raise DatasetError(
            f"{path}: dataset has {len(data)} rows but the index covers "
            f"{len(index)} objects"
        )
    if timings is not None:
        timings["read_ms"] = (
            timings.get("read_ms", 0.0) + (time.perf_counter() - t0) * 1e3
        )
    return index, data
