"""Tile storage shared by the grid indices: CSR base + per-tile deltas.

One store, two parts:

* :class:`PackedStore` — the packed CSR base: one global struct-of-arrays
  ``(xl, yl, xu, yu, ids)`` sorted by a fused ``(tile_id, class)`` group
  key, plus an ``offsets`` array of length ``n_groups + 1`` mapping each
  group to its contiguous row range.  Bulk loads, ``compact()`` and
  archive loads all produce one; queries scan whole multi-tile row
  ranges of it (:func:`repro.grid.kernels.window_slabs`) instead of
  chasing per-tile dictionaries.  Deletes tombstone rows in place (a
  parallel ``dead`` bitmap) so removing an object never rebuilds the
  base.

* :class:`TileTable` — a small dynamic column store of (MBR, id) pairs.
  Updates append to a Python-list tail that is folded into the arrays
  lazily, so inserts stay O(1) (the property Table VI measures) while
  reads always see compacted columns.  The grid indices use it for the
  mutable *delta overlay* that absorbs inserts on top of the base until
  the next ``compact()``; an index grown by ``insert()`` alone is all
  overlay (``_store is None``), which is what the parity tests use as
  their per-tile reference.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.analysis import sanitize as _sanitize

__all__ = [
    "TileTable",
    "PackedStore",
    "group_rows",
    "ranges_to_rows",
]

_EMPTY_F = np.empty(0, dtype=np.float64)
_EMPTY_I = np.empty(0, dtype=np.int64)

#: bytes per stored entry (4 float64 coordinates + 1 int64 id).
_ENTRY_BYTES = 5 * 8


class TileTable:
    """A dynamic column store of (MBR, id) pairs."""

    __slots__ = ("_xl", "_yl", "_xu", "_yu", "_ids", "_pending")

    def __init__(
        self,
        xl: np.ndarray = _EMPTY_F,
        yl: np.ndarray = _EMPTY_F,
        xu: np.ndarray = _EMPTY_F,
        yu: np.ndarray = _EMPTY_F,
        ids: np.ndarray = _EMPTY_I,
    ):
        self._xl = xl
        self._yl = yl
        self._xu = xu
        self._yu = yu
        self._ids = ids
        self._pending: list[tuple[float, float, float, float, int]] = []

    def __len__(self) -> int:
        return self._xl.shape[0] + len(self._pending)

    def append(
        self, xl: float, yl: float, xu: float, yu: float, obj_id: int
    ) -> None:
        """O(1) insert of one (MBR, id) pair."""
        self._pending.append((xl, yl, xu, yu, obj_id))

    def _compact(self) -> None:
        if not self._pending:
            return
        tail = np.asarray(self._pending, dtype=np.float64)
        self._pending.clear()
        self._xl = np.concatenate([self._xl, tail[:, 0]])
        self._yl = np.concatenate([self._yl, tail[:, 1]])
        self._xu = np.concatenate([self._xu, tail[:, 2]])
        self._yu = np.concatenate([self._yu, tail[:, 3]])
        self._ids = np.concatenate([self._ids, tail[:, 4].astype(np.int64)])

    def columns(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(xl, yl, xu, yu, ids)`` with any pending inserts folded in."""
        self._compact()
        return self._xl, self._yl, self._xu, self._yu, self._ids

    def delete(self, obj_id: int) -> int:
        """Remove every entry with the given id; returns how many.

        Empty tables report 0 without touching any state.
        """
        if len(self) == 0:
            return 0
        self._compact()
        keep = self._ids != obj_id
        removed = int(self._ids.shape[0] - keep.sum())
        if removed:
            self._xl = self._xl[keep]
            self._yl = self._yl[keep]
            self._xu = self._xu[keep]
            self._yu = self._yu[keep]
            self._ids = self._ids[keep]
        return removed

    @property
    def nbytes(self) -> int:
        """Approximate memory footprint of the stored entries.

        A pure read: the pending append tail is costed at its folded size
        without actually folding it (``nbytes`` must never mutate state —
        published snapshots share compacted tables across threads).
        """
        return (
            self._xl.nbytes
            + self._yl.nbytes
            + self._xu.nbytes
            + self._yu.nbytes
            + self._ids.nbytes
            + len(self._pending) * _ENTRY_BYTES
        )


def group_rows(
    keys: np.ndarray, order: "np.ndarray | None" = None
) -> "Iterator[tuple[int, np.ndarray]]":
    """Group row indices by key; yields ``(key, row_indices)`` pairs.

    ``keys`` is an int array (e.g. tile ids, or tile ids fused with class
    codes).  Sorting is the only O(n log n) step of index construction.
    """
    if keys.shape[0] == 0:
        return
    if order is None:
        order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    boundaries = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [sorted_keys.shape[0]]])
    for s, e in zip(starts, ends):
        yield int(sorted_keys[s]), order[s:e]


def ranges_to_rows(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate ``[starts[i], ends[i])`` ranges into one index array.

    The vectorised multi-``arange``: one global ``arange`` shifted per
    range, no Python loop — the offsets walk the fused kernels gather
    rows with.
    """
    counts = ends - starts
    nz = counts > 0
    if not nz.all():
        starts = starts[nz]
        counts = counts[nz]
    total = int(counts.sum())
    if total == 0:
        return _EMPTY_I
    shifts = np.cumsum(counts)
    out = np.arange(total, dtype=np.int64)
    out += np.repeat(starts - (shifts - counts), counts)
    return out


class PackedStore:
    """CSR-packed (MBR, id) rows grouped by a fused ``(tile, class)`` key.

    ``offsets`` has ``n_groups + 1`` entries; group ``g`` owns rows
    ``[offsets[g], offsets[g+1])`` of the five column arrays, and the
    groups of one tile are adjacent (group key = ``tile_id * n_classes +
    class_code``), so a whole tile — or a whole run of tiles — is one
    contiguous row range.

    The base is append-never: inserts go to the owning index's delta
    overlay, deletes tombstone rows here via the lazily-allocated ``dead``
    bitmap (plus per-group dead counts so live sizes stay O(1)).  Forks
    for copy-on-write serving share the column arrays by reference and
    copy only the tombstone state (:meth:`with_private_dead`).
    """

    __slots__ = (
        "n_classes",
        "offsets",
        "xl",
        "yl",
        "xu",
        "yu",
        "ids",
        "dead",
        "dead_per_group",
        "n_dead",
    )

    def __init__(
        self,
        n_classes: int,
        offsets: np.ndarray,
        xl: np.ndarray,
        yl: np.ndarray,
        xu: np.ndarray,
        yu: np.ndarray,
        ids: np.ndarray,
    ):
        self.n_classes = n_classes
        self.offsets = offsets
        self.xl = xl
        self.yl = yl
        self.xu = xu
        self.yu = yu
        self.ids = ids
        self.dead: "np.ndarray | None" = None
        self.dead_per_group: "np.ndarray | None" = None
        self.n_dead = 0

    # -- construction -----------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        n_groups: int,
        n_classes: int,
        keys: np.ndarray,
        xl: np.ndarray,
        yl: np.ndarray,
        xu: np.ndarray,
        yu: np.ndarray,
        ids: np.ndarray,
    ) -> "PackedStore":
        """Build from per-row group keys; rows need not be pre-sorted.

        Already key-sorted input (the persistence fast path: archives
        written from a packed index are emitted in key order) is detected
        with one O(n) check and adopted zero-copy — no argsort, no
        per-group slicing.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if keys.shape[0] and not (np.diff(keys) >= 0).all():
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            xl, yl, xu, yu, ids = (
                xl[order], yl[order], xu[order], yu[order], ids[order],
            )
        offsets = np.zeros(n_groups + 1, dtype=np.int64)
        if keys.shape[0]:
            np.cumsum(np.bincount(keys, minlength=n_groups), out=offsets[1:])
        store = cls(n_classes, offsets, xl, yl, xu, yu, ids)
        # REPRO_SANITIZE=1: every base build (bulk load, compact,
        # persistence restore) passes through here — validate the CSR
        # invariants at the choke point.
        if _sanitize.enabled():
            _sanitize.check_packed_store(store, "PackedStore.from_rows")
        return store

    @classmethod
    def adopt(
        cls,
        n_classes: int,
        offsets: np.ndarray,
        xl: np.ndarray,
        yl: np.ndarray,
        xu: np.ndarray,
        yu: np.ndarray,
        ids: np.ndarray,
    ) -> "PackedStore":
        """Wrap already-CSR columns without touching a single row.

        The columnar container (:mod:`repro.core.format`) persists the
        ``offsets`` array alongside the key-sorted columns, so a load is
        pure adoption: no bincount, no sortedness scan — nothing that
        would fault the column slabs in before the first query.  The
        caller vouches for CSR validity (the container's format-version
        check is the provenance gate); ``REPRO_SANITIZE=1`` re-validates
        anyway, at the cost of paging everything in.
        """
        store = cls(n_classes, offsets, xl, yl, xu, yu, ids)
        if _sanitize.enabled():
            _sanitize.check_packed_store(store, "PackedStore.adopt")
        return store

    # -- sizes ------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self.ids.shape[0]

    @property
    def n_live(self) -> int:
        return self.ids.shape[0] - self.n_dead

    @property
    def nbytes(self) -> int:
        total = (
            self.offsets.nbytes
            + self.xl.nbytes
            + self.yl.nbytes
            + self.xu.nbytes
            + self.yu.nbytes
            + self.ids.nbytes
        )
        if self.dead is not None:
            total += self.dead.nbytes + self.dead_per_group.nbytes
        return total

    def group_counts(self) -> np.ndarray:
        """Live rows per group (length ``n_groups``)."""
        counts = np.diff(self.offsets)
        if self.n_dead:
            counts = counts - self.dead_per_group
        return counts

    def tile_counts(self) -> np.ndarray:
        """Live rows per tile (length ``n_groups / n_classes``)."""
        if self.n_classes == 1:
            return self.group_counts()
        return self.group_counts().reshape(-1, self.n_classes).sum(axis=1)

    def live_counts_for(self, keys: np.ndarray) -> np.ndarray:
        """Live row counts of the given groups (vectorised)."""
        counts = self.offsets[keys + 1] - self.offsets[keys]
        if self.n_dead:
            counts = counts - self.dead_per_group[keys]
        return counts

    # -- row access -------------------------------------------------------

    def gather(self, keys: np.ndarray) -> np.ndarray:
        """Live row indices of the given groups, stitched in group order."""
        rows = ranges_to_rows(self.offsets[keys], self.offsets[keys + 1])
        if self.n_dead and rows.shape[0]:
            rows = rows[~self.dead[rows]]
        return rows

    def group_columns(
        self, key: int
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None":
        """Live ``(xl, yl, xu, yu, ids)`` of one group, or ``None`` if empty.

        Zero-copy views when the group carries no tombstones.
        """
        s = int(self.offsets[key])
        e = int(self.offsets[key + 1])
        if s == e:
            return None
        sl = slice(s, e)
        if self.n_dead and self.dead_per_group[key]:
            if int(self.dead_per_group[key]) == e - s:
                return None
            keep = ~self.dead[sl]
            return (
                self.xl[sl][keep],
                self.yl[sl][keep],
                self.xu[sl][keep],
                self.yu[sl][keep],
                self.ids[sl][keep],
            )
        return (self.xl[sl], self.yl[sl], self.xu[sl], self.yu[sl], self.ids[sl])

    def find_rows(self, key: int, obj_id: int) -> np.ndarray:
        """Row indices in one group holding ``obj_id`` (tombstoned excluded)."""
        s = int(self.offsets[key])
        e = int(self.offsets[key + 1])
        if s == e:
            return _EMPTY_I
        rows = s + np.flatnonzero(self.ids[s:e] == obj_id)
        if self.n_dead and rows.shape[0]:
            rows = rows[~self.dead[rows]]
        return rows

    def flat_live_rows(
        self,
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
        """``(keys, xl, yl, xu, yu, ids)`` of every live row, in key order.

        Zero-copy (views of the base columns) when nothing is tombstoned;
        persistence uses this to emit archives that reload without a sort.
        """
        keys = np.repeat(
            np.arange(self.offsets.shape[0] - 1, dtype=np.int64),
            np.diff(self.offsets),
        )
        if not self.n_dead:
            return keys, self.xl, self.yl, self.xu, self.yu, self.ids
        keep = ~self.dead
        return (
            keys[keep],
            self.xl[keep],
            self.yl[keep],
            self.xu[keep],
            self.yu[keep],
            self.ids[keep],
        )

    # -- tombstones -------------------------------------------------------

    def mark_dead(self, rows: np.ndarray) -> int:
        """Tombstone the given rows; returns how many were newly dead."""
        if rows.shape[0] == 0:
            return 0
        if self.dead is None:
            self.dead = np.zeros(self.ids.shape[0], dtype=bool)
            self.dead_per_group = np.zeros(
                self.offsets.shape[0] - 1, dtype=np.int64
            )
        else:
            rows = rows[~self.dead[rows]]
            if rows.shape[0] == 0:
                return 0
        self.dead[rows] = True
        groups = np.searchsorted(self.offsets, rows, side="right") - 1
        np.add.at(self.dead_per_group, groups, 1)
        self.n_dead += int(rows.shape[0])
        return int(rows.shape[0])

    def with_private_dead(self) -> "PackedStore":
        """A fork sharing the column arrays but owning its tombstone state.

        The serving layer's copy-on-write deletes go through this: the
        published base stays immutable while the fork tombstones freely.
        """
        fork = PackedStore(
            self.n_classes, self.offsets, self.xl, self.yl, self.xu, self.yu,
            self.ids,
        )
        if self.dead is not None:
            fork.dead = self.dead.copy()
            fork.dead_per_group = self.dead_per_group.copy()
            fork.n_dead = self.n_dead
        return fork
