"""Parity and regression tests for the packed CSR store.

The packed base (:class:`repro.grid.storage.PackedStore` + the slab
executor and fused kernels) must be *observationally identical* to a
plain per-tile scan: same result-id sets for every query kind, same
:class:`~repro.stats.QueryStats` counters, same EXPLAIN accounting.
These tests build every index twice — bulk-loaded (``cls.build``, packed
base) and grown by ``insert()`` alone (:func:`conftest.insert_built`: no
base, per-tile scans only; called ``legacy`` below) — over randomized
datasets and workloads and assert exact equality, including under
interleaved inserts and deletes, after compaction, across persistence
round-trips, and through the serving layer's copy-on-write snapshots.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import ids_set, insert_built

from repro.core import (
    ConvexPolygonRange,
    TwoLayerGrid,
    TwoLayerPlusGrid,
    convex_range_query,
    knn_query,
)
from repro.core.batch import evaluate_disk_tiles_based, evaluate_tiles_based
from repro.core.persistence import load_index, save_index
from repro.datasets import DiskQuery, RectDataset, generate_uniform_rects
from repro.geometry import Rect
from repro.grid import OneLayerGrid
from repro.grid.storage import PackedStore, TileTable, ranges_to_rows
from repro.obs.explain import explain_disk, explain_window
from repro.obs.live import HeatStats, TileHeatAccumulator
from repro.server.snapshot import SnapshotStore
from repro.stats import QueryStats

GRID = 16


@pytest.fixture(scope="module")
def data() -> RectDataset:
    return generate_uniform_rects(1500, area=1e-3, seed=7)


@pytest.fixture(scope="module")
def pair(data):
    """The same dataset bulk-loaded and as the insert-built reference."""
    return (
        TwoLayerGrid.build(data, partitions_per_dim=GRID),
        insert_built(TwoLayerGrid, data, GRID),
    )


def windows(n: int, seed: int, lo: float = 0.02, hi: float = 0.35):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        w = rng.uniform(lo, hi)
        h = rng.uniform(lo, hi)
        x = rng.uniform(0.0, 1.0 - w)
        y = rng.uniform(0.0, 1.0 - h)
        out.append(Rect(x, y, x + w, y + h))
    return out


def assert_query_parity(run_packed, run_legacy, label=""):
    """Same ids AND identical QueryStats counters from both indexes."""
    sp, sl = QueryStats(), QueryStats()
    got_p = run_packed(sp)
    got_l = run_legacy(sl)
    assert ids_set(got_p) == ids_set(got_l), label
    assert len(got_p) == len(got_l), f"{label}: duplicate count differs"
    assert sp.as_dict() == sl.as_dict(), label


class TestTwoLayerParity:
    def test_window_query(self, pair):
        packed, legacy = pair
        for i, w in enumerate(windows(40, seed=11)):
            assert_query_parity(
                lambda s, w=w: packed.window_query(w, s),
                lambda s, w=w: legacy.window_query(w, s),
                f"window {i}",
            )

    def test_window_query_boundary_aligned(self, pair):
        packed, legacy = pair
        # Windows snapped to tile borders — the adversarial case for the
        # region decomposition (single-row/column ranges, shared edges).
        t = 1.0 / GRID
        cases = [
            Rect(2 * t, 3 * t, 5 * t, 5 * t),
            Rect(0.0, 0.0, t, t),
            Rect(3 * t, 0.0, 3 * t, 1.0),  # degenerate vertical line
            Rect(0.0, 7 * t, 1.0, 7 * t),  # degenerate horizontal line
            Rect(0.0, 0.0, 1.0, 1.0),  # whole domain
        ]
        for w in cases:
            assert_query_parity(
                lambda s, w=w: packed.window_query(w, s),
                lambda s, w=w: legacy.window_query(w, s),
                repr(w),
            )

    def test_window_query_within(self, pair):
        packed, legacy = pair
        for w in windows(25, seed=13, lo=0.1, hi=0.5):
            assert_query_parity(
                lambda s, w=w: packed.window_query_within(w, s),
                lambda s, w=w: legacy.window_query_within(w, s),
            )

    def test_count_window(self, pair):
        packed, legacy = pair
        for w in windows(25, seed=17):
            assert packed.count_window(w) == legacy.count_window(w)

    def test_disk_query(self, pair):
        packed, legacy = pair
        rng = np.random.default_rng(19)
        for _ in range(30):
            q = DiskQuery(
                float(rng.uniform(0, 1)),
                float(rng.uniform(0, 1)),
                float(rng.uniform(0.01, 0.3)),
            )
            assert_query_parity(
                lambda s, q=q: packed.disk_query(q, s),
                lambda s, q=q: legacy.disk_query(q, s),
                repr(q),
            )

    def test_knn_query(self, pair, data):
        packed, legacy = pair
        rng = np.random.default_rng(23)
        for _ in range(10):
            cx, cy = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
            k = int(rng.integers(1, 40))
            sp, sl = QueryStats(), QueryStats()
            got_p = knn_query(packed, data, cx, cy, k, sp)
            got_l = knn_query(legacy, data, cx, cy, k, sl)
            assert np.array_equal(got_p, got_l)  # deterministic ranking
            assert sp.as_dict() == sl.as_dict()

    def test_convex_range_query(self, pair, data):
        packed, legacy = pair
        poly = ConvexPolygonRange(
            [(0.2, 0.1), (0.8, 0.3), (0.7, 0.9), (0.25, 0.7)]
        )
        assert_query_parity(
            lambda s: convex_range_query(packed, data, poly, s),
            lambda s: convex_range_query(legacy, data, poly, s),
        )

    def test_batch_evaluators(self, pair):
        packed, legacy = pair
        ws = windows(12, seed=29)
        for got_p, got_l in zip(
            evaluate_tiles_based(packed, ws), evaluate_tiles_based(legacy, ws)
        ):
            assert ids_set(got_p) == ids_set(got_l)
        qs = [DiskQuery(0.3, 0.4, 0.15), DiskQuery(0.7, 0.2, 0.08)]
        for got_p, got_l in zip(
            evaluate_disk_tiles_based(packed, qs),
            evaluate_disk_tiles_based(legacy, qs),
        ):
            assert ids_set(got_p) == ids_set(got_l)

    def test_introspection(self, pair):
        packed, legacy = pair
        assert packed.replica_count == legacy.replica_count
        assert packed.nonempty_tiles == legacy.nonempty_tiles
        assert packed.class_counts() == legacy.class_counts()
        assert packed._class_a_counts() == legacy._class_a_counts()
        assert packed._store is not None and legacy._store is None


class TestTwoLayerPlusParity:
    def test_window_query(self, data):
        packed = TwoLayerPlusGrid.build(data, partitions_per_dim=GRID)
        legacy = insert_built(TwoLayerPlusGrid, data, GRID)
        for w in windows(25, seed=31):
            assert_query_parity(
                lambda s, w=w: packed.window_query(w, s),
                lambda s, w=w: legacy.window_query(w, s),
            )


class TestOneLayerParity:
    @pytest.mark.parametrize("dedup", ["refpoint", "hash", "active_border"])
    def test_window_query(self, data, dedup):
        packed = OneLayerGrid.build(data, partitions_per_dim=GRID, dedup=dedup)
        legacy = insert_built(OneLayerGrid, data, GRID, dedup=dedup)
        for w in windows(25, seed=37):
            assert_query_parity(
                lambda s, w=w: packed.window_query(w, s),
                lambda s, w=w: legacy.window_query(w, s),
                dedup,
            )

    def test_disk_query(self, data):
        packed = OneLayerGrid.build(data, partitions_per_dim=GRID)
        legacy = insert_built(OneLayerGrid, data, GRID)
        rng = np.random.default_rng(41)
        for _ in range(15):
            q = DiskQuery(
                float(rng.uniform(0, 1)),
                float(rng.uniform(0, 1)),
                float(rng.uniform(0.02, 0.25)),
            )
            assert_query_parity(
                lambda s, q=q: packed.disk_query(q, s),
                lambda s, q=q: legacy.disk_query(q, s),
            )


class TestMaintenanceParity:
    """Interleaved inserts and deletes keep base+overlay and the
    reference in lockstep."""

    @pytest.mark.parametrize("cls", [TwoLayerGrid, OneLayerGrid])
    def test_interleaved_insert_delete(self, cls):
        rng = np.random.default_rng(43)
        base = generate_uniform_rects(400, area=1e-3, seed=47)
        packed = cls.build(base, partitions_per_dim=8)
        legacy = insert_built(cls, base, 8)
        live = {i: base.rect(i) for i in range(len(base))}
        next_id = len(base)
        probe = windows(6, seed=53)
        for round_no in range(6):
            for _ in range(20):  # inserts land in the packed delta overlay
                w = float(rng.uniform(0.005, 0.1))
                h = float(rng.uniform(0.005, 0.1))
                x = float(rng.uniform(0, 1.0 - w))
                y = float(rng.uniform(0, 1.0 - h))
                rect = Rect(x, y, x + w, y + h)
                assert packed.insert(rect, next_id) == next_id
                legacy.insert(rect, next_id)
                live[next_id] = rect
                next_id += 1
            for _ in range(15):  # deletes tombstone the packed base
                victim = int(rng.choice(list(live)))
                rect = live.pop(victim)
                assert packed.delete(rect, victim)
                assert legacy.delete(rect, victim)
            assert packed.replica_count == legacy.replica_count
            for w in probe:
                assert_query_parity(
                    lambda s, w=w: packed.window_query(w, s),
                    lambda s, w=w: legacy.window_query(w, s),
                    f"round {round_no}",
                )
            if round_no == 3:
                # Folding the overlay + tombstones must not change results.
                packed.compact()
                assert not packed._tiles
                assert packed._store.n_dead == 0
        # Deleting an id that is not indexed reports False on both.
        ghost = Rect(0.4, 0.4, 0.41, 0.41)
        assert not packed.delete(ghost, 10**6)
        assert not legacy.delete(ghost, 10**6)


class TestChurnedAccountingParity:
    """Accounting is derived from the plan, not threaded through a scan:
    on an index with overlay rows *and* tombstones (some tiles carrying
    both) it must still equal what the per-tile reference counts."""

    def test_stats_heat_and_explain_match_reference(self):
        rng = np.random.default_rng(83)
        base = generate_uniform_rects(600, area=1e-3, seed=89)
        packed = TwoLayerGrid.build(base, partitions_per_dim=8)
        legacy = insert_built(TwoLayerGrid, base, 8)
        for k in range(150):
            w, h = rng.uniform(0.005, 0.2, 2)
            x, y = rng.uniform(0, 1.0 - w), rng.uniform(0, 1.0 - h)
            rect = Rect(float(x), float(y), float(x + w), float(y + h))
            packed.insert(rect, len(base) + k)
            legacy.insert(rect, len(base) + k)
        for victim in rng.choice(len(base), 150, replace=False).tolist():
            assert packed.delete(base.rect(victim), victim)
            assert legacy.delete(base.rect(victim), victim)
        base_rows = packed._store.tile_counts()
        assert packed._store.n_dead
        assert any(base_rows[t] for t in packed._tiles)  # base + overlay
        assert legacy._store is None

        t = 1.0 / 8
        probe = windows(40, seed=97) + [
            Rect(0.0, 0.0, 1.0, 1.0),
            Rect(2 * t, 3 * t, 5 * t, 5 * t),  # tile-boundary aligned
            Rect(3 * t, 0.0, 3 * t, 1.0),  # degenerate, on a tile edge
        ]
        heat_p = TileHeatAccumulator(8, 8, half_life_s=0.0)
        heat_l = TileHeatAccumulator(8, 8, half_life_s=0.0)
        sp, sl = HeatStats(heat_p), HeatStats(heat_l)
        for w in probe:
            got_p = packed.window_query(w, sp)
            got_l = legacy.window_query(w, sl)
            assert ids_set(got_p) == ids_set(got_l), w
            assert len(got_p) == len(got_l) == len(ids_set(got_p)), w
            assert sp.as_dict() == sl.as_dict(), w
            # results do not depend on whether stats were requested
            assert ids_set(packed.window_query(w)) == ids_set(got_p), w
            assert packed.count_window(w) == len(got_p), w
            pp, pl = explain_window(packed, w), explain_window(legacy, w)
            assert pp.tiles_by_class == pl.tiles_by_class, w
            assert pp.stats == pl.stats, w
        sp.flush()
        sl.flush()
        for name in ("scans", "rows", "present"):
            np.testing.assert_allclose(
                getattr(heat_p, name), getattr(heat_l, name), err_msg=name
            )
        assert heat_p.total_visits == heat_l.total_visits


class TestExplainParity:
    """EXPLAIN must report identical accounting from the packed path."""

    # The hand-built 4x4 grid of tests/test_explain.py.
    HAND_RECTS = [
        Rect(0.05, 0.05, 0.10, 0.10),
        Rect(0.20, 0.05, 0.30, 0.10),
        Rect(0.05, 0.20, 0.10, 0.30),
        Rect(0.30, 0.30, 0.60, 0.60),
        Rect(0.80, 0.80, 0.85, 0.85),
        Rect(0.26, 0.26, 0.45, 0.45),
    ]
    WINDOWS = [
        Rect(0.26, 0.26, 0.62, 0.62),  # interior: class A only
        Rect(0.30, 0.05, 0.60, 0.30),  # first column: scans C
        Rect(0.05, 0.30, 0.30, 0.60),  # first row: scans B
        Rect(0.0, 0.0, 1.0, 1.0),  # whole domain
    ]

    @pytest.fixture(scope="class")
    def hand_pair(self):
        data = RectDataset.from_rects(self.HAND_RECTS)
        domain = Rect(0.0, 0.0, 1.0, 1.0)
        return (
            TwoLayerGrid.build(data, partitions_per_dim=4, domain=domain),
            insert_built(TwoLayerGrid, data, 4, domain=domain),
        )

    def test_window_plans_match(self, hand_pair):
        packed, legacy = hand_pair
        for w in self.WINDOWS:
            pp = explain_window(packed, w)
            pl = explain_window(legacy, w)
            pp.check()
            assert pp.tiles_by_class == pl.tiles_by_class
            assert pp.tiles_visited == pl.tiles_visited
            assert pp.primary_partitions == pl.primary_partitions
            assert pp.touched_partitions == pl.touched_partitions
            assert pp.touched_entries == pl.touched_entries
            assert pp.duplicates_avoided == pl.duplicates_avoided
            assert pp.duplicates_eliminated == pl.duplicates_eliminated
            assert pp.comparisons == pl.comparisons
            assert pp.stats == pl.stats
            assert ids_set(pp.result) == ids_set(pl.result)

    def test_interior_window_scans_class_a_only(self, hand_pair):
        packed, _ = hand_pair
        plan = explain_window(packed, self.WINDOWS[0])
        assert plan.tiles_by_class == {"A": 1}
        assert plan.duplicates_avoided == 3

    def test_disk_plans_match(self, hand_pair):
        packed, legacy = hand_pair
        q = DiskQuery(0.45, 0.45, 0.3)
        pp = explain_disk(packed, q)
        pl = explain_disk(legacy, q)
        assert pp.tiles_by_class == pl.tiles_by_class
        assert pp.stats == pl.stats
        assert ids_set(pp.result) == ids_set(pl.result)


class TestPersistenceParity:
    @pytest.mark.parametrize("saved_from", ["packed", "legacy"])
    @pytest.mark.parametrize("checked_against", ["packed", "legacy"])
    def test_roundtrip_across_backends(
        self, tmp_path, pair, saved_from, checked_against
    ):
        """A loaded index (always a packed base) matches the bulk-loaded
        index and the per-tile reference, whichever of them was saved."""
        by_name = dict(zip(("packed", "legacy"), pair))
        index = by_name[saved_from]
        path = tmp_path / "idx.npz"
        save_index(index, path)
        assert (index._store is None) == (saved_from == "legacy")
        loaded = load_index(path)
        assert loaded._store is not None and not loaded._tiles
        want = by_name[checked_against]
        assert loaded.replica_count == want.replica_count
        for w in windows(8, seed=59):
            assert_query_parity(
                lambda s, w=w: loaded.window_query(w, s),
                lambda s, w=w: want.window_query(w, s),
            )

    def test_packed_save_after_updates(self, tmp_path):
        base = generate_uniform_rects(300, area=1e-3, seed=61)
        index = TwoLayerGrid.build(base, partitions_per_dim=8)
        index.insert(Rect(0.1, 0.1, 0.3, 0.2), 300)
        assert index.delete(base.rect(5), 5)
        path = tmp_path / "idx.npz"
        save_index(index, path)  # delta rows + tombstones flattened out
        loaded = load_index(path)
        assert loaded.replica_count == index.replica_count
        w = Rect(0.0, 0.0, 1.0, 1.0)
        assert ids_set(loaded.window_query(w)) == ids_set(index.window_query(w))


class TestSnapshotPackedBase:
    def test_base_shared_by_reference_across_versions(self):
        data = generate_uniform_rects(500, area=1e-3, seed=67)
        index = TwoLayerGrid.build(data, partitions_per_dim=8)
        store = SnapshotStore(index, data)
        base = store.current.index._store
        for k in range(10):
            store.insert(Rect(0.2, 0.2, 0.25, 0.25))
        # Ten published versions, zero base copies.
        assert store.current.index._store is base

    def test_cow_delete_forks_tombstones_only(self):
        data = generate_uniform_rects(500, area=1e-3, seed=71)
        index = TwoLayerGrid.build(data, partitions_per_dim=8)
        store = SnapshotStore(index, data)
        old = store.current
        w = Rect(0.0, 0.0, 1.0, 1.0)
        victim = int(old.index.window_query(w)[0])
        found, version = store.delete(victim)
        assert found and version == old.version + 1
        new = store.current
        # The column arrays are shared; only the dead bitmap was copied.
        assert new.index._store is not old.index._store
        assert new.index._store.xl is old.index._store.xl
        assert new.index._store.ids is old.index._store.ids
        # Snapshot isolation: the old version still sees the object.
        assert victim in ids_set(old.index.window_query(w))
        assert victim not in ids_set(new.index.window_query(w))

    def test_delete_of_delta_insert(self):
        data = generate_uniform_rects(200, area=1e-3, seed=73)
        index = TwoLayerGrid.build(data, partitions_per_dim=8)
        store = SnapshotStore(index, data)
        obj_id, _ = store.insert(Rect(0.5, 0.5, 0.55, 0.55))
        found, _ = store.delete(obj_id)
        assert found
        w = Rect(0.45, 0.45, 0.6, 0.6)
        assert obj_id not in ids_set(store.current.index.window_query(w))


class TestTileTableRegressions:
    def test_nbytes_does_not_mutate(self):
        """Regression: nbytes used to fold the pending tail as a side
        effect, breaking the published-snapshot purity invariant."""
        t = TileTable()
        t.append(0.1, 0.1, 0.2, 0.2, 0)
        t.append(0.3, 0.3, 0.4, 0.4, 1)
        before = t.nbytes
        assert len(t._pending) == 2  # still pending — no fold happened
        t._compact()
        assert t.nbytes == before  # pending tail was costed at folded size

    def test_delete_on_empty_reports_zero_without_compacting(self):
        t = TileTable()
        assert t.delete(42) == 0
        assert len(t) == 0
        t.append(0.1, 0.1, 0.2, 0.2, 7)
        assert t.delete(42) == 0  # id not present
        assert t.delete(7) == 1
        assert t.delete(7) == 0  # now empty again

    def test_tombstone_delete_never_rebuilds_base(self):
        data = generate_uniform_rects(300, area=1e-3, seed=79)
        index = TwoLayerGrid.build(data, partitions_per_dim=8)
        store = index._store
        xl = store.xl
        assert index.delete(data.rect(10), 10)
        assert index._store is store  # same object, no rebuild
        assert store.xl is xl  # columns untouched
        assert store.n_dead >= 1
        assert index.delete(data.rect(10), 10) is False  # already gone


class TestPackedStoreUnit:
    def test_ranges_to_rows(self):
        starts = np.array([0, 5, 5, 9], dtype=np.int64)
        ends = np.array([2, 8, 5, 10], dtype=np.int64)
        got = ranges_to_rows(starts, ends)
        assert got.tolist() == [0, 1, 5, 6, 7, 9]
        assert ranges_to_rows(starts[:0], ends[:0]).shape == (0,)

    def test_from_rows_presorted_is_zero_copy(self):
        keys = np.array([0, 0, 2, 5, 5, 5], dtype=np.int64)
        cols = [np.arange(6, dtype=np.float64) for _ in range(4)]
        ids = np.arange(6, dtype=np.int64)
        store = PackedStore.from_rows(8, 1, keys, *cols, ids)
        assert store.ids is ids  # adopted, not re-sorted
        assert store.offsets.tolist() == [0, 2, 2, 3, 3, 3, 6, 6, 6]
        assert store.group_columns(1) is None
        assert store.group_columns(0)[4].tolist() == [0, 1]

    def test_from_rows_unsorted_sorts_stably(self):
        keys = np.array([3, 1, 3, 0], dtype=np.int64)
        cols = [np.array([30.0, 10.0, 31.0, 0.0]) for _ in range(4)]
        ids = np.array([30, 10, 31, 0], dtype=np.int64)
        store = PackedStore.from_rows(4, 1, keys, *cols, ids)
        assert store.ids.tolist() == [0, 10, 30, 31]
        assert store.group_counts().tolist() == [1, 1, 0, 2]

    def test_mark_dead_dedups(self):
        keys = np.zeros(4, dtype=np.int64)
        cols = [np.zeros(4) for _ in range(4)]
        store = PackedStore.from_rows(1, 1, keys, *cols, np.arange(4))
        assert store.mark_dead(np.array([1, 2])) == 2
        assert store.mark_dead(np.array([2, 3])) == 1  # 2 already dead
        assert store.n_live == 1
        assert store.group_counts().tolist() == [1]
