"""The REPRO_SANITIZE runtime sanitizer catches corrupted storage state.

Three layers under test: structural validation of the packed CSR base
(``check_packed_store``), delta/base disjointness and publish-time
freezing (``check_snapshot``), and the sampled window-query cross-check
against a naive per-tile scan (``on_window_query``).  Each corruption
must surface as a :class:`SanitizerError` naming the failed check.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import insert_built

from repro.analysis.sanitize import (
    SanitizerError,
    check_delta_disjoint,
    check_packed_store,
    check_snapshot,
    enabled,
    freeze_array,
    naive_window_ids,
    on_window_query,
    verify_window_result,
)
from repro.core import TwoLayerGrid, TwoLayerPlusGrid
from repro.datasets import generate_uniform_rects
from repro.geometry import Rect
from repro.grid import OneLayerGrid
from repro.grid.storage import PackedStore, TileTable


def small_store(n_classes: int = 4) -> PackedStore:
    """8 rows spread over 12 groups (= 3 tiles x 4 classes, or 12 tiles
    when n_classes=1 — 12 is divisible by either)."""
    rng = np.random.default_rng(5)
    n = 8
    keys = np.array([0, 0, 1, 4, 4, 5, 8, 11], dtype=np.int64)
    xl = rng.random(n)
    yl = rng.random(n)
    return PackedStore.from_rows(
        12, n_classes, keys, xl, yl, xl + 0.1, yl + 0.1,
        np.arange(n, dtype=np.int64),
    )


def thaw(store: PackedStore) -> None:
    """Re-enable writes on frozen columns so tests can corrupt them."""
    for name in ("offsets", "xl", "yl", "xu", "yu", "ids"):
        getattr(store, name).flags.writeable = True


def expect_check(name: str):
    return pytest.raises(SanitizerError, match=name)


class TestCheckPackedStore:
    def test_valid_store_passes(self):
        check_packed_store(small_store(), "test")

    def test_non_monotone_offsets(self):
        store = small_store()
        store.offsets[2] = store.offsets[1] + 5
        store.offsets[3] = 1
        with expect_check("offsets_monotone") as exc:
            check_packed_store(store, "test")
        assert exc.value.check == "offsets_monotone"
        assert exc.value.where == "test"
        assert "group" in exc.value.details

    def test_offsets_not_covering_rows(self):
        store = small_store()
        store.offsets[-1] = store.ids.shape[0] + 3
        # keep monotonicity so the tail check is the one that fires
        with expect_check("offsets_cover_rows"):
            check_packed_store(store, "test")

    def test_offsets_bad_origin(self):
        store = small_store()
        store.offsets[0] = -1
        with expect_check("offsets_origin"):
            check_packed_store(store, "test")

    def test_column_length_mismatch(self):
        store = small_store()
        store.xl = store.xl[:-1]
        with expect_check("column_length") as exc:
            check_packed_store(store, "test")
        assert exc.value.details["column"] == "xl"

    def test_tombstone_bitmap_wrong_length(self):
        store = small_store()
        store.mark_dead(np.array([0], dtype=np.int64))
        store.dead = store.dead[:-1]
        with expect_check("tombstone_bitmap_bounds"):
            check_packed_store(store, "test")

    def test_tombstone_total_mismatch(self):
        store = small_store()
        store.mark_dead(np.array([0, 3], dtype=np.int64))
        store.n_dead = 1
        with expect_check("tombstone_total"):
            check_packed_store(store, "test")

    def test_tombstone_per_group_mismatch(self):
        store = small_store()
        store.mark_dead(np.array([2], dtype=np.int64))
        # move the recorded count to the wrong group
        store.dead_per_group = np.roll(store.dead_per_group, 1)
        with expect_check("tombstone_group_counts"):
            check_packed_store(store, "test")

    def test_legit_tombstones_pass(self):
        store = small_store()
        store.mark_dead(np.array([1, 4, 7], dtype=np.int64))
        check_packed_store(store, "test")


class TestDeltaDisjoint:
    def test_disjoint_overlay_passes(self):
        store = small_store()
        tiles = {0: [None, TileTable(ids=np.array([100], dtype=np.int64),
                                     xl=np.array([0.1]), yl=np.array([0.1]),
                                     xu=np.array([0.2]), yu=np.array([0.2])),
                     None, None]}
        check_delta_disjoint(store, tiles, "test")

    def test_overlapping_id_fails(self):
        store = small_store()
        # base row id 0 lives in group key 0 = tile 0, class 0
        dup = TileTable(
            np.array([0.1]), np.array([0.1]),
            np.array([0.2]), np.array([0.2]),
            np.array([0], dtype=np.int64),
        )
        tiles = {0: [dup, None, None, None]}
        with expect_check("delta_base_disjoint") as exc:
            check_delta_disjoint(store, tiles, "test")
        assert exc.value.details["tile"] == 0
        assert 0 in exc.value.details["ids"]

    def test_one_layer_single_table_entries(self):
        store = small_store(n_classes=1)
        dup = TileTable(
            np.array([0.1]), np.array([0.1]),
            np.array([0.2]), np.array([0.2]),
            np.array([0], dtype=np.int64),
        )
        with expect_check("delta_base_disjoint"):
            check_delta_disjoint(store, {0: dup}, "test", n_classes=1)


class TestFreeze:
    def test_freeze_array_blocks_writes(self):
        arr = np.zeros(4)
        freeze_array(arr)
        with pytest.raises(ValueError):
            arr[0] = 1.0

    def test_freeze_none_is_noop(self):
        freeze_array(None)

    def test_check_snapshot_freezes_base_columns(self):
        data = generate_uniform_rects(300, area=1e-3, seed=11)
        index = TwoLayerGrid.build(data, partitions_per_dim=8)
        check_snapshot(index, "test")
        with pytest.raises(ValueError):
            index._store.ids[0] = 99

    def test_check_snapshot_legacy_backend_is_noop(self):
        data = generate_uniform_rects(100, area=1e-3, seed=11)
        index = insert_built(TwoLayerGrid, data, 8)  # all overlay, no base
        check_snapshot(index, "test")


class TestWindowCrossCheck:
    @pytest.fixture(scope="class")
    def setup(self):
        data = generate_uniform_rects(600, area=1e-3, seed=23)
        index = TwoLayerGrid.build(data, partitions_per_dim=8)
        window = Rect(0.2, 0.2, 0.6, 0.6)
        return index, window

    def test_correct_result_passes(self, setup):
        index, window = setup
        verify_window_result(index, window, index.window_query(window))

    def test_naive_matches_on_one_layer(self):
        data = generate_uniform_rects(400, area=1e-3, seed=29)
        index = OneLayerGrid.build(data, partitions_per_dim=8)
        window = Rect(0.3, 0.3, 0.7, 0.7)
        got = np.sort(index.window_query(window))
        assert np.array_equal(got, naive_window_ids(index, window))

    def test_missing_id_fails(self, setup):
        index, window = setup
        ids = index.window_query(window)
        assert ids.shape[0] > 1
        with expect_check("window_result_parity") as exc:
            verify_window_result(index, window, ids[1:])
        assert exc.value.details["missing"]

    def test_extra_id_fails(self, setup):
        index, window = setup
        ids = index.window_query(window)
        bogus = np.append(ids, np.int64(10_000_000))
        with expect_check("window_result_parity") as exc:
            verify_window_result(index, window, bogus)
        assert 10_000_000 in exc.value.details["extra"]

    def test_duplicate_ids_fail(self, setup):
        index, window = setup
        ids = index.window_query(window)
        with expect_check("window_dedup"):
            verify_window_result(index, window, np.append(ids, ids[:1]))


class TestEnvGating:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not enabled()

    def test_enabled_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert enabled()

    def test_build_validates_when_enabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        data = generate_uniform_rects(200, area=1e-3, seed=3)
        # a clean build passes through the from_rows hook untripped
        TwoLayerGrid.build(data, partitions_per_dim=8)

    def test_corrupted_store_caught_at_query_time(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        monkeypatch.setenv("REPRO_SANITIZE_SAMPLE", "1")
        data = generate_uniform_rects(300, area=1e-3, seed=7)
        index = TwoLayerGrid.build(data, partitions_per_dim=8)
        store = index._store
        thaw(store)
        store.ids[:] = store.ids[0]  # smash the id column: mass duplicates
        with pytest.raises(SanitizerError):
            index.window_query(Rect(0.0, 0.0, 1.0, 1.0))

    def test_corrupted_two_layer_plus_query_matrix_caught(self, monkeypatch):
        """2-layer⁺ inherits window_query whole, sanitizer hook included
        (its own copy of the hot route used to return unchecked)."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        monkeypatch.setenv("REPRO_SANITIZE_SAMPLE", "1")
        data = generate_uniform_rects(300, area=1e-3, seed=7)
        index = TwoLayerPlusGrid.build(data, partitions_per_dim=8)
        index._build_fast_q()[0] = -np.inf  # no row passes xu >= w.xl
        with expect_check("window_result_parity") as exc:
            index.window_query(Rect(0.2, 0.2, 0.6, 0.6))
        assert exc.value.details["missing"]

    def test_sampled_hook_skips_between_samples(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        monkeypatch.setenv("REPRO_SANITIZE_SAMPLE", "1000000")
        data = generate_uniform_rects(300, area=1e-3, seed=7)
        index = TwoLayerGrid.build(data, partitions_per_dim=8)
        # wrong ids, but the sample period means this call is not checked
        on_window_query(index, Rect(0.0, 0.0, 1.0, 1.0), np.array([1, 1]))

    def test_sanitized_queries_match_unsanitized(self, monkeypatch):
        data = generate_uniform_rects(500, area=1e-3, seed=13)
        index = TwoLayerGrid.build(data, partitions_per_dim=8)
        window = Rect(0.1, 0.4, 0.5, 0.9)
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        plain = index.window_query(window)
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        monkeypatch.setenv("REPRO_SANITIZE_SAMPLE", "1")
        checked = index.window_query(window)
        assert np.array_equal(np.sort(plain), np.sort(checked))
