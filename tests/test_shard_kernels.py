"""Banded kernel parity: shard unions must equal the global result.

The whole sharded design rests on one algebraic fact — tile ownership
partitions the result space, so concatenating per-band results
reproduces the global answer with no dedup pass.  These tests check
that fact over every verb, on the packed fast path, with telemetry
stats threaded, and across the write path (delta overlay + tombstones
via SnapshotStore forks).
"""

import numpy as np
import pytest

from repro.core.knn import knn_query
from repro.core.two_layer import TwoLayerGrid
from repro.datasets.dataset import RectDataset
from repro.datasets.queries import DiskQuery
from repro.geometry.mbr import Rect
from repro.grid import kernels
from repro.grid.base import GridPartitioner
from repro.stats import QueryStats
from repro.server.snapshot import SnapshotStore
from repro.shard.banded import BandedTwoLayerGrid
from repro.shard.partition import bands_for_range, plan_bands

NX = NY = 16
DOMAIN = Rect(0.0, 0.0, 1.0, 1.0)
SHARDS = 4


def make_data(n=4000, seed=21):
    rng = np.random.default_rng(seed)
    cx = rng.uniform(0, 1, n)
    cy = rng.uniform(0, 1, n)
    w = rng.uniform(1e-4, 0.05, n)
    h = rng.uniform(1e-4, 0.05, n)
    return RectDataset(
        np.clip(cx - w, 0, 1),
        np.clip(cy - h, 0, 1),
        np.clip(cx + w, 0, 1) + 1e-9,
        np.clip(cy + h, 0, 1) + 1e-9,
    )


def make_global(data):
    grid = GridPartitioner(NX, NY, DOMAIN)
    index = TwoLayerGrid(grid)
    index._bulk_load(data)
    index._build_fast_q()
    return index


def make_shards(index, k=SHARDS):
    bands = plan_bands(index._store.offsets[::4], k)
    shards = []
    for band in bands:
        s = BandedTwoLayerGrid(index.grid, band)
        s._store = index._store
        s._n_objects = index._n_objects
        s._fast_q = index._fast_q
        s._tile_row_bounds = index._tile_row_bounds
        shards.append(s)
    return bands, shards


@pytest.fixture(scope="module")
def setup():
    data = make_data()
    index = make_global(data)
    bands, shards = make_shards(index)
    return data, index, bands, shards


def union(parts):
    return sorted(int(i) for part in parts for i in part)


class TestReadParity:
    def test_window_union_equals_global(self, setup):
        data, index, bands, shards = setup
        rng = np.random.default_rng(1)
        for _ in range(120):
            xs = sorted(rng.uniform(0, 1, 2))
            ys = sorted(rng.uniform(0, 1, 2))
            win = Rect(xs[0], ys[0], xs[1], ys[1])
            ref = sorted(index.window_query(win).tolist())
            assert union(s.window_query(win) for s in shards) == ref

    def test_within_union_equals_global(self, setup):
        data, index, bands, shards = setup
        rng = np.random.default_rng(2)
        for _ in range(60):
            xs = sorted(rng.uniform(0, 1, 2))
            ys = sorted(rng.uniform(0, 1, 2))
            win = Rect(xs[0], ys[0], xs[1], ys[1])
            ref = sorted(index.window_query_within(win).tolist())
            assert union(s.window_query_within(win) for s in shards) == ref

    def test_count_sums_to_global(self, setup):
        data, index, bands, shards = setup
        rng = np.random.default_rng(3)
        for _ in range(60):
            xs = sorted(rng.uniform(0, 1, 2))
            ys = sorted(rng.uniform(0, 1, 2))
            win = Rect(xs[0], ys[0], xs[1], ys[1])
            assert sum(s.count_window(win) for s in shards) == index.count_window(
                win
            )

    def test_disk_union_equals_global(self, setup):
        data, index, bands, shards = setup
        rng = np.random.default_rng(4)
        for _ in range(60):
            q = DiskQuery(
                rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0.01, 0.2)
            )
            ref = sorted(index.disk_query(q).tolist())
            assert union(s.disk_query(q) for s in shards) == ref

    def test_compiled_disk_route_stays_banded(self, setup, monkeypatch):
        # With numba installed every index is on the compiled tier; its
        # whole-base disk scan knows no band, so banded indexes must
        # keep the clamped plan (run here with the interpreted body).
        monkeypatch.setattr(kernels, "compiled_available", lambda: True)
        data, index, bands, shards = setup
        for q in (DiskQuery(0.5, 0.5, 0.2), DiskQuery(0.1, 0.9, 0.05)):
            ref = sorted(index.disk_query(q).tolist())
            assert union(s.disk_query(q) for s in shards) == ref

    def test_unrouted_shards_return_empty(self, setup):
        data, index, bands, shards = setup
        rng = np.random.default_rng(5)
        for _ in range(60):
            xs = sorted(rng.uniform(0, 1, 2))
            ys = sorted(rng.uniform(0, 1, 2))
            win = Rect(xs[0], ys[0], xs[1], ys[1])
            ix0, ix1, iy0, iy1 = index.grid.tile_range_for_window(win)
            routed = set(bands_for_range(bands, NX, ix0, ix1, iy0, iy1))
            for k, s in enumerate(shards):
                if k not in routed:
                    assert s.window_query(win).shape[0] == 0

    def test_band_order_concat_preserves_global_order(self, setup):
        # bands ascend in tile (= CSR row) order, so band-ordered concat
        # on the stats-free fast path reproduces the global row order
        data, index, bands, shards = setup
        rng = np.random.default_rng(6)
        for _ in range(40):
            xs = sorted(rng.uniform(0, 1, 2))
            ys = sorted(rng.uniform(0, 1, 2))
            win = Rect(xs[0], ys[0], xs[1], ys[1])
            ref = index.window_query(win).tolist()
            got = [i for s in shards for i in s.window_query(win).tolist()]
            assert got == ref

    def test_stats_threaded_parity_and_accounting(self, setup):
        data, index, bands, shards = setup
        win = Rect(0.2, 0.2, 0.7, 0.7)
        ref_stats = QueryStats()
        ref = sorted(index.window_query(win, ref_stats).tolist())
        parts = []
        shard_comparisons = 0
        for s in shards:
            st = QueryStats()
            parts.append(s.window_query(win, st))
            shard_comparisons += st.comparisons
        assert union(parts) == ref
        # banded scans compare only owned rows: the per-shard work sums
        # to no more than the global scan (tiles straddle nothing)
        assert 0 < shard_comparisons <= ref_stats.comparisons

    def test_knn_global_view_matches(self, setup):
        data, index, bands, shards = setup
        rng = np.random.default_rng(7)
        for trial in range(25):
            px, py = rng.uniform(0, 1), rng.uniform(0, 1)
            ref = list(knn_query(index, data, px, py, 12))
            view = shards[trial % SHARDS].global_view()
            assert list(knn_query(view, data, px, py, 12)) == ref


class TestWriteParity:
    def test_replicated_writes_keep_union_parity(self):
        data = make_data(n=1500, seed=31)
        index = make_global(data)
        bands, shards = make_shards(index)
        g_store = SnapshotStore(make_global(data), data)
        s_stores = [SnapshotStore(s, data) for s in shards]

        rng = np.random.default_rng(8)
        for i in range(30):
            if i % 3 == 2:
                victim = int(rng.integers(0, len(data)))
                ref = g_store.delete(victim)
                assert all(st.delete(victim) == ref for st in s_stores)
            else:
                x, y = rng.uniform(0, 0.95, 2)
                rect = Rect(x, y, x + 0.01, y + 0.01)
                ref = g_store.insert(rect)
                # deterministic replication: identical (id, version)
                assert all(st.insert(rect) == ref for st in s_stores)

        g = g_store.current
        reps = [st.current for st in s_stores]
        assert all(r.version == g.version for r in reps)
        for _ in range(60):
            xs = sorted(rng.uniform(0, 1, 2))
            ys = sorted(rng.uniform(0, 1, 2))
            win = Rect(xs[0], ys[0], xs[1], ys[1])
            ref = sorted(g.index.window_query(win).tolist())
            assert union(r.index.window_query(win) for r in reps) == ref
            q = DiskQuery(
                rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0.02, 0.15)
            )
            refd = sorted(g.index.disk_query(q).tolist())
            assert union(r.index.disk_query(q) for r in reps) == refd

    @pytest.mark.parametrize("k", [2, 3])
    def test_band_concat_is_exactly_once_through_churn(self, k):
        """Concatenated band results == the global result, no id twice —
        pristine, then with overlay rows and tombstones in every band."""
        data = make_data(n=1500, seed=51)
        index = make_global(data)
        _bands, shards = make_shards(index, k)
        for shard in shards:  # replicas tombstone privately, like workers
            shard._store = index._store.with_private_dead()
        replicas = [index, *shards]
        rng = np.random.default_rng(9)
        t = 1.0 / NX
        wins = [
            Rect(0.0, 0.0, 1.0, 1.0),
            Rect(2 * t, 3 * t, 9 * t, 11 * t),  # tile-boundary aligned
            Rect(0.0, 7 * t, 1.0, 7 * t),  # degenerate, on a tile edge
        ]
        for _ in range(40):
            xs = sorted(rng.uniform(0, 1, 2))
            ys = sorted(rng.uniform(0, 1, 2))
            wins.append(Rect(xs[0], ys[0], xs[1], ys[1]))

        def check():
            for win in wins:
                ref = index.window_query(win)
                got = np.concatenate([s.window_query(win) for s in shards])
                assert np.unique(got).shape[0] == got.shape[0], win
                assert sorted(got.tolist()) == sorted(ref.tolist()), win
                assert sum(s.count_window(win) for s in shards) == len(ref)

        check()
        next_id = len(data)
        for i in range(120):
            if i % 2:
                victim = int(rng.integers(0, len(data)))
                found = {r.delete(data.rect(victim), victim) for r in replicas}
                assert len(found) == 1
            else:
                x, y = rng.uniform(0, 0.9, 2)
                rect = Rect(x, y, x + rng.uniform(0.001, 0.1), y + 0.03)
                for r in replicas:
                    r.insert(rect, next_id)
                next_id += 1
        assert index._tiles and index._store.n_dead
        check()

    def test_snapshot_fork_preserves_band(self):
        data = make_data(n=400, seed=41)
        index = make_global(data)
        bands, shards = make_shards(index)
        store = SnapshotStore(shards[1], data)
        store.insert(Rect(0.5, 0.5, 0.51, 0.51))
        forked = store.current.index
        assert isinstance(forked, BandedTwoLayerGrid)
        assert forked.band == bands[1]
