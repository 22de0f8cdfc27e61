"""Live-telemetry collectors: heat accumulator, trace ring, slow log.

Unit tests for :mod:`repro.obs.live` — decay math, the top-K/snapshot
views, the buffered :class:`HeatStats` hook path (including parity
between the packed and legacy grid backends, whose kernels feed the
hooks from different call sites), and the bounded rings.
"""

import numpy as np
import pytest

from conftest import insert_built

from repro.datasets import generate_uniform_rects
from repro.errors import ObsError
from repro.geometry.mbr import Rect
from repro.grid.one_layer import OneLayerGrid
from repro.core.two_layer import TwoLayerGrid
from repro.obs.live import (
    HeatStats,
    LiveTelemetry,
    SlowQueryLog,
    TileHeatAccumulator,
    TraceRing,
)


class TestTileHeatAccumulator:
    def test_record_and_views(self):
        heat = TileHeatAccumulator(4, 4, half_life_s=0.0)
        heat.record(5, scanned=10, present=25)
        heat.record(5, scanned=2, present=2)
        heat.record(9, scanned=1, present=1)
        assert heat.total_visits == 3
        top = heat.top(k=1)
        assert top[0]["tile"] == 5
        assert top[0]["ix"] == 1 and top[0]["iy"] == 1
        assert top[0]["scans"] == 2.0
        assert top[0]["rows"] == 12.0
        assert top[0]["avoided"] == 15.0  # present(27) - rows(12)
        snap = heat.snapshot(top=10)
        assert snap["nx"] == snap["ny"] == 4
        assert snap["tiles_hot"] == 2
        assert snap["total_scans"] == 3.0
        assert snap["total_rows"] == 13.0
        assert snap["total_avoided"] == 15.0
        assert [t["tile"] for t in snap["tiles"]] == [5, 9]

    def test_record_many_counts_only_visited(self):
        heat = TileHeatAccumulator(4, 4, half_life_s=0.0)
        tids = np.array([0, 1, 2], dtype=np.int64)
        scanned = np.array([3, 0, 1], dtype=np.int64)
        present = np.array([5, 0, 1], dtype=np.int64)
        heat.record_many(tids, scanned, present)
        # tile 1 had no live rows -> not a visit
        assert heat.total_visits == 2
        assert heat.scans[0] == 1.0 and heat.scans[1] == 0.0
        assert heat.rows[0] == 3.0 and heat.present[0] == 5.0

    def test_decay_halves_counters(self, monkeypatch):
        clock = [1000.0]
        monkeypatch.setattr("repro.obs.live.time.monotonic", lambda: clock[0])
        heat = TileHeatAccumulator(2, 2, half_life_s=10.0)
        heat.record(0, scanned=8, present=8)
        clock[0] += 10.0  # exactly one half-life
        heat.record(1, scanned=1, present=1)
        assert heat.scans[0] == pytest.approx(0.5)
        assert heat.rows[0] == pytest.approx(4.0)
        assert heat.scans[1] == pytest.approx(1.0)  # recorded after decay
        # total_visits is monotonic, never decayed
        assert heat.total_visits == 2

    def test_decay_is_throttled(self, monkeypatch):
        clock = [0.0]
        monkeypatch.setattr("repro.obs.live.time.monotonic", lambda: clock[0])
        heat = TileHeatAccumulator(2, 2, half_life_s=64.0)  # throttle = 1s
        heat.record(0, scanned=1, present=1)
        clock[0] += 0.5  # below half_life_s / 64
        heat.record(0, scanned=1, present=1)
        assert heat.scans[0] == pytest.approx(2.0)  # no decay applied yet

    def test_reset(self):
        heat = TileHeatAccumulator(2, 2)
        heat.record(0, 1, 1)
        heat.reset()
        assert heat.total_visits == 0
        assert heat.top() == []
        assert heat.snapshot()["tiles_hot"] == 0

    def test_validation(self):
        with pytest.raises(ObsError):
            TileHeatAccumulator(0, 4)
        with pytest.raises(ObsError):
            TileHeatAccumulator(4, 4, half_life_s=-1.0)


class TestHeatStats:
    def test_scalar_visits_buffer_until_flush(self):
        heat = TileHeatAccumulator(4, 4, half_life_s=0.0)
        stats = HeatStats(heat)
        stats.visit_tile(3, 7, 9)
        stats.visit_tile(3, 1, 1)
        assert heat.total_visits == 0  # buffered, not yet applied
        stats.flush()
        assert heat.total_visits == 2
        assert heat.scans[3] == 2.0
        assert heat.rows[3] == 8.0
        assert heat.present[3] == 10.0
        stats.flush()  # idempotent on empty buffer
        assert heat.total_visits == 2

    def test_vector_visits_apply_immediately(self):
        heat = TileHeatAccumulator(4, 4, half_life_s=0.0)
        stats = HeatStats(heat)
        stats.visit_tiles(
            np.array([1, 2], dtype=np.int64),
            np.array([4, 5], dtype=np.int64),
            np.array([6, 7], dtype=np.int64),
        )
        assert heat.total_visits == 2
        assert heat.rows[2] == 5.0

    def test_auto_flush_at_capacity(self):
        heat = TileHeatAccumulator(2, 2, half_life_s=0.0)
        stats = HeatStats(heat)
        from repro.obs import live as live_mod

        for _ in range(live_mod._FLUSH_EVERY):
            stats.visit_tile(0, 1, 1)
        assert heat.total_visits == live_mod._FLUSH_EVERY  # flushed itself

    def test_query_counters_still_accumulate(self):
        # HeatStats must remain a fully functional QueryStats
        heat = TileHeatAccumulator(8, 8, half_life_s=0.0)
        stats = HeatStats(heat)
        data = generate_uniform_rects(500, area=1e-5, seed=3)
        index = TwoLayerGrid.build(data, partitions_per_dim=8)
        index.window_query(Rect(0.2, 0.2, 0.6, 0.6), stats)
        assert stats.partitions_visited > 0
        assert stats.rects_scanned > 0

    @pytest.mark.parametrize("cls", [TwoLayerGrid, OneLayerGrid])
    def test_backend_parity(self, cls):
        """The packed base and the insert-built per-tile reference feed
        identical heat totals."""
        data = generate_uniform_rects(800, area=1e-5, seed=11)
        windows = [
            Rect(0.1, 0.1, 0.4, 0.4),
            Rect(0.5, 0.5, 0.9, 0.9),
            Rect(0.0, 0.0, 1.0, 1.0),
        ]
        totals = {}
        for storage in ("packed", "legacy"):
            index = (
                cls.build(data, partitions_per_dim=8)
                if storage == "packed"
                else insert_built(cls, data, 8)
            )
            heat = TileHeatAccumulator(8, 8, half_life_s=0.0)
            stats = HeatStats(heat)
            for w in windows:
                index.window_query(w, stats)
            stats.flush()
            totals[storage] = (
                heat.scans.copy(),
                heat.rows.copy(),
                heat.present.copy(),
            )
        for a, b in zip(totals["packed"], totals["legacy"]):
            np.testing.assert_allclose(a, b)


class TestTraceRing:
    def test_bounded_newest_first(self):
        ring = TraceRing(capacity=3)
        for i in range(5):
            ring.append({"trace": f"t{i}"})
        assert ring.total == 5
        assert len(ring) == 3
        assert [r["trace"] for r in ring.last(2)] == ["t4", "t3"]
        assert [r["trace"] for r in ring.last(10)] == ["t4", "t3", "t2"]
        assert ring.last(0) == []

    def test_validation(self):
        with pytest.raises(ObsError):
            TraceRing(capacity=0)


class TestSlowQueryLog:
    def test_threshold_and_bound(self):
        log = SlowQueryLog(capacity=2, threshold_ms=10.0)
        assert log.maybe_capture({"latency_ms": 5.0}) is False
        assert log.maybe_capture({"latency_ms": 10.0}) is True
        assert log.maybe_capture({"latency_ms": 50.0, "verb": "disk"}) is True
        assert log.maybe_capture({"latency_ms": 99.0}) is True
        assert log.total == 3
        assert len(log) == 2
        entries = log.entries()
        assert entries[0]["latency_ms"] == 99.0
        # captured entries are copies with a lazy-explain slot
        assert entries[0]["explain"] is None

    def test_capture_copies_record(self):
        log = SlowQueryLog(capacity=4, threshold_ms=0.0)
        record = {"latency_ms": 1.0, "verb": "window"}
        log.maybe_capture(record)
        record["verb"] = "mutated"
        assert log.entries()[0]["verb"] == "window"

    def test_validation(self):
        with pytest.raises(ObsError):
            SlowQueryLog(capacity=0)
        with pytest.raises(ObsError):
            SlowQueryLog(threshold_ms=-1.0)


class TestLiveTelemetry:
    def test_finish_routes_to_ring_and_slowlog(self):
        tel = LiveTelemetry(4, 4, slowlog_ms=10.0)
        tel.finish({"trace": "a", "latency_ms": 1.0})
        tel.finish({"trace": "b", "latency_ms": 20.0})
        assert tel.traces.total == 2
        assert tel.slowlog.total == 1
        assert tel.slowlog.entries()[0]["trace"] == "b"

    def test_heat_snapshot_flushes_pending_visits(self):
        tel = LiveTelemetry(4, 4)
        tel.stats.visit_tile(2, 3, 3)
        snap = tel.heat_snapshot(top=5)
        assert snap["total_visits"] == 1
        assert snap["tiles"][0]["tile"] == 2
