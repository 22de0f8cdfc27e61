"""Tests for batch (Section VI) and parallel query processing."""

import numpy as np
import pytest

from repro.datasets import generate_window_queries
from repro.errors import InvalidQueryError
from repro.core import (
    ParallelBatchEvaluator,
    TwoLayerGrid,
    evaluate_queries_based,
    evaluate_tiles_based,
    parallel_window_queries,
)
from repro.stats import QueryStats

from conftest import ids_set


@pytest.fixture(scope="module")
def index(uniform_data):
    return TwoLayerGrid.build(uniform_data, partitions_per_dim=16)


@pytest.fixture(scope="module")
def windows(uniform_data):
    return generate_window_queries(uniform_data, 60, 1.0, seed=51)


class TestBatchEquivalence:
    def test_queries_based_matches_single_queries(self, index, windows, uniform_data):
        results = evaluate_queries_based(index, windows)
        assert len(results) == len(windows)
        for w, got in zip(windows, results):
            assert ids_set(got) == ids_set(uniform_data.brute_force_window(w))

    def test_tiles_based_matches_queries_based(self, index, windows):
        qb = evaluate_queries_based(index, windows)
        tb = evaluate_tiles_based(index, windows)
        for a, b in zip(qb, tb):
            assert ids_set(a) == ids_set(b)

    def test_tiles_based_no_duplicates(self, index, windows):
        for got in evaluate_tiles_based(index, windows):
            assert len(got) == len(ids_set(got))

    def test_empty_batch(self, index):
        assert evaluate_tiles_based(index, []) == []
        assert evaluate_queries_based(index, []) == []

    def test_batch_with_empty_result_queries(self, index):
        from repro.geometry import Rect

        # A window over an empty corner of the map.
        windows = [Rect(0.001, 0.001, 0.0011, 0.0011)]
        (got,) = evaluate_tiles_based(index, windows)
        assert isinstance(got, np.ndarray)

    def test_tiles_based_visits_each_tile_once_per_query_overlap(
        self, index, windows
    ):
        # Subtask count == sum over queries of overlapped non-empty tiles.
        stats_tb = QueryStats()
        evaluate_tiles_based(index, windows, stats_tb)
        stats_qb = QueryStats()
        evaluate_queries_based(index, windows, stats_qb)
        assert stats_tb.partitions_visited == stats_qb.partitions_visited
        assert stats_tb.rects_scanned == stats_qb.rects_scanned


class TestDiskBatches:
    def test_disk_tiles_based_matches_queries_based(self, index, uniform_data):
        from repro.datasets import generate_disk_queries
        from repro.core import (
            evaluate_disk_queries_based,
            evaluate_disk_tiles_based,
        )

        queries = generate_disk_queries(uniform_data, 40, 1.0, seed=53)
        qb = evaluate_disk_queries_based(index, queries)
        tb = evaluate_disk_tiles_based(index, queries)
        for a, b, q in zip(qb, tb, queries):
            assert len(b) == len(ids_set(b)), "tiles-based disk duplicates"
            assert ids_set(a) == ids_set(b)
            assert ids_set(a) == ids_set(
                uniform_data.brute_force_disk(q.cx, q.cy, q.radius)
            )

    def test_disk_batch_empty(self, index):
        from repro.core import evaluate_disk_tiles_based

        assert evaluate_disk_tiles_based(index, []) == []

    def test_disk_batch_work_equivalence(self, index, uniform_data):
        from repro.datasets import generate_disk_queries
        from repro.core import (
            evaluate_disk_queries_based,
            evaluate_disk_tiles_based,
        )

        queries = generate_disk_queries(uniform_data, 20, 1.0, seed=54)
        s_q, s_t = QueryStats(), QueryStats()
        evaluate_disk_queries_based(index, queries, s_q)
        evaluate_disk_tiles_based(index, queries, s_t)
        assert s_q.rects_scanned == s_t.rects_scanned


class TestParallel:
    def test_counts_match_sequential(self, index, windows):
        expected = np.asarray(
            [len(ids) for ids in evaluate_queries_based(index, windows)]
        )
        for method in ("queries", "tiles"):
            for workers in (1, 2, 3):
                got = parallel_window_queries(
                    index, windows, workers=workers, method=method
                )
                assert np.array_equal(got, expected), (method, workers)

    def test_rejects_bad_method(self, index, windows):
        with pytest.raises(InvalidQueryError):
            parallel_window_queries(index, windows, workers=2, method="rows")

    def test_rejects_bad_workers(self, index, windows):
        with pytest.raises(InvalidQueryError):
            parallel_window_queries(index, windows, workers=0)

    def test_empty_batch(self, index):
        got = parallel_window_queries(index, [], workers=2)
        assert got.shape == (0,)

    def test_more_workers_than_queries(self, index, uniform_data):
        few = generate_window_queries(uniform_data, 3, 1.0, seed=52)
        got = parallel_window_queries(index, few, workers=4, method="tiles")
        expected = [len(ids) for ids in evaluate_queries_based(index, few)]
        assert got.tolist() == expected


class TestInlineWorker:
    """``workers=1`` runs the pool's shard functions inline (its counts
    are checked against 2 and 3 workers in ``test_counts_match_sequential``)."""

    @pytest.mark.parametrize("method", ["queries", "tiles"])
    def test_one_worker_counts_without_holding_the_ids(
        self, index, uniform_data, method
    ):
        import tracemalloc

        from repro.geometry import Rect

        # Whole-domain windows: every query returns every object.
        windows = [Rect(0.0, 0.0, 1.0, 1.0)] * 200
        with ParallelBatchEvaluator(index, workers=1) as pool:
            pool.run(windows[:2], method=method)  # warm caches
            tracemalloc.start()
            try:
                counts = pool.run(windows, method=method)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        total_ids = int(counts.sum())
        assert total_ids == len(windows) * len(uniform_data)
        assert peak < 8 * total_ids / 4, (peak, 8 * total_ids)


class TestWorkerDeath:
    def test_worker_death_raises_parallel_execution_error(
        self, index, windows, monkeypatch
    ):
        """A worker killed mid-batch must surface ParallelExecutionError,
        not hang (multiprocessing.Pool silently respawns dead workers and
        leaves the map stuck forever).

        The shard function is monkeypatched *before* the pool forks, so
        the children inherit the suicidal version by module state while
        the parent pickles it by name.
        """
        import repro.core.parallel as par
        from repro.errors import ParallelExecutionError

        monkeypatch.setattr(par, "_run_query_shard", _exit_shard)
        pool = par.ParallelBatchEvaluator(index, workers=2)
        try:
            with pytest.raises(ParallelExecutionError, match="died mid-batch"):
                pool.run(windows, method="queries")
            # a broken pool refuses reuse instead of hanging
            with pytest.raises(ParallelExecutionError, match="broken"):
                pool.run(windows, method="queries")
        finally:
            pool.close()

    def test_worker_exception_wrapped(self, index, windows, monkeypatch):
        import repro.core.parallel as par
        from repro.errors import ParallelExecutionError

        monkeypatch.setattr(par, "_run_query_shard", _raise_shard)
        with par.ParallelBatchEvaluator(index, workers=2) as pool:
            with pytest.raises(ParallelExecutionError, match="ValueError"):
                pool.run(windows, method="queries")

    def test_close_is_idempotent_after_breakage(self, index, windows, monkeypatch):
        import repro.core.parallel as par
        from repro.errors import ParallelExecutionError

        monkeypatch.setattr(par, "_run_query_shard", _exit_shard)
        pool = par.ParallelBatchEvaluator(index, workers=2)
        with pytest.raises(ParallelExecutionError):
            pool.run(windows, method="queries")
        pool.close()
        pool.close()


def _exit_shard(payload):
    import os

    os._exit(1)


def _raise_shard(payload):
    raise ValueError("shard exploded")
