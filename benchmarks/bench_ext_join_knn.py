"""Extension benchmarks — spatial joins and kNN (the paper's future work).

Not a paper table/figure: the conclusions list spatial joins and
nearest-neighbour queries over two-layer SOP indices as future work, and
this repo implements both (:mod:`repro.core.join`, :mod:`repro.core.knn`).
The join benchmark mirrors the window-query story: class-based duplicate
*avoidance* (9 allowed class combinations) vs reference-point duplicate
*elimination* on the same grid partitioning.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.bench import print_table, tiger_dataset
from repro.core import (
    knn_query,
    one_layer_spatial_join,
    two_layer_spatial_join,
)
from repro.datasets import generate_uniform_rects

from _shared import emit_bench_record, get_index
from conftest import report

_RESULTS: dict[str, float] = {}


@pytest.fixture(scope="module")
def join_inputs():
    r = generate_uniform_rects(40_000, area=1e-7, seed=201)
    s = generate_uniform_rects(40_000, area=1e-7, seed=202)
    return r, s


@pytest.mark.parametrize("variant", ["2-layer (avoidance)", "1-layer (refpoint)"])
def test_ext_spatial_join(benchmark, join_inputs, variant):
    r, s = join_inputs
    if variant == "1-layer (refpoint)":
        join = lambda: one_layer_spatial_join(r, s, partitions_per_dim=64)
    else:
        join = lambda: two_layer_spatial_join(r, s, partitions_per_dim=64)

    def run():
        t0 = time.perf_counter()
        pairs = join()
        _RESULTS[f"join {variant}"] = time.perf_counter() - t0
        return pairs

    pairs = benchmark.pedantic(run, rounds=1, iterations=1)
    _RESULTS.setdefault("join pairs", float(pairs.shape[0]))


def test_ext_knn(benchmark):
    data = tiger_dataset("ROADS")
    grid_index = get_index("2-layer", "ROADS")
    rtree_index = get_index("R-tree", "ROADS")
    rng = np.random.default_rng(203)
    points = rng.random((200, 2))

    def run():
        t0 = time.perf_counter()
        for cx, cy in points:
            knn_query(grid_index, data, float(cx), float(cy), 10)
        _RESULTS["knn 2-layer grid k=10 [q/s]"] = len(points) / (
            time.perf_counter() - t0
        )
        t0 = time.perf_counter()
        for cx, cy in points:
            rtree_index.knn_query(float(cx), float(cy), 10)
        _RESULTS["knn R-tree best-first k=10 [q/s]"] = len(points) / (
            time.perf_counter() - t0
        )

    benchmark.pedantic(run, rounds=1, iterations=1)


@pytest.mark.parametrize("strategy", ["queries", "tiles"])
def test_ext_disk_batch(benchmark, strategy):
    """Batch disk queries (Section VI applied to §IV-E) — extension."""
    import time

    from repro.bench import disk_workload
    from repro.core import (
        evaluate_disk_queries_based,
        evaluate_disk_tiles_based,
    )

    index = get_index("2-layer", "ROADS")
    batch = list(disk_workload("ROADS", 0.1)[:1000])
    evaluator = (
        evaluate_disk_queries_based
        if strategy == "queries"
        else evaluate_disk_tiles_based
    )

    def run():
        t0 = time.perf_counter()
        evaluator(index, batch)
        _RESULTS[f"disk batch {strategy}-based [s]"] = time.perf_counter() - t0

    benchmark.pedantic(run, rounds=1, iterations=1)


def test_ext_within_predicate(benchmark):
    """'within' window semantics: class-A-only scan — extension."""
    from repro.bench import window_workload
    from repro.bench import throughput as run_throughput

    index = get_index("2-layer", "ROADS")
    queries = window_workload("ROADS", 0.1)[:1000]

    def run():
        for w in queries:
            index.window_query_within(w)

    benchmark.pedantic(run, rounds=1, iterations=1)
    _RESULTS["within-predicate windows [q/s]"] = run_throughput(
        index.window_query_within, queries
    ).qps


def test_ext_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    report(
        lambda: print_table(
            "Extensions — joins, kNN, disk batches, within-predicate",
            ["metric", "value"],
            [[k, v] for k, v in sorted(_RESULTS.items())],
        )
    )
    emit_bench_record(
        "ext_join_knn",
        {"dataset": "ROADS"},
        {"metrics": _RESULTS},
    )
    assert _RESULTS["join 2-layer (avoidance)"] < _RESULTS["join 1-layer (refpoint)"], (
        "class-combo join must beat reference-point join"
    )
