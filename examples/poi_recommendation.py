"""Location-based analytics: influence regions for POI recommendation.

Scenario from the paper's introduction (citing [7]): a recommender keeps
a *spatial influence region* (an MBR) per mobile user and must answer,
for each candidate point of interest, "whose influence regions cover
this POI?" — thousands of such probes per second, in batch.

This example indexes one million influence regions with the two-layer
grid and evaluates a large batch of POI probes with both batch
strategies of Section VI (queries-based vs cache-conscious tiles-based),
then scales out with worker processes.

Run:  python examples/poi_recommendation.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import (
    TwoLayerGrid,
    evaluate_queries_based,
    evaluate_tiles_based,
    parallel_window_queries,
)
from repro.datasets import generate_zipf_rects, generate_window_queries


def main() -> None:
    # Influence regions are skewed like population: zipfian centres.
    print("generating 1M user influence regions (zipfian)...")
    regions = generate_zipf_rects(1_000_000, area=1e-8, seed=11)
    index = TwoLayerGrid.build(regions, partitions_per_dim=96)
    print(f"{index!r}")

    # POI probes: tiny windows around candidate POIs, following the same
    # skewed distribution (hot districts get probed most).
    probes = generate_window_queries(regions, 5_000, 0.01, seed=12)

    # The probes' answers hold hundreds of millions of ids in all, so the
    # two strategies run chunk by chunk: every probe's audience size is
    # compared, and the first probe of each chunk compares full id sets.
    chunk = 100
    audiences = np.empty(len(probes), dtype=np.int64)
    t_queries = t_tiles = 0.0
    for lo in range(0, len(probes), chunk):
        part = probes[lo : lo + chunk]
        t0 = time.perf_counter()
        by_query = evaluate_queries_based(index, part)
        t_queries += time.perf_counter() - t0

        t0 = time.perf_counter()
        by_tile = evaluate_tiles_based(index, part)
        t_tiles += time.perf_counter() - t0

        # Identical answers, different memory access patterns.
        sizes = [len(r) for r in by_query]
        assert sizes == [len(r) for r in by_tile]
        assert set(by_query[0].tolist()) == set(by_tile[0].tolist())
        audiences[lo : lo + len(part)] = sizes
    print(
        f"\n{len(probes):,} POI probes -> median audience "
        f"{int(np.median(audiences))}, max {audiences.max()} users"
    )
    print(f"queries-based batch: {len(probes) / t_queries:>10,.0f} probes/sec")
    print(f"tiles-based batch:   {len(probes) / t_tiles:>10,.0f} probes/sec")

    # Scale out across worker processes (Section VI / Fig. 11); workers
    # return per-probe counts only, and one worker runs the same counting
    # shard inline.
    for workers in (1, 2, 4):
        t0 = time.perf_counter()
        counts = parallel_window_queries(index, probes, workers=workers, method="tiles")
        dt = time.perf_counter() - t0
        assert np.array_equal(counts, audiences)
        print(f"tiles-based, {workers} worker(s): {len(probes) / dt:>10,.0f} probes/sec")


if __name__ == "__main__":
    main()
