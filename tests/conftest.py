"""Shared fixtures: small deterministic datasets and query workloads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import (
    RectDataset,
    generate_uniform_rects,
    generate_zipf_rects,
)
from repro.geometry import Rect
from repro.grid import GridPartitioner


@pytest.fixture(scope="session")
def uniform_data() -> RectDataset:
    """3K uniform rectangles with heavy tile replication (area 1e-3)."""
    return generate_uniform_rects(3000, area=1e-3, seed=101)


@pytest.fixture(scope="session")
def zipf_data() -> RectDataset:
    """3K zipfian rectangles (skewed distribution stress)."""
    return generate_zipf_rects(3000, area=1e-4, seed=102)


@pytest.fixture(scope="session")
def tiny_data() -> RectDataset:
    """A 10-rectangle dataset laid out by hand for exact assertions."""
    rects = np.array(
        [
            # xl,   yl,   xu,   yu
            [0.05, 0.05, 0.10, 0.10],  # 0: inside one tile
            [0.20, 0.20, 0.55, 0.30],  # 1: spans tiles in x
            [0.20, 0.20, 0.30, 0.55],  # 2: spans tiles in y
            [0.20, 0.20, 0.55, 0.55],  # 3: spans tiles in both
            [0.00, 0.00, 1.00, 1.00],  # 4: covers everything
            [0.50, 0.50, 0.50, 0.50],  # 5: degenerate point
            [0.25, 0.00, 0.25, 1.00],  # 6: vertical line on tile border
            [0.74, 0.74, 0.76, 0.76],  # 7: crosses a tile corner
            [0.99, 0.99, 1.00, 1.00],  # 8: at the domain's far corner
            [0.00, 0.40, 0.10, 0.45],  # 9: left edge
        ]
    )
    return RectDataset(rects[:, 0], rects[:, 1], rects[:, 2], rects[:, 3])


def ids_set(arr) -> set[int]:
    """Result array -> set of ids (helper used across test modules)."""
    return set(int(v) for v in arr)


def insert_built(cls, data, partitions_per_dim, domain=None, **kwargs):
    """The per-tile reference index: grown by ``insert()`` alone.

    Never bulk-loaded and never compacted, so it has no packed base
    (``_store is None``): every row sits in the per-tile overlay tables
    and every verb answers through the per-tile scans, sharing no slab /
    fused kernel with a ``cls.build(...)`` index.  The parity tests
    compare the two for ids, ``QueryStats`` and EXPLAIN accounting.
    """
    grid = GridPartitioner(
        partitions_per_dim,
        partitions_per_dim,
        domain if domain is not None else Rect(0.0, 0.0, 1.0, 1.0),
    )
    index = cls(grid, **kwargs)
    for i in range(len(data)):
        index.insert(data.rect(i), i)
    assert index._store is None
    return index
