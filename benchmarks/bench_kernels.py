"""Slab-executor micro-benchmark: window and count latency vs tiles touched.

Measures the per-query wall time of 2-layer ``window_query`` and
``count_window`` as a function of *tiles touched* (window area sweep).
Both verbs run through the one slab executor
(:func:`repro.grid.kernels.window_slabs`) over the packed CSR base, so
the two columns should track each other, count slightly ahead (no id
materialisation).

The executor's tier is "is numba installed".  Without numba the record
holds the vectorised NumPy tier only (series ``packed_*``).  With the
``compiled`` extra the sweep runs twice — once with the jitted body
(``compiled_*``) and once with the NumPy body forced for comparison
(``packed_*``, same keys as a numba-free run) — and gates the jitted
tier at a mean >= 5x over the vectorised one (full scale only).
"""

from __future__ import annotations

import contextlib
import os

import pytest

from repro.bench import (
    BEST_GRANULARITY,
    print_table,
    throughput,
    tiger_dataset,
    window_workload,
)
from repro.core import TwoLayerGrid
from repro.grid import kernels
from repro.stats import QueryStats

from _shared import emit_bench_record
from conftest import report

_TIERS = ("packed",) + (("compiled",) if kernels.compiled_available() else ())
_MIN_COMPILED_SPEEDUP = 5.0
#: window area sweep (% of the domain) — larger windows touch more tiles.
_AREAS = (0.05, 0.1, 0.5, 1.0)
_DATASET = "ROADS"

_LATENCY: dict[tuple[str, str, str], float] = {}  # (tier, verb, area) -> µs
_TILES: dict[str, float] = {}  # area label -> mean tiles touched

_INDEXES: dict[str, TwoLayerGrid] = {}


def _index(tier: str) -> TwoLayerGrid:
    # One index per tier: each caches its tile row bounds in the form
    # the tier that first queried it reads fastest.
    if tier not in _INDEXES:
        _INDEXES[tier] = TwoLayerGrid.build(
            tiger_dataset(_DATASET), partitions_per_dim=BEST_GRANULARITY
        )
    return _INDEXES[tier]


@contextlib.contextmanager
def _tier(tier: str):
    """Run the NumPy body even where numba is installed (bench only)."""
    have = kernels._HAVE_NUMBA
    kernels._HAVE_NUMBA = have and tier == "compiled"
    try:
        yield
    finally:
        kernels._HAVE_NUMBA = have


def _label(area: float) -> str:
    return f"{area}pct"


@pytest.mark.parametrize("area", _AREAS)
@pytest.mark.parametrize("tier", _TIERS)
def test_kernels_window_latency(benchmark, tier, area):
    index = _index(tier)
    queries = window_workload(_DATASET, area)

    def run():
        for w in queries:
            index.window_query(w)

    with _tier(tier):
        benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
        for verb, fn in (
            ("window", index.window_query),
            ("count", index.count_window),
        ):
            timed = throughput(fn, queries, repeats=3)
            _LATENCY[(tier, verb, _label(area))] = 1e6 / timed.qps
        if tier == "packed":
            stats = QueryStats()
            for w in queries:
                index.window_query(w, stats)
            _TILES[_label(area)] = stats.partitions_visited / len(queries)


def test_kernels_report(benchmark):
    """Assemble the latency-vs-tiles table and register the record."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    have_compiled = "compiled" in _TIERS
    rows = []
    for area in _AREAS:
        label = _label(area)
        packed = _LATENCY[("packed", "window", label)]
        row = [label, _TILES[label], packed, _LATENCY[("packed", "count", label)]]
        if have_compiled:
            compiled = _LATENCY[("compiled", "window", label)]
            row += [
                compiled,
                _LATENCY[("compiled", "count", label)],
                packed / compiled,
            ]
        rows.append(row)
    headers = ["area", "tiles", "window µs", "count µs"]
    if have_compiled:
        headers += ["compiled window µs", "compiled count µs", "c-speedup"]
    report(
        lambda: print_table(
            "Slab executor — per-query latency [µs] vs tiles touched "
            f"(2-layer, {_DATASET}, window area sweep)",
            headers,
            rows,
        )
    )
    # One series per (tier, verb): the who-wins ordering inside each
    # series (bigger windows are slower) is scale-stable, so the
    # regression gate never trips on smoke-scale CI runs.  The compiled
    # series exist only where numba does — keeps numba-free baselines
    # comparable to numba-free runs.
    series = {"tiles_touched": dict(_TILES)}
    for tier in _TIERS:
        for verb, key in (("window", "latency_us"), ("count", "count_latency_us")):
            series[f"{tier}_{key}"] = {
                _label(a): _LATENCY[(tier, verb, _label(a))] for a in _AREAS
            }
    emit_bench_record(
        "kernels",
        {
            "dataset": _DATASET,
            "granularity": BEST_GRANULARITY,
            "window_area_pct": list(_AREAS),
            "tiers": list(_TIERS),
        },
        series,
    )
    # Shape assertion at full scale only: tiny smoke datasets leave too
    # little per-slab work for the jitted body to amortise reliably.
    scale = float(os.environ.get("REPRO_BENCH_SCALE") or 1.0)
    if scale >= 0.01 and have_compiled:
        mean_speedup = sum(
            _LATENCY[("packed", "window", _label(a))]
            / _LATENCY[("compiled", "window", _label(a))]
            for a in _AREAS
        ) / len(_AREAS)
        assert mean_speedup >= _MIN_COMPILED_SPEEDUP, (
            f"compiled tier {mean_speedup:.1f}x over vectorized, "
            f"gate is {_MIN_COMPILED_SPEEDUP:.0f}x"
        )
