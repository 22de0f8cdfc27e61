"""Tests for the refinement engine (Section V) against exact geometries."""

import pytest

from repro.datasets import (
    generate_disk_queries,
    generate_tiger_standin,
    generate_window_queries,
)
from repro.errors import InvalidQueryError
from repro.geometry import (
    geometry_intersects_disk,
    geometry_intersects_window,
)
from repro.core import RefinementBreakdown, RefinementEngine, TwoLayerGrid
from repro.core.selection import plan_tile
from repro.geometry import Rect
from repro.grid.base import CLASS_A, CLASS_B, CLASS_C
from repro.stats import QueryStats

from conftest import ids_set


@pytest.fixture(scope="module")
def roads():
    return generate_tiger_standin("ROADS", scale=2.5e-4, with_geometries=True, seed=31)


@pytest.fixture(scope="module")
def engine(roads):
    index = TwoLayerGrid.build(roads, partitions_per_dim=32)
    return RefinementEngine(index, roads)


def exact_window_truth(data, window) -> set[int]:
    return {
        i
        for i in range(len(data))
        if geometry_intersects_window(data.geometries[i], window)
    }


def exact_disk_truth(data, q) -> set[int]:
    return {
        i
        for i in range(len(data))
        if geometry_intersects_disk(data.geometries[i], q.cx, q.cy, q.radius)
    }


class TestWindowRefinement:
    @pytest.mark.parametrize("mode", ["simple", "refavoid", "refavoid_plus"])
    def test_all_modes_agree_with_exact_truth(self, roads, engine, mode):
        for w in generate_window_queries(roads, 12, 0.1, seed=32):
            got = engine.window(w, mode)
            assert len(got) == len(ids_set(got))
            assert ids_set(got) == exact_window_truth(roads, w)

    def test_modes_agree_with_each_other(self, roads, engine):
        for w in generate_window_queries(roads, 8, 0.5, seed=33):
            results = {
                mode: ids_set(engine.window(w, mode))
                for mode in ("simple", "refavoid", "refavoid_plus")
            }
            assert results["simple"] == results["refavoid"] == results["refavoid_plus"]

    def test_unknown_mode_rejected(self, engine, roads):
        (w,) = generate_window_queries(roads, 1, 0.1, seed=34)
        with pytest.raises(InvalidQueryError):
            engine.window(w, "extreme")

    def test_mismatched_index_rejected(self, roads):
        short_index = TwoLayerGrid.build(roads.slice(0, 10), partitions_per_dim=4)
        with pytest.raises(InvalidQueryError):
            RefinementEngine(short_index, roads)


class TestRefinementAvoidance:
    def test_over_90_percent_avoided(self, roads, engine):
        # The Fig. 6 claim: RefAvoid certifies > 90% of candidates.
        breakdown = RefinementBreakdown()
        for w in generate_window_queries(roads, 15, 0.1, seed=35):
            engine.window(w, "refavoid", breakdown=breakdown)
        assert breakdown.avoided_fraction > 0.9

    def test_simple_avoids_nothing(self, roads, engine):
        breakdown = RefinementBreakdown()
        for w in generate_window_queries(roads, 5, 0.1, seed=36):
            engine.window(w, "simple", breakdown=breakdown)
        assert breakdown.refinements_avoided == 0
        assert breakdown.refinement_tests == breakdown.candidates

    def test_refavoid_plus_uses_fewer_comparisons(self, roads, engine):
        s_plain, s_plus = QueryStats(), QueryStats()
        for w in generate_window_queries(roads, 10, 0.1, seed=37):
            engine.window(w, "refavoid", stats=s_plain)
            engine.window(w, "refavoid_plus", stats=s_plus)
        assert (
            s_plus.secondary_filter_comparisons < s_plain.secondary_filter_comparisons
        )

    def test_breakdown_accounting_consistent(self, roads, engine):
        breakdown = RefinementBreakdown()
        for w in generate_window_queries(roads, 5, 0.1, seed=38):
            engine.window(w, "refavoid_plus", breakdown=breakdown)
        assert breakdown.queries == 5
        assert (
            breakdown.refinements_avoided + breakdown.refinement_tests
            == breakdown.candidates
        )
        assert breakdown.total_time >= breakdown.refinement_time

    def test_breakdown_merge(self):
        a = RefinementBreakdown(filtering_time=1.0, candidates=10, queries=1)
        b = RefinementBreakdown(filtering_time=2.0, candidates=5, queries=2)
        a.merge(b)
        assert a.filtering_time == 3.0 and a.candidates == 15 and a.queries == 3


class TestDiskRefinement:
    @pytest.mark.parametrize("mode", ["simple", "refavoid"])
    def test_agrees_with_exact_truth(self, roads, engine, mode):
        for q in generate_disk_queries(roads, 10, 0.1, seed=39):
            got = engine.disk(q, mode)
            assert len(got) == len(ids_set(got))
            assert ids_set(got) == exact_disk_truth(roads, q)

    def test_refavoid_plus_not_applicable(self, roads, engine):
        (q,) = generate_disk_queries(roads, 1, 0.1, seed=40)
        with pytest.raises(InvalidQueryError):
            engine.disk(q, "refavoid_plus")

    def test_disk_avoidance_fraction(self, roads, engine):
        breakdown = RefinementBreakdown()
        for q in generate_disk_queries(roads, 10, 0.1, seed=41):
            engine.disk(q, "refavoid", breakdown=breakdown)
        assert breakdown.avoided_fraction > 0.8


class TestMbrOnlyDatasets:
    def test_refinement_degenerates_gracefully(self, uniform_data):
        # Without exact geometries every candidate is its own MBR; all
        # modes must equal the MBR-level brute force.
        index = TwoLayerGrid.build(uniform_data, partitions_per_dim=16)
        engine = RefinementEngine(index, uniform_data)
        for w in generate_window_queries(uniform_data, 8, 1.0, seed=42):
            truth = ids_set(uniform_data.brute_force_window(w))
            for mode in ("simple", "refavoid", "refavoid_plus"):
                assert ids_set(engine.window(w, mode)) == truth


def per_tile_classification(index, window):
    """Brute-force RefAvoid accounting, one candidate at a time.

    Walks every tile of the window's range and every class its plan
    scans (Lemmas 1-2), so each candidate is met once, in the tile and
    class it is reported from.  Returns ``(candidates, covered,
    refavoid_plus_comparisons)`` for the Lemma 5 filter of Section V.
    """
    ix0, ix1, iy0, iy1 = index.grid.tile_range_for_window(window)
    candidates = covered = plus = 0
    for iy in range(iy0, iy1 + 1):
        for ix in range(ix0, ix1 + 1):
            for cp in plan_tile(ix, iy, ix0, ix1, iy0, iy1).classes:
                table = index.tile_class_table(ix, iy, cp.code)
                if table is None:
                    continue
                for xl, yl, xu, yu, _ in zip(*table.columns()):
                    r = Rect(float(xl), float(yl), float(xu), float(yu))
                    if not r.intersects(window):
                        continue
                    candidates += 1
                    covered += window.covers_in_dim(r, "x") or window.covers_in_dim(
                        r, "y"
                    )
                    # a class starting before the tile in a dimension is
                    # never covered there: no comparison; else two at the
                    # window's first tile and one beyond it
                    if cp.code in (CLASS_A, CLASS_B):
                        plus += 2 if ix == ix0 else 1
                    if cp.code in (CLASS_A, CLASS_C):
                        plus += 2 if iy == iy0 else 1
    return candidates, covered, plus


def boundary_windows(index):
    """Windows on tile boundaries, at the domain edges and over it all."""
    g = index.grid
    d = g.domain
    a, b = g.tile_rect(4, 5), g.tile_rect(9, 11)
    return [
        Rect(a.xl, a.yl, b.xl, b.yl),  # every side on a tile boundary
        Rect(a.xl, a.yl, a.xu, a.yu),  # exactly one tile
        Rect(d.xl, d.yl, d.xl + 0.08, d.yu),  # left domain edge, full height
        Rect(d.xu - 0.05, d.yu - 0.3, d.xu, d.yu),  # top-right corner
        Rect(d.xl - 0.5, d.yl - 0.5, b.xu, a.yu),  # reaching past the domain
        d,  # the whole domain
    ]


class TestRefinementCounters:
    @pytest.mark.parametrize("mode", ["simple", "refavoid", "refavoid_plus"])
    def test_counters_equal_per_candidate_classification(self, roads, engine, mode):
        windows = boundary_windows(engine.index)
        windows += list(generate_window_queries(roads, 6, 0.5, seed=43))
        for w in windows:
            breakdown, stats = RefinementBreakdown(), QueryStats()
            got = engine.window(w, mode, breakdown=breakdown, stats=stats)
            n, covered, plus = per_tile_classification(engine.index, w)
            assert n == len(roads.brute_force_window(w))
            avoided = 0 if mode == "simple" else covered
            comparisons = {"simple": 0, "refavoid": 4 * n, "refavoid_plus": plus}
            assert breakdown.candidates == n, w
            assert breakdown.refinements_avoided == avoided, w
            assert breakdown.refinement_tests == n - avoided, w
            assert breakdown.results == len(got)
            assert stats.refinements_avoided == avoided, w
            assert stats.refinement_tests == n - avoided, w
            assert stats.secondary_filter_comparisons == comparisons[mode], w
