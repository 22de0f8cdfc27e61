"""Tests for the future-work extensions: spatial joins and kNN queries."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import (
    RectDataset,
    generate_uniform_rects,
    generate_zipf_rects,
)
from repro.errors import InvalidGridError, InvalidQueryError
from repro.geometry import Rect
from repro.grid import CLASS_B, CLASS_C, CLASS_D
from repro.core import (
    ALLOWED_CLASS_COMBOS,
    TwoLayerGrid,
    brute_force_join,
    knn_query,
    one_layer_spatial_join,
    two_layer_spatial_join,
)
from repro.stats import QueryStats


def pair_set(pairs: np.ndarray) -> set[tuple[int, int]]:
    return set(map(tuple, pairs.tolist()))


@pytest.fixture(scope="module")
def join_inputs():
    r = generate_uniform_rects(600, area=1e-3, seed=91)
    s = generate_zipf_rects(500, area=1e-3, seed=92)
    return r, s


class TestAllowedCombos:
    def test_nine_combos(self):
        assert len(ALLOWED_CLASS_COMBOS) == 9

    def test_no_both_before_in_any_dim(self):
        # Per dimension, at least one side of the pair starts inside.
        before_x = {CLASS_C, CLASS_D}
        before_y = {CLASS_B, CLASS_D}
        for cr, cs in ALLOWED_CLASS_COMBOS:
            assert not (cr in before_x and cs in before_x)
            assert not (cr in before_y and cs in before_y)

    def test_every_legal_combo_included(self):
        before_x = {CLASS_C, CLASS_D}
        before_y = {CLASS_B, CLASS_D}
        legal = {
            (cr, cs)
            for cr in range(4)
            for cs in range(4)
            if not (cr in before_x and cs in before_x)
            and not (cr in before_y and cs in before_y)
        }
        assert set(ALLOWED_CLASS_COMBOS) == legal


class TestSpatialJoin:
    @pytest.mark.parametrize("grid", [1, 3, 8, 17])
    def test_two_layer_matches_brute_force(self, join_inputs, grid):
        r, s = join_inputs
        got = two_layer_spatial_join(r, s, partitions_per_dim=grid)
        assert got.shape[0] == len(pair_set(got)), "duplicate pairs"
        assert pair_set(got) == pair_set(brute_force_join(r, s))

    @pytest.mark.parametrize("grid", [1, 3, 8, 17])
    def test_one_layer_matches_brute_force(self, join_inputs, grid):
        r, s = join_inputs
        got = one_layer_spatial_join(r, s, partitions_per_dim=grid)
        assert got.shape[0] == len(pair_set(got))
        assert pair_set(got) == pair_set(brute_force_join(r, s))

    @pytest.mark.parametrize("grid", [1, 8])
    def test_two_layer_chunked_expansion(self, join_inputs, grid, monkeypatch):
        # Tiny chunks: runs split across many expansion batches, some
        # batches empty, one run longer than a chunk.
        import repro.core.join as join_mod

        monkeypatch.setattr(join_mod, "_CHUNK_PAIRS", 7)
        r, s = join_inputs
        got = two_layer_spatial_join(r, s, partitions_per_dim=grid)
        assert got.shape[0] == len(pair_set(got))
        assert pair_set(got) == pair_set(brute_force_join(r, s))

    def test_join_is_not_symmetric_in_ids_but_in_content(self, join_inputs):
        r, s = join_inputs
        rs = pair_set(two_layer_spatial_join(r, s, 8))
        sr = pair_set(two_layer_spatial_join(s, r, 8))
        assert rs == {(b, a) for a, b in sr}

    def test_self_join(self):
        data = generate_uniform_rects(300, area=1e-3, seed=93)
        got = two_layer_spatial_join(data, data, 8)
        truth = pair_set(brute_force_join(data, data))
        assert pair_set(got) == truth
        # Self-join includes the diagonal.
        assert all((i, i) in truth for i in range(300))

    def test_empty_inputs(self):
        empty = RectDataset(np.empty(0), np.empty(0), np.empty(0), np.empty(0))
        data = generate_uniform_rects(10, seed=0)
        assert two_layer_spatial_join(empty, data, 4).shape == (0, 2)
        assert two_layer_spatial_join(data, empty, 4).shape == (0, 2)

    def test_disjoint_inputs(self):
        left = RectDataset.from_rects([Rect(0.0, 0.0, 0.1, 0.1)])
        right = RectDataset.from_rects([Rect(0.8, 0.8, 0.9, 0.9)])
        assert two_layer_spatial_join(left, right, 4).shape[0] == 0

    def test_boundary_pair_on_tile_edge(self):
        # Pair whose intersection corner lies exactly on a tile border.
        r = RectDataset.from_rects([Rect(0.1, 0.1, 0.25, 0.25)])
        s = RectDataset.from_rects([Rect(0.25, 0.1, 0.4, 0.25)])
        got = two_layer_spatial_join(r, s, 4)
        assert pair_set(got) == {(0, 0)}

    def test_two_layer_no_dedup_work(self, join_inputs):
        r, s = join_inputs
        stats = QueryStats()
        two_layer_spatial_join(r, s, 8, stats=stats)
        assert stats.dedup_checks == 0 and stats.duplicates_generated == 0

    def test_one_layer_generates_duplicates(self, join_inputs):
        r, s = join_inputs
        stats = QueryStats()
        one_layer_spatial_join(r, s, 8, stats=stats)
        assert stats.duplicates_generated > 0

    def test_rejects_bad_grid(self, join_inputs):
        r, s = join_inputs
        with pytest.raises(InvalidGridError):
            two_layer_spatial_join(r, s, 0)
        with pytest.raises(InvalidGridError):
            one_layer_spatial_join(r, s, 0)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        grid=st.integers(1, 12),
        n=st.integers(1, 60),
    )
    def test_property_join_equals_brute_force(self, seed, grid, n):
        r = generate_uniform_rects(n, area=1e-2, seed=seed)
        s = generate_uniform_rects(max(1, n // 2), area=1e-2, seed=seed + 1)
        got = two_layer_spatial_join(r, s, partitions_per_dim=grid)
        assert got.shape[0] == len(pair_set(got))
        assert pair_set(got) == pair_set(brute_force_join(r, s))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), grid=st.integers(1, 12), self_join=st.booleans())
    def test_property_lattice_joins_equal_brute_force(self, data, grid, self_join):
        # Coordinates on half-tile multiples put edges exactly on tile
        # borders and ties between r.xu and s.xl; the range reaches a
        # tile beyond the domain on both sides, and equal draws give
        # zero-width or zero-height MBRs.
        coord = st.integers(-2, 2 * grid + 2).map(lambda k: k / (2 * grid))

        def rects(n):
            out = []
            for _ in range(n):
                xl, xu = sorted(data.draw(st.tuples(coord, coord)))
                yl, yu = sorted(data.draw(st.tuples(coord, coord)))
                out.append(Rect(xl, yl, xu, yu))
            return RectDataset.from_rects(out)

        r = rects(data.draw(st.integers(1, 25)))
        s = r if self_join else rects(data.draw(st.integers(1, 25)))
        truth = pair_set(brute_force_join(r, s))
        for join in (two_layer_spatial_join, one_layer_spatial_join):
            got = join(r, s, partitions_per_dim=grid)
            assert got.shape[0] == len(pair_set(got)), join.__name__
            assert pair_set(got) == truth, join.__name__


class TestRefinedJoin:
    def test_refinement_filters_mbr_only_pairs(self):
        from repro.geometry import LineString
        from repro.core import refine_join_pairs

        # Two diagonals whose MBRs coincide but geometries are parallel
        # (never touch), plus a crossing pair.
        a = RectDataset.from_geometries(
            [
                LineString([(0.0, 0.0), (0.4, 0.4)]),      # 0: diagonal
                LineString([(0.6, 0.6), (1.0, 1.0)]),      # 1: far diagonal
            ]
        )
        b = RectDataset.from_geometries(
            [
                LineString([(0.0, 0.05), (0.35, 0.4)]),    # 0: near-parallel to a0
                LineString([(0.0, 0.4), (0.4, 0.0)]),      # 1: crosses a0
            ]
        )
        mbr_pairs = two_layer_spatial_join(a, b, partitions_per_dim=4)
        exact = refine_join_pairs(a, b, mbr_pairs)
        assert (0, 1) in pair_set(exact)          # true crossing survives
        assert (1, 0) not in pair_set(exact)      # disjoint stays out
        assert exact.shape[0] < mbr_pairs.shape[0]  # something was filtered

    def test_refinement_matches_exact_brute_force(self):
        from repro.datasets import generate_tiger_standin
        from repro.geometry import geometry_intersects_geometry
        from repro.core import refine_join_pairs

        # Inflate the extents so MBRs really overlap across datasets.
        a = generate_tiger_standin("ROADS", scale=2e-5, with_geometries=True, seed=201)
        b = generate_tiger_standin("ROADS", scale=2e-5, with_geometries=True, seed=202)
        # Re-scale b onto a's hot region to force overlaps.
        import numpy as np

        b = RectDataset(
            a.xl + (b.xl - b.xl.mean()) * 0.1,
            a.yl + (b.yl - b.yl.mean()) * 0.1,
            a.xl + (b.xu - b.xl.mean()) * 0.1,
            a.yl + (b.yu - b.yl.mean()) * 0.1,
        )
        mbr_pairs = two_layer_spatial_join(a, b, partitions_per_dim=16)
        exact = refine_join_pairs(a, b, mbr_pairs)
        truth = {
            (i, j)
            for i, j in brute_force_join(a, b).tolist()
            if geometry_intersects_geometry(a.geometry(i), b.geometry(j))
        }
        assert pair_set(exact) == truth

    def test_mbr_only_datasets_pass_through(self, join_inputs):
        from repro.core import refine_join_pairs

        r, s = join_inputs
        pairs = two_layer_spatial_join(r, s, partitions_per_dim=8)
        assert refine_join_pairs(r, s, pairs) is pairs

    def test_empty_pairs(self):
        from repro.core import refine_join_pairs
        from repro.geometry import LineString

        a = RectDataset.from_geometries([LineString([(0, 0), (0.1, 0.1)])])
        out = refine_join_pairs(a, a, np.empty((0, 2), dtype=np.int64))
        assert out.shape == (0, 2)


class TestKnn:
    @pytest.fixture(scope="class")
    def setup(self):
        data = generate_uniform_rects(4000, area=1e-6, seed=94)
        index = TwoLayerGrid.build(data, partitions_per_dim=32)
        return data, index

    def _truth(self, data, cx, cy, k):
        dx = np.maximum(np.maximum(data.xl - cx, 0.0), cx - data.xu)
        dy = np.maximum(np.maximum(data.yl - cy, 0.0), cy - data.yu)
        d = np.hypot(dx, dy)
        return np.lexsort((np.arange(len(data)), d))[:k]

    @pytest.mark.parametrize("k", [1, 2, 10, 50])
    def test_matches_brute_force(self, setup, k):
        data, index = setup
        rng = np.random.default_rng(95)
        for _ in range(15):
            cx, cy = rng.random(2)
            got = knn_query(index, data, cx, cy, k)
            assert got.tolist() == self._truth(data, cx, cy, k).tolist()

    def test_k_exceeding_n_returns_all(self, setup):
        data, index = setup
        got = knn_query(index, data, 0.5, 0.5, len(data) + 10)
        assert got.shape[0] == len(data)

    def test_query_point_outside_domain(self, setup):
        data, index = setup
        got = knn_query(index, data, 1.5, -0.5, 7)
        assert got.tolist() == self._truth(data, 1.5, -0.5, 7).tolist()

    @pytest.mark.parametrize(
        "cx, cy", [(1.5, 0.5), (3.0, 0.5), (10.0, 10.0), (-5.0, -5.0), (1e6, 0.5)]
    )
    def test_query_point_far_outside_domain(self, setup, cx, cy):
        # the search radius must be able to reach the domain from afar
        data, index = setup
        got = knn_query(index, data, cx, cy, 5)
        assert got.tolist() == self._truth(data, cx, cy, 5).tolist()

    def test_fewer_live_objects_than_k(self):
        data = generate_uniform_rects(50, area=1e-4, seed=98)
        index = TwoLayerGrid.build(data, partitions_per_dim=4)
        for victim in (3, 17, 40):
            index.delete(data.rect(victim), victim)
        got = knn_query(index, data, 0.5, 0.5, 49)
        assert sorted(got.tolist()) == sorted(set(range(50)) - {3, 17, 40})

    def test_query_point_inside_an_object(self, setup):
        data, index = setup
        # Use an existing object's centre: distance 0 ties exist.
        cx = float((data.xl[42] + data.xu[42]) / 2)
        cy = float((data.yl[42] + data.yu[42]) / 2)
        got = knn_query(index, data, cx, cy, 3)
        assert 42 in got.tolist()

    def test_rejects_bad_k(self, setup):
        data, index = setup
        with pytest.raises(InvalidQueryError):
            knn_query(index, data, 0.5, 0.5, 0)

    def test_rejects_mismatched_data(self, setup):
        data, index = setup
        with pytest.raises(InvalidQueryError):
            knn_query(index, data.slice(0, 5), 0.5, 0.5, 1)

    def test_zipf_data(self):
        data = generate_zipf_rects(3000, area=1e-6, seed=96)
        index = TwoLayerGrid.build(data, partitions_per_dim=32)
        rng = np.random.default_rng(97)
        for _ in range(10):
            cx, cy = rng.random(2)
            got = knn_query(index, data, cx, cy, 9)
            assert got.tolist() == self._truth(data, cx, cy, 9).tolist()
