"""Tests for convex range queries: one window over the range's MBR plus
an exact vectorised separating-axis predicate (Section IV-E extension)."""

import math

import numpy as np
import pytest

from repro.datasets import RectDataset, generate_uniform_rects, generate_zipf_rects
from repro.errors import InvalidQueryError
from repro.geometry import Polygon, Rect
from repro.core import (
    ConvexPolygonRange,
    HalfPlaneStripRange,
    TwoLayerGrid,
    convex_range_query,
)
from repro.stats import QueryStats

from conftest import ids_set


@pytest.fixture(scope="module")
def data():
    return generate_uniform_rects(3000, area=1e-4, seed=121)


@pytest.fixture(scope="module")
def index(data):
    return TwoLayerGrid.build(data, partitions_per_dim=16)


def brute(data, q) -> set[int]:
    mask = q.intersects_rects(data.xl, data.yl, data.xu, data.yu)
    return set(np.flatnonzero(mask).tolist())


def polygon_truth(data, vertices, ids=None) -> set[int]:
    """Per-object ``Polygon.intersects_rect`` scan (closed boundaries)."""
    poly = Polygon(vertices)
    ids = range(len(data)) if ids is None else ids
    return {i for i in ids if poly.intersects_rect(data.rect(i))}


def strip_truth(data, half_planes, clip) -> set[int]:
    """Per-object: is the object's MBR, cut by the clip box and every
    half-plane, non-empty?  (Clips the object, not the range.)"""
    out = set()
    for i in range(len(data)):
        part = data.rect(i).intersection(clip)
        if part is not None and (
            HalfPlaneStripRange(half_planes, clip=part).bounding_box() is not None
        ):
            out.add(i)
    return out


def assert_exact(got, truth):
    assert len(got) == len(ids_set(got)), "an id reported twice"
    assert ids_set(got) == truth


def regular_polygon(cx, cy, r, k, phase=0.0):
    return [
        (cx + r * math.cos(phase + 2 * math.pi * i / k),
         cy + r * math.sin(phase + 2 * math.pi * i / k))
        for i in range(k)
    ]


def lattice_data(n=2500, seed=7):
    """Rects with corners on the 1/64 lattice (tile corners of a 16x16
    grid lie on it), including points and segments: every touching case
    of a lattice polygon is computed exactly."""
    rng = np.random.default_rng(seed)
    x0 = rng.integers(0, 64, n)
    y0 = rng.integers(0, 64, n)
    w = rng.choice([0, 0, 1, 2, 5], n)
    h = rng.choice([0, 1, 1, 3, 8], n)
    return RectDataset(
        x0 / 64, y0 / 64, np.minimum(x0 + w, 64) / 64, np.minimum(y0 + h, 64) / 64
    )


LATTICE_POLYGONS = {
    # vertices on tile corners (multiples of 1/16)
    "diamond": [(0.5, 0.25), (0.75, 0.5), (0.5, 0.75), (0.25, 0.5)],
    "triangle": [(0.125, 0.125), (0.875, 0.3125), (0.375, 0.9375)],
    # collinear vertices: edge midpoints of a square, plus a repeated run
    "collinear_square": [
        (0.25, 0.25), (0.5, 0.25), (0.75, 0.25), (0.75, 0.5),
        (0.75, 0.75), (0.5, 0.75), (0.25, 0.75), (0.25, 0.5),
    ],
    "hexagon": [
        (0.25, 0.5), (0.375, 0.25), (0.625, 0.25),
        (0.75, 0.5), (0.625, 0.75), (0.375, 0.75),
    ],
    "partly_outside": [(-0.5, -0.25), (0.5, -0.5), (0.3125, 0.5)],
    "covers_domain": [(-1.0, -1.0), (2.0, -1.0), (2.0, 2.0), (-1.0, 2.0)],
    "wholly_outside": [(1.25, 1.25), (1.5, 1.25), (1.5, 1.5)],
    "sliver": [(0.0, 0.0), (1.0, 1.0), (0.984375, 1.0)],
}


class TestConvexPolygonRange:
    def test_rejects_concave(self):
        with pytest.raises(InvalidQueryError):
            ConvexPolygonRange([(0, 0), (1, 0), (0.2, 0.2), (0, 1)])

    def test_rejects_pentagram(self):
        # Every turn of a pentagram has the same sign, but it winds twice.
        pent = regular_polygon(0.5, 0.5, 0.3, 5)
        with pytest.raises(InvalidQueryError):
            ConvexPolygonRange([pent[i] for i in (0, 2, 4, 1, 3)])

    def test_accepts_triangle(self):
        q = ConvexPolygonRange([(0.1, 0.1), (0.9, 0.1), (0.5, 0.9)])
        assert q.bounding_box() == Rect(0.1, 0.1, 0.9, 0.9)

    def test_accepts_both_orientations_and_collinear_vertices(self):
        square = LATTICE_POLYGONS["collinear_square"]
        for verts in (square, square[::-1]):
            q = ConvexPolygonRange(verts)
            assert q.bounding_box() == Rect(0.25, 0.25, 0.75, 0.75)

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 8])
    def test_matches_brute_force(self, data, index, k):
        rng = np.random.default_rng(k)
        for _ in range(8):
            cx, cy = rng.uniform(0.25, 0.75, 2)
            verts = regular_polygon(cx, cy, rng.uniform(0.05, 0.3), k, rng.uniform(0, 6))
            got = convex_range_query(index, data, ConvexPolygonRange(verts))
            assert_exact(got, polygon_truth(data, verts))

    def test_predicate_equals_polygon_intersects_rect(self, data):
        verts = regular_polygon(0.45, 0.55, 0.3, 7, phase=0.3)
        mask = ConvexPolygonRange(verts).intersects_rects(
            data.xl, data.yl, data.xu, data.yu
        )
        assert set(np.flatnonzero(mask).tolist()) == polygon_truth(data, verts)

    @pytest.mark.parametrize("name", sorted(LATTICE_POLYGONS))
    def test_touching_and_degenerate_cases(self, name):
        # Lattice rects touch lattice polygons on edges and corners, the
        # polygons put vertices on tile corners, and a fifth of the MBRs
        # have zero area.
        data = lattice_data()
        index = TwoLayerGrid.build(data, partitions_per_dim=16)
        verts = LATTICE_POLYGONS[name]
        got = convex_range_query(index, data, ConvexPolygonRange(verts))
        assert_exact(got, polygon_truth(data, verts))

    def test_touching_edge_corner_and_vertex(self):
        diamond = ConvexPolygonRange(LATTICE_POLYGONS["diamond"])
        rects = [
            (0.625, 0.25, 0.7, 0.375),   # corner on the edge x - y = 0.25
            (0.75, 0.5, 0.8, 0.6),       # corner on the vertex (0.75, 0.5)
            (0.75, 0.4, 0.8, 0.6),       # left side through that vertex
            (0.4, 0.75, 0.6, 0.8),       # bottom side through (0.5, 0.75)
            (0.5, 0.5, 0.5, 0.5),        # a point inside
            (0.625, 0.375, 0.625, 0.375),  # a point on an edge
            (0.630, 0.25, 0.7, 0.375),   # just right of the edge
            (0.76, 0.5, 0.8, 0.6),       # just right of the vertex
        ]
        xl, yl, xu, yu = (np.array(c) for c in zip(*rects))
        got = diamond.intersects_rects(xl, yl, xu, yu)
        assert got.tolist() == [True] * 6 + [False] * 2
        poly = Polygon(LATTICE_POLYGONS["diamond"])
        assert got.tolist() == [poly.intersects_rect(Rect(*r)) for r in rects]

    def test_overlay_inserts_and_deletes(self):
        data = lattice_data(seed=8)
        n0 = 1800
        index = TwoLayerGrid.build(data.slice(0, n0), partitions_per_dim=16)
        for i in range(n0, len(data)):
            index.insert(data.rect(i), i)
        rng = np.random.default_rng(9)
        dead = set(rng.choice(len(data), 300, replace=False).tolist())
        for i in dead:
            assert index.delete(data.rect(i), i)
        live = [i for i in range(len(data)) if i not in dead]
        for name in ("diamond", "hexagon", "partly_outside", "sliver"):
            verts = LATTICE_POLYGONS[name]
            got = convex_range_query(index, data, ConvexPolygonRange(verts))
            assert_exact(got, polygon_truth(data, verts, live))

    def test_zipf_data(self):
        data = generate_zipf_rects(2000, area=1e-4, seed=122)
        index = TwoLayerGrid.build(data, partitions_per_dim=16)
        verts = regular_polygon(0.15, 0.15, 0.12, 6)
        got = convex_range_query(index, data, ConvexPolygonRange(verts))
        assert_exact(got, polygon_truth(data, verts))

    def test_rectangle_as_polygon_equals_window_query(self, data, index):
        w = Rect(0.3, 0.3, 0.6, 0.55)
        q = ConvexPolygonRange([(w.xl, w.yl), (w.xu, w.yl), (w.xu, w.yu), (w.xl, w.yu)])
        got = convex_range_query(index, data, q)
        assert ids_set(got) == ids_set(index.window_query(w))

    def test_big_objects_boundary_dedup(self):
        # Large objects span many tiles: each must still come back once.
        data = generate_uniform_rects(600, area=5e-2, seed=123)
        index = TwoLayerGrid.build(data, partitions_per_dim=12)
        verts = regular_polygon(0.5, 0.5, 0.35, 5, phase=0.7)
        got = convex_range_query(index, data, ConvexPolygonRange(verts))
        assert_exact(got, polygon_truth(data, verts))

    def test_scans_fewer_rects_than_full_grid(self, data, index):
        q = ConvexPolygonRange(regular_polygon(0.5, 0.5, 0.2, 6))
        stats = QueryStats()
        convex_range_query(index, data, q, stats)
        assert 0 < stats.rects_scanned < index.replica_count


class TestHalfPlaneStripRange:
    def test_needs_half_planes(self):
        with pytest.raises(InvalidQueryError):
            HalfPlaneStripRange([])

    def test_single_half_plane(self, data, index):
        # Everything left of x = 0.4: half-plane 1*x + 0*y <= 0.4.
        q = HalfPlaneStripRange([(1.0, 0.0, 0.4)])
        got = convex_range_query(index, data, q)
        assert_exact(got, brute(data, q))
        assert ids_set(got) == ids_set(
            data.brute_force_window(Rect(0.0, 0.0, 0.4, 1.0))
        )

    def test_diagonal_strip(self, data, index):
        # A diagonal band: x + y <= 1.2 and -(x + y) <= -0.8.
        hp = [(1.0, 1.0, 1.2), (-1.0, -1.0, -0.8)]
        got = convex_range_query(index, data, HalfPlaneStripRange(hp))
        assert_exact(got, strip_truth(data, hp, Rect(0.0, 0.0, 1.0, 1.0)))

    def test_random_strips_match_brute_force(self, data, index):
        rng = np.random.default_rng(124)
        for _ in range(15):
            hp = []
            for _ in range(int(rng.integers(1, 4))):
                a, b = rng.normal(size=2)
                x0, y0 = rng.uniform(0.2, 0.8, 2)
                hp.append((a, b, a * x0 + b * y0))
            q = HalfPlaneStripRange(hp)
            got = convex_range_query(index, data, q)
            assert_exact(got, brute(data, q))
        # one strip checked object by object
        assert ids_set(got) == strip_truth(data, hp, q.clip)

    def test_each_half_plane_alone_is_not_enough(self):
        # y <= x and x + y >= 1 leave only x >= 0.5: an MBR left of that
        # line meets each half-plane on its own, but not their intersection.
        data = RectDataset.from_rects([Rect(0.40, 0.45, 0.49, 0.56)])
        index = TwoLayerGrid.build(data, partitions_per_dim=16)
        q = HalfPlaneStripRange([(-1, 1, 0), (-1, -1, -1)])
        assert convex_range_query(index, data, q).shape[0] == 0

    def test_clip_box_and_touching_strips(self):
        data = lattice_data(seed=10)
        index = TwoLayerGrid.build(data, partitions_per_dim=16)
        clip = Rect(0.125, 0.25, 0.875, 0.75)
        for hp in (
            [(1.0, 1.0, 1.0)],                     # through tile corners
            [(1.0, -1.0, 0.0), (-1.0, 0.0, -0.5)],  # a wedge
            [(1.0, 0.0, 0.125)],                   # only the clip's left side
            [(0.0, 1.0, 0.0)],                     # outside the clip box
        ):
            got = convex_range_query(index, data, HalfPlaneStripRange(hp, clip=clip))
            assert_exact(got, strip_truth(data, hp, clip))

    def test_empty_region(self, data, index):
        q = HalfPlaneStripRange([(1.0, 0.0, -5.0)])  # x <= -5: nothing
        assert q.bounding_box() is None
        assert convex_range_query(index, data, q).shape[0] == 0

    def test_whole_domain(self, data, index):
        q = HalfPlaneStripRange([(1.0, 0.0, 10.0)])
        assert ids_set(convex_range_query(index, data, q)) == set(range(len(data)))
