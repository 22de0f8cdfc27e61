"""Property-based tests (hypothesis) for the core invariants.

The central invariant of the whole paper: **every index answers every
range query with exactly the brute-force result set and no duplicates**,
for arbitrary rectangle collections and arbitrary query ranges —
including adversarial ones lying exactly on partition boundaries, which
hypothesis is good at finding.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.block import BlockIndex
from repro.datasets import DiskQuery, RectDataset
from repro.geometry import Rect, reference_point
from repro.grid import GridPartitioner, OneLayerGrid, replicate
from repro.core import NDimTwoLayerGrid, TwoLayerGrid, TwoLayerPlusGrid
from repro.quadtree import MXCIFQuadTree, QuadTree, TwoLayerQuadTree
from repro.rtree import RStarTree, RTree
from repro.stats import QueryStats

# Coordinates snapped to a coarse lattice maximise boundary collisions
# with tile borders (1/8, 1/4, ...), the adversarial case for SOP.
coord = st.integers(0, 32).map(lambda v: v / 32.0)


@st.composite
def rect_strategy(draw):
    x1, x2 = draw(coord), draw(coord)
    y1, y2 = draw(coord), draw(coord)
    return Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))


@st.composite
def dataset_strategy(draw):
    rects = draw(st.lists(rect_strategy(), min_size=1, max_size=40))
    return RectDataset.from_rects(rects)


window = rect_strategy()


def check_index(index, data: RectDataset, w: Rect) -> None:
    got = index.window_query(w)
    assert len(got) == len(set(got.tolist())), f"{type(index).__name__} duplicates"
    assert set(got.tolist()) == set(data.brute_force_window(w).tolist()), (
        type(index).__name__
    )


@settings(max_examples=120, deadline=None)
@given(data=dataset_strategy(), w=window, grid=st.integers(1, 9))
def test_grid_indexes_equal_brute_force(data, w, grid):
    for cls in (OneLayerGrid, TwoLayerGrid, TwoLayerPlusGrid):
        check_index(cls.build(data, partitions_per_dim=grid), data, w)


#: index states the one window executor must serve identically.
INDEX_STATES = ("pristine", "tombstoned", "overlay", "churned", "empty_base", "no_base")


@settings(max_examples=200, deadline=None)
@given(
    data=dataset_strategy(),
    extra=st.lists(rect_strategy(), min_size=1, max_size=12),
    kills=st.sets(st.integers(0, 39), min_size=1, max_size=12),
    w=window,
    grid=st.integers(1, 9),
    state=st.sampled_from(INDEX_STATES),
    cls=st.sampled_from((TwoLayerGrid, TwoLayerPlusGrid)),
)
def test_count_window_equals_window_query_length(
    data, extra, kills, w, grid, state, cls
):
    """count and ids come from one executor in every index state, with
    or without stats — lattice coordinates keep windows tile-aligned."""
    live = {i: data.rect(i) for i in range(len(data))}
    if state in ("empty_base", "no_base"):
        index = cls(GridPartitioner(grid, grid))
        if state == "empty_base":
            index.compact()  # a base with zero rows; everything is overlay
            assert index._store is not None
        for i, r in live.items():
            index.insert(r, i)
    else:
        index = cls.build(data, partitions_per_dim=grid)
    if state in ("overlay", "churned"):
        for r in extra:
            live[index.insert(r)] = r
    if state in ("tombstoned", "churned"):
        for i in sorted(kills):
            if i in live:
                assert index.delete(live.pop(i), i)
    expected = {
        i
        for i, r in live.items()
        if r.xl <= w.xu and r.xu >= w.xl and r.yl <= w.yu and r.yu >= w.yl
    }
    got = index.window_query(w)
    assert len(got) == len(set(got.tolist())), "duplicates"
    assert set(got.tolist()) == expected
    assert index.count_window(w) == len(got)
    with_stats = index.window_query(w, QueryStats())
    assert sorted(with_stats.tolist()) == sorted(got.tolist())


@settings(max_examples=60, deadline=None)
@given(data=dataset_strategy(), w=window)
def test_tree_indexes_equal_brute_force(data, w):
    check_index(QuadTree.build(data, capacity=8, max_depth=4), data, w)
    check_index(TwoLayerQuadTree.build(data, capacity=8, max_depth=4), data, w)
    check_index(MXCIFQuadTree.build(data, max_depth=4), data, w)
    check_index(RTree.build(data, fanout=4), data, w)
    check_index(RStarTree.build(data, fanout=4), data, w)
    check_index(BlockIndex.build(data, levels=4), data, w)


@settings(max_examples=80, deadline=None)
@given(
    data=dataset_strategy(),
    cx=coord,
    cy=coord,
    radius=st.integers(0, 16).map(lambda v: v / 16.0),
    grid=st.integers(1, 9),
)
def test_two_layer_disk_equals_brute_force(data, cx, cy, radius, grid):
    index = TwoLayerGrid.build(data, partitions_per_dim=grid)
    q = DiskQuery(cx, cy, radius)
    got = index.disk_query(q)
    assert len(got) == len(set(got.tolist())), "disk duplicates"
    assert set(got.tolist()) == set(data.brute_force_disk(cx, cy, radius).tolist())


@settings(max_examples=80, deadline=None)
@given(data=dataset_strategy(), grid=st.integers(1, 9))
def test_replication_class_a_unique(data, grid):
    """Every object has exactly one class-A replica (Section III)."""
    rep = replicate(data, GridPartitioner(grid, grid))
    a_objs = rep.obj_ids[rep.class_codes == 0]
    assert sorted(a_objs.tolist()) == list(range(len(data)))


@settings(max_examples=80, deadline=None)
@given(data=dataset_strategy(), grid=st.integers(1, 9))
def test_replication_covers_intersections(data, grid):
    """An object is replicated to a tile iff its MBR intersects it."""
    g = GridPartitioner(grid, grid)
    rep = replicate(data, g)
    by_obj: dict[int, set[int]] = {}
    for tid, oid in zip(rep.tile_ids.tolist(), rep.obj_ids.tolist()):
        by_obj.setdefault(oid, set()).add(tid)
    for i in range(len(data)):
        r = data.rect(i)
        expected = {
            g.tile_id(ix, iy)
            for iy in range(g.tile_iy(r.yl), g.tile_iy(r.yu) + 1)
            for ix in range(g.tile_ix(r.xl), g.tile_ix(r.xu) + 1)
        }
        assert by_obj[i] == expected


@settings(max_examples=100, deadline=None)
@given(r=rect_strategy(), w=rect_strategy(), grid=st.integers(1, 9))
def test_reference_point_lies_in_exactly_one_tile(r, w, grid):
    """The dedup soundness of [9]: the reference point is in one tile."""
    if not r.intersects(w):
        return
    g = GridPartitioner(grid, grid)
    px, py = reference_point(r, w)
    owners = [
        (ix, iy)
        for iy in range(g.ny)
        for ix in range(g.nx)
        if g.tile_ix(px) == ix and g.tile_iy(py) == iy
    ]
    assert len(owners) == 1


@settings(max_examples=100, deadline=None)
@given(a=rect_strategy(), b=rect_strategy())
def test_rect_algebra_properties(a, b):
    # Intersection commutes and is contained in both operands.
    ab = a.intersection(b)
    ba = b.intersection(a)
    assert (ab is None) == (ba is None)
    if ab is not None:
        assert ab == ba
        assert a.contains(ab) and b.contains(ab)
        assert a.intersects(b)
    # Union contains both operands.
    u = a.union(b)
    assert u.contains(a) and u.contains(b)
    # Intersects is symmetric and consistent with overlap_area.
    assert a.intersects(b) == b.intersects(a)
    if a.overlap_area(b) > 0:
        assert a.intersects(b)


@settings(max_examples=60, deadline=None)
@given(
    boxes=st.lists(
        st.tuples(coord, coord, coord, coord).map(
            lambda t: (
                (min(t[0], t[2]), min(t[1], t[3])),
                (max(t[0], t[2]), max(t[1], t[3])),
            )
        ),
        min_size=1,
        max_size=30,
    ),
    k=st.integers(1, 5),
)
def test_ndim_equals_brute_force_2d(boxes, k):
    lows = np.asarray([b[0] for b in boxes])
    highs = np.asarray([b[1] for b in boxes])
    idx = NDimTwoLayerGrid(lows, highs, partitions_per_dim=k)
    got = idx.box_query(np.array([0.25, 0.25]), np.array([0.75, 0.75]))
    assert len(got) == len(set(got.tolist()))
    assert set(got.tolist()) == set(
        idx.brute_force(np.array([0.25, 0.25]), np.array([0.75, 0.75])).tolist()
    )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 1000),
    grid=st.integers(2, 10),
    wx=coord,
    wy=coord,
)
def test_refinement_modes_agree_on_random_linestrings(seed, grid, wx, wy):
    """All three refinement modes return the same exact result set."""
    import numpy as np

    from repro.core import RefinementEngine, TwoLayerGrid
    from repro.geometry import LineString

    rng = np.random.default_rng(seed)
    geoms = []
    for _ in range(25):
        x, y = rng.random(2) * 0.8
        n_pts = int(rng.integers(2, 5))
        pts = [(x + rng.random() * 0.2, y + rng.random() * 0.2) for _ in range(n_pts)]
        geoms.append(LineString(pts))
    data = RectDataset.from_geometries(geoms)
    index = TwoLayerGrid.build(data, partitions_per_dim=grid)
    engine = RefinementEngine(index, data)
    w = Rect(wx, wy, min(wx + 0.3, 1.0), min(wy + 0.3, 1.0))
    results = {
        mode: set(engine.window(w, mode).tolist())
        for mode in ("simple", "refavoid", "refavoid_plus")
    }
    assert results["simple"] == results["refavoid"] == results["refavoid_plus"]
    # And every certified result genuinely intersects the window.
    from repro.geometry import geometry_intersects_window

    for oid in results["simple"]:
        assert geometry_intersects_window(geoms[oid], w)
