"""One read evaluator, one write apply, for every serving tier.

The single-process service evaluates a batch's data verbs with
:meth:`Snapshot.evaluate` on its snapshot; each shard worker runs the
same call on its band-clamped replica (``_WorkerLoop.try_batch``) and
the router concatenates the band answers.  These tests run one seeded
request list — valid and hostile — through both tiers and require the
router-visible outcome to be identical: band-ordered concatenation
equals the single result with no id twice, counts sum, kNN agrees, and
error codes match (after the router's ``internal`` -> ``degraded``).
Windows and counts, which the evaluator answers with the Section VI
tiles-based sweep, are also pinned to the slab executor
(``window_query``): same outcomes, same ``QueryStats`` and the same tile
heat, on a plain index and on bands, with overlay rows and tombstones.
"""

import math

import numpy as np
import pytest

from repro.core.two_layer import TwoLayerGrid
from repro.datasets import generate_uniform_rects
from repro.errors import ReproError
from repro.geometry import Rect
from repro.obs.live import HeatStats, TileHeatAccumulator
from repro.server.protocol import decode_request, encode_request
from repro.server.snapshot import SnapshotStore, parse_read
from repro.shard.partition import plan_bands
from repro.shard.worker import _WorkerLoop, build_worker_state


def make_index(n=3000, seed=17):
    data = generate_uniform_rects(n, area=1e-4, seed=seed)
    return TwoLayerGrid.build(data, partitions_per_dim=16), data


def make_replicas(index, data, k):
    """K worker loops over the index's columns, as a router would boot."""
    store = index._store
    d = index.grid.domain
    manifest = {
        "nx": index.grid.nx,
        "ny": index.grid.ny,
        "domain": (d.xl, d.yl, d.xu, d.yu),
        "n_objects": len(data),
        "bands": [b.to_tuple() for b in plan_bands(store.offsets[::4], k)],
    }
    views = {
        "offsets": store.offsets,
        "xl": store.xl,
        "yl": store.yl,
        "xu": store.xu,
        "yu": store.yu,
        "ids": store.ids,
        "data_xl": data.xl,
        "data_yl": data.yl,
        "data_xu": data.xu,
        "data_yu": data.yu,
    }
    return [
        _WorkerLoop(*build_worker_state(manifest, views, shard))
        for shard in range(k)
    ]


def request_list(seed=5):
    """Validated ``(verb, args)`` pairs: every data verb, plus hostile
    inputs the edge validator lets through to the evaluator."""
    rng = np.random.default_rng(seed)
    raw = []
    for _ in range(12):
        xs = sorted(rng.uniform(0, 1, 2))
        ys = sorted(rng.uniform(0, 1, 2))
        win = {"xl": xs[0], "yl": ys[0], "xu": xs[1], "yu": ys[1]}
        raw.append(("window", win))
        raw.append(("window", {**win, "predicate": "within"}))
        raw.append(("count", win))
        cx, cy = rng.uniform(0, 1, 2)
        raw.append(("disk", {"cx": cx, "cy": cy, "radius": rng.uniform(0.01, 0.2)}))
        raw.append(("knn", {"cx": cx, "cy": cy, "k": int(rng.integers(1, 20))}))
    raw += [
        ("window", {"xl": 0.0, "yl": 0.0, "xu": 1.0, "yu": 1.0}),
        ("disk", {"cx": 0.5, "cy": 0.5, "radius": -0.1}),
        ("knn", {"cx": 0.5, "cy": 0.5, "k": 0}),
        ("knn", {"cx": math.nan, "cy": 0.5, "k": 3}),
        ("knn", {"cx": math.inf, "cy": 0.5, "k": 3}),
        ("window", {"xl": math.nan, "yl": 0.0, "xu": 1.0, "yu": 1.0}),
        ("window", {"xl": 0.6, "yl": 0.1, "xu": 0.2, "yu": 0.3}),
        ("count", {"xl": 0.1, "yl": 0.1, "xu": 0.2, "yu": -math.inf}),
        ("disk", {"cx": 0.5, "cy": math.nan, "radius": 0.1}),
        ("knn", {"cx": 3.0, "cy": 0.5, "k": 5}),
        ("knn", {"cx": 1e6, "cy": 0.5, "k": 5}),
    ]
    reqs = []
    for i, (verb, args) in enumerate(raw):
        req = decode_request(encode_request(i, verb, args))
        reqs.append((req.verb, req.args))
    return reqs


def router_code(code):
    return "degraded" if code == "internal" else code


@pytest.mark.parametrize("k", [2, 3])
def test_bands_reproduce_the_single_evaluator(k):
    index, data = make_index()
    snap = SnapshotStore(index, data).current
    reqs = request_list()
    single = snap.evaluate(reqs)
    assert len(single) == len(reqs)

    frame = {
        "t": "batch",
        "bid": 1,
        "epoch": 0,
        "reqs": [
            {"id": i, "verb": v, "args": a, "trace": None}
            for i, (v, a) in enumerate(reqs)
        ],
    }
    replies = [loop.try_batch(frame) for loop in make_replicas(index, data, k)]
    assert all(r["epoch"] == 0 for r in replies)
    by_shard = [{e["id"]: e for e in r["results"]} for r in replies]

    checked = {"ok": 0, "error": 0}
    for i, ((verb, args), want) in enumerate(zip(reqs, single)):
        parts = [shard[i] for shard in by_shard]
        if not want["ok"]:
            checked["error"] += 1
            codes = {router_code(p["error"]["code"]) for p in parts}
            assert codes == {router_code(want["error"]["code"])}, (verb, args)
            continue
        checked["ok"] += 1
        assert all(p["ok"] for p in parts), (verb, args, parts)
        results = [p["result"] for p in parts]
        if verb == "knn":
            # routed whole to one worker: every replica answers globally
            assert all(r == want["result"] for r in results)
        elif verb == "count":
            assert sum(r["count"] for r in results) == want["result"]["count"]
        else:
            ids = [i for r in results for i in r["ids"]]
            assert len(set(ids)) == len(ids), (verb, args)
            assert sorted(ids) == sorted(want["result"]["ids"]), (verb, args)
            assert sum(r["count"] for r in results) == len(ids)
    assert checked["ok"] >= 60 and checked["error"] >= 8


def test_hostile_inputs_are_invalid_query_before_routing():
    """The router answers from ``parse_read`` before it routes; the
    evaluator must agree with it on exactly which requests are invalid."""
    index, data = make_index(n=500)
    reqs = request_list()
    outcomes = SnapshotStore(index, data).current.evaluate(reqs)
    for (verb, args), outcome in zip(reqs, outcomes):
        try:
            parse_read(verb, args)
        except ReproError:
            assert outcome["error"]["code"] == "invalid_query", (verb, args)
        else:
            assert outcome["ok"], (verb, args, outcome)


def test_apply_is_deterministic_across_replicas():
    index, data = make_index(n=400)
    plain = SnapshotStore(index, data)
    loops = make_replicas(index, data, 2)
    writes = [
        ("insert", {"xl": 0.4, "yl": 0.4, "xu": 0.41, "yu": 0.41}),
        ("delete", {"id": 7}),
        ("delete", {"id": 10**9}),  # miss: the version stays put
        ("delete", {"id": 7}),  # repeat miss on the same object
        ("insert", {"xl": 0.9, "yl": 0.1, "xu": 0.95, "yu": 0.12}),
    ]
    expected = [
        ({"id": 400, "snapshot": 1}, 1),
        ({"found": True, "snapshot": 2}, 2),
        ({"found": False, "snapshot": 2}, 2),
        ({"found": False, "snapshot": 2}, 2),
        ({"id": 401, "snapshot": 3}, 3),
    ]
    for seq, ((verb, args), want) in enumerate(zip(writes, expected)):
        assert plain.apply(verb, args) == want
        for loop in loops:
            ack = loop.apply_write(
                {"t": "write", "seq": seq, "verb": verb, "args": args}
            )
            assert ack["ok"] and (ack["result"], ack["version"]) == want
    probe = [("window", {"xl": 0.39, "yl": 0.39, "xu": 0.42, "yu": 0.42,
                         "predicate": "intersects"})]
    (hit,) = plain.current.evaluate(probe)
    assert 400 in hit["result"]["ids"]
    band_ids = [
        i
        for loop in loops
        for i in loop.store.current.evaluate(probe)[0]["result"]["ids"]
    ]
    assert sorted(band_ids) == sorted(hit["result"]["ids"])


WRITES = [
    ("insert", {"xl": 0.40, "yl": 0.40, "xu": 0.41, "yu": 0.41}),
    ("insert", {"xl": 0.05, "yl": 0.30, "xu": 0.62, "yu": 0.33}),  # many tiles
    ("insert", {"xl": 0.25, "yl": 0.25, "xu": 0.25, "yu": 0.25}),  # tile corner
    ("delete", {"id": 7}),
    ("delete", {"id": 1500}),
    ("delete", {"id": 3000}),  # an overlay row
    ("insert", {"xl": 0.90, "yl": 0.10, "xu": 0.95, "yu": 0.12}),
]


def window_batch(seed=23):
    """Windows and counts: random, on tile boundaries (1/16), at the
    domain edges and over the whole domain."""
    rng = np.random.default_rng(seed)
    wins = [
        (0.0, 0.0, 1.0, 1.0),
        (0.25, 0.25, 0.5, 0.5),
        (0.0625, 0.125, 0.0625, 0.875),
        (-0.5, -0.5, 0.03, 1.5),
        (0.97, 0.0, 1.0, 0.04),
        (0.35, 0.35, 0.45, 0.45),
    ]
    for _ in range(14):
        xs = sorted(rng.uniform(0, 1, 2))
        ys = sorted(rng.uniform(0, 1, 2))
        wins.append((xs[0], ys[0], xs[1], ys[1]))
    reqs = []
    for k, w in enumerate(wins):
        args = dict(zip(("xl", "yl", "xu", "yu"), map(float, w)))
        reqs.append(("count" if k % 3 == 2 else "window", args))
    return reqs


def heat_stats(index):
    return HeatStats(TileHeatAccumulator(index.grid.nx, index.grid.ny, 0.0))


def assert_same_stats(a, b):
    a.flush()
    b.flush()
    assert a.as_dict() == b.as_dict()
    for name in ("scans", "rows", "present"):
        assert np.array_equal(getattr(a.heat, name), getattr(b.heat, name)), name
    assert a.heat.total_visits == b.heat.total_visits


def assert_matches_slab_executor(snap, reqs):
    """``Snapshot.evaluate`` (the Section VI tiles-based sweep) equals the
    slab executor, ``window_query``: same outcomes, same counters, same
    tile heat."""
    got_stats = heat_stats(snap.index)
    got = snap.evaluate(reqs, got_stats)
    want_stats = heat_stats(snap.index)
    for (verb, args), outcome in zip(reqs, got):
        w = Rect(args["xl"], args["yl"], args["xu"], args["yu"])
        ids = snap.index.window_query(w, want_stats)
        assert outcome["ok"], (verb, args, outcome)
        result = outcome["result"]
        assert result["count"] == ids.shape[0], (verb, args)
        if verb == "window":
            assert sorted(result["ids"]) == sorted(ids.tolist()), args
            assert len(set(result["ids"])) == len(result["ids"]), args
        else:
            assert set(result) == {"count"}
    assert_same_stats(got_stats, want_stats)
    return got


def test_windows_and_counts_match_the_slab_executor():
    index, data = make_index()
    store = SnapshotStore(index, data)
    reqs = window_batch()
    assert_matches_slab_executor(store.current, reqs)
    for verb, args in WRITES:
        store.apply(verb, args)
    snap = store.current
    assert snap.index._tiles and snap.index._store.n_dead
    assert_matches_slab_executor(snap, reqs)


@pytest.mark.parametrize("k", [2, 3])
def test_band_answers_match_the_slab_executor(k):
    index, data = make_index()
    plain = SnapshotStore(index, data)
    loops = make_replicas(index, data, k)
    for seq, (verb, args) in enumerate(WRITES):
        plain.apply(verb, args)
        for loop in loops:
            loop.apply_write({"t": "write", "seq": seq, "verb": verb, "args": args})
    reqs = window_batch(seed=29)
    want = assert_matches_slab_executor(plain.current, reqs)
    bands = [assert_matches_slab_executor(loop.store.current, reqs) for loop in loops]
    for i, (verb, _) in enumerate(reqs):
        assert sum(b[i]["result"]["count"] for b in bands) == want[i]["result"]["count"]
        if verb == "window":
            ids = [j for b in bands for j in b[i]["result"]["ids"]]
            assert sorted(ids) == sorted(want[i]["result"]["ids"])
