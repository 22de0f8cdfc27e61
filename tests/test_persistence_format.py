"""The columnar on-disk container and the persistence contract around it.

Covers the raw format (header/section-table/alignment/version gates),
round-trips across every index class x save format x source index
(bulk-loaded or the insert-built per-tile reference) on a dataset
engineered to hit classes A-D, empty tiles and domain-edge
rects, the ``writeable=False`` snapshot guarantee, the dirty-save
(``if_dirty``) contract, the 2-layer+ persisted sort orders, the
kernel-tier selection plus direct parity of the pure-python kernel
bodies, the file-backed shard arena, and — the tentpole claim —
that a memmap load does not page slab bytes in until the first query
(asserted against ``/proc/self/smaps``).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import TwoLayerGrid, TwoLayerPlusGrid, load_index, save_index
from repro.core import format as container
from repro.core.persistence import (
    IF_DIRTY_MODES,
    SAVE_FORMATS,
    load_collection,
    save_collection,
)
from repro.datasets import (
    DiskQuery,
    RectDataset,
    generate_uniform_rects,
    generate_window_queries,
)
from repro.errors import DatasetError, IndexStateError
from repro.geometry import Rect
from repro.grid import OneLayerGrid
from repro.grid import kernels as _kernels
from repro.stats import QueryStats

from conftest import ids_set, insert_built

GRID_CLASSES = (OneLayerGrid, TwoLayerGrid, TwoLayerPlusGrid)
#: how the saved index was built: bulk-loaded (packed base) or grown by
#: insert() alone (conftest.insert_built: no base, per-tile tables only).
STORAGES = ("packed", "legacy")


def _build(cls, data, storage):
    if storage == "packed":
        return cls.build(data, partitions_per_dim=8)
    return insert_built(cls, data, 8)


@pytest.fixture(scope="module")
def data() -> RectDataset:
    """~300 uniform rects plus hand-placed ones forcing every class.

    On the 8x8 grids the tests build (tile = 0.125), the handmade tail
    guarantees class-A (tiny), class-B (tall), class-C (wide) and
    class-D (both) objects, rects flush against all four domain edges,
    a degenerate point and a domain-covering rect — while the sparse
    uniform head leaves plenty of tiles empty.
    """
    base = generate_uniform_rects(300, area=1e-4, seed=211)
    hand = np.array(
        [
            # xl,    yl,    xu,    yu
            [0.30, 0.30, 0.32, 0.32],  # A: inside one tile
            [0.30, 0.05, 0.32, 0.60],  # B: spans tiles in y
            [0.05, 0.30, 0.60, 0.32],  # C: spans tiles in x
            [0.55, 0.55, 0.80, 0.80],  # D: spans both
            [0.00, 0.00, 0.01, 0.01],  # corner at the domain origin
            [0.99, 0.99, 1.00, 1.00],  # corner at the far edge
            [0.00, 0.40, 1.00, 0.45],  # full-width strip
            [0.70, 0.00, 0.72, 1.00],  # full-height strip
            [0.50, 0.50, 0.50, 0.50],  # degenerate point
            [0.00, 0.00, 1.00, 1.00],  # covers the whole domain
        ]
    )
    return RectDataset(
        np.concatenate([base.xl, hand[:, 0]]),
        np.concatenate([base.yl, hand[:, 1]]),
        np.concatenate([base.xu, hand[:, 2]]),
        np.concatenate([base.yu, hand[:, 3]]),
    )


def _windows(data: RectDataset) -> "list[Rect]":
    return [
        *generate_window_queries(data, 10, 1.0, seed=212),
        Rect(0.0, 0.0, 1.0, 1.0),  # full domain
        Rect(0.0, 0.0, 0.125, 0.125),  # exactly the origin tile
        Rect(0.5, 0.5, 0.5, 0.5),  # degenerate at the point rect
        Rect(0.95, 0.95, 1.0, 1.0),  # far-edge corner
    ]


# -- the raw container format ----------------------------------------------


class TestContainerFormat:
    META = {"kind": "X", "nx": 3, "ny": 4, "answer": 42}

    def sections(self) -> "dict[str, np.ndarray]":
        return {
            "ints": np.arange(17, dtype=np.int64),
            "floats": np.linspace(0.0, 1.0, 9),
            "matrix": np.arange(12, dtype=np.float64).reshape(3, 4),
            "empty": np.empty(0, dtype=np.int64),
            "bytes8": np.arange(5, dtype=np.uint8),
        }

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "c.bin"
        sections = self.sections()
        container.write_container(path, self.META, sections)
        meta, views = container.read_container(path)
        assert meta == self.META
        assert set(views) == set(sections)
        for name, arr in sections.items():
            np.testing.assert_array_equal(views[name], arr)
            assert views[name].dtype == arr.dtype
            assert views[name].shape == arr.shape
            assert not views[name].flags.writeable

    def test_every_section_is_64_byte_aligned(self, tmp_path):
        path = tmp_path / "c.bin"
        container.write_container(path, self.META, self.sections())
        version, _meta, specs = container.read_header(path)
        assert version == container.FORMAT_VERSION
        for spec in specs.values():
            assert spec.offset % 64 == 0, spec
        assert os.path.getsize(path) % 64 == 0

    def test_is_columnar(self, tmp_path):
        path = tmp_path / "c.bin"
        container.write_container(path, self.META, self.sections())
        assert container.is_columnar(path)
        other = tmp_path / "other.npz"
        np.savez(other, foo=np.arange(3))
        assert not container.is_columnar(other)
        assert not container.is_columnar(tmp_path / "missing.bin")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(b"NOTMYIDX" + b"\0" * 120)
        with pytest.raises(DatasetError, match="not a repro columnar"):
            container.read_header(path)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        container.write_container(path, self.META, self.sections())
        raw = bytearray(path.read_bytes())
        raw[8] = container.FORMAT_VERSION + 1  # little-endian u32 at 8
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetError, match="format version"):
            container.read_header(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        container.write_container(path, self.META, self.sections())
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(DatasetError):
            container.read_container(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(container.MAGIC + b"\0" * 10)
        with pytest.raises(DatasetError):
            container.read_header(path)

    def test_oversized_section_name_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="exceeds 24 bytes"):
            container.write_container(
                tmp_path / "c.bin", {}, {"n" * 25: np.arange(3)}
            )

    def test_3d_section_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="1-D/2-D"):
            container.write_container(
                tmp_path / "c.bin", {}, {"cube": np.zeros((2, 2, 2))}
            )


# -- index round-trips across class x format x source index -----------------


class TestRoundTrip:
    @pytest.mark.parametrize("cls", GRID_CLASSES)
    @pytest.mark.parametrize("fmt", SAVE_FORMATS)
    @pytest.mark.parametrize("storage", STORAGES)
    def test_window_and_disk_parity(self, data, tmp_path, cls, fmt, storage):
        index = _build(cls, data, storage)
        path = tmp_path / "index.bin"
        save_index(index, path, format=fmt)
        assert container.is_columnar(path) == (fmt == "columnar")
        loaded = load_index(path)
        assert type(loaded) is cls
        assert loaded._store is not None and not loaded._tiles
        assert len(loaded) == len(index)
        assert loaded.replica_count == index.replica_count
        for w in _windows(data):
            assert ids_set(loaded.window_query(w)) == ids_set(
                index.window_query(w)
            ), w
        if cls is not OneLayerGrid:
            assert loaded.count_window(Rect(0.0, 0.0, 1.0, 1.0)) == len(data)
            for q in (DiskQuery(0.5, 0.5, 0.2), DiskQuery(0.0, 0.0, 0.3)):
                assert ids_set(loaded.disk_query(q)) == ids_set(
                    index.disk_query(q)
                )

    @pytest.mark.parametrize("fmt", SAVE_FORMATS)
    @pytest.mark.parametrize("src_storage", STORAGES)
    def test_legacy_built_index_saves_too(
        self, data, tmp_path, fmt, src_storage
    ):
        """The writer accepts a base-less index, and leaves it as it was."""
        index = _build(TwoLayerGrid, data, src_storage)
        path = tmp_path / "index.bin"
        save_index(index, path, format=fmt)
        assert (index._store is None) == (src_storage == "legacy")
        loaded = load_index(path)
        w = Rect(0.2, 0.2, 0.7, 0.7)
        assert ids_set(loaded.window_query(w)) == ids_set(
            data.brute_force_window(w)
        )

    @pytest.mark.parametrize("fmt", SAVE_FORMATS)
    def test_empty_index_roundtrip(self, tmp_path, fmt):
        empty = RectDataset(*(np.empty(0) for _ in range(4)))
        index = TwoLayerGrid.build(empty, partitions_per_dim=4)
        path = tmp_path / "empty.bin"
        save_index(index, path, format=fmt)
        loaded = load_index(path)
        assert len(loaded) == 0
        assert loaded.window_query(Rect(0, 0, 1, 1)).shape == (0,)

    @pytest.mark.parametrize("fmt", SAVE_FORMATS)
    def test_collection_roundtrip(self, data, tmp_path, fmt):
        index = TwoLayerGrid.build(data, partitions_per_dim=8)
        path = tmp_path / "col.bin"
        save_collection(index, data, path, format=fmt)
        timings: dict = {}
        loaded, dset = load_collection(path, timings=timings)
        assert len(dset) == len(data)
        np.testing.assert_array_equal(dset.xl, data.xl)
        np.testing.assert_array_equal(dset.yu, data.yu)
        w = Rect(0.1, 0.1, 0.6, 0.6)
        assert ids_set(loaded.window_query(w)) == ids_set(
            data.brute_force_window(w)
        )
        assert timings["read_ms"] >= 0.0 and timings["build_ms"] >= 0.0

    def test_collection_length_mismatch_rejected(self, data, tmp_path):
        index = TwoLayerGrid.build(data, partitions_per_dim=8)
        short = RectDataset(
            data.xl[:-1], data.yl[:-1], data.xu[:-1], data.yu[:-1]
        )
        with pytest.raises(DatasetError, match="rows"):
            save_collection(index, short, tmp_path / "c.bin")

    def test_index_archive_refused_as_collection(self, data, tmp_path):
        index = TwoLayerGrid.build(data, partitions_per_dim=8)
        path = tmp_path / "index.bin"
        save_index(index, path)
        with pytest.raises(DatasetError, match="no dataset columns"):
            load_collection(path)

    def test_unknown_format_rejected(self, data, tmp_path):
        index = TwoLayerGrid.build(data, partitions_per_dim=8)
        with pytest.raises(ValueError, match="unknown save format"):
            save_index(index, tmp_path / "x.bin", format="parquet")


# -- loaded columns are a pinned snapshot ----------------------------------


class TestWriteableFalse:
    @pytest.mark.parametrize("fmt", SAVE_FORMATS)
    @pytest.mark.parametrize("storage", STORAGES)
    def test_loaded_columns_frozen(self, data, tmp_path, fmt, storage):
        index = _build(TwoLayerGrid, data, storage)
        path = tmp_path / "index.bin"
        save_index(index, path, format=fmt)
        store = load_index(path)._store
        for arr in (
            store.offsets, store.xl, store.yl, store.xu, store.yu, store.ids,
        ):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[:1] = 0

    @pytest.mark.parametrize("cls", (TwoLayerGrid, TwoLayerPlusGrid))
    def test_columnar_views_are_plain_ndarrays(self, data, tmp_path, cls):
        """Columnar loads hand out plain read-only ndarrays, not memmaps:
        slicing an ``np.memmap`` runs ``__array_finalize__`` per slab."""
        path = tmp_path / "col.bin"
        save_collection(cls.build(data, partitions_per_dim=8), data, path)
        for index, dset in (
            (load_index(path), None),
            load_collection(path),
        ):
            store = index._store
            cols = [
                store.offsets, store.xl, store.yl, store.xu, store.yu,
                store.ids, index._fast_q,
            ]
            if dset is not None:
                cols += [dset.xl, dset.yl, dset.xu, dset.yu]
            for col in cols:
                assert type(col) is np.ndarray
                assert col.flags.writeable is False

    def test_updates_still_work_via_overlay(self, data, tmp_path):
        """Frozen base + delta overlay: mutation API stays available."""
        index = TwoLayerPlusGrid.build(data, partitions_per_dim=8)
        path = tmp_path / "plus.bin"
        save_index(index, path)
        loaded = load_index(path)
        new_id = loaded.insert(Rect(0.41, 0.41, 0.42, 0.42))
        assert new_id == len(data)
        assert new_id in ids_set(
            loaded.window_query(Rect(0.40, 0.40, 0.43, 0.43))
        )
        assert loaded.delete(data.rect(0), 0)
        assert 0 not in ids_set(loaded.window_query(Rect(0, 0, 1, 1)))


# -- the dirty-save contract ------------------------------------------------


class TestDirtySave:
    @pytest.mark.parametrize("fmt", SAVE_FORMATS)
    def test_overlay_error_mode(self, data, tmp_path, fmt):
        index = TwoLayerGrid.build(data, partitions_per_dim=8)
        index.insert(Rect(0.1, 0.1, 0.11, 0.11))
        with pytest.raises(IndexStateError, match="1 overlay rows"):
            save_index(index, tmp_path / "x.bin", format=fmt, if_dirty="error")

    @pytest.mark.parametrize("fmt", SAVE_FORMATS)
    def test_tombstone_error_mode(self, data, tmp_path, fmt):
        index = TwoLayerGrid.build(data, partitions_per_dim=8)
        assert index.delete(data.rect(0), 0)
        with pytest.raises(IndexStateError, match="tombstones"):
            save_index(index, tmp_path / "x.bin", format=fmt, if_dirty="error")

    @pytest.mark.parametrize("fmt", SAVE_FORMATS)
    def test_compact_mode_folds_and_persists(self, data, tmp_path, fmt):
        index = TwoLayerGrid.build(data, partitions_per_dim=8)
        new_id = index.insert(Rect(0.1, 0.1, 0.11, 0.11))
        assert index.delete(data.rect(0), 0)
        path = tmp_path / "x.bin"
        save_index(index, path, format=fmt)  # if_dirty="compact" default
        assert index._store.n_dead == 0 and not index._tiles
        loaded = load_index(path)
        got = ids_set(loaded.window_query(Rect(0, 0, 1, 1)))
        assert new_id in got and 0 not in got

    def test_unknown_if_dirty_rejected(self, data, tmp_path):
        index = TwoLayerGrid.build(data, partitions_per_dim=8)
        with pytest.raises(ValueError, match="if_dirty"):
            save_index(index, tmp_path / "x.bin", if_dirty="maybe")
        assert IF_DIRTY_MODES == ("compact", "error")

    def test_clean_index_saves_in_error_mode(self, data, tmp_path):
        index = TwoLayerGrid.build(data, partitions_per_dim=8)
        save_index(index, tmp_path / "x.bin", if_dirty="error")
        assert load_index(tmp_path / "x.bin").count_window(
            Rect(0, 0, 1, 1)
        ) == len(data)


# -- legacy npz compatibility ----------------------------------------------


class TestNpzLegacyCompat:
    def test_npz_still_loads(self, data, tmp_path):
        index = OneLayerGrid.build(data, partitions_per_dim=8)
        path = tmp_path / "legacy.npz"
        save_index(index, path, format="npz")
        assert not container.is_columnar(path)
        loaded = load_index(path)
        w = Rect(0.2, 0.2, 0.8, 0.8)
        assert ids_set(loaded.window_query(w)) == ids_set(
            data.brute_force_window(w)
        )

    def test_foreign_npz_rejected(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, foo=np.arange(3))
        with pytest.raises(DatasetError, match="not a repro index archive"):
            load_index(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "garbage.bin"
        path.write_bytes(b"\x89PNG\r\n\x1a\n" + b"\0" * 64)
        with pytest.raises(DatasetError):
            load_index(path)


# -- the tentpole: loading maps, queries page in ---------------------------


def _mapped_rss_kb(path: str) -> int:
    """Resident size (kB) of this process's mappings of ``path``."""
    real = os.path.realpath(path)
    total = -1
    try:
        with open("/proc/self/smaps") as fh:
            lines = fh.readlines()
    except OSError:  # pragma: no cover - non-Linux
        return -1
    current = False
    for line in lines:
        if "-" in line.split(" ", 1)[0]:  # a new mapping header line
            current = line.rstrip("\n").endswith(real)
            if current and total < 0:
                total = 0
        elif current and line.startswith("Rss:"):
            total += int(line.split()[1])
    return total


@pytest.mark.skipif(
    not os.path.exists("/proc/self/smaps"), reason="needs /proc smaps"
)
class TestLazyPageIn:
    def test_slabs_stay_on_disk_until_first_query(self, tmp_path):
        big = generate_uniform_rects(150_000, area=1e-6, seed=213)
        index = TwoLayerGrid.build(big, partitions_per_dim=64)
        path = tmp_path / "big.bin"
        save_index(index, path)
        assert os.path.getsize(path) > 8 * len(big) * 8  # real slabs

        loaded = load_index(path)
        rss_cold = _mapped_rss_kb(str(path))
        assert rss_cold >= 0, "container mapping not found in smaps"
        # Loading read the header/table/meta via plain file reads; the
        # mmap itself must not have faulted more than a token handful of
        # pages (the fused query matrix alone is ~7 MB here).
        assert rss_cold <= 256, f"load paged in {rss_cold} kB"

        got = loaded.window_query(Rect(0.0, 0.0, 1.0, 1.0))
        assert got.shape[0] == len(big)
        rss_hot = _mapped_rss_kb(str(path))
        assert rss_hot > rss_cold + 1024, (rss_cold, rss_hot)


# -- 2-layer+ persisted sort orders ----------------------------------------


class TestPersistedOrders:
    def test_orders_restored_and_used(self, data, tmp_path):
        index = TwoLayerPlusGrid.build(data, partitions_per_dim=8)
        path = tmp_path / "plus.bin"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded._persisted_orders is not None
        assert len(loaded._persisted_orders) == 4

        # Force the decomposed-table strategy (the one that consumes the
        # orders) and check exact parity including stats accounting.
        loaded.multi_comparison_strategy = "search_verify"
        index.multi_comparison_strategy = "search_verify"
        for w in _windows(data):
            s1, s2 = QueryStats(), QueryStats()
            assert ids_set(loaded.window_query(w, stats=s1)) == ids_set(
                index.window_query(w, stats=s2)
            )
        assert loaded._persisted_orders is not None  # queries don't drop them

    def test_orders_invalidated_by_mutation(self, data, tmp_path):
        index = TwoLayerPlusGrid.build(data, partitions_per_dim=8)
        path = tmp_path / "plus.bin"
        save_index(index, path)
        loaded = load_index(path)
        loaded.multi_comparison_strategy = "search_verify"
        new_id = loaded.insert(Rect(0.33, 0.33, 0.44, 0.44))
        assert loaded._persisted_orders is None
        w = Rect(0.3, 0.3, 0.5, 0.5)
        got = ids_set(loaded.window_query(w, stats=QueryStats()))
        assert new_id in got
        assert got - {new_id} == ids_set(data.brute_force_window(w))

    def test_npz_load_has_no_orders_but_matches(self, data, tmp_path):
        index = TwoLayerPlusGrid.build(data, partitions_per_dim=8)
        path = tmp_path / "plus.npz"
        save_index(index, path, format="npz")
        loaded = load_index(path)
        assert loaded._persisted_orders is None
        loaded.multi_comparison_strategy = "search_verify"
        w = Rect(0.2, 0.2, 0.7, 0.7)
        assert ids_set(loaded.window_query(w, stats=QueryStats())) == ids_set(
            data.brute_force_window(w)
        )


# -- compiled kernel tier: selection and pure-python body parity -----------


class TestCompiledTier:
    def test_kernel_mode_follows_importability(self, data):
        """The tier is "is numba installed" — no argument, no env var."""
        expected = "compiled" if _kernels.compiled_available() else "vectorized"
        for index in (
            TwoLayerGrid.build(data, partitions_per_dim=8),
            OneLayerGrid.build(data, partitions_per_dim=8),
            insert_built(TwoLayerPlusGrid, data, 8),
        ):
            assert index.kernel_mode == expected == _kernels.kernel_mode()
        w = Rect(0.2, 0.2, 0.7, 0.7)
        assert ids_set(index.window_query(w)) == ids_set(
            data.brute_force_window(w)
        )

    # Direct parity of the kernel *bodies* (pure-python, numba-free):
    # the same code numba jits, executed interpreted against the
    # vectorised reference — so tier-1 CI proves the logic even though
    # the compiled extra is absent there.

    @staticmethod
    def _body(q, store, stride, index, rng, bounds, dead=None, clamp=None,
              count=False):
        """Run the to-be-jitted slab body interpreted, as window_slabs does."""
        ix0, ix1, iy0, iy1 = rng
        out = _kernels._window_slabs_py(
            q, store.ids, np.ascontiguousarray(store.offsets[::stride]),
            index.grid.nx, ix0, ix1, iy0, iy1, bounds,
            np.zeros(0, dtype=bool) if dead is None else dead,
            *(clamp or (0, store.n_rows)), count,
        )
        return int(out[0]) if count else out

    def test_window_scan_body_two_layer(self, data):
        index = TwoLayerGrid.build(data, partitions_per_dim=8)
        q = index._build_fast_q()
        store = index._store
        for w in _windows(data):
            ix0, ix1, iy0, iy1 = index.grid.tile_range_for_window(w)
            bounds = np.array(
                [w.xl, -w.xu, w.yl, -w.yu, float(-ix0), float(-iy0)]
            )
            got = self._body(q, store, 4, index, (ix0, ix1, iy0, iy1), bounds)
            want = index.window_query(w)
            np.testing.assert_array_equal(np.sort(got), np.sort(want))

    @pytest.mark.parametrize("dedup", ("refpoint", "hash"))
    def test_window_scan_body_one_layer(self, data, dedup):
        index = OneLayerGrid.build(data, partitions_per_dim=8, dedup=dedup)
        q = index._build_fast_q()
        store = index._store
        for w in _windows(data):
            ix0, ix1, iy0, iy1 = index.grid.tile_range_for_window(w)
            if dedup == "refpoint":
                qq = q
                bounds = np.array(
                    [w.xl, -w.xu, w.yl, -w.yu,
                     float(-(ix0 - 1)), float(-ix0),
                     float(-(iy0 - 1)), float(-iy0)]
                )
            else:
                qq = q[:4]
                bounds = np.array([w.xl, -w.xu, w.yl, -w.yu])
            got = self._body(qq, store, 1, index, (ix0, ix1, iy0, iy1), bounds)
            if dedup == "hash":
                got = np.unique(got)
            assert ids_set(got) == ids_set(index.window_query(w)), w

    def test_window_count_body(self, data):
        index = TwoLayerGrid.build(data, partitions_per_dim=8)
        q = index._build_fast_q()
        store = index._store
        for w in _windows(data):
            ix0, ix1, iy0, iy1 = index.grid.tile_range_for_window(w)
            bounds = np.array(
                [w.xl, -w.xu, w.yl, -w.yu, float(-ix0), float(-iy0)]
            )
            rng = (ix0, ix1, iy0, iy1)
            got = self._body(q, store, 4, index, rng, bounds, count=True)
            assert got == index.count_window(w), w
            # tombstone mask + band clamp: both tiers agree row for row
            dead = np.zeros(store.n_rows, dtype=bool)
            dead[::3] = True
            clamp = (store.n_rows // 4, 3 * store.n_rows // 4)
            want = _kernels.window_slabs(
                q, store.ids, store.offsets[::4].tolist(), index.grid.nx,
                *rng, bounds, dead, clamp,
            )
            got = self._body(q, store, 4, index, rng, bounds, dead, clamp)
            np.testing.assert_array_equal(got, want)
            assert self._body(
                q, store, 4, index, rng, bounds, dead, clamp, count=True
            ) == want.shape[0]

    def test_disk_scan_body(self, data):
        index = TwoLayerGrid.build(data, partitions_per_dim=8)
        store = index._store
        g = index.grid
        queries = [
            DiskQuery(0.5, 0.5, 0.2),
            DiskQuery(0.0, 0.0, 0.3),   # clipped at the origin corner
            DiskQuery(1.0, 1.0, 0.15),  # clipped at the far corner
            DiskQuery(0.31, 0.31, 0.01),
            DiskQuery(0.5, 0.5, 1.5),   # covers the whole domain
        ]
        for dq in queries:
            ix0, ix1, iy0, iy1 = g.tile_range_for_window(dq.mbr())
            got = _kernels._disk_scan_py(
                store.offsets, store.xl, store.yl, store.xu, store.yu,
                store.ids, g.nx, g.ny, g.domain.xl, g.domain.yl,
                g.domain.xu, g.domain.yu, g.tile_w, g.tile_h,
                ix0, ix1, iy0, iy1,
                dq.cx, dq.cy, dq.radius,
            )
            want = index.disk_query(dq)
            assert got.shape[0] == want.shape[0], dq  # duplicate-free too
            assert ids_set(got) == ids_set(want), dq


# -- the file-backed shard arena -------------------------------------------


class TestFileArena:
    def _manifest(self, index, names):
        from repro.shard.shm import file_arena_manifest

        mman = index._mmap_manifest
        assert mman is not None and mman["kind"] == "file"
        return file_arena_manifest(
            mman["path"], {n: mman["arrays"][n] for n in names}
        )

    CSR = ("offsets", "xl", "yl", "xu", "yu", "ids", "fast_q")

    def test_attach_views_match_store(self, data, tmp_path):
        from repro.shard.shm import FileArena, attach_arena, unlink_arena

        index = TwoLayerGrid.build(data, partitions_per_dim=8)
        path = tmp_path / "served.bin"
        save_index(index, path)
        # The file arena is a packed-CSR feature: only a packed load
        # records the container layout (legacy rebuilds tile dicts).
        loaded = load_index(path)
        manifest = self._manifest(loaded, self.CSR)
        seg, views = attach_arena(manifest, untrack=False)
        try:
            assert isinstance(seg, FileArena)
            store = loaded._store
            np.testing.assert_array_equal(views["offsets"], store.offsets)
            np.testing.assert_array_equal(views["ids"], store.ids)
            np.testing.assert_array_equal(views["fast_q"], loaded._fast_q)
            assert not views["xl"].flags.writeable
        finally:
            del views
            unlink_arena(seg)
        assert os.path.exists(path), "unlink_arena must not delete the file"
        seg.close()  # idempotent

    def test_views_are_plain_ndarrays_and_close_releases(
        self, data, tmp_path
    ):
        from repro.shard.shm import attach_arena

        path = tmp_path / "served.bin"
        save_index(TwoLayerGrid.build(data, partitions_per_dim=8), path)
        manifest = self._manifest(load_index(path), self.CSR)
        seg, views = attach_arena(manifest, untrack=False)
        for name in self.CSR:
            assert type(views[name]) is np.ndarray, name
            assert views[name].flags.writeable is False, name
        mapping = seg._mm._mmap
        del views
        seg.close()
        assert mapping.closed

    def test_workers_answer_from_the_mapped_file(self, data, tmp_path):
        from repro.shard.partition import plan_bands
        from repro.shard.shm import attach_arena
        from repro.shard.worker import build_worker_state

        index = TwoLayerGrid.build(data, partitions_per_dim=8)
        path = tmp_path / "served.bin"
        save_collection(index, data, path)
        loaded = load_index(path)
        bands = plan_bands(np.asarray(loaded._store.offsets[::4]), 2)
        manifest = self._manifest(
            loaded, self.CSR + ("data_xl", "data_yl", "data_xu", "data_yu")
        )
        manifest.update(
            nx=loaded.grid.nx,
            ny=loaded.grid.ny,
            domain=list(loaded.grid.domain.as_tuple()),
            n_objects=len(loaded),
            bands=[b.to_tuple() for b in bands],
        )
        segs = []
        try:
            union: set[int] = set()
            w = Rect(0.1, 0.1, 0.9, 0.9)
            for shard_id in range(2):
                seg, views = attach_arena(manifest, untrack=False)
                segs.append(seg)
                banded, wdata = build_worker_state(manifest, views, shard_id)
                assert len(wdata) == len(data)
                part = ids_set(banded.window_query(w))
                assert not union & part, "bands must not overlap"
                union |= part
            assert union == ids_set(index.window_query(w))
        finally:
            for seg in segs:
                seg.close()
