"""Shared publication of the immutable serving base: shm or mapped file.

Two arena kinds hide behind one manifest shape (``manifest["kind"]``):

* ``"shm"`` — the router copies the packed CSR columns (offsets + 4
  coordinate columns + ids), the dataset columns and the precomputed
  fast-path query matrix into **one** ``multiprocessing.shared_memory``
  arena, 64-byte aligned per array.  Workers attach read-only views —
  zero copies, zero serialization, and the (6, N) query matrix is built
  once and shared by every shard.
* ``"file"`` — when the base was loaded from a columnar index container
  (:mod:`repro.core.format`), the slabs already sit 64-byte aligned in
  a mappable file; the manifest just names the path and the section
  layout, and every worker ``mmap``-s the very same file.  K workers
  then share one page cache with **zero publication copies** — the
  router never materialises the columns at all.

Lifecycle discipline (the part that actually bites, shm kind only —
file arenas have no kernel object to leak):

* the **router** is the only creator and the only unlinker.  Clean
  shutdown unlinks explicitly; if the router dies hard, CPython's
  ``resource_tracker`` sidecar process (which survives the crash)
  unlinks the segment for it.
* **workers** attach by name with ``untrack=False`` and only ever
  ``close()``.  Spawn children inherit the router's resource tracker,
  so the bpo-38119 unregister an unrelated attacher would perform is
  wrong here — it would erase the *router's* registration from the
  shared tracker and turn a router SIGKILL into a permanent leak.
"""

from __future__ import annotations

from multiprocessing import resource_tracker, shared_memory
from typing import Any

import numpy as np

from repro.errors import IndexStateError

__all__ = [
    "FileArena",
    "attach_arena",
    "file_arena_manifest",
    "publish_arena",
    "unlink_arena",
]

_ALIGN = 64


def _aligned(n: int) -> int:
    return (n + _ALIGN - 1) & ~(_ALIGN - 1)


def publish_arena(
    arrays: dict[str, np.ndarray]
) -> tuple[shared_memory.SharedMemory, dict[str, Any]]:
    """Copy ``arrays`` into one new shm arena; return (segment, manifest).

    The manifest is a plain (spawn-picklable) dict describing the
    segment name and each array's offset/dtype/shape; pass it to worker
    processes and hand it to :func:`attach_arena` there.
    """
    layout: dict[str, Any] = {}
    pos = 0
    for name, arr in arrays.items():
        if not arr.flags.c_contiguous:
            raise IndexStateError(f"array {name!r} must be C-contiguous")
        layout[name] = {
            "offset": pos,
            "dtype": str(arr.dtype),
            "shape": list(arr.shape),
        }
        pos = _aligned(pos + arr.nbytes)
    seg = shared_memory.SharedMemory(create=True, size=max(pos, 1))
    for name, arr in arrays.items():
        spec = layout[name]
        dst = np.ndarray(
            arr.shape, dtype=arr.dtype, buffer=seg.buf, offset=spec["offset"]
        )
        dst[...] = arr
    manifest = {
        "kind": "shm",
        "segment": seg.name,
        "nbytes": max(pos, 1),
        "arrays": layout,
    }
    return seg, manifest


class FileArena:
    """Handle for a file-backed arena: owns the mapping, closes cleanly.

    Mirrors the slice of the ``SharedMemory`` API the serving layer
    uses (``close()``), so workers treat both arena kinds uniformly.
    There is nothing to unlink — the backing file is the index archive
    itself and outlives every process.
    """

    __slots__ = ("path", "_mm")

    def __init__(self, path: str, mm: np.memmap):
        self.path = path
        self._mm = mm

    def close(self) -> None:
        mm = self._mm
        self._mm = None
        if mm is not None and mm._mmap is not None:
            try:  # pragma: no cover - platform-dependent cleanup
                mm._mmap.close()
            except BufferError:
                # Live views still reference the mapping; the GC closes
                # it when they go away (same semantics as shm close on
                # CPython refcounting).
                pass


def file_arena_manifest(
    path: str, arrays: dict[str, Any]
) -> dict[str, Any]:
    """Manifest describing a file-backed arena (no copies, no segment).

    ``arrays`` maps each published name to its ``{offset, dtype,
    shape}`` within the file — exactly the layout
    :func:`repro.core.persistence.load_index` records from the columnar
    container's section table.
    """
    return {"kind": "file", "path": path, "arrays": dict(arrays)}


def _attach_file(
    manifest: dict[str, Any]
) -> tuple[FileArena, dict[str, np.ndarray]]:
    path = manifest["path"]
    # The path came out of a format-version-checked container load (the
    # REP007 contract lives in repro.core.format); here we only re-map.
    mm = np.memmap(path, dtype=np.uint8, mode="r")
    # Plain-ndarray views: slicing them skips np.memmap.__array_finalize__;
    # the FileArena keeps the memmap itself so close() can release it.
    buf = np.asarray(mm)
    views: dict[str, np.ndarray] = {}
    for name, spec in manifest["arrays"].items():
        dtype = np.dtype(spec["dtype"])
        shape = tuple(spec["shape"])
        nbytes = dtype.itemsize
        for dim in shape:
            nbytes *= dim
        offset = spec["offset"]
        views[name] = (
            buf[offset : offset + nbytes].view(dtype).reshape(shape)
        )
    return FileArena(path, mm), views


def attach_arena(
    manifest: dict[str, Any], *, untrack: bool = True
) -> "tuple[shared_memory.SharedMemory | FileArena, dict[str, np.ndarray]]":
    """Attach a published arena; return (segment, read-only views).

    The caller must keep the returned segment object alive as long as
    the views are used, and ``close()`` it when done (never ``unlink``
    from an attaching process).  File-backed arenas
    (``manifest["kind"] == "file"``) return a :class:`FileArena` and
    ignore ``untrack`` — there is no kernel object to track.

    ``untrack`` handles bpo-38119: attaching registers this process as
    an owner with its resource tracker, which would unlink the arena
    when the attacher exits.  An *unrelated* process wants the default
    ``untrack=True``.  A spawn **child of the creator** must pass
    ``untrack=False``: it inherits the creator's tracker, so the
    register above was a set-duplicate no-op and unregistering here
    would erase the creator's own entry — after which a hard-killed
    creator leaks the segment forever.
    """
    if manifest.get("kind", "shm") == "file":
        return _attach_file(manifest)
    seg = shared_memory.SharedMemory(name=manifest["segment"])
    if untrack:
        try:  # pragma: no cover - absent on platforms without tracker
            resource_tracker.unregister(seg._name, "shared_memory")
        except Exception:
            pass
    views: dict[str, np.ndarray] = {}
    for name, spec in manifest["arrays"].items():
        view = np.ndarray(
            tuple(spec["shape"]),
            dtype=np.dtype(spec["dtype"]),
            buffer=seg.buf,
            offset=spec["offset"],
        )
        view.setflags(write=False)
        views[name] = view
    return seg, views


def unlink_arena(
    seg: "shared_memory.SharedMemory | FileArena | None",
) -> None:
    """Close and unlink the arena; idempotent (already-gone is fine).

    File arenas only close their mapping — the backing index file is
    durable state and is never deleted by the serving layer.
    """
    if seg is None:
        return
    if isinstance(seg, FileArena):
        seg.close()
        return
    try:
        seg.close()
    except Exception:
        pass
    # A same-process attach_arena (tests, single-process tooling) has
    # unregistered the name; re-register so unlink's own unregister
    # finds it (the tracker cache is a set — duplicates are harmless).
    try:  # pragma: no cover - absent on platforms without the tracker
        resource_tracker.register(seg._name, "shared_memory")
    except Exception:
        pass
    try:
        seg.unlink()
    except FileNotFoundError:
        pass
