"""The columnar on-disk index container (format version 2).

A ``.npz`` archive pays decompression plus per-column extraction at
every boot; the fused query matrix and the per-class sort orders were
then rebuilt from scratch on top.  This module replaces that with a
versioned **memmap-native** container: a fixed 64-byte header, a fixed
64-byte-per-entry section table, a small JSON metadata blob, and then
one 64-byte-aligned slab per named array.  Loading is ``mmap`` + view
construction — zero deserialization, zero copies — so a multi-GB index
"reads" in well under a millisecond and pages in lazily as queries
touch rows.  Shard workers map the very same file (see
:func:`repro.shard.shm.attach_arena`), so K processes share one page
cache instead of K copies of the columns.

Layout::

    offset 0    header   (64 B): magic "REPROIDX", version, n_sections,
                                 meta_len
    offset 64   section table:   n_sections x 64 B entries
                                 (name, dtype, absolute offset, shape)
    then        metadata JSON:   kind/nx/ny/domain/n_objects/...
    then        slabs:           each 64-byte aligned, in table order

Alignment matches the shared-memory arena (and every SIMD/cache-line
expectation a compiled kernel has); all integers are little-endian.

Every reader **must** go through :func:`read_header` (directly or via
:func:`read_container`): it validates the magic and the format version
before any slab is interpreted.  The repro-lint rule REP007 enforces
exactly this — modules under ``repro/core`` / ``repro/grid`` may not
open index files with raw ``np.load`` / ``np.memmap`` calls unless the
module goes through these helpers.
"""

from __future__ import annotations

import json
import os
from typing import Any

import numpy as np

from repro.errors import DatasetError

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "SectionSpec",
    "is_columnar",
    "read_container",
    "read_header",
    "write_container",
]

MAGIC = b"REPROIDX"

#: on-disk format version of the columnar container.  Version 1 is the
#: legacy ``.npz`` layout (readable via :mod:`repro.core.persistence`,
#: never written anymore); version 2 is this container.
FORMAT_VERSION = 2

_ALIGN = 64

_HEADER_DTYPE = np.dtype(
    [
        ("magic", "S8"),
        ("version", "<u4"),
        ("n_sections", "<u4"),
        ("meta_len", "<u8"),
        ("reserved", "V40"),
    ]
)  # exactly 64 bytes

_SECTION_DTYPE = np.dtype(
    [
        ("name", "S24"),
        ("dtype", "S8"),
        ("offset", "<u8"),
        ("ndim", "<u4"),
        ("pad", "V4"),
        ("shape0", "<u8"),
        ("shape1", "<u8"),
    ]
)  # exactly 64 bytes

assert _HEADER_DTYPE.itemsize == 64
assert _SECTION_DTYPE.itemsize == 64


def _aligned(n: int) -> int:
    return (n + _ALIGN - 1) & ~(_ALIGN - 1)


class SectionSpec:
    """One named slab: where it lives and how to view it."""

    __slots__ = ("name", "dtype", "offset", "shape")

    def __init__(
        self, name: str, dtype: np.dtype, offset: int, shape: tuple[int, ...]
    ):
        self.name = name
        self.dtype = dtype
        self.offset = offset
        self.shape = shape

    @property
    def nbytes(self) -> int:
        n = self.dtype.itemsize
        for dim in self.shape:
            n *= dim
        return n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SectionSpec({self.name!r}, {self.dtype}, offset={self.offset}, "
            f"shape={self.shape})"
        )


def is_columnar(path: "str | os.PathLike[str]") -> bool:
    """Whether ``path`` starts with the columnar container magic."""
    try:
        with open(path, "rb") as fh:
            return fh.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def write_container(
    path: "str | os.PathLike[str]",
    meta: dict[str, Any],
    sections: dict[str, np.ndarray],
) -> None:
    """Write a version-:data:`FORMAT_VERSION` container to ``path``.

    ``sections`` preserves insertion order on disk; every array is laid
    out C-contiguous in a 64-byte-aligned slab.  ``meta`` must be
    JSON-serialisable (it is the only part of the file that is parsed,
    not mapped — keep it to scalars describing the index).
    """
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    table = np.zeros(len(sections), dtype=_SECTION_DTYPE)
    arrays: list[np.ndarray] = []
    pos = _aligned(64 + table.nbytes + len(meta_bytes))
    for i, (name, arr) in enumerate(sections.items()):
        arr = np.ascontiguousarray(arr)
        if arr.ndim not in (1, 2):
            raise DatasetError(
                f"section {name!r}: only 1-D/2-D arrays are supported, "
                f"got ndim={arr.ndim}"
            )
        encoded = name.encode("ascii")
        if len(encoded) > 24:
            raise DatasetError(f"section name {name!r} exceeds 24 bytes")
        dtype_str = arr.dtype.str
        if len(dtype_str) > 8:
            raise DatasetError(
                f"section {name!r}: dtype {dtype_str!r} is not storable"
            )
        table[i]["name"] = encoded
        table[i]["dtype"] = dtype_str.encode("ascii")
        table[i]["offset"] = pos
        table[i]["ndim"] = arr.ndim
        table[i]["shape0"] = arr.shape[0]
        table[i]["shape1"] = arr.shape[1] if arr.ndim == 2 else 0
        arrays.append(arr)
        pos = _aligned(pos + arr.nbytes)

    header = np.zeros(1, dtype=_HEADER_DTYPE)
    header[0]["magic"] = MAGIC
    header[0]["version"] = FORMAT_VERSION
    header[0]["n_sections"] = len(sections)
    header[0]["meta_len"] = len(meta_bytes)

    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(table.tobytes())
        fh.write(meta_bytes)
        for spec, arr in zip(table, arrays):
            fh.seek(int(spec["offset"]))
            fh.write(arr.tobytes())
        # Pad the tail so the file length is aligned too (mapping a
        # truncated final slab would raise on some platforms).
        end = _aligned(fh.tell())
        if end > fh.tell():
            fh.write(b"\0" * (end - fh.tell()))


def read_header(
    path: "str | os.PathLike[str]",
) -> tuple[int, dict[str, Any], dict[str, SectionSpec]]:
    """Validate and read the container header; the REP007 choke point.

    Returns ``(version, meta, sections)`` after checking the magic, the
    format version and the structural sanity of the section table, so a
    caller can never silently interpret the slabs of an archive written
    by a different (or future) format — the failure is a structured
    :class:`~repro.errors.DatasetError` instead of garbage results.
    """
    size = os.path.getsize(path)
    with open(path, "rb") as fh:
        raw = fh.read(64)
        if len(raw) < 64 or raw[: len(MAGIC)] != MAGIC:
            raise DatasetError(f"{path}: not a repro columnar index container")
        header = np.frombuffer(raw, dtype=_HEADER_DTYPE)[0]
        version = int(header["version"])
        if version != FORMAT_VERSION:
            raise DatasetError(
                f"{path}: unsupported index format version {version} "
                f"(this build reads version {FORMAT_VERSION})"
            )
        n_sections = int(header["n_sections"])
        meta_len = int(header["meta_len"])
        table_bytes = fh.read(n_sections * _SECTION_DTYPE.itemsize)
        if len(table_bytes) != n_sections * _SECTION_DTYPE.itemsize:
            raise DatasetError(f"{path}: truncated section table")
        meta_bytes = fh.read(meta_len)
        if len(meta_bytes) != meta_len:
            raise DatasetError(f"{path}: truncated metadata block")
    try:
        meta = json.loads(meta_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DatasetError(f"{path}: corrupt metadata block") from exc
    table = np.frombuffer(table_bytes, dtype=_SECTION_DTYPE)
    sections: dict[str, SectionSpec] = {}
    for entry in table:
        name = entry["name"].decode("ascii")
        shape = (int(entry["shape0"]),)
        if int(entry["ndim"]) == 2:
            shape = (int(entry["shape0"]), int(entry["shape1"]))
        spec = SectionSpec(
            name,
            np.dtype(entry["dtype"].decode("ascii")),
            int(entry["offset"]),
            shape,
        )
        if spec.offset % _ALIGN or spec.offset + spec.nbytes > _aligned(size):
            raise DatasetError(
                f"{path}: section {name!r} extends past the file end "
                "(truncated or corrupt container)"
            )
        sections[name] = spec
    return version, meta, sections


def read_container(
    path: "str | os.PathLike[str]",
) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """Map a container; return ``(meta, views)`` of read-only arrays.

    One shared ``np.memmap`` backs every view, so nothing is read from
    disk here beyond the header/table/metadata pages — slab bytes page
    in lazily on first access.  All views are ``writeable=False``
    (``mode="r"``): the loaded index is a pinned snapshot.  The views
    are plain ``np.ndarray`` (sliced from ``np.asarray(mm)``), so every
    later slab slice skips ``np.memmap.__array_finalize__``.
    """
    _version, meta, sections = read_header(path)
    # The single shared mapping below is the memmap fast path the REP007
    # helper contract funnels every caller through (read_header above
    # has already validated magic + version for this file handle).
    buf = np.asarray(np.memmap(path, dtype=np.uint8, mode="r"))
    views: dict[str, np.ndarray] = {}
    for name, spec in sections.items():
        flat = buf[spec.offset : spec.offset + spec.nbytes]
        views[name] = flat.view(spec.dtype).reshape(spec.shape)
    return meta, views
