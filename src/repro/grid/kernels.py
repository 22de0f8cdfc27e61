"""The window-scan executor over the packed CSR layout, in two tiers.

Every window query and window count of every grid family reduces to the
same loop: per grid row of the query's tile range, the tiles
``ix0..ix1`` occupy one contiguous CSR slab (tile ids are consecutive,
groups are tile-major), and a row qualifies iff its column of the
index's per-row query matrix is ``>=`` the query's bounds vector in
every condition.  The matrix folds the intersection test *and* the
class-scanning / reference-point rule into those conditions (``+inf``
entries pass vacuously), so the loop needs no per-class branching.
:func:`window_slabs` is the one definition of that loop; the indexes
only build the matrix and the bounds.

Two bodies run it, chosen by whether numba is importable (the
``compiled`` extra) and by nothing else:

* **vectorized** — one broadcast ``>=`` plus an AND-reduce per slab.
* **compiled** — the same scan jitted: one pass over the slab, scalar
  compares per row, direct append into the output, no temporaries.
  :func:`disk_scan` (the §IV-E disk scan in one jitted pass) lives in
  this tier only.

Parity between the tiers is enforced twice: the ``REPRO_SANITIZE=1``
sampled oracle cross-checks live query results, and the whole test
suite runs with numba installed in the ``kernels-compiled`` CI job; the
pure-python bodies are also unit-tested directly, numba-free.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

__all__ = [
    "compiled_available",
    "disk_scan",
    "kernel_mode",
    "tile_row_bounds",
    "window_slabs",
]

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit as _njit

    _HAVE_NUMBA = True
except ImportError:  # the container image is numba-free by default
    _njit = None
    _HAVE_NUMBA = False

_EMPTY_IDS = np.empty(0, dtype=np.int64)
_NO_DEAD = np.zeros(0, dtype=bool)


def compiled_available() -> bool:
    """Whether the numba-compiled kernel tier can actually run."""
    return _HAVE_NUMBA


def kernel_mode() -> str:
    """The tier :func:`window_slabs` runs: ``"compiled"`` or ``"vectorized"``."""
    return "compiled" if _HAVE_NUMBA else "vectorized"


def tile_row_bounds(offsets: np.ndarray, stride: int) -> "Sequence[int]":
    """First CSR row of every tile (plus the terminal bound).

    ``stride`` is the number of CSR groups per tile (4 for the 2-layer
    family, 1 for 1-layer): tile ``t`` owns rows ``[b[t], b[t+1])``.
    The vectorized tier gets a Python list — it reads two scalars per
    slab, and list indexing returns plain ints at half the cost of
    NumPy scalar extraction; the compiled tier gets a contiguous array.
    """
    bounds = offsets[::stride]
    return np.ascontiguousarray(bounds) if _HAVE_NUMBA else bounds.tolist()


# The one slab compare loop.  Accounting for the rows it scans is
# derived from the plan by the caller (TwoLayerGrid._account_window),
# never threaded through here — hence the REP004 waiver.
def window_slabs(  # repro-lint: disable=REP004
    q: np.ndarray,
    ids: np.ndarray,
    tile_bounds: "Sequence[int]",
    nx: int,
    ix0: int,
    ix1: int,
    iy0: int,
    iy1: int,
    bounds: np.ndarray,
    dead: "np.ndarray | None" = None,
    clamp: "tuple[int, int] | None" = None,
    count: bool = False,
) -> "np.ndarray | int":
    """Scan the CSR slabs of a tile range against one bounds vector.

    ``q`` is the condition-major per-row query matrix (any number of
    condition rows), ``tile_bounds`` the :func:`tile_row_bounds` of the
    same base.  ``dead`` masks tombstoned rows out, ``clamp`` restricts
    the scan to CSR rows ``[row_lo, row_hi)`` (a shard band), ``count``
    returns the number of qualifying rows instead of their ids.
    """
    row_lo, row_hi = clamp if clamp is not None else (0, ids.shape[0])
    if _HAVE_NUMBA:  # pragma: no cover - compiled tier needs the extra
        out = _window_slabs_jit(
            q, ids, tile_bounds, nx, ix0, ix1, iy0, iy1, bounds,
            _NO_DEAD if dead is None else dead, row_lo, row_hi, count,
        )
        return int(out[0]) if count else out
    ge = np.greater_equal
    band = np.logical_and.reduce
    bounds = bounds.reshape(-1, 1)
    lo = iy0 * nx + ix0
    width = ix1 - ix0 + 1
    total = 0
    pieces: list[np.ndarray] = []
    for _ in range(iy0, iy1 + 1):
        s0 = tile_bounds[lo]
        s1 = tile_bounds[lo + width]
        lo += nx
        if s0 < row_lo:
            s0 = row_lo
        if s1 > row_hi:
            s1 = row_hi
        if s0 >= s1:
            continue
        keep = band(ge(q[:, s0:s1], bounds), axis=0)
        if dead is not None:
            keep &= ~dead[s0:s1]
        if count:
            total += int(np.count_nonzero(keep))
        else:
            pieces.append(ids[s0:s1][keep])
    if count:
        return total
    if not pieces:
        return _EMPTY_IDS
    if len(pieces) == 1:
        return pieces[0]
    return np.concatenate(pieces)


# -- jitted bodies ---------------------------------------------------------


def _window_slabs_py(
    q: np.ndarray,
    ids: np.ndarray,
    tile_bounds: np.ndarray,
    nx: int,
    ix0: int,
    ix1: int,
    iy0: int,
    iy1: int,
    bounds: np.ndarray,
    dead: np.ndarray,
    row_lo: int,
    row_hi: int,
    count: bool,
) -> np.ndarray:
    # Both reducers return an int64 array so the jitted signature stays
    # type-stable: the qualifying ids, or the count in a 1-element array.
    # ``dead`` is empty when nothing is tombstoned.
    nb = bounds.shape[0]
    use_dead = dead.shape[0] > 0
    width = ix1 - ix0 + 1
    total = 1  # count mode: one slot, for the count itself
    if not count:
        total = 0  # ids mode: an upper bound, every row of every slab
        row = iy0 * nx + ix0
        for _ in range(iy0, iy1 + 1):
            s0 = max(tile_bounds[row], row_lo)
            s1 = min(tile_bounds[row + width], row_hi)
            if s1 > s0:
                total += s1 - s0
            row += nx
    out = np.empty(total, np.int64)
    k = 0
    row = iy0 * nx + ix0
    for _ in range(iy0, iy1 + 1):
        s0 = max(tile_bounds[row], row_lo)
        s1 = min(tile_bounds[row + width], row_hi)
        row += nx
        for r in range(s0, s1):
            if use_dead and dead[r]:
                continue
            ok = True
            for c in range(nb):
                if q[c, r] < bounds[c]:
                    ok = False
                    break
            if ok:
                if not count:
                    out[k] = ids[r]
                k += 1
    if count:
        out[0] = k
        return out
    return out[:k]


def _disk_scan_py(
    offsets: np.ndarray,
    xl: np.ndarray,
    yl: np.ndarray,
    xu: np.ndarray,
    yu: np.ndarray,
    ids: np.ndarray,
    nx: int,
    ny: int,
    dxl: float,
    dyl: float,
    dxu: float,
    dyu: float,
    tw: float,
    th: float,
    ix0: int,
    ix1: int,
    iy0: int,
    iy1: int,
    cx: float,
    cy: float,
    radius: float,
) -> np.ndarray:
    # §IV-E in one compiled pass: plan (per-row disk spans), class
    # skipping against the previous tile per dimension, covered-tile
    # shortcut, distance test, and the canonical-tile dedup for B/D.
    # The last tile per axis ends exactly at the domain edge (dxu/dyu),
    # as in GridPartitioner.tile_rect: ``txl + tw`` can round 1 ulp short.
    nrows = iy1 - iy0 + 1
    span_lo = np.full(nrows, -1, np.int64)
    span_hi = np.full(nrows, -1, np.int64)
    r2 = radius * radius
    for iy in range(iy0, iy1 + 1):
        tyl = dyl + iy * th
        dy = tyl - cy
        if dy < 0.0:
            dy = cy - (dyu if iy == ny - 1 else tyl + th)
            if dy < 0.0:
                dy = 0.0
        for ix in range(ix0, ix1 + 1):
            txl = dxl + ix * tw
            dx = txl - cx
            if dx < 0.0:
                dx = cx - (dxu if ix == nx - 1 else txl + tw)
                if dx < 0.0:
                    dx = 0.0
            if dx * dx + dy * dy <= r2:
                if span_lo[iy - iy0] < 0:
                    span_lo[iy - iy0] = ix
                span_hi[iy - iy0] = ix
    total = 0
    for iy in range(iy0, iy1 + 1):
        lx = span_lo[iy - iy0]
        if lx < 0:
            continue
        base = iy * nx
        total += (
            offsets[(base + span_hi[iy - iy0] + 1) * 4] - offsets[(base + lx) * 4]
        )
    out = np.empty(total, np.int64)
    k = 0
    for iy in range(iy0, iy1 + 1):
        lx = span_lo[iy - iy0]
        if lx < 0:
            continue
        rx = span_hi[iy - iy0]
        p_lo = span_lo[iy - 1 - iy0] if iy - 1 >= iy0 else -1
        p_hi = span_hi[iy - 1 - iy0] if iy - 1 >= iy0 else -1
        base = iy * nx
        for ix in range(lx, rx + 1):
            prev_x_in = ix > lx
            prev_y_in = p_lo >= 0 and p_lo <= ix <= p_hi
            txl = dxl + ix * tw
            tyl = dyl + iy * th
            txu = dxu if ix == nx - 1 else txl + tw
            tyu = dyu if iy == ny - 1 else tyl + th
            mdx = cx - txl
            if txu - cx > mdx:
                mdx = txu - cx
            mdy = cy - tyl
            if tyu - cy > mdy:
                mdy = tyu - cy
            covered = mdx * mdx + mdy * mdy <= r2
            for code in range(4):
                if code == 1 and prev_y_in:
                    continue
                if code == 2 and prev_x_in:
                    continue
                if code == 3 and (prev_x_in or prev_y_in):
                    continue
                key = (base + ix) * 4 + code
                for r in range(offsets[key], offsets[key + 1]):
                    if not covered:
                        dx = xl[r] - cx
                        if dx < 0.0:
                            dx = cx - xu[r]
                            if dx < 0.0:
                                dx = 0.0
                        dy = yl[r] - cy
                        if dy < 0.0:
                            dy = cy - yu[r]
                            if dy < 0.0:
                                dy = 0.0
                        if dx * dx + dy * dy > r2:
                            continue
                    if code == 1 or code == 3:
                        sr = int((yl[r] - dyl) / th)
                        if sr < 0:
                            sr = 0
                        elif sr > ny - 1:
                            sr = ny - 1
                        sc = int((xl[r] - dxl) / tw)
                        if sc < 0:
                            sc = 0
                        elif sc > nx - 1:
                            sc = nx - 1
                        ec = int((xu[r] - dxl) / tw)
                        if ec < 0:
                            ec = 0
                        elif ec > nx - 1:
                            ec = nx - 1
                        dup = False
                        for j in range(sr, iy):
                            if j < iy0:
                                continue
                            jl = span_lo[j - iy0]
                            if jl < 0:
                                continue
                            jh = span_hi[j - iy0]
                            a = sc if sc > jl else jl
                            b = ec if ec < jh else jh
                            if a <= b:
                                dup = True
                                break
                        if dup:
                            continue
                    out[k] = ids[r]
                    k += 1
    return out[:k]


if _HAVE_NUMBA:  # pragma: no cover - compiled tier needs the extra
    _window_slabs_jit: Any = _njit(cache=True, nogil=True)(_window_slabs_py)
    disk_scan: Any = _njit(cache=True, nogil=True)(_disk_scan_py)
else:
    # Never called by the indexes (compiled_available() gates the disk
    # route, window_slabs picks its own body); bound to the pure-python
    # body so direct unit tests can still exercise the kernel logic
    # without numba.
    disk_scan = _disk_scan_py
