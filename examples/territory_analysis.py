"""Territory analysis with non-rectangular ranges and estimates.

Scenario: a delivery company partitions a city into service territories
that are *not* axis-aligned — a hexagonal downtown zone, a wedge
"north-west of the river" — and wants, per territory: how many customer
locations fall inside (estimated instantly for dashboards, exact when it
matters), and which ones.

Uses the §IV-E generalisation: duplicate-free two-layer queries over
arbitrary convex ranges, plus the class-A-histogram selectivity
estimator for instant approximate counts.

Run:  python examples/territory_analysis.py
"""

from __future__ import annotations

import math
import time

from repro.api import SpatialCollection
from repro.core import (
    ConvexPolygonRange,
    HalfPlaneStripRange,
    convex_range_query,
)
from repro.datasets import generate_zipf_rects


def hexagon(cx: float, cy: float, r: float):
    return [
        (cx + r * math.cos(math.pi / 3 * i), cy + r * math.sin(math.pi / 3 * i))
        for i in range(6)
    ]


def main() -> None:
    # Customer sites: small, population-skewed footprints.
    customers = generate_zipf_rects(300_000, area=1e-9, seed=77)
    col = SpatialCollection.from_dataset(customers)
    print(f"{col!r}\n")

    # -- territory 1: hexagonal downtown zone -----------------------------
    downtown = hexagon(0.12, 0.15, 0.08)
    t0 = time.perf_counter()
    inside = col.polygon(downtown)
    dt = time.perf_counter() - t0
    print(
        f"hexagonal downtown zone: {inside.shape[0]:,} customers "
        f"({dt * 1e3:.1f} ms, duplicate-free, no dedup step)"
    )

    # -- territory 2: a wedge (half-plane strip) --------------------------
    # North-west of the diagonal x + y <= 0.5, east of x >= 0.05.
    wedge = HalfPlaneStripRange([(1.0, 1.0, 0.5), (-1.0, 0.0, -0.05)])
    in_wedge = convex_range_query(col.index, col.data, wedge)
    print(f"NW wedge territory:      {in_wedge.shape[0]:,} customers")

    # -- dashboards: estimate vs exact count ------------------------------
    window = (0.05, 0.05, 0.25, 0.25)
    t0 = time.perf_counter()
    estimate = col.estimate(*window)
    t_est = time.perf_counter() - t0
    t0 = time.perf_counter()
    exact = col.count(*window)
    t_cnt = time.perf_counter() - t0
    print(
        f"\nplanning window {window}:\n"
        f"  histogram estimate: {estimate:10,.0f}  in {t_est * 1e6:7.0f} us\n"
        f"  exact count:        {exact:10,}  in {t_cnt * 1e6:7.0f} us\n"
        f"  estimate error: {abs(estimate - exact) / max(exact, 1):.1%}"
    )

    # Sanity: polygon answers match a brute-force re-check on a sample.
    q = ConvexPolygonRange(downtown)
    sample = inside[:500]
    assert q.intersects_rects(
        customers.xl[sample],
        customers.yl[sample],
        customers.xu[sample],
        customers.yu[sample],
    ).all()
    print("\nsample verified against the exact polygon predicate")


if __name__ == "__main__":
    main()
