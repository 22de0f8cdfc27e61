"""The paper's contribution: two-layer partitioning and everything on it.

* :mod:`repro.core.selection` — Lemmas 1-4 as per-tile evaluation plans.
* :class:`TwoLayerGrid` — the 2-layer index (Sections III-IV).
* :class:`TwoLayerPlusGrid` — 2-layer⁺ with DSM decomposed tables (IV-C).
* :class:`NDimTwoLayerGrid` — the m-dimensional generalisation (IV-D).
* :class:`RefinementEngine` — Simple / RefAvoid / RefAvoid⁺ refinement (V).
* :mod:`repro.core.batch` / :mod:`repro.core.parallel` — queries-based and
  tiles-based batch evaluation, sequential and parallel (VI).
* :mod:`repro.core.join` / :mod:`repro.core.knn` — spatial joins and kNN
  queries via the same duplicate-avoidance machinery (the paper's stated
  future work, implemented as extensions).
* :mod:`repro.core.ranges` — §IV-E generalised: duplicate-free queries
  over arbitrary convex ranges (convex polygons, half-plane strips).
"""

from repro.core.batch import (
    BATCH_METHODS,
    evaluate_disk_queries_based,
    evaluate_disk_tiles_based,
    evaluate_queries_based,
    evaluate_tiles_based,
)
from repro.core.decomposed import REQUIRED_TABLES, DecomposedTables
from repro.core.estimate import SelectivityEstimator
from repro.core.join import (
    ALLOWED_CLASS_COMBOS,
    brute_force_join,
    one_layer_spatial_join,
    refine_join_pairs,
    two_layer_spatial_join,
)
from repro.core.knn import knn_query
from repro.core.ndim import NDimTwoLayerGrid
from repro.core.persistence import load_index, save_index
from repro.core.ranges import (
    ConvexPolygonRange,
    HalfPlaneStripRange,
    convex_range_query,
)
from repro.core.parallel import (
    PARALLEL_METHODS,
    ParallelBatchEvaluator,
    available_workers,
    parallel_window_queries,
)
from repro.core.refinement import (
    REFINEMENT_MODES,
    RefinementBreakdown,
    RefinementEngine,
)
from repro.core.selection import ClassPlan, TilePlan, plan_for_region, plan_tile
from repro.core.tuning import TARGET_ENTRIES_PER_TILE, suggest_partitions
from repro.core.two_layer import TwoLayerGrid
from repro.core.two_layer_plus import (
    MULTI_COMPARISON_STRATEGIES,
    TwoLayerPlusGrid,
)

__all__ = [
    "TwoLayerGrid",
    "TwoLayerPlusGrid",
    "MULTI_COMPARISON_STRATEGIES",
    "NDimTwoLayerGrid",
    "RefinementEngine",
    "RefinementBreakdown",
    "REFINEMENT_MODES",
    "DecomposedTables",
    "REQUIRED_TABLES",
    "ClassPlan",
    "TilePlan",
    "plan_tile",
    "evaluate_queries_based",
    "evaluate_tiles_based",
    "evaluate_disk_queries_based",
    "evaluate_disk_tiles_based",
    "BATCH_METHODS",
    "parallel_window_queries",
    "ParallelBatchEvaluator",
    "PARALLEL_METHODS",
    "available_workers",
    "two_layer_spatial_join",
    "one_layer_spatial_join",
    "brute_force_join",
    "refine_join_pairs",
    "ALLOWED_CLASS_COMBOS",
    "knn_query",
    "convex_range_query",
    "ConvexPolygonRange",
    "HalfPlaneStripRange",
    "save_index",
    "load_index",
    "SelectivityEstimator",
    "suggest_partitions",
    "TARGET_ENTRIES_PER_TILE",
    "plan_for_region",
]
