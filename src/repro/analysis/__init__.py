"""Correctness tooling for the reproduction: static analysis + sanitizer.

Two mechanically-enforced layers guard the invariants the paper and the
serving stack rely on:

* :mod:`repro.analysis.lint` — a repo-aware AST linter
  (``python -m repro.analysis.lint src/``) whose rules encode domain
  contracts: no float equality on coordinates, no blocking calls on the
  event loop, no ``await`` under a ``threading.Lock``, QueryStats
  threading through every comparing kernel, base/overlay parity
  on the grid APIs, plus generic hygiene (bare ``except``, mutable
  defaults, wall-clock calls, unused imports, public-API annotations).

* :mod:`repro.analysis.sanitize` — a runtime sanitizer enabled by
  ``REPRO_SANITIZE=1`` that freezes published snapshot arrays, validates
  PackedStore CSR invariants at build/compact/publish time, and
  cross-checks sampled window queries against a naive per-tile scan.

See ``docs/static-analysis.md`` for the rule catalogue and policy.
"""

from repro.analysis.sanitize import SanitizerError

__all__ = ["SanitizerError"]
