"""Unified telemetry for the DC-tree reproduction.

Two coordinated pieces, both zero-dependency:

* :mod:`repro.obs.metrics` — a metrics registry of named counters and
  gauges unifying the package's scattered stats surfaces, snapshotable
  as JSON and Prometheus text exposition.
* :mod:`repro.obs.explain` — per-query EXPLAIN profiles attributing
  page/CPU cost, entry classifications and aggregate pruning to each
  tree level, reconciling exactly with the ``StorageTracker`` delta.

``DCTreeConfig(observability=True)`` (or the ``REPRO_OBSERVABILITY=1``
environment variable, which CI uses to force the whole suite through
the instrumented paths) gives the tree a :class:`MetricsRegistry` that
its mutators, splits and EXPLAINs, its write-ahead log, checkpoints and
recovery count into; an EXPLAIN scope (``DCTree.explain()``) profiles
queries with the switch off too.
Wall time by layer is ``perfbench/run.py --trace 1``'s job.  The
contract throughout: telemetry *observes* the simulated cost model and
never feeds it — deterministic counters, query answers and
``tree_version`` are bit-identical with observability on or off.
"""

from __future__ import annotations

from .explain import LevelProfile, ProfileSession, QueryProfile
from .metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    describe_result_cache,
    observe_dctree,
    observe_tree_structure,
    warehouse_registry,
)

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "LevelProfile",
    "ProfileSession",
    "QueryProfile",
    "describe_result_cache",
    "observe_dctree",
    "observe_tree_structure",
    "warehouse_registry",
]
