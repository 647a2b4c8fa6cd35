"""Tunable parameters for the index structures and the cost model.

All knobs live here so tests, benchmarks and applications can vary them
without touching algorithm code.  Defaults follow the paper where it gives
numbers and common X-tree/R*-tree practice where it does not.  A knob stays
only while some caller sets it; the split (Fig. 6), the use of materialized
aggregates and the entry-count capacity rule are fixed behaviour.
"""

from __future__ import annotations

import os

from .errors import SchemaError


class DCTreeConfig:
    """Parameters of the DC-tree.

    Parameters
    ----------
    dir_capacity:
        Maximum number of entries of a regular directory node (one block).
        Supernodes hold multiples of this (§4.2: a supernode splits once
        "the directory node capacity multiplied by the number of blocks of
        the supernode is exceeded").
    leaf_capacity:
        Maximum number of data records in a regular data node.
    min_fanout_fraction:
        A split is "too unbalanced" when the smaller group would hold less
        than this fraction of the entries (X-tree heritage; the X-tree paper
        uses 35 %).
    max_overlap_fraction:
        A split is rejected when ``overlap(G1, G2) / min(volume(G1),
        volume(G2))`` exceeds this bound ("overlap is not too high",
        Fig. 5); the X-tree paper found 20 % to be a good threshold.
    use_result_cache:
        When True (default) full ``range_query`` / ``group_by`` answers
        are memoized in a per-tree LRU keyed on (query digest, tree
        version); every insert/delete/bulk-load bumps the version, so a
        stale answer can never be served.  Cache hits replay the recorded
        tracker charges, keeping deterministic counters identical with the
        cache on or off (see docs/cost_model.md).
    result_cache_capacity:
        Maximum number of memoized answers held per tree (LRU-bounded).
    wal_fsync_interval:
        Fsync batching of an attached write-ahead log (see
        :mod:`repro.persist.wal`): 1 syncs every append (strongest
        durability, the default), N syncs every Nth append, 0 leaves
        syncing to the OS.  Irrelevant until a durability sink is
        attached to the tree.
    observability:
        When True the tree carries a :class:`repro.obs.MetricsRegistry`
        that its inserts, deletes, batches, splits and EXPLAINs, its
        write-ahead log, checkpoints and recovery count into.
        Telemetry is observational only — deterministic counters, query
        answers and ``tree_version`` are bit-identical with it on or
        off (enforced by the invariance tests and the observed pass of
        every ``repro.bench regression`` run).
        ``None`` (the default) defers to the ``REPRO_OBSERVABILITY``
        environment variable (truthy values: ``1``/``true``/``yes``/
        ``on``), which CI uses to force the whole suite through the
        instrumented paths.

    Instances have ``__slots__``, so assigning a knob that does not exist
    raises :class:`AttributeError` instead of being silently ignored.
    """

    __slots__ = (
        "dir_capacity", "leaf_capacity", "min_fanout_fraction",
        "max_overlap_fraction", "use_result_cache", "result_cache_capacity",
        "wal_fsync_interval", "observability",
    )

    def __init__(
        self,
        dir_capacity=16,
        leaf_capacity=64,
        min_fanout_fraction=0.35,
        max_overlap_fraction=0.20,
        use_result_cache=True,
        result_cache_capacity=128,
        wal_fsync_interval=1,
        observability=None,
    ):
        if dir_capacity < 4:
            raise SchemaError("dir_capacity must be at least 4")
        if leaf_capacity < 4:
            raise SchemaError("leaf_capacity must be at least 4")
        if not 0.0 < min_fanout_fraction <= 0.5:
            raise SchemaError("min_fanout_fraction must be in (0, 0.5]")
        if max_overlap_fraction < 0.0:
            raise SchemaError("max_overlap_fraction must be non-negative")
        if result_cache_capacity < 1:
            raise SchemaError("result_cache_capacity must be at least 1")
        if not isinstance(wal_fsync_interval, int) or wal_fsync_interval < 0:
            raise SchemaError(
                "wal_fsync_interval must be a non-negative integer"
            )
        self.dir_capacity = dir_capacity
        self.leaf_capacity = leaf_capacity
        self.min_fanout_fraction = min_fanout_fraction
        self.max_overlap_fraction = max_overlap_fraction
        self.use_result_cache = bool(use_result_cache)
        self.result_cache_capacity = result_cache_capacity
        self.wal_fsync_interval = wal_fsync_interval
        if observability is None:
            env = os.environ.get("REPRO_OBSERVABILITY", "")
            observability = env.strip().lower() in ("1", "true", "yes", "on")
        self.observability = bool(observability)

    def min_dir_fanout(self):
        """Smallest acceptable group size when splitting a directory node."""
        return max(2, int(self.dir_capacity * self.min_fanout_fraction))

    def min_leaf_fanout(self):
        """Smallest acceptable group size when splitting a data node."""
        return max(2, int(self.leaf_capacity * self.min_fanout_fraction))


class XTreeConfig:
    """Parameters of the X-tree baseline.

    ``max_overlap_fraction`` triggers the fallback from the topological
    (R*-style) split to the overlap-minimal split, and
    ``min_fanout_fraction`` decides when the overlap-minimal split is too
    unbalanced and a supernode must be created — both straight from the
    X-tree paper (Berchtold/Keim/Kriegel, VLDB 1996).
    """

    def __init__(
        self,
        dir_capacity=32,
        leaf_capacity=64,
        min_fanout_fraction=0.35,
        max_overlap_fraction=0.20,
    ):
        if dir_capacity < 4:
            raise SchemaError("dir_capacity must be at least 4")
        if leaf_capacity < 4:
            raise SchemaError("leaf_capacity must be at least 4")
        if not 0.0 < min_fanout_fraction <= 0.5:
            raise SchemaError("min_fanout_fraction must be in (0, 0.5]")
        if max_overlap_fraction < 0.0:
            raise SchemaError("max_overlap_fraction must be non-negative")
        self.dir_capacity = dir_capacity
        self.leaf_capacity = leaf_capacity
        self.min_fanout_fraction = min_fanout_fraction
        self.max_overlap_fraction = max_overlap_fraction

    def min_dir_fanout(self):
        return max(2, int(self.dir_capacity * self.min_fanout_fraction))

    def min_leaf_fanout(self):
        return max(2, int(self.leaf_capacity * self.min_fanout_fraction))


class CostModel:
    """Converts counted events into a simulated elapsed time.

    The paper measured wall-clock seconds on 1999 hardware with
    disk-resident trees; we count buffer misses (random page I/Os) and CPU
    work units (one unit ≈ one MDS/MBR set operation on one attribute
    value) and weight them.  Defaults model a 10 ms random I/O against a
    1 µs work unit — the classic four-orders-of-magnitude gap that makes
    page accesses dominate, as they did in the paper's setting.
    """

    def __init__(self, t_io=10e-3, t_cpu=1e-6):
        if t_io <= 0 or t_cpu <= 0:
            raise SchemaError("cost-model times must be positive")
        self.t_io = t_io
        self.t_cpu = t_cpu

    def simulated_seconds(self, page_misses, cpu_units):
        """Simulated elapsed time for the counted events."""
        return page_misses * self.t_io + cpu_units * self.t_cpu


class StorageConfig:
    """Parameters of the simulated paged store.

    ``page_size`` is the block size in bytes (only used for reporting the
    trees' footprints and matching the buffer budgets of compared indexes);
    ``buffer_pages`` is the LRU buffer-pool capacity in pages.  A
    non-positive ``buffer_pages`` means "everything fits in memory" (every
    access after the first is a hit).
    """

    def __init__(self, page_size=4096, buffer_pages=64):
        if page_size < 256:
            raise SchemaError("page_size must be at least 256 bytes")
        self.page_size = page_size
        self.buffer_pages = buffer_pages
