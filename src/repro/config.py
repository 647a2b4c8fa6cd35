"""Parameters of the index structures and the cost model.

A setting stays settable only while some caller sets it: node
capacities, the WAL's fsync batching, telemetry and the buffer-pool
size.  Everything else the paper fixes is a constant here — the X-tree
split thresholds both trees share, the cost model's weights and the
page size — as are the split (Fig. 6), the use of materialized
aggregates, the result cache and the entry-count capacity rule.
"""

from __future__ import annotations

import os

from .errors import SchemaError

#: A split is "too unbalanced" when the smaller group would hold less
#: than this fraction of the entries (X-tree heritage; the X-tree paper
#: uses 35 %).
MIN_FANOUT_FRACTION = 0.35

#: A split is rejected when its groups overlap by more than this
#: fraction of the smaller group ("overlap is not too high", Fig. 5; the
#: X-tree paper found 20 % to be a good threshold).  The DC-tree measures
#: the overlap in the split dimension, the X-tree as MBR volume.
MAX_OVERLAP_FRACTION = 0.20

#: Block size in bytes: reports the trees' footprints and sizes the
#: scan's heap pages.
PAGE_SIZE = 4096


def min_group_size(n_entries):
    """Smallest acceptable split group of ``n_entries`` (at least 2)."""
    return max(2, int(MIN_FANOUT_FRACTION * n_entries))


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
    wal_fsync_interval:
        Fsync batching of an attached write-ahead log (see
        :mod:`repro.persist.wal`): 1 syncs every append (strongest
        durability, the default), N syncs every Nth append, 0 leaves
        syncing to the OS.  Irrelevant until a durability sink is
        attached to the tree.
    observability:
        When True the tree carries a :class:`repro.obs.MetricsRegistry`
        that its inserts, deletes, batches, splits and EXPLAINs, its
        write-ahead log and checkpoints count events into (state stays
        with its owners: tracker, result cache, tree, recovery report).
        Telemetry is observational only — deterministic counters, query
        answers and ``tree_version`` are bit-identical with it on or
        off (enforced by the invariance tests and the observed pass of
        every ``repro.bench regression`` run).
        ``None`` (the default) defers to the ``REPRO_OBSERVABILITY``
        environment variable (truthy values: ``1``/``true``/``yes``/
        ``on``), which CI uses to force the whole suite through the
        instrumented paths.

    Instances have ``__slots__``, so assigning a setting that does not
    exist raises :class:`AttributeError` instead of being silently
    ignored.
    """

    __slots__ = (
        "dir_capacity", "leaf_capacity", "wal_fsync_interval",
        "observability",
    )

    def __init__(
        self,
        dir_capacity=16,
        leaf_capacity=64,
        wal_fsync_interval=1,
        observability=None,
    ):
        _check_capacities(dir_capacity, leaf_capacity)
        if not isinstance(wal_fsync_interval, int) or wal_fsync_interval < 0:
            raise SchemaError(
                "wal_fsync_interval must be a non-negative integer"
            )
        self.dir_capacity = dir_capacity
        self.leaf_capacity = leaf_capacity
        self.wal_fsync_interval = wal_fsync_interval
        if observability is None:
            env = os.environ.get("REPRO_OBSERVABILITY", "")
            observability = env.strip().lower() in ("1", "true", "yes", "on")
        self.observability = bool(observability)

    def min_dir_fanout(self):
        """Smallest acceptable group size when splitting a directory node."""
        return min_group_size(self.dir_capacity)

    def min_leaf_fanout(self):
        """Smallest acceptable group size when splitting a data node."""
        return min_group_size(self.leaf_capacity)


class XTreeConfig:
    """Parameters of the X-tree baseline.

    :data:`MAX_OVERLAP_FRACTION` triggers the fallback from the
    topological (R*-style) split to the overlap-minimal split, and
    :data:`MIN_FANOUT_FRACTION` decides when the overlap-minimal split is
    too unbalanced and a supernode must be created — both straight from
    the X-tree paper (Berchtold/Keim/Kriegel, VLDB 1996).  Slotted like
    :class:`DCTreeConfig`.
    """

    __slots__ = ("dir_capacity", "leaf_capacity")

    def __init__(self, dir_capacity=32, leaf_capacity=64):
        _check_capacities(dir_capacity, leaf_capacity)
        self.dir_capacity = dir_capacity
        self.leaf_capacity = leaf_capacity


def _check_capacities(dir_capacity, leaf_capacity):
    if dir_capacity < 4:
        raise SchemaError("dir_capacity must be at least 4")
    if leaf_capacity < 4:
        raise SchemaError("leaf_capacity must be at least 4")


class CostModel:
    """Converts counted events into a simulated elapsed time.

    The paper measured wall-clock seconds on 1999 hardware with
    disk-resident trees; we count page I/Os and CPU work units (one unit
    ≈ one MDS/MBR set operation on one attribute value) and weight them.
    The weights model a 10 ms random I/O against a 1 µs work unit — the
    classic four-orders-of-magnitude gap that makes page accesses
    dominate, as they did in the paper's setting.
    """

    __slots__ = ()

    #: Seconds per page I/O.
    T_IO = 10e-3
    #: Seconds per CPU work unit.
    T_CPU = 1e-6

    @staticmethod
    def simulated_seconds(page_ios, cpu_units):
        """Simulated elapsed time for the counted events."""
        return page_ios * CostModel.T_IO + cpu_units * CostModel.T_CPU


class StorageConfig:
    """Parameters of the simulated paged store.

    ``buffer_pages`` is the LRU buffer-pool capacity in pages.  A
    non-positive ``buffer_pages`` means "everything fits in memory" (every
    access after the first is a hit).  The page size is the constant
    :data:`PAGE_SIZE`.
    """

    __slots__ = ("buffer_pages",)

    def __init__(self, buffer_pages=64):
        self.buffer_pages = buffer_pages
