"""Access tracking: node visits, page I/O, CPU work units.

Every index structure in this package owns one :class:`StorageTracker`.
Algorithms report node visits and CPU-ish work (set operations on attribute
values) to it; experiments read the counters and convert them into a
simulated elapsed time through :class:`~repro.config.CostModel`.
"""

from __future__ import annotations

from contextlib import contextmanager

from ..config import CostModel, StorageConfig
from ..errors import StorageError
from .buffer import BufferPool


class AccessStats:
    """Immutable snapshot of the tracker's counters."""

    __slots__ = ("node_accesses", "buffer_hits", "buffer_misses",
                 "page_writes", "cpu_units")

    def __init__(self, node_accesses, buffer_hits, buffer_misses,
                 page_writes, cpu_units):
        self.node_accesses = node_accesses
        self.buffer_hits = buffer_hits
        self.buffer_misses = buffer_misses
        self.page_writes = page_writes
        self.cpu_units = cpu_units

    def __sub__(self, earlier):
        return AccessStats(
            self.node_accesses - earlier.node_accesses,
            self.buffer_hits - earlier.buffer_hits,
            self.buffer_misses - earlier.buffer_misses,
            self.page_writes - earlier.page_writes,
            self.cpu_units - earlier.cpu_units,
        )

    @property
    def page_ios(self):
        """Total page I/Os: read misses plus write-backs."""
        return self.buffer_misses + self.page_writes

    def simulated_seconds(self):
        """Simulated elapsed time of the counted events."""
        return CostModel.simulated_seconds(self.page_ios, self.cpu_units)

    def __repr__(self):
        return (
            "AccessStats(nodes=%d, hits=%d, misses=%d, writes=%d, cpu=%d)"
            % (self.node_accesses, self.buffer_hits, self.buffer_misses,
               self.page_writes, self.cpu_units)
        )


class StorageTracker:
    """Counts node accesses and CPU units behind an LRU buffer pool."""

    def __init__(self, storage_config=None):
        config = storage_config if storage_config is not None else StorageConfig()
        self.buffer = BufferPool(config.buffer_pages)
        self.node_accesses = 0
        self.page_writes = 0
        self.cpu_units = 0
        self._next_page_id = 0
        self._access_log = None
        # Optional FaultInjector (see repro.storage.faults), set by a
        # DurableWarehouse opened with one: every node access/write then
        # counts as an injectable I/O site, so crash tests can kill an
        # insert between any two page touches.
        self.faults = None

    # -- page lifecycle -------------------------------------------------

    def new_page_id(self):
        """Allocate a fresh page ID for a new node."""
        page_id = self._next_page_id
        self._next_page_id += 1
        return page_id

    def free_node(self, page_id, n_blocks=1):
        """Drop a destroyed node's pages from the buffer."""
        self.buffer.evict(page_id, n_blocks)

    # -- event reporting -------------------------------------------------

    def access_node(self, page_id, n_blocks=1):
        """Record one visit of a node occupying ``n_blocks`` pages."""
        if self.faults is not None:
            self.faults.op("tracker.access")
        self.node_accesses += 1
        if self._access_log is not None:
            self._access_log.append((page_id, n_blocks))
        self.buffer.access_run(page_id, n_blocks)

    def write_node(self, page_id, n_pages=1):
        """Record an in-place update of a node (write-through model).

        Dynamic single-record updates are what the DC-tree exists for, so
        updates are modeled write-through: every logical node update costs
        ``n_pages`` page writes (a supernode's measure/MDS entry update
        touches one block, so callers normally pass 1).  Writers access the
        node before updating it, so the read side is already accounted;
        this only counts the write-back.
        """
        if self.faults is not None:
            self.faults.op("tracker.write")
        self.page_writes += n_pages

    def cpu(self, units):
        """Record ``units`` of CPU work (attribute-value set operations)."""
        self.cpu_units += units

    # -- access tracing (result-cache support) ---------------------------

    @contextmanager
    def trace_accesses(self):
        """Record every ``access_node`` call in the body as a trace.

        Yields the live list of ``(page_id, n_blocks)`` pairs in call
        order.  The result cache stores the trace of a query's first
        computation and :meth:`replay`\\ s it on every hit, so the buffer
        pool evolves exactly as if the traversal had run.  Tracing is not
        reentrant — cached operations never nest.
        """
        if self._access_log is not None:
            raise StorageError("access tracing is not reentrant")
        log = []
        self._access_log = log
        try:
            yield log
        finally:
            self._access_log = None

    def replay(self, trace, cpu_units):
        """Re-charge a recorded access trace plus its CPU units.

        This is the cache-hit charging policy (see docs/cost_model.md):
        a memoized answer is charged exactly what recomputing it would
        cost, page by page, so deterministic counters and buffer-pool
        state come out as if the query had run again.
        """
        for page_id, n_blocks in trace:
            self.access_node(page_id, n_blocks)
        if cpu_units:
            self.cpu(cpu_units)

    # -- reading ----------------------------------------------------------

    def snapshot(self):
        """Current counters as an immutable :class:`AccessStats`."""
        return AccessStats(
            self.node_accesses,
            self.buffer.hits,
            self.buffer.misses,
            self.page_writes,
            self.cpu_units,
        )

    def reset(self, clear_buffer=False):
        """Zero the counters; optionally also empty the buffer pool."""
        self.node_accesses = 0
        self.page_writes = 0
        self.cpu_units = 0
        self.buffer.reset_counters()
        if clear_buffer:
            self.buffer.clear()

    def __repr__(self):
        return "StorageTracker(%r)" % (self.snapshot(),)
