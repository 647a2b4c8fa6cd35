"""Versioned query-result cache for range-query and group-by answers.

The DC-tree's headline win is answering *contained* range queries from
materialized directory aggregates without descending; on a repeated OLAP
workload the natural next step is to not descend at all.  This module
memoizes full ``range_query`` / ``group_by_aggregators`` answers keyed on

* the **canonical query digest** — per dimension the ``(frozen value-set,
  relevant level)`` pair of the query MDS (:attr:`~repro.core.mds.MDS.entries`,
  order-insensitive and collision-free by construction) plus the operator
  and measure index, and
* the tree's **monotone ``tree_version`` counter**, bumped by every
  :meth:`~repro.core.tree.DCTree.apply` call and every root swap (bulk
  load, checkpoint load) — so a stale answer can never be served.

The cache is **counter-invisible**: a hit replays the page-access trace
and CPU units recorded when the answer was first computed (see
:meth:`~repro.storage.tracker.StorageTracker.replay`), so the simulated
cost model, the buffer-pool evolution and every deterministic tracker
counter are bit-identical to recomputing the answer.  Only wall-clock time
changes — which is what ``python -m repro.bench regression`` prices with
its repeated-query (Zipfian re-ask) phase.

Entries are LRU-bounded (128 answers); every DC-tree builds its own
cache.
"""

from __future__ import annotations

from collections import OrderedDict

from ..errors import SchemaError


class CachedAnswer:
    """One memoized answer plus the charges its recomputation would make."""

    __slots__ = ("value", "trace", "cpu_units")

    def __init__(self, value, trace, cpu_units):
        self.value = value
        self.trace = trace
        self.cpu_units = cpu_units


class ResultCacheStats:
    """Immutable snapshot of a cache's counters (for stats/debug/CLI)."""

    __slots__ = ("hits", "misses", "evictions", "invalidations", "size", "capacity")

    def __init__(self, hits, misses, evictions, invalidations, size, capacity):
        self.hits = hits
        self.misses = misses
        self.evictions = evictions
        self.invalidations = invalidations
        self.size = size
        self.capacity = capacity

    @property
    def lookups(self):
        return self.hits + self.misses

    @property
    def hit_rate(self):
        """Fraction of lookups answered from the cache (0.0 when idle)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def __repr__(self):
        return (
            "ResultCacheStats(hits=%d, misses=%d, evictions=%d, "
            "invalidations=%d, size=%d/%d)"
            % (
                self.hits,
                self.misses,
                self.evictions,
                self.invalidations,
                self.size,
                self.capacity,
            )
        )


class ResultCache:
    """LRU cache of full query answers, invalidated by tree version.

    The cache remembers the ``tree_version`` it was last consistent with;
    any lookup under a different version flushes every entry first (one
    *invalidation* event, however many entries were dropped).  Keys are
    built by the tree from the canonical query digest; values are
    :class:`CachedAnswer` instances whose stored trace is replayed through
    the tracker on every hit.
    """

    __slots__ = (
        "_entries",
        "_capacity",
        "_seen_version",
        "hits",
        "misses",
        "evictions",
        "invalidations",
    )

    def __init__(self, capacity=128):
        if capacity < 1:
            raise SchemaError("result-cache capacity must be at least 1")
        self._entries = OrderedDict()
        self._capacity = capacity
        self._seen_version = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def __len__(self):
        return len(self._entries)

    @property
    def capacity(self):
        return self._capacity

    def stats(self):
        """Current counters as an immutable :class:`ResultCacheStats`."""
        return ResultCacheStats(
            self.hits,
            self.misses,
            self.evictions,
            self.invalidations,
            len(self._entries),
            self._capacity,
        )

    # ------------------------------------------------------------------
    # cache protocol
    # ------------------------------------------------------------------

    def _sync_version(self, tree_version):
        """Flush everything memoized under a different tree version."""
        if self._seen_version != tree_version:
            if self._entries:
                self._entries.clear()
                self.invalidations += 1
            self._seen_version = tree_version

    def fetch(self, key, tree_version, tracker):
        """Look up ``key``; replay its charges and return the entry on a hit.

        Returns the :class:`CachedAnswer` (whose ``value`` may itself be
        ``None`` — e.g. AVG over an empty range) or ``None`` on a miss.
        """
        entry = self.peek(key, tree_version)
        if entry is not None:
            tracker.replay(entry.trace, entry.cpu_units)
        return entry

    def peek(self, key, tree_version):
        """Look up ``key`` as :meth:`fetch` does, *without* the replay.

        Counts the hit/miss and refreshes the LRU position, but leaves
        the tracker untouched.  The EXPLAIN path uses this: it recomputes
        the traversal (to profile it) and the recomputation makes the
        very charges the replay would have — so deterministic counters
        stay bit-identical with ``fetch``.
        """
        self._sync_version(tree_version)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def store(self, key, tree_version, value, trace, cpu_units):
        """Memoize one freshly computed answer, evicting LRU overflow."""
        self._sync_version(tree_version)
        self._entries[key] = CachedAnswer(value, trace, cpu_units)
        self._entries.move_to_end(key)
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self):
        """Drop every entry without touching the counters."""
        self._entries.clear()

    def __repr__(self):
        return "ResultCache(%r)" % (self.stats(),)
