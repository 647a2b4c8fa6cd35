"""A zero-dependency registry of event counters.

The registry counts *events* — inserts, deletes, batches, splits,
supernode growths, EXPLAINs, WAL appends/fsyncs/truncates, checkpoints —
under stable names fanned out by labels, snapshotable as plain JSON
(:meth:`MetricsRegistry.snapshot`).  State is read from the object that
owns it, never copied here: ``tree.tracker.snapshot()``,
``tree.result_cache.stats()``, :func:`~repro.core.stats.collect_stats`,
``tree.tree_version`` and ``DurableWarehouse.report``.

Counters are observational only: they never feed the deterministic
tracker, so the simulated cost model is bit-identical with the registry
attached or not.
"""

from __future__ import annotations

import json


class MetricsRegistry:
    """Named counter families, each fanned out by label sets.

    ``registry.count("wal_appends_total", op="apply")`` adds one to the
    counter for that label combination, creating it on first use.
    ``name`` is positional-only so that ``name=...`` (a natural label)
    lands in ``**labels``.
    """

    def __init__(self):
        self._families = {}  # name -> {sorted label tuple: value}

    def count(self, name, /, amount=1, **labels):
        """Add ``amount`` (never negative) to one counter."""
        if amount < 0:
            raise ValueError("counters only go up (got %r)" % (amount,))
        family = self._families.setdefault(name, {})
        key = tuple(sorted(labels.items()))
        family[key] = family.get(key, 0) + amount

    def get(self, name, /, **labels):
        """One counter's value, or None when it never counted."""
        return self._families.get(name, {}).get(tuple(sorted(labels.items())))

    def snapshot(self):
        """Every counter as one JSON-ready dict (sorted, stable)."""
        return {
            name: {"samples": [
                {"labels": dict(key), "value": family[key]}
                for key in sorted(family)
            ]}
            for name, family in sorted(self._families.items())
        }

    def snapshot_json(self, indent=2):
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def __repr__(self):
        return "MetricsRegistry(%d families)" % len(self._families)


def describe_result_cache(tree):
    """One-line result-cache summary of a DC-tree (debug/CLI aid).

    Returns e.g. ``"result-cache: 3 hits / 5 misses (37.5% hit rate), 5
    entries of 128, 1 eviction(s), 2 invalidation(s)"``.
    """
    stats = tree.result_cache.stats()
    return (
        "result-cache: %d hits / %d misses (%.1f%% hit rate), "
        "%d entries of %d, %d eviction(s), %d invalidation(s)"
        % (stats.hits, stats.misses, 100.0 * stats.hit_rate,
           stats.size, stats.capacity, stats.evictions,
           stats.invalidations)
    )
