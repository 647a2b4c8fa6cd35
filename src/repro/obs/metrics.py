"""A zero-dependency metrics registry: counters and gauges.

The registry unifies the package's previously scattered statistics
surfaces — :class:`~repro.storage.tracker.StorageTracker` counters,
result-cache hit/miss/eviction stats, WAL append/fsync batching, split
and supernode events, per-depth entry counts from
:mod:`repro.core.stats` — under stable metric names, snapshotable as
plain JSON (:meth:`MetricsRegistry.snapshot`) and as Prometheus text
exposition (:meth:`MetricsRegistry.render_prometheus`, with the escaping
rules of the format).

Metrics are observational only: they are fed *from* the deterministic
counters and never feed back into them, so the simulated cost model is
bit-identical with the registry attached or not.
"""

from __future__ import annotations

import json
import math


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError("counters only go up (got %r)" % (amount,))
        self.value += amount

    def snapshot_value(self):
        return self.value


class Gauge:
    """Point-in-time value (set, not accumulated)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value):
        self.value = value

    def inc(self, amount=1):
        self.value += amount

    def snapshot_value(self):
        return self.value


class _Family:
    """One named metric: a kind, a help string, children per label set."""

    __slots__ = ("name", "kind", "help", "children")

    def __init__(self, name, kind, help_text):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.children = {}  # sorted label tuple -> metric instance


def _escape_help(text):
    """Prometheus HELP escaping: backslash and newline."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text):
    """Prometheus label-value escaping: backslash, quote, newline."""
    return (
        str(text)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_number(value):
    if value is None:
        return "NaN"
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        return repr(value)
    return str(value)


class MetricsRegistry:
    """Named metric families, each fanned out by label sets.

    ``registry.counter("wal_appends_total", "...", op="insert")`` returns
    the live child counter for that label combination, creating family
    and child on first use.  Metric kinds are sticky: re-registering a
    name with a different kind raises.
    """

    def __init__(self):
        self._families = {}

    def _child(self, name, kind, help_text, labels, factory):
        family = self._families.get(name)
        if family is None:
            family = _Family(name, kind, help_text)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                "metric %r already registered as a %s" % (name, family.kind)
            )
        if help_text and not family.help:
            family.help = help_text
        key = tuple(sorted(labels.items()))
        child = family.children.get(key)
        if child is None:
            child = factory()
            family.children[key] = child
        return child

    # ``name``/``help_text`` are positional-only so that ``name=...`` (a
    # very natural label) lands in ``**labels``.

    def counter(self, name, help_text="", /, **labels):
        return self._child(name, "counter", help_text, labels, Counter)

    def gauge(self, name, help_text="", /, **labels):
        return self._child(name, "gauge", help_text, labels, Gauge)

    def get(self, name, /, **labels):
        """The existing child metric, or None (no registration side effect)."""
        family = self._families.get(name)
        if family is None:
            return None
        return family.children.get(tuple(sorted(labels.items())))

    def clear(self):
        self._families = {}

    def __len__(self):
        return len(self._families)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def snapshot(self):
        """Every metric as one JSON-ready dict (sorted, stable)."""
        out = {}
        for name in sorted(self._families):
            family = self._families[name]
            samples = []
            for key in sorted(family.children):
                samples.append({
                    "labels": dict(key),
                    "value": family.children[key].snapshot_value(),
                })
            out[name] = {
                "type": family.kind,
                "help": family.help,
                "samples": samples,
            }
        return out

    def snapshot_json(self, indent=2):
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def render_prometheus(self, stream=None):
        """Prometheus text exposition format (v0.0.4); returns the string."""
        lines = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append("# HELP %s %s" % (name, _escape_help(family.help)))
            lines.append("# TYPE %s %s" % (name, family.kind))
            for key in sorted(family.children):
                metric = family.children[key]
                label_text = ",".join(
                    '%s="%s"' % (label, _escape_label_value(value))
                    for label, value in key
                )
                suffix = "{%s}" % label_text if label_text else ""
                lines.append("%s%s %s" % (
                    name, suffix, _format_number(metric.snapshot_value()),
                ))
        text = "\n".join(lines)
        if stream is not None and text:
            stream.write(text + "\n")
        return text

    def __repr__(self):
        return "MetricsRegistry(%d families)" % len(self._families)


# ----------------------------------------------------------------------
# bridges from the package's existing stat surfaces
# ----------------------------------------------------------------------


def observe_tree_structure(registry, tree):
    """Per-depth node/entry/supernode gauges from the structural stats."""
    # Imported lazily: repro.core's package __init__ imports the tree,
    # which imports this package — a module-level import would cycle.
    from ..core.stats import collect_stats

    stats = collect_stats(tree)
    registry.gauge("dctree_records",
                   "Records indexed by the tree.").set(stats.n_records)
    registry.gauge("dctree_height",
                   "Tree height (root counts as 1).").set(stats.height)
    registry.gauge("dctree_nodes_total",
                   "Total nodes in the tree.").set(stats.n_nodes)
    registry.gauge("dctree_supernodes_total",
                   "Total supernodes in the tree.").set(stats.n_supernodes)
    for level in stats.levels:
        depth = str(level.depth)
        registry.gauge("dctree_level_nodes",
                       "Nodes at one depth (root=0).",
                       depth=depth).set(level.n_nodes)
        registry.gauge("dctree_level_supernodes",
                       "Supernodes at one depth.",
                       depth=depth).set(level.n_supernodes)
        registry.gauge("dctree_level_entries_avg",
                       "Average entries per node at one depth (Fig. 13).",
                       depth=depth).set(level.avg_entries)
        registry.gauge("dctree_level_blocks_avg",
                       "Average blocks per node at one depth.",
                       depth=depth).set(level.avg_blocks)


def observe_dctree(registry, tree):
    """Refresh every tree-derived gauge family: tracker, cache, structure."""
    tree.tracker.publish_metrics(registry)
    tree.result_cache.publish_metrics(registry)
    observe_tree_structure(registry, tree)
    registry.gauge("dctree_tree_version",
                   "Monotone mutation counter.").set(tree.tree_version)


def warehouse_registry(warehouse):
    """The registry describing a DC-tree warehouse right now.

    Reuses the tree's live registry when telemetry is on (so its event
    counters appear alongside), otherwise builds a fresh one; either way
    the tracker/cache/structure gauges are refreshed before returning.
    """
    registry = warehouse.observability
    if registry is None:
        registry = MetricsRegistry()
    observe_dctree(registry, warehouse.index)
    return registry


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
