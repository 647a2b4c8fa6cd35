"""Bulk loading a DC-tree from a full record set.

The paper loads its test cube from a flat insert file one record at a
time; production systems bulk-load the initial cube.  This module builds
the tree bottom-up in one pass over the data by *hierarchy partitioning*:
starting from ``(ALL, ..., ALL)``, records are recursively partitioned
along the dimension with the highest relevant level (ties towards more
distinct values, exactly like the dynamic split's dimension order),
descending one concept level whenever a single value cannot be divided —
the same top-down level refinement the dynamic hierarchy split performs,
but without ever producing an intermediate overflow.

The result obeys every DC-tree invariant (coverage, minimality, level
monotonicity, capacities) and is immediately updatable with ordinary
:meth:`~repro.core.tree.DCTree.insert` / ``delete`` calls.  Compared to
record-at-a-time insertion the bulk build touches each page once instead
of once per covered record (59x cheaper in simulated cost at 10k records,
as measured in EXPERIMENTS.md).
"""

from __future__ import annotations

from .tree import DCTree


def bulk_load(schema, records, config=None, storage_config=None):
    """Build a :class:`DCTree` over ``records`` in one bottom-up pass.

    Returns a fully consistent, dynamic tree.  ``records`` may be any
    iterable; it is materialized once.
    """
    tree = DCTree(schema, config=config, storage_config=storage_config)
    records = list(records)
    if not records:
        return tree
    loader = _BulkLoader(tree)
    top_levels = [h.top_level for h in tree.hierarchies]
    root = loader.build(records, top_levels)
    # The root swap is a mutation like any other: adopt_root bumps the
    # tree version, so the result cache can never serve an answer from
    # before the load.
    tree.adopt_root(root, len(records))
    return tree


class _BulkLoader:
    """One bulk-load run; holds the tree context."""

    def __init__(self, tree):
        self.tree = tree
        self.config = tree.config
        self.schema = tree.schema
        self.hierarchies = tree.hierarchies
        self.tracker = tree.tracker

    # ------------------------------------------------------------------

    def build(self, records, levels):
        """Build the subtree for ``records`` described at ``levels``."""
        if len(records) <= self.config.leaf_capacity:
            return self._make_leaf(records, levels)
        partition = self._partition(records, levels)
        if partition is None:
            # Indivisible: identical cell coordinates.  One (super)leaf.
            return self._make_leaf(records, levels)
        buckets, child_levels = partition
        children = [self.build(bucket, list(child_levels))
                    for bucket in buckets]
        return self._assemble(children, levels)

    # ------------------------------------------------------------------
    # partitioning
    # ------------------------------------------------------------------

    def _partition(self, records, levels):
        """Split ``records`` along the best dimension.

        Returns ``(buckets, child_levels)`` or None when the records are
        identical in every dimension down to the leaves.  Dimension order
        and the descend-one-level rule mirror the dynamic split (Fig. 5).
        """
        order = sorted(
            range(self.schema.n_dimensions),
            key=lambda d: (-levels[d], d),
        )
        for dim in order:
            for level in self._attempt_levels(records, dim, levels[dim]):
                groups = self._group_by_value(records, dim, level)
                if len(groups) < 2:
                    continue
                child_levels = list(levels)
                child_levels[dim] = level
                return self._pack_buckets(groups), child_levels
        return None

    def _attempt_levels(self, records, dim, level):
        """Levels to try for ``dim``: the current one, then one deeper."""
        attempts = []
        if level < self.hierarchies[dim].top_level:
            attempts.append(level)
        if level > 0:
            attempts.append(level - 1)
        return attempts

    def _group_by_value(self, records, dim, level):
        groups = {}
        for record in records:
            groups.setdefault(
                record.value_at_level(dim, level), []
            ).append(record)
        self.tracker.cpu(len(records))
        return groups

    def _pack_buckets(self, groups):
        """Pack value groups into at most ``dir_capacity`` buckets.

        Greedy balanced first-fit on record counts, largest groups first:
        keeps sibling subtrees similar in size without splitting any
        value group across buckets (so siblings stay disjoint in the
        split dimension — the property the dynamic split also aims for).
        The bucket count targets well-filled data nodes: never more
        buckets than needed for each to feed at least one full leaf.
        """
        capacity = self.config.dir_capacity
        ordered = sorted(groups.values(), key=len, reverse=True)
        total = sum(len(group) for group in ordered)
        full_leaves = -(-total // self.config.leaf_capacity)
        n_buckets = min(capacity, len(ordered), max(2, full_leaves))
        buckets = [[] for _ in range(n_buckets)]
        sizes = [0] * n_buckets
        for group in ordered:
            target = sizes.index(min(sizes))
            buckets[target].extend(group)
            sizes[target] += len(group)
        return [bucket for bucket in buckets if bucket]

    # ------------------------------------------------------------------
    # node assembly
    # ------------------------------------------------------------------

    def _make_leaf(self, records, levels):
        node = self.tree._new_node(levels, records=list(records))
        n_flat = self.schema.n_flat_attributes
        return self._written(node, len(records) * n_flat)

    def _assemble(self, children, levels):
        """Stack ``children`` under directory nodes at ``levels``.

        More than ``dir_capacity`` children (possible when a recursive
        build returns splits of splits) are grouped into intermediate
        directory nodes first.
        """
        capacity = self.config.dir_capacity
        while len(children) > capacity:
            grouped = []
            for start in range(0, len(children), capacity):
                grouped.append(
                    self._make_dir(children[start:start + capacity], levels)
                )
            children = grouped
        if len(children) == 1:
            return children[0]
        return self._make_dir(children, levels)

    def _make_dir(self, children, levels):
        node = self.tree._new_node(levels, children=list(children))
        return self._written(node, len(children) * self.schema.n_dimensions)

    def _written(self, node, cpu_units):
        """Charge a built node's fold CPU, its access and its write."""
        self.tracker.cpu(cpu_units)
        self.tracker.access_node(node.page_id, node.n_blocks)
        self.tracker.write_node(node.page_id, node.n_blocks)
        return node
