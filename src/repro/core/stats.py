"""Structural statistics of a DC-tree (Fig. 13 of the paper).

The paper studies the average node size (number of entries) of the two
highest tree levels below the root: splits near the root run out of
attribute values to separate, so supernodes accumulate there and the
average entry count of the second-highest level grows with the data set
(≈2.5× the regular directory capacity at 30k records), while the highest
level stabilizes around ~15 entries.
"""

from __future__ import annotations

from collections import defaultdict

from ..config import PAGE_SIZE
from ..storage import page as page_mod


class LevelStats:
    """Aggregated statistics for one depth of the tree (root = depth 0)."""

    __slots__ = ("depth", "n_nodes", "n_supernodes", "n_entries", "n_blocks")

    def __init__(self, depth):
        self.depth = depth
        self.n_nodes = 0
        self.n_supernodes = 0
        self.n_entries = 0
        self.n_blocks = 0

    @property
    def avg_entries(self):
        """Average number of entries per node at this depth."""
        return self.n_entries / self.n_nodes if self.n_nodes else 0.0

    @property
    def avg_blocks(self):
        """Average number of blocks per node (supernode growth factor)."""
        return self.n_blocks / self.n_nodes if self.n_nodes else 0.0

    def __repr__(self):
        return (
            "LevelStats(depth=%d, nodes=%d, supernodes=%d, avg_entries=%.2f)"
            % (self.depth, self.n_nodes, self.n_supernodes, self.avg_entries)
        )


class TreeStats:
    """Complete structural profile of a DC-tree (or X-tree)."""

    def __init__(self, levels, n_records, height):
        self.levels = levels
        self.n_records = n_records
        self.height = height

    @property
    def n_nodes(self):
        return sum(stats.n_nodes for stats in self.levels)

    @property
    def n_supernodes(self):
        return sum(stats.n_supernodes for stats in self.levels)

    def level(self, depth):
        """Statistics of one depth (root = 0)."""
        return self.levels[depth]

    def highest_below_root(self):
        """Fig. 13's 'highest level of tree' (depth 1), None if too shallow."""
        return self.levels[1] if len(self.levels) > 1 else None

    def second_highest_below_root(self):
        """Fig. 13's '2nd highest level of tree' (depth 2)."""
        return self.levels[2] if len(self.levels) > 2 else None

    def __repr__(self):
        return "TreeStats(height=%d, nodes=%d, records=%d)" % (
            self.height,
            self.n_nodes,
            self.n_records,
        )


class TreeFootprint:
    """Height, bytes and pages of a tree, over the node protocol that
    :func:`collect_stats` walks (``is_leaf``, ``children``,
    ``entry_count``, ``byte_size(n_flat, n_measures)``), and the
    capacity rule of both trees.

    Mixed into the DC-tree and the X-tree, which supply ``root``,
    ``schema``, ``config`` and ``tracker``.  Nothing is charged.
    """

    def _blocks_needed(self, node):
        """Blocks the node's entries fill at one capacity per block.

        The capacity rule of both trees (§4.2, ``capacity × blocks``): a
        node is overfull when this exceeds its ``n_blocks``, a fresh
        node gets exactly this many, and a DC-tree supernode that lost
        entries shrinks to it.
        """
        base = (
            self.config.leaf_capacity if node.is_leaf
            else self.config.dir_capacity
        )
        return max(1, -(-node.entry_count // base))

    def height(self):
        """Number of levels, counting the root as 1."""
        levels = 1
        node = self.root
        while not node.is_leaf:
            levels += 1
            node = node.children[0]
        return levels

    def byte_size(self):
        """Approximate on-disk footprint of the whole tree in bytes."""
        return sum(self._node_bytes())

    def page_count(self):
        """Pages occupied at the configured page size."""
        return sum(
            page_mod.pages_for(size, PAGE_SIZE) for size in self._node_bytes()
        )

    def _node_bytes(self):
        n_flat = self.schema.n_flat_attributes
        n_measures = self.schema.n_measures
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node.byte_size(n_flat, n_measures)
            if not node.is_leaf:
                stack.extend(node.children)


def collect_stats(tree):
    """Profile any tree exposing ``root`` with ``is_leaf``/``children``.

    Works for both the DC-tree and the X-tree (their node protocols are
    intentionally aligned).  No I/O is charged — statistics gathering is
    an offline analysis, not part of the measured workloads.
    """
    per_depth = defaultdict(lambda: None)
    n_records = 0
    max_depth = 0
    stack = [(tree.root, 0)]
    while stack:
        node, depth = stack.pop()
        max_depth = max(max_depth, depth)
        stats = per_depth[depth]
        if stats is None:
            stats = LevelStats(depth)
            per_depth[depth] = stats
        stats.n_nodes += 1
        stats.n_entries += node.entry_count
        stats.n_blocks += node.n_blocks
        if node.is_supernode:
            stats.n_supernodes += 1
        if node.is_leaf:
            n_records += node.entry_count
        else:
            for child in node.children:
                stack.append((child, depth + 1))
    levels = [per_depth[d] for d in range(max_depth + 1)]
    return TreeStats(levels, n_records, max_depth + 1)
