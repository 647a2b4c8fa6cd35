"""DC-tree nodes: data nodes, directory nodes, supernodes.

Both node kinds carry their own MDS and materialized aggregate vector.
Conceptually these belong to the *entry* referencing the node from its
parent (that is where they are stored on disk), but keeping them on the
node object avoids duplication; the I/O accounting still charges entry
inspection to the parent page because algorithms only call
``tracker.access_node`` when they actually descend into a child.

A node whose entry count exceeds its capacity and that cannot be split in
a balanced, low-overlap way becomes a **supernode**: ``n_blocks`` grows
beyond 1 and the node keeps absorbing entries until ``capacity × n_blocks``
is exceeded, at which point a split is attempted again (§4.2).
"""

from __future__ import annotations

from ..storage import page as page_mod


class _Node:
    """State shared by data and directory nodes."""

    __slots__ = ("mds", "aggregate", "page_id", "n_blocks")

    def __init__(self, mds, aggregate, page_id):
        self.mds = mds
        self.aggregate = aggregate
        self.page_id = page_id
        self.n_blocks = 1

    @property
    def is_supernode(self):
        return self.n_blocks > 1


class DCDataNode(_Node):
    """A leaf of the DC-tree, holding data records."""

    __slots__ = ("records",)

    is_leaf = True

    def __init__(self, mds, aggregate, page_id, records=None):
        super().__init__(mds, aggregate, page_id)
        self.records = records if records is not None else []

    @property
    def entry_count(self):
        return len(self.records)

    def byte_size(self, n_flat_attributes, n_measures):
        """Approximate on-disk size of this node."""
        return (
            page_mod.NODE_HEADER_BYTES
            + len(self.records)
            * page_mod.record_bytes(n_flat_attributes, n_measures)
        )

    def __repr__(self):
        return "DCDataNode(records=%d, blocks=%d, mds=%r)" % (
            len(self.records),
            self.n_blocks,
            self.mds,
        )


class DCDirNode(_Node):
    """An inner node of the DC-tree, holding child nodes."""

    __slots__ = ("children",)

    is_leaf = False

    def __init__(self, mds, aggregate, page_id, children=None):
        super().__init__(mds, aggregate, page_id)
        self.children = children if children is not None else []

    @property
    def entry_count(self):
        return len(self.children)

    def byte_size(self, n_flat_attributes, n_measures):
        """Approximate on-disk size: one (MDS, aggregates, pointer) entry
        per child (the children's MDSs are stored *here*, in the directory)."""
        total = page_mod.NODE_HEADER_BYTES
        for child in self.children:
            total += page_mod.dc_directory_entry_bytes(child.mds, n_measures)
        return total

    def __repr__(self):
        return "DCDirNode(children=%d, blocks=%d, mds=%r)" % (
            len(self.children),
            self.n_blocks,
            self.mds,
        )
