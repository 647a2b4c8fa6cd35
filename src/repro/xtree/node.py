"""X-tree nodes: data nodes, directory nodes, supernodes.

Every node carries its MBR and its X-tree *split history*: the set of
dimensions along which splits have partitioned the space below it — the
ingredient of the overlap-minimal split.  Unlike DC-tree entries, X-tree
entries store **no** materialized measures (the paper's X-tree is a plain
spatial index; aggregation happens over the retrieved records), which is
one of the two effects the comparison isolates.
"""

from __future__ import annotations

from ..storage import page as page_mod


class _XNode:
    __slots__ = ("mbr", "page_id", "n_blocks", "split_history")

    def __init__(self, mbr, page_id):
        self.mbr = mbr
        self.page_id = page_id
        self.n_blocks = 1
        self.split_history = frozenset()

    @property
    def is_supernode(self):
        return self.n_blocks > 1


class XDataNode(_XNode):
    """A leaf holding ``(point, record)`` pairs."""

    __slots__ = ("entries",)

    is_leaf = True

    def __init__(self, mbr, page_id, entries=None):
        super().__init__(mbr, page_id)
        self.entries = entries if entries is not None else []

    @property
    def entry_count(self):
        return len(self.entries)

    def byte_size(self, n_flat_attributes, n_measures):
        return (
            page_mod.NODE_HEADER_BYTES
            + len(self.entries)
            * page_mod.record_bytes(n_flat_attributes, n_measures)
        )

    def __repr__(self):
        return "XDataNode(records=%d, blocks=%d)" % (
            len(self.entries),
            self.n_blocks,
        )


class XDirNode(_XNode):
    """An inner node holding child nodes."""

    __slots__ = ("children",)

    is_leaf = False

    def __init__(self, mbr, page_id, children=None):
        super().__init__(mbr, page_id)
        self.children = children if children is not None else []

    @property
    def entry_count(self):
        return len(self.children)

    def byte_size(self, n_flat_attributes, n_measures):
        return (
            page_mod.NODE_HEADER_BYTES
            + len(self.children)
            * page_mod.x_directory_entry_bytes(n_flat_attributes)
        )

    def __repr__(self):
        return "XDirNode(children=%d, blocks=%d)" % (
            len(self.children),
            self.n_blocks,
        )
