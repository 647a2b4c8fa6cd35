"""Structure digests (debug/test aids).

``structure_digest`` condenses an index's *complete* structure — node
shapes, MDS/MBR extents, aggregates and in-order leaf records — into one
SHA-256 hex string, so "these two indexes are bit-identical" is a single
string comparison.  The batch-insert differential suite and the
regression bench use it to prove batched and serial insertion build the
same tree.
"""

from __future__ import annotations

import hashlib


def structure_digest(index):
    """SHA-256 hex digest of an index's full structure and contents.

    Covers, per node in depth-first child order: depth, kind
    (leaf/dir), entry count, supernode block count, the MDS digest (or
    MBR extents for an X-tree node) and the aggregate vector — and, for
    leaves, every record (flat ID point + measures) in storage order.
    Page IDs are deliberately excluded so two trees built through
    different allocation histories can still compare equal.  A
    :class:`~repro.scan.table.FlatTable` digests as its record sequence.

    Two indexes over the *same schema instance* compare equal iff they
    are structurally identical (IDs are interned per hierarchy, so
    digests are only meaningful within one schema's ID space).
    """
    h = hashlib.sha256()
    root = getattr(index, "root", None)
    if root is None:
        for record in index.records():
            h.update(_record_bytes(record))
        return h.hexdigest()
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        kind = b"leaf" if node.is_leaf else b"dir"
        h.update(
            b"N|%d|%s|%d|%d|" % (depth, kind, node.entry_count, node.n_blocks)
        )
        if hasattr(node, "mds"):
            h.update(node.mds.digest().encode())
            h.update(repr(node.aggregate).encode())
        else:
            h.update(repr((node.mbr.lows, node.mbr.highs)).encode())
        if node.is_leaf:
            # DC leaves store records; X-tree leaves (point, record) pairs.
            entries = getattr(node, "records", None)
            if entries is None:
                entries = [record for _point, record in node.entries]
            for record in entries:
                h.update(_record_bytes(record))
        else:
            # Reversed so the depth-first pop visits children in order.
            for child in reversed(node.children):
                stack.append((child, depth + 1))
    return h.hexdigest()


def _record_bytes(record):
    point = getattr(record, "flat_point", None)
    if point is not None:
        return b"R|" + repr((point(), tuple(record.measures))).encode()
    return b"R|" + repr(record).encode()

