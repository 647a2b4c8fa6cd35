"""Human-readable tree dumps and structure digests (debug/test aids).

``dump_tree`` renders a DC-tree or X-tree as an indented outline with one
line per node: kind, entry count, supernode blocks, and a compact
description of the node's MDS (with labels resolved through the concept
hierarchies) or MBR.  Handy in tests, notebooks and bug reports.

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


def dump_tree(tree, max_depth=None, max_values=4, stream=None):
    """Render ``tree`` as text; returns the string (and writes ``stream``).

    Parameters
    ----------
    tree:
        A :class:`~repro.core.tree.DCTree` or
        :class:`~repro.xtree.tree.XTree`.
    max_depth:
        Deepest level to render (``None`` = everything; 0 = root only).
    max_values:
        Per-dimension cap on rendered MDS values before eliding.
    """
    lines = []
    hierarchies = getattr(tree, "hierarchies", None)
    _dump_node(tree.root, 0, max_depth, max_values, hierarchies, lines)
    text = "\n".join(lines)
    if stream is not None:
        stream.write(text + "\n")
    return text


def _dump_node(node, depth, max_depth, max_values, hierarchies, lines):
    indent = "  " * depth
    kind = "leaf" if node.is_leaf else "dir"
    super_tag = " SUPER[%d blocks]" % node.n_blocks if node.is_supernode else ""
    if hasattr(node, "mds"):
        description = _describe_mds(node.mds, hierarchies, max_values)
        extra = " sum=%.6g" % node.aggregate.aggregate("sum")
    else:
        description = _describe_mbr(node.mbr)
        extra = ""
    lines.append(
        "%s%s(%d)%s %s%s"
        % (indent, kind, node.entry_count, super_tag, description, extra)
    )
    if node.is_leaf:
        return
    if max_depth is not None and depth >= max_depth:
        lines.append("%s  ... (%d children)" % (indent, len(node.children)))
        return
    for child in node.children:
        _dump_node(child, depth + 1, max_depth, max_values, hierarchies,
                   lines)


def _describe_mds(mds, hierarchies, max_values):
    parts = []
    for dim in range(mds.n_dimensions):
        level = mds.level(dim)
        hierarchy = hierarchies[dim] if hierarchies else None
        values = sorted(mds.value_set(dim))
        if hierarchy is not None:
            if level >= hierarchy.top_level:
                parts.append("*")
                continue
            labels = sorted(hierarchy.label(v) for v in values)
        else:
            labels = [str(v) for v in values]
        shown = labels[:max_values]
        if len(labels) > max_values:
            shown.append("...%d" % len(labels))
        level_name = (
            hierarchy.level_name(level) if hierarchy else "L%d" % level
        )
        parts.append("%s{%s}" % (level_name, ",".join(shown)))
    return "[" + " | ".join(parts) + "]"


def _describe_mbr(mbr):
    sides = []
    for low, high in zip(mbr.lows, mbr.highs):
        if low == high:
            sides.append(str(low))
        else:
            sides.append("%d..%d" % (low, high))
    return "[" + " | ".join(sides) + "]"
