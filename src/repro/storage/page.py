"""Serialized-size accounting for index nodes.

Nothing is actually serialized; these helpers estimate how many bytes a
node would occupy on disk so that (a) the trees can report their footprint
in pages and (b) comparative experiments can grant the X-tree exactly the
DC-tree's memory, as the paper did.

Sizes follow the paper's own accounting: an attribute ID is a 32-bit
integer (4 bytes, §3.1); an MDS entry stores, per dimension, its relevant
level plus the value set, and every directory entry additionally carries a
child pointer and the materialized measure summaries.  MBR entries of the
X-tree store two 4-byte coordinates per flat attribute.
"""

from __future__ import annotations

#: Bytes of one attribute ID (32-bit integer, §3.1 of the paper).
ID_BYTES = 4
#: Bytes of one stored level tag.
LEVEL_BYTES = 1
#: Bytes of a child/record pointer.
POINTER_BYTES = 8
#: Bytes of one float measure component.
MEASURE_BYTES = 8
#: Per-measure materialized summary: sum, count, min, max.
SUMMARY_BYTES = 4 * MEASURE_BYTES
#: Fixed per-node header (node type, entry count, block count, ...).
NODE_HEADER_BYTES = 16


def mds_bytes(mds):
    """Serialized size of one MDS (variable, unlike an MBR)."""
    total = 0
    for values, _level in mds.entries:
        total += LEVEL_BYTES + 2 + len(values) * ID_BYTES
    return total


def dc_directory_entry_bytes(mds, n_measures):
    """Size of one DC-tree directory entry: MDS + aggregates + pointer."""
    return mds_bytes(mds) + n_measures * SUMMARY_BYTES + POINTER_BYTES


def record_bytes(n_flat_attributes, n_measures):
    """Size of one data record: every backend's leaves store it alike."""
    return n_flat_attributes * ID_BYTES + n_measures * MEASURE_BYTES


def mbr_bytes(n_flat_attributes):
    """Serialized size of one MBR over the flattened attribute space."""
    return 2 * n_flat_attributes * ID_BYTES


def x_directory_entry_bytes(n_flat_attributes):
    """Size of one X-tree directory entry: MBR + pointer + split history."""
    history_bytes = (n_flat_attributes + 7) // 8
    return mbr_bytes(n_flat_attributes) + POINTER_BYTES + history_bytes


def pages_for(n_bytes, page_size):
    """Number of whole pages needed for ``n_bytes``."""
    if n_bytes <= 0:
        return 1
    return -(-n_bytes // page_size)
