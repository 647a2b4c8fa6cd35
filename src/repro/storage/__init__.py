"""Simulated paged storage: block sizes, LRU buffering, access counters.

The paper evaluated disk-resident trees; this substrate lets the in-memory
reimplementation report the page-level behaviour (accesses, buffer misses,
footprints) a disk-resident deployment would exhibit.
"""

from .buffer import BufferPool
from .faults import FaultInjector, FaultPlan, InjectedFault
from .page import (
    ID_BYTES,
    LEVEL_BYTES,
    MEASURE_BYTES,
    NODE_HEADER_BYTES,
    POINTER_BYTES,
    SUMMARY_BYTES,
    dc_directory_entry_bytes,
    mbr_bytes,
    mds_bytes,
    pages_for,
    record_bytes,
    x_directory_entry_bytes,
)
from .tracker import AccessStats, StorageTracker

__all__ = [
    "AccessStats",
    "BufferPool",
    "FaultInjector",
    "FaultPlan",
    "ID_BYTES",
    "InjectedFault",
    "LEVEL_BYTES",
    "MEASURE_BYTES",
    "NODE_HEADER_BYTES",
    "POINTER_BYTES",
    "SUMMARY_BYTES",
    "StorageTracker",
    "dc_directory_entry_bytes",
    "mbr_bytes",
    "mds_bytes",
    "pages_for",
    "record_bytes",
    "x_directory_entry_bytes",
]
