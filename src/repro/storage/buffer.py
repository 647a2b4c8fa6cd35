"""LRU buffer pool over simulated pages.

The trees of this package live in Python objects, but every node visit is
routed through a :class:`BufferPool` so experiments can count page hits and
misses as a disk-resident implementation would experience them.  The paper
explicitly equalized memory between the compared indexes ("the main memory
available for the X-tree was restricted to the memory size that the DC-tree
uses"); sizing two pools to the same page budget reproduces that control.
"""

from __future__ import annotations

from collections import OrderedDict

from ..errors import StorageError


class BufferPool:
    """Fixed-capacity LRU cache of page IDs.

    ``capacity_pages <= 0`` disables eviction: the first touch of each page
    is a (cold) miss, everything after that is a hit.
    """

    def __init__(self, capacity_pages):
        self._capacity = capacity_pages
        self._pages = OrderedDict()
        self.hits = 0
        self.misses = 0

    @property
    def resident_pages(self):
        """Number of pages currently cached."""
        return len(self._pages)

    def access(self, page_id):
        """Touch one page; return True on a hit, False on a miss."""
        if page_id in self._pages:
            self._pages.move_to_end(page_id)
            self.hits += 1
            return True
        self.misses += 1
        self._pages[page_id] = True
        if self._capacity > 0:
            while len(self._pages) > self._capacity:
                self._pages.popitem(last=False)
        return False

    def access_run(self, page_id, n_pages):
        """Touch ``n_pages`` consecutive pages starting at ``page_id``.

        Supernodes occupy several consecutive blocks; reading one touches
        all of them.  Returns the number of misses incurred.
        """
        if n_pages < 1:
            raise StorageError("a node occupies at least one page")
        misses = 0
        for offset in range(n_pages):
            if not self.access((page_id, offset)):
                misses += 1
        return misses

    def evict(self, page_id, n_pages=1):
        """Drop pages from the pool (used when a node is freed)."""
        for offset in range(n_pages):
            self._pages.pop((page_id, offset), None)

    def clear(self):
        """Empty the pool without resetting the hit/miss counters."""
        self._pages.clear()

    def reset_counters(self):
        self.hits = 0
        self.misses = 0

    def __repr__(self):
        return "BufferPool(capacity=%r, resident=%d, hits=%d, misses=%d)" % (
            self._capacity,
            len(self._pages),
            self.hits,
            self.misses,
        )
