"""Sequential-scan baseline: a flat heap file of data records.

"The range query algorithm for the sequential search simply runs through
every existing data record and determines whether this data record is
contained in the range_mds or not" (§5.2).  Records are stored in fixed-
size pages so the scan's I/O is charged realistically (sequential page
reads through the shared tracker/buffer machinery).
"""

from __future__ import annotations

from ..config import PAGE_SIZE
from ..cube.aggregation import StreamingAggregator
from ..errors import RecordNotFoundError
from ..storage import page as page_mod
from ..storage.tracker import StorageTracker
from ..core import mds as mds_mod


class FlatTable:
    """An unindexed record store answering range queries by full scans."""

    def __init__(self, schema, storage_config=None):
        self.schema = schema
        self.hierarchies = tuple(d.hierarchy for d in schema.dimensions)
        self.tracker = StorageTracker(storage_config)
        self._records = []
        self._record_bytes = page_mod.record_bytes(
            schema.n_flat_attributes, schema.n_measures
        )
        self._records_per_page = max(1, PAGE_SIZE // self._record_bytes)
        self._base_page = self.tracker.new_page_id()

    def __len__(self):
        return len(self._records)

    def records(self):
        return iter(self._records)

    def insert(self, record):
        """Append one record (touches only the heap file's last page)."""
        self._records.append(record)
        last_page = (len(self._records) - 1) // self._records_per_page
        self.tracker.access_node((self._base_page, last_page))
        self.tracker.write_node((self._base_page, last_page))
        self.tracker.cpu(1)

    def insert_batch(self, records):
        """Append many records, writing each touched heap page once.

        Accesses mirror serial :meth:`insert` exactly (one per record on
        the then-last page), but the write-backs coalesce: a page filled
        by k records of the batch is written once instead of k times.
        Returns the number of records inserted.
        """
        records = list(records)
        touched = {}
        for record in records:
            self._records.append(record)
            last_page = (len(self._records) - 1) // self._records_per_page
            self.tracker.access_node((self._base_page, last_page))
            self.tracker.cpu(1)
            touched[last_page] = None
        for page in touched:
            self.tracker.write_node((self._base_page, page))
        return len(records)

    def delete(self, record):
        """Remove one record by value (scans for it, like a real heap)."""
        for index, existing in enumerate(self._records):
            self._charge_page(index)
            if existing == record:
                del self._records[index]
                self.tracker.write_node(
                    (self._base_page, index // self._records_per_page)
                )
                return
        raise RecordNotFoundError("record not found: %r" % (record,))

    def byte_size(self):
        """Approximate on-disk footprint in bytes."""
        return len(self._records) * self._record_bytes

    def page_count(self):
        return page_mod.pages_for(self.byte_size(), PAGE_SIZE)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def range_query(self, range_mds, op="sum", measure=0):
        """Aggregate over the records covered by ``range_mds``."""
        measure_index = self.schema.measure_index(measure)
        aggregator = StreamingAggregator(op, measure_index)
        for record in self._scan(range_mds):
            aggregator.add_record(record)
        return aggregator.result()

    def range_count(self, range_mds):
        return self.range_query(range_mds, op="count")

    def range_records(self, range_mds):
        return list(self._scan(range_mds))

    def _scan(self, range_mds):
        mds_mod.check_query_mds(range_mds, self.hierarchies)
        n_dims = self.schema.n_dimensions
        for index, record in enumerate(self._records):
            self._charge_page(index)
            self.tracker.cpu(n_dims)
            if mds_mod.covers_record(range_mds, record, self.hierarchies):
                yield record

    def _charge_page(self, record_index):
        if record_index % self._records_per_page == 0:
            self.tracker.access_node(
                (self._base_page, record_index // self._records_per_page)
            )
