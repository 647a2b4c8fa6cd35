"""Partitioned warehouses: one DC-tree per partition-key value.

Production warehouses partition their fact data — almost always by time
— so that (a) queries touching one period only open that period's index,
and (b) retention is an O(1) partition drop instead of millions of
deletes.  :class:`PartitionedWarehouse` provides exactly that on top of
the DC-tree: records route to the partition keyed by their value at one
chosen ``(dimension, level)`` (e.g. ``Time.Year``); range queries fan
out only to partitions whose key overlaps the query's range in that
dimension; every partition is an ordinary, fully dynamic
:class:`~repro.core.tree.DCTree` over the *shared* schema.
"""

from __future__ import annotations

from ..core.tree import DCTree
from ..cube.aggregation import StreamingAggregator
from ..errors import QueryError, SchemaError
from ..workload.queries import RangeQuery, query_from_labels


class PartitionedWarehouse:
    """A warehouse split into per-key DC-tree partitions.

    Parameters
    ----------
    schema:
        The shared cube schema.
    partition_dim:
        Name of the partitioning dimension (e.g. ``"Time"``).
    partition_level:
        Name of the level whose values key the partitions (e.g.
        ``"Year"``) — must be a functional attribute of that dimension.
    config:
        Optional :class:`~repro.config.DCTreeConfig` applied to every
        partition.
    """

    def __init__(self, schema, partition_dim, partition_level, config=None):
        self.schema = schema
        self.config = config
        self._dim_index = schema.dimension_index(partition_dim)
        dimension = schema.dimensions[self._dim_index]
        try:
            self._level = dimension.level_names.index(partition_level)
        except ValueError:
            raise SchemaError(
                "dimension %r has no level %r (levels: %s)"
                % (partition_dim, partition_level,
                   ", ".join(dimension.level_names))
            ) from None
        self._hierarchy = dimension.hierarchy
        self._partitions = {}

    # ------------------------------------------------------------------
    # partition management
    # ------------------------------------------------------------------

    def _key_of(self, record):
        return record.value_at_level(self._dim_index, self._level)

    def _partition_for(self, key, create=False):
        partition = self._partitions.get(key)
        if partition is None and create:
            partition = DCTree(self.schema, config=self.config)
            self._partitions[key] = partition
        return partition

    @property
    def partition_keys(self):
        """Current partition-key IDs (see :meth:`partition_labels`)."""
        return tuple(sorted(self._partitions))

    def partition_labels(self):
        """``{label: record count}`` per live partition."""
        return {
            self._hierarchy.label(key): len(tree)
            for key, tree in self._partitions.items()
        }

    def drop_partition(self, label):
        """Drop every partition labelled ``label``; returns records freed.

        This is the retention operation: constant-time unlink instead of
        record-by-record deletion.
        """
        keys = [
            key for key in self._partitions
            if self._hierarchy.label(key) == label
        ]
        if not keys:
            raise QueryError("no partition labelled %r" % (label,))
        freed = 0
        for key in keys:
            freed += len(self._partitions.pop(key))
        return freed

    def __len__(self):
        return sum(len(tree) for tree in self._partitions.values())

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def insert(self, dimension_values, measures):
        record = self.schema.record(dimension_values, measures)
        return self.insert_record(record)

    def insert_record(self, record):
        self._partition_for(self._key_of(record), create=True).insert(record)
        return record

    def insert_many(self, rows):
        """Insert many ``(dimension_values, measures)`` pairs batched.

        Records are grouped by partition key (preserving arrival order
        within each partition) and each group goes through its
        partition's :meth:`~repro.core.tree.DCTree.insert_batch`, so the
        amortized write charging applies per partition.  Returns the
        stored records in arrival order.
        """
        records = [
            self.schema.record(dimension_values, measures)
            for dimension_values, measures in rows
        ]
        self.insert_records(records)
        return records

    def insert_records(self, records):
        """Insert already-built records, batched per partition."""
        records = list(records)
        groups = {}
        for record in records:
            groups.setdefault(self._key_of(record), []).append(record)
        for key, group in groups.items():
            self._partition_for(key, create=True).insert_batch(group)
        return records

    def delete(self, record):
        partition = self._partition_for(self._key_of(record))
        if partition is None:
            from ..errors import RecordNotFoundError

            raise RecordNotFoundError(
                "record's partition does not exist: %r" % (record,)
            )
        partition.delete(record)
        if len(partition) == 0:
            del self._partitions[self._key_of(record)]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def query(self, op="sum", measure=0, where=None):
        """Label-based aggregate over all relevant partitions."""
        range_query = query_from_labels(self.schema, where or {})
        return self.execute(range_query, op=op, measure=measure)

    def execute(self, range_query, op="sum", measure=0):
        """Fan a prepared :class:`RangeQuery` out over the partitions.

        Only partitions whose key can hold records inside the query's
        range in the partitioning dimension are opened.
        """
        if not isinstance(range_query, RangeQuery):
            raise SchemaError(
                "expected a RangeQuery, got %r" % type(range_query).__name__
            )
        aggregator = StreamingAggregator(
            op, self.schema.measure_index(measure)
        )
        for key, tree in self._partitions.items():
            if not self._key_overlaps(key, range_query.mds):
                continue
            aggregator.add_summary(
                tree.range_summary(range_query.mds, measure=measure)
            )
        return aggregator.result()

    def partitions_touched(self, range_query):
        """How many partitions the fan-out would open (pruning metric)."""
        return sum(
            1 for key in self._partitions
            if self._key_overlaps(key, range_query.mds)
        )

    def _key_overlaps(self, key, range_mds):
        """Can records under partition ``key`` fall inside the range?"""
        query_level = range_mds.level(self._dim_index)
        query_set = range_mds.value_set(self._dim_index)
        if query_level >= self._hierarchy.top_level:
            return True
        if query_level >= self._level:
            return (
                self._hierarchy.ancestor(key, query_level) in query_set
            )
        return any(
            self._hierarchy.ancestor(value, self._level) == key
            for value in query_set
        )

    def __repr__(self):
        return "PartitionedWarehouse(partitions=%d, records=%d)" % (
            len(self._partitions), len(self),
        )
