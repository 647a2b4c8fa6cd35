"""The public facade: a dynamically updatable warehouse over one backend.

:class:`Warehouse` binds a cube schema to one of the three index backends
("dc-tree", "x-tree", "scan"), hides their query-form differences (the
X-tree needs the MDS→MBR conversion plus the exact predicate) and offers a
label-based query interface, so downstream code never touches IDs.

>>> warehouse = Warehouse.tpcd()
>>> record = warehouse.insert(
...     (("EUROPE", "GERMANY", "BUILDING", "Customer#1"),
...      ("AMERICA", "CANADA", "Supplier#1"),
...      ("Brand#11", "STANDARD ANODIZED TIN", "Part#1"),
...      ("1996", "1996-03", "1996-03-15")),
...     (4200.0,))
>>> warehouse.query("sum", where={"Customer": ("Region", ["EUROPE"])})
4200.0
"""

from __future__ import annotations

from .config import DCTreeConfig, XTreeConfig
from .core.tree import DCTree
from .cube.aggregation import MeasureSummary, check_aggregate
from .errors import QueryError, SchemaError
from .scan.table import FlatTable
from .tpcd.schema import make_tpcd_schema
from .workload.queries import RangeQuery, query_from_labels
from .xtree.tree import XTree


def _mds_args(range_query):
    return (range_query.mds,)


def _mbr_args(range_query):
    # The X-tree indexes flattened points: it navigates by the query's
    # MBR and filters its leaves with the exact predicate (§5.2).
    return (range_query.to_mbr(), range_query.predicate())


#: backend name -> (index class, config class or None, query arguments).
#: The one place that knows which backends exist, how each is built and
#: how a :class:`RangeQuery` reaches its ``range_query``/``range_records``.
_BACKENDS = {
    "dc-tree": (DCTree, DCTreeConfig, _mds_args),
    "x-tree": (XTree, XTreeConfig, _mbr_args),
    "scan": (FlatTable, None, _mds_args),
}

#: The selectable index backends.
BACKENDS = tuple(_BACKENDS)


class Warehouse:
    """A data warehouse with a fully dynamic index.

    Parameters
    ----------
    schema:
        The cube schema (shared between warehouses to compare backends on
        identical IDs).
    backend:
        ``"dc-tree"`` (the paper's contribution), ``"x-tree"`` or
        ``"scan"``.
    config:
        Backend-specific configuration (:class:`DCTreeConfig` or
        :class:`XTreeConfig`); ignored by the scan backend.
    storage_config:
        Buffer-pool / page-size settings for the I/O simulation.
    """

    def __init__(self, schema, backend="dc-tree", config=None,
                 storage_config=None):
        if backend not in BACKENDS:
            raise SchemaError(
                "unknown backend %r (choose from %s)"
                % (backend, ", ".join(BACKENDS))
            )
        index_class, config_class, _ = _BACKENDS[backend]
        options = {"storage_config": storage_config}
        if config_class is not None:
            if config is not None and not isinstance(config, config_class):
                raise SchemaError(
                    "%s backend needs a config of type %s, got %s"
                    % (backend, config_class.__name__, type(config).__name__)
                )
            options["config"] = config
        self._bind(backend, index_class(schema, **options))

    @classmethod
    def tpcd(cls, backend="dc-tree", config=None, storage_config=None):
        """A warehouse over a fresh TPC-D cube schema (Fig. 8/9)."""
        return cls(make_tpcd_schema(), backend, config, storage_config)

    @classmethod
    def wrap(cls, index):
        """Wrap an existing index (e.g. a bulk-loaded or deserialized
        tree) in a warehouse facade; the backend is inferred from the
        index type."""
        for backend, (index_class, _, _) in _BACKENDS.items():
            if isinstance(index, index_class):
                warehouse = cls.__new__(cls)
                warehouse._bind(backend, index)
                return warehouse
        raise SchemaError(
            "cannot wrap %r as a warehouse backend" % type(index).__name__
        )

    def _bind(self, backend, index):
        self.schema = index.schema
        self.backend = backend
        self.index = index
        self._query_args = _BACKENDS[backend][2]

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def insert(self, dimension_values, measures):
        """Insert one cell given label tuples; returns the stored record."""
        record = self.schema.record(dimension_values, measures)
        self.index.insert(record)
        return record

    def insert_record(self, record):
        """Insert an already-built :class:`DataRecord`."""
        self.index.insert(record)
        return record

    def insert_many(self, rows):
        """Insert many ``(dimension_values, measures)`` pairs as one batch.

        Builds the records up front, then routes them through the
        backend's amortized ``insert_batch`` when it has one (the
        DC-tree and the scan table charge page writes once per touched
        node/page per batch); backends without a batch path fall back to
        serial inserts, which yields the identical tree at the serial
        write cost.  Returns the stored records.
        """
        records = [
            self.schema.record(dimension_values, measures)
            for dimension_values, measures in rows
        ]
        self.insert_records(records)
        return records

    def insert_records(self, records):
        """Insert already-built records as one batch (see
        :meth:`insert_many` for the dispatch semantics)."""
        records = list(records)
        if not records:
            return records
        insert_batch = getattr(self.index, "insert_batch", None)
        if insert_batch is not None:
            insert_batch(records)
        else:
            for record in records:
                self.index.insert(record)
        return records

    def delete(self, record):
        """Delete one record (by value)."""
        self.index.delete(record)

    def __len__(self):
        return len(self.index)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def query(self, op="sum", measure=0, where=None):
        """Aggregate ``op`` over the cells matching ``where``.

        ``where`` maps dimension names to ``(level_name, labels)``
        constraints (see :func:`repro.workload.query_from_labels`);
        ``None`` aggregates the whole cube.
        """
        range_query = query_from_labels(self.schema, where or {})
        return self.execute(range_query, op=op, measure=measure)

    def execute(self, range_query, op="sum", measure=0):
        """Run a prepared :class:`RangeQuery` against the backend."""
        self._check_query(range_query)
        return self.index.range_query(
            *self._query_args(range_query), op=op, measure=measure
        )

    def explain(self):
        """A scope profiling every query it answers (dc-tree only).

        ``with warehouse.explain() as profiles:`` — each query or
        group-by inside appends its per-level
        :class:`~repro.obs.QueryProfile` (see
        :meth:`repro.core.tree.DCTree.explain`).
        """
        if self.backend != "dc-tree":
            raise QueryError(
                "EXPLAIN requires the dc-tree backend (its traversal is "
                "what the profiler attributes); got %r" % self.backend
            )
        return self.index.explain()

    def count(self, where=None):
        """Number of cells matching ``where``."""
        return self.query(op="count", where=where)

    def summary(self, measure=0, where=None):
        """Sum, count, min and max of one measure in a single pass.

        Returns a :class:`~repro.cube.aggregation.MeasureSummary`.  The
        DC-tree computes it in one traversal from its materialized
        vectors; the other backends fold the matching records.
        """
        range_query = query_from_labels(self.schema, where or {})
        if self.backend == "dc-tree":
            return self.index.range_summary(range_query.mds, measure=measure)
        measure_index = self.schema.measure_index(measure)
        summary = MeasureSummary()
        for record in self.records_matching(range_query):
            summary.add_value(record.measures[measure_index])
        return summary

    def group_by(self, dim_name, level_name, op="sum", measure=0,
                 where=None):
        """Roll up one dimension: ``{label: aggregate}`` per value.

        Groups carrying the same label are merged (TPC-D market segments
        repeat under every nation; an analyst grouping by segment wants
        five rows, not 125).  ``where`` filters exactly like
        :meth:`query`.  Works on every backend; the DC-tree answers it
        in one traversal using its materialized aggregates.  ``op`` is
        checked before anything is charged.
        """
        check_aggregate(op)
        dim_index = self.schema.dimension_index(dim_name)
        dimension = self.schema.dimensions[dim_index]
        try:
            level = dimension.level_names.index(level_name)
        except ValueError:
            raise SchemaError(
                "dimension %r has no level %r (levels: %s)"
                % (dim_name, level_name, ", ".join(dimension.level_names))
            ) from None
        range_query = query_from_labels(self.schema, where or {})
        hierarchy = dimension.hierarchy
        merged = {}
        if self.backend == "dc-tree":
            groups = self.index.group_by_aggregators(
                dim_index, level, op=op, measure=measure,
                range_mds=range_query.mds,
            )
            for value, aggregator in groups.items():
                label = hierarchy.label(value)
                summary = merged.setdefault(label, MeasureSummary())
                summary.add_summary(aggregator.summary)
        else:
            measure_index = self.schema.measure_index(measure)
            for record in self.records_matching(range_query):
                value = record.value_at_level(dim_index, level)
                label = hierarchy.label(value)
                summary = merged.setdefault(label, MeasureSummary())
                summary.add_value(record.measures[measure_index])
        return {
            label: summary.aggregate(op) for label, summary in merged.items()
        }

    def records_matching(self, range_query):
        """The records matching a prepared query."""
        self._check_query(range_query)
        return self.index.range_records(*self._query_args(range_query))

    def _check_query(self, range_query):
        if not isinstance(range_query, RangeQuery):
            raise SchemaError(
                "expected a RangeQuery, got %r" % type(range_query).__name__
            )
        if range_query.schema is not self.schema:
            raise SchemaError(
                "query was built against a different schema instance"
            )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def tracker(self):
        """The backend's I/O/CPU tracker."""
        return self.index.tracker

    @property
    def observability(self):
        """The backend's :class:`~repro.obs.MetricsRegistry` (None
        unless a DC-tree has ``DCTreeConfig.observability`` on)."""
        return getattr(self.index, "observability", None)

    def byte_size(self):
        """Approximate on-disk footprint of the index in bytes."""
        return self.index.byte_size()

    def __repr__(self):
        return "Warehouse(backend=%r, records=%d)" % (
            self.backend,
            len(self.index),
        )
