"""Workload traces: save a query workload, replay it later.

Benchmark reproducibility needs frozen workloads: the same queries, in
the same order, against the same data.  A trace file stores each query's
range MDS (per dimension: relevant level + attribute-value IDs) as JSON.

IDs are stable for the lifetime of a schema instance *and* across
:mod:`repro.persist` save/load (which restores hierarchies verbatim), so
the canonical flow is: save the warehouse, save the trace, and replay
both anywhere.  A trace is rejected against a hierarchy that does not
contain its IDs.
"""

from __future__ import annotations

import json

from ..core.mds import MDS
from ..errors import QueryError, StorageError
from .queries import RangeQuery

#: Trace file format version.
TRACE_VERSION = 1


def queries_to_dict(queries):
    """Serialize an iterable of :class:`RangeQuery` to a JSON-able dict."""
    rows = []
    for query in queries:
        _check_query(query)
        mds = query.mds
        rows.append(
            [
                [mds.level(dim), sorted(mds.value_set(dim))]
                for dim in range(mds.n_dimensions)
            ]
        )
    return {"version": TRACE_VERSION, "queries": rows}


def queries_from_dict(data, schema):
    """Rebuild :class:`RangeQuery` objects against ``schema``."""
    if data.get("version") != TRACE_VERSION:
        raise StorageError(
            "unsupported trace version %r" % (data.get("version"),)
        )
    queries = []
    for row in data["queries"]:
        if len(row) != schema.n_dimensions:
            raise StorageError(
                "trace query has %d dimensions, schema has %d"
                % (len(row), schema.n_dimensions)
            )
        sets = []
        levels = []
        for dim, (level, values) in enumerate(row):
            hierarchy = schema.dimensions[dim].hierarchy
            for value in values:
                if value not in hierarchy:
                    raise StorageError(
                        "trace value %r unknown in dimension %r (traces "
                        "bind to a schema instance or its persisted copy)"
                        % (value, schema.dimensions[dim].name)
                    )
                if hierarchy.level_of(value) != level:
                    raise StorageError(
                        "trace value %r is not at level %d" % (value, level)
                    )
            levels.append(level)
            sets.append(set(values))
        queries.append(RangeQuery(schema, MDS(sets, levels)))
    return queries


def write_trace(path, queries):
    """Write a workload trace; returns the number of queries written."""
    data = queries_to_dict(queries)
    with open(path, "w") as handle:
        json.dump(data, handle)
    return len(data["queries"])


def read_trace(path, schema):
    """Read a workload trace back as :class:`RangeQuery` objects."""
    with open(path) as handle:
        data = json.load(handle)
    return queries_from_dict(data, schema)


def replay(warehouse, queries, op="sum", measure=0):
    """Run ``queries`` in order; returns the list of results.

    Works with anything exposing ``execute`` (a
    :class:`~repro.warehouse.Warehouse` of any backend or a
    :class:`~repro.maintenance.BatchWarehouse`).
    """
    results = []
    for query in queries:
        results.append(warehouse.execute(query, op=op, measure=measure))
    return results


def _check_query(query):
    if not isinstance(query, RangeQuery):
        raise QueryError("traces hold RangeQuery objects, got %r" % (query,))
