"""Unit tests for the sequential-scan baseline."""

import math

import pytest

from repro import FlatTable
from repro.errors import QueryError, RecordNotFoundError
from repro.workload.queries import query_from_labels
from tests.conftest import TOY_ROWS, build_toy_schema, toy_record


def build_table():
    schema = build_toy_schema()
    table = FlatTable(schema)
    records = [toy_record(schema, *row) for row in TOY_ROWS]
    for record in records:
        table.insert(record)
    return schema, table, records


class TestBasics:
    def test_len(self):
        _schema, table, records = build_table()
        assert len(table) == len(records)

    def test_records_iteration(self):
        _schema, table, records = build_table()
        assert list(table.records()) == records

    def test_byte_size_and_pages(self):
        _schema, table, _records = build_table()
        assert table.byte_size() > 0
        assert table.page_count() >= 1

    def test_insert_charges_write(self):
        schema = build_toy_schema()
        table = FlatTable(schema)
        table.insert(toy_record(schema, "DE", "Munich", "red", 1.0))
        assert table.tracker.snapshot().page_writes >= 1


class TestQueries:
    def test_unconstrained_sum(self):
        schema, table, records = build_table()
        query = query_from_labels(schema, {})
        assert table.range_query(query.mds) == sum(
            r.measures[0] for r in records
        )

    def test_filter_by_country(self):
        schema, table, _records = build_table()
        query = query_from_labels(schema, {"Geo": ("Country", ["DE"])})
        assert table.range_query(query.mds) == 35.0

    def test_count_and_records(self):
        schema, table, _records = build_table()
        query = query_from_labels(schema, {"Color": ("Color", ["green"])})
        assert table.range_count(query.mds) == 2
        assert len(table.range_records(query.mds)) == 2

    def test_avg(self):
        schema, table, _records = build_table()
        query = query_from_labels(schema, {"Geo": ("Country", ["FR"])})
        assert math.isclose(table.range_query(query.mds, op="avg"), 5.0)

    def test_measure_by_name(self):
        schema, table, _records = build_table()
        query = query_from_labels(schema, {})
        assert table.range_query(query.mds, measure="Sales") == 96.0

    def test_bad_measure_rejected(self):
        schema, table, _records = build_table()
        query = query_from_labels(schema, {})
        with pytest.raises(QueryError):
            table.range_query(query.mds, measure=5)

    def test_dimension_mismatch_rejected(self):
        from repro.core.mds import MDS

        _schema, table, _records = build_table()
        with pytest.raises(QueryError):
            table.range_query(MDS([{1}], [0]))

    @pytest.mark.parametrize("side", ["below", "above"])
    def test_out_of_range_level_rejected(self, side):
        """The scan checks an MDS handed to it directly as the DC-tree
        does (it used to crash below 0 and count every record above
        ALL)."""
        from repro.core.mds import MDS

        schema, table, _records = build_table()
        hierarchies = [d.hierarchy for d in schema.dimensions]
        levels = [h.top_level for h in hierarchies]
        levels[0] = -1 if side == "below" else levels[0] + 1
        mds = MDS([{h.all_id} for h in hierarchies], levels)
        with pytest.raises(QueryError, match="query level"):
            table.range_query(mds, op="count")

    def test_scan_touches_every_page(self):
        schema, table, _records = build_table()
        table.tracker.reset(clear_buffer=True)
        query = query_from_labels(schema, {})
        table.range_query(query.mds)
        assert table.tracker.snapshot().node_accesses >= table.page_count()


class TestDelete:
    def test_delete(self):
        schema, table, records = build_table()
        table.delete(records[2])
        assert len(table) == len(records) - 1
        query = query_from_labels(schema, {})
        assert table.range_query(query.mds) == 91.0

    def test_delete_missing_raises(self):
        schema, table, _records = build_table()
        with pytest.raises(RecordNotFoundError):
            table.delete(toy_record(schema, "XX", "Nowhere", "pink", 1.0))
