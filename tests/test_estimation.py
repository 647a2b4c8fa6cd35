"""Tests for range summaries."""


import pytest

from repro import DCTree
from repro.errors import QueryError
from repro.workload.queries import query_from_labels
from tests.conftest import TOY_ROWS, build_toy_schema, toy_record


def build_toy_tree():
    schema = build_toy_schema()
    tree = DCTree(schema)
    for row in TOY_ROWS:
        tree.insert(toy_record(schema, *row))
    return schema, tree


class TestRangeSummary:
    def test_matches_individual_aggregates(self):
        schema, tree = build_toy_tree()
        query = query_from_labels(schema, {"Geo": ("Country", ["DE"])})
        summary = tree.range_summary(query.mds)
        assert summary.aggregate("sum") == tree.range_query(query.mds)
        assert summary.aggregate("count") == tree.range_count(query.mds)
        assert summary.aggregate("min") == tree.range_query(
            query.mds, op="min"
        )
        assert summary.aggregate("max") == tree.range_query(
            query.mds, op="max"
        )

    def test_empty_range(self):
        schema, tree = build_toy_tree()
        query = query_from_labels(
            schema,
            {"Geo": ("City", ["Lyon"]), "Color": ("Color", ["red"])},
        )
        summary = tree.range_summary(query.mds)
        assert summary.is_empty()

    def test_copy_is_detached(self):
        schema, tree = build_toy_tree()
        query = query_from_labels(schema, {})
        summary = tree.range_summary(query.mds)
        summary.add_value(1e9)
        assert tree.range_query(query.mds) == 96.0

    def test_validates_query(self):
        _schema, tree = build_toy_tree()
        from repro.core.mds import MDS

        with pytest.raises(QueryError):
            tree.range_summary(MDS([{1}], [0]))
