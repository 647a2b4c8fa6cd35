"""Tests for static materialized aggregate views."""

import math

import pytest

from repro import DCTree, TPCDGenerator, make_tpcd_schema
from repro.aggview import (
    MaterializedAggregateView,
    StaleViewError,
    UnanswerableQueryError,
)
from repro.core.mds import MDS
from repro.errors import QueryError
from repro.workload.queries import QueryGenerator, query_from_labels
from tests.conftest import TOY_ROWS, build_toy_schema, toy_record


@pytest.fixture
def toy_view():
    """View at (Country, Color) granularity over the toy rows."""
    schema = build_toy_schema()
    records = [toy_record(schema, *row) for row in TOY_ROWS]
    view = MaterializedAggregateView(schema, (1, 0))
    view.build(records)
    return schema, records, view


class TestConstruction:
    def test_level_count_checked(self):
        with pytest.raises(QueryError):
            MaterializedAggregateView(build_toy_schema(), (1,))

    def test_level_range_checked(self):
        with pytest.raises(QueryError):
            MaterializedAggregateView(build_toy_schema(), (5, 0))

    def test_unbuilt_view_refuses_queries(self):
        schema = build_toy_schema()
        view = MaterializedAggregateView(schema, (1, 0))
        query = query_from_labels(schema, {})
        with pytest.raises(StaleViewError):
            view.range_query(query.mds)

    def test_cells_grouped_at_granularity(self, toy_view):
        _schema, _records, view = toy_view
        # Countries x colors actually occurring: DE(red, blue), FR(blue,
        # green), US(red, green) = 6 cells.
        assert view.n_cells == 6
        assert view.n_source_records == len(TOY_ROWS)


class TestQueries:
    def test_exact_at_granularity(self, toy_view):
        schema, _records, view = toy_view
        query = query_from_labels(schema, {"Geo": ("Country", ["DE"])})
        assert view.range_query(query.mds) == 35.0

    def test_above_granularity(self, toy_view):
        schema, _records, view = toy_view
        query = query_from_labels(schema, {})
        assert view.range_query(query.mds) == 96.0

    def test_all_aggregates(self, toy_view):
        schema, _records, view = toy_view
        query = query_from_labels(schema, {"Color": ("Color", ["red"])})
        assert view.range_query(query.mds, op="count") == 3
        assert view.range_query(query.mds, op="min") == 5.0
        assert view.range_query(query.mds, op="max") == 40.0
        assert math.isclose(
            view.range_query(query.mds, op="avg"), 55.0 / 3
        )

    def test_below_granularity_refused(self, toy_view):
        schema, _records, view = toy_view
        query = query_from_labels(schema, {"Geo": ("City", ["Munich"])})
        assert not view.can_answer(query.mds)
        with pytest.raises(UnanswerableQueryError):
            view.range_query(query.mds)

    def test_dimension_mismatch_rejected(self, toy_view):
        _schema, _records, view = toy_view
        with pytest.raises(QueryError):
            view.range_query(MDS([{1}], [1]))

    def test_level_above_all_rejected(self, toy_view):
        """A level above ALL describes no range (the view used to count
        every cell)."""
        schema, _records, view = toy_view
        hierarchies = [d.hierarchy for d in schema.dimensions]
        levels = [h.top_level for h in hierarchies]
        levels[0] += 1
        with pytest.raises(QueryError, match="query level"):
            view.range_query(
                MDS([{h.all_id} for h in hierarchies], levels), op="count"
            )

    def test_bad_measure_rejected(self, toy_view):
        schema, _records, view = toy_view
        query = query_from_labels(schema, {})
        with pytest.raises(QueryError):
            view.range_query(query.mds, measure=7)


class TestStaleness:
    def test_mark_stale_blocks_queries(self, toy_view):
        schema, _records, view = toy_view
        view.mark_stale()
        query = query_from_labels(schema, {})
        with pytest.raises(StaleViewError):
            view.range_query(query.mds)

    def test_rebuild_clears_staleness(self, toy_view):
        schema, records, view = toy_view
        view.mark_stale()
        extra = toy_record(schema, "DE", "Munich", "red", 4.0)
        view.build(records + [extra])
        query = query_from_labels(schema, {"Geo": ("Country", ["DE"])})
        assert view.range_query(query.mds) == 39.0


class TestAgainstDCTree:
    def test_agrees_with_tree_on_answerable_queries(self):
        schema = make_tpcd_schema()
        generator = TPCDGenerator(schema, seed=6, scale_records=800)
        records = generator.generate(800)
        tree = DCTree(schema)
        for record in records:
            tree.insert(record)
        levels = (2, 1, 2, 1)
        view = MaterializedAggregateView(schema, levels)
        view.build(records)
        query_gen = QueryGenerator(schema, 0.3, seed=1, min_levels=levels)
        for query in query_gen.queries(15):
            assert view.can_answer(query.mds)
            assert math.isclose(
                view.range_query(query.mds),
                tree.range_query(query.mds),
                abs_tol=1e-6,
            )

    def test_footprint_reported(self, toy_view):
        _schema, _records, view = toy_view
        assert view.byte_size() > 0
        assert view.page_count() >= 1


class TestAggviewExperiment:
    def test_rows_capture_the_tradeoff(self):
        from repro.bench.aggview_bench import run_aggview

        rows = run_aggview(n_records=500, n_queries=20)
        tree_row, view_row = rows
        assert tree_row[1] == "100%"
        # The static view covers only part of the mix ...
        assert view_row[1] != "100%"
        # ... and one update costs it far more than the dynamic tree.
        assert view_row[3] > tree_row[3]
