"""Tests for branch-and-bound range-MAX/MIN (reference [6] style)."""


import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import DCTree, DCTreeConfig, TPCDGenerator, make_tpcd_schema
from repro.workload.queries import QueryGenerator, query_from_labels
from tests.conftest import build_toy_schema, toy_record
from tests.hypothesis_settings import TREE_SETTINGS


@pytest.fixture(scope="module")
def tpcd_tree():
    schema = make_tpcd_schema()
    generator = TPCDGenerator(schema, seed=21, scale_records=2000)
    tree = DCTree(schema)
    for record in generator.records(2000):
        tree.insert(record)
    return schema, tree


class TestCorrectness:
    @pytest.mark.parametrize("op", ["min", "max"])
    def test_agrees_with_generic_path(self, tpcd_tree, op):
        """Branch and bound equals the extremum of the matching records."""
        schema, tree = tpcd_tree
        pick = max if op == "max" else min
        for query in QueryGenerator(schema, 0.2, seed=1).queries(20):
            matching = tree.range_records(query.mds)
            expected = (
                pick(r.measures[0] for r in matching) if matching else None
            )
            assert tree.range_query(query.mds, op=op) == expected

    @pytest.mark.parametrize("op", ["min", "max"])
    def test_agrees_with_naive_scan(self, tpcd_tree, op):
        schema, tree = tpcd_tree
        records = list(tree.records())
        for query in QueryGenerator(schema, 0.3, seed=2).queries(10):
            matching = [
                r.measures[0] for r in records if query.matches(r)
            ]
            expected = (
                None if not matching
                else (max(matching) if op == "max" else min(matching))
            )
            assert tree.range_query(query.mds, op=op) == expected

    def test_empty_range_returns_none(self):
        schema = build_toy_schema()
        tree = DCTree(schema)
        tree.insert(toy_record(schema, "DE", "Munich", "red", 5.0))
        query = query_from_labels(schema, {"Color": ("Color", ["red"])})
        narrow = query_from_labels(
            schema,
            {"Geo": ("City", ["Munich"]), "Color": ("Color", ["red"])},
        )
        assert tree.range_query(query.mds, op="max") == 5.0
        toy_record(schema, "FR", "Paris", "blue", 0.0)  # labels only
        missing = query_from_labels(schema, {"Geo": ("Country", ["FR"])})
        assert tree.range_query(missing.mds, op="max") is None
        assert tree.range_query(narrow.mds, op="min") == 5.0


class TestPruning:
    def test_bb_reads_fewer_nodes_than_generic(self, tpcd_tree):
        """The whole point: bounds prune partially overlapping subtrees.

        ``range_records`` reads every subtree the range reaches, which is
        what a MAX without bounds or stored aggregates would read.
        """
        schema, tree = tpcd_tree
        queries = list(QueryGenerator(schema, 0.25, seed=5).queries(20))

        tree.tracker.reset(clear_buffer=True)
        for query in queries:
            tree.range_query(query.mds, op="max")
        with_bb = tree.tracker.snapshot().node_accesses

        tree.tracker.reset(clear_buffer=True)
        for query in queries:
            tree.range_records(query.mds)
        without_bb = tree.tracker.snapshot().node_accesses

        assert with_bb < without_bb

    def test_unconstrained_max_needs_one_node(self, tpcd_tree):
        """ALL-range max is answered from the root's entries alone."""
        schema, tree = tpcd_tree
        query = query_from_labels(schema, {})
        tree.tracker.reset(clear_buffer=True)
        result = tree.range_query(query.mds, op="max")
        assert result is not None
        assert tree.tracker.snapshot().node_accesses == 1


row_strategy = st.tuples(
    st.sampled_from(["DE", "FR", "US"]),
    st.sampled_from(["A", "B", "C", "D"]),
    st.sampled_from(["red", "blue"]),
    st.floats(min_value=-1000, max_value=1000, allow_nan=False),
)


@TREE_SETTINGS
@given(
    rows=st.lists(row_strategy, min_size=1, max_size=60),
    seed=st.integers(min_value=0, max_value=5),
    op=st.sampled_from(["min", "max"]),
)
def test_property_bb_equals_naive(rows, seed, op):
    schema = build_toy_schema()
    tree = DCTree(
        schema, config=DCTreeConfig(dir_capacity=4, leaf_capacity=4)
    )
    records = [toy_record(schema, *row) for row in rows]
    for record in records:
        tree.insert(record)
    for query in QueryGenerator(schema, 0.5, seed=seed).queries(4):
        matching = [r.measures[0] for r in records if query.matches(r)]
        expected = (
            None if not matching
            else (max(matching) if op == "max" else min(matching))
        )
        assert tree.range_query(query.mds, op=op) == expected
