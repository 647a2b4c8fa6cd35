"""Tests for DC-tree bulk loading."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import DCTree, DCTreeConfig, TPCDGenerator, make_tpcd_schema
from repro.core.bulkload import bulk_load
from repro.workload.queries import QueryGenerator, query_from_labels
from tests.conftest import TOY_ROWS, build_toy_schema, toy_record
from tests.hypothesis_settings import TREE_SETTINGS


class TestBasics:
    def test_empty_load(self, toy_schema):
        tree = bulk_load(toy_schema, [])
        assert len(tree) == 0
        tree.check_invariants()

    def test_single_record(self, toy_schema):
        record = toy_record(toy_schema, "DE", "Munich", "red", 5.0)
        tree = bulk_load(toy_schema, [record])
        assert len(tree) == 1
        tree.check_invariants()
        assert tree.range_query(
            query_from_labels(toy_schema, {}).mds
        ) == 5.0

    def test_toy_rows(self, toy_schema):
        records = [toy_record(toy_schema, *row) for row in TOY_ROWS]
        tree = bulk_load(toy_schema, records)
        tree.check_invariants()
        assert len(tree) == len(records)
        query = query_from_labels(toy_schema, {"Geo": ("Country", ["DE"])})
        assert tree.range_query(query.mds) == 35.0

    def test_invariants_at_scale(self, tpcd_schema):
        generator = TPCDGenerator(tpcd_schema, seed=1, scale_records=2000)
        tree = bulk_load(tpcd_schema, generator.records(2000))
        tree.check_invariants()
        assert len(tree) == 2000

    def test_identical_records_become_supernode_leaf(self, toy_schema):
        config = DCTreeConfig(dir_capacity=4, leaf_capacity=4)
        records = [
            toy_record(toy_schema, "DE", "Munich", "red", float(i))
            for i in range(12)
        ]
        tree = bulk_load(toy_schema, records, config=config)
        tree.check_invariants()
        assert tree.root.is_leaf
        assert tree.root.is_supernode

    def test_respects_capacities(self, tpcd_schema):
        config = DCTreeConfig(dir_capacity=4, leaf_capacity=8)
        generator = TPCDGenerator(tpcd_schema, seed=2, scale_records=600)
        tree = bulk_load(tpcd_schema, generator.records(600), config=config)
        tree.check_invariants()  # includes the capacity audit

    def test_io_accounted(self, tpcd_schema):
        generator = TPCDGenerator(tpcd_schema, seed=3, scale_records=300)
        tree = bulk_load(tpcd_schema, generator.records(300))
        stats = tree.tracker.snapshot()
        assert stats.page_writes > 0
        assert stats.cpu_units > 0


class TestEquivalenceWithDynamicBuild:
    @pytest.fixture(scope="class")
    def pair(self):
        schema = make_tpcd_schema()
        generator = TPCDGenerator(schema, seed=5, scale_records=4000)
        records = generator.generate(4000)
        bulk = bulk_load(schema, records)
        dynamic = DCTree(schema)
        for record in records:
            dynamic.insert(record)
        return schema, bulk, dynamic

    def test_same_answers(self, pair):
        schema, bulk, dynamic = pair
        for query in QueryGenerator(schema, 0.15, seed=7).queries(20):
            assert math.isclose(
                bulk.range_query(query.mds),
                dynamic.range_query(query.mds),
                abs_tol=1e-6,
            )

    def test_same_group_bys(self, pair):
        schema, bulk, dynamic = pair
        sums_bulk = bulk.group_by(0, 3)
        sums_dynamic = dynamic.group_by(0, 3)
        assert set(sums_bulk) == set(sums_dynamic)
        for key in sums_bulk:
            assert math.isclose(sums_bulk[key], sums_dynamic[key],
                                abs_tol=1e-6)
        assert bulk.group_by(3, 2, op="count") == dynamic.group_by(
            3, 2, op="count"
        )

    def test_bulk_tree_not_worse_on_io(self, pair):
        """With a realistic buffer the bulk-built tree misses no more
        pages than the dynamic one (its upper levels are better
        clustered, even though it is deeper)."""
        from repro.storage.buffer import BufferPool

        schema, bulk, dynamic = pair
        queries = list(QueryGenerator(schema, 0.05, seed=9).queries(20))
        costs = {}
        for name, tree in (("bulk", bulk), ("dynamic", dynamic)):
            tree.tracker.buffer = BufferPool(
                max(16, tree.page_count() // 4)
            )
            tree.tracker.reset()
            for query in queries:
                tree.range_query(query.mds)
            costs[name] = tree.tracker.snapshot().buffer_misses
        assert costs["bulk"] <= costs["dynamic"] * 1.2


class TestDynamicAfterBulk:
    def test_inserts_and_deletes_keep_working(self, tpcd_schema):
        generator = TPCDGenerator(tpcd_schema, seed=6, scale_records=800)
        records = generator.generate(800)
        tree = bulk_load(tpcd_schema, records)
        extra = generator.generate(200)
        for record in extra:
            tree.insert(record)
        for record in records[:100]:
            tree.delete(record)
        tree.check_invariants()
        assert len(tree) == 900


row_strategy = st.tuples(
    st.sampled_from(["DE", "FR", "US"]),
    st.sampled_from(["A", "B", "C", "D", "E", "F"]),
    st.sampled_from(["red", "blue", "green"]),
    st.floats(min_value=0, max_value=100, allow_nan=False),
)


@TREE_SETTINGS
@given(rows=st.lists(row_strategy, min_size=1, max_size=80))
def test_property_bulk_load_is_query_equivalent(rows):
    schema = build_toy_schema()
    records = [toy_record(schema, *row) for row in rows]
    tree = bulk_load(
        schema, records,
        config=DCTreeConfig(dir_capacity=4, leaf_capacity=4),
    )
    tree.check_invariants()
    for query in QueryGenerator(schema, 0.5, seed=1).queries(4):
        expected = sum(r.measures[0] for r in records if query.matches(r))
        assert math.isclose(tree.range_query(query.mds), expected,
                            abs_tol=1e-6)


class TestAssembleOverflow:
    def test_assemble_stacks_intermediate_directories(self, toy_schema):
        """White-box: more children than dir_capacity get stacked under
        intermediate directory nodes (defensive path of ``_assemble``)."""
        from repro.core.bulkload import _BulkLoader
        from repro import DCTree, DCTreeConfig

        config = DCTreeConfig(dir_capacity=4, leaf_capacity=4)
        tree = DCTree(toy_schema, config=config)
        loader = _BulkLoader(tree)
        top_levels = [h.top_level for h in tree.hierarchies]
        leaves = []
        for i in range(13):  # > capacity, forces two stacking rounds
            record = toy_record(
                toy_schema, "C%d" % i, "City%d" % i, "red", float(i)
            )
            leaves.append(loader._make_leaf([record], list(top_levels)))
        root = loader._assemble(leaves, list(top_levels))
        assert not root.is_leaf
        assert root.entry_count <= config.dir_capacity

        def count_records(node):
            if node.is_leaf:
                return len(node.records)
            return sum(count_records(c) for c in node.children)

        assert count_records(root) == 13
