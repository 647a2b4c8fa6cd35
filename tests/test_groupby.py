"""Tests for group-by (roll-up) queries."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import DCTree, DCTreeConfig, TPCDGenerator, Warehouse, make_tpcd_schema
from repro.errors import QueryError, SchemaError
from repro.workload.queries import query_from_labels
from tests.conftest import TOY_ROWS, build_toy_schema, toy_record
from tests.differential import counter_tuple
from tests.hypothesis_settings import PROFILE_SETTINGS


def build_tree_and_records():
    schema = build_toy_schema()
    tree = DCTree(schema)
    records = [toy_record(schema, *row) for row in TOY_ROWS]
    for record in records:
        tree.insert(record)
    return schema, tree, records


class TestTreeGroupBy:
    def test_group_by_country(self):
        schema, tree, _records = build_tree_and_records()
        groups = tree.group_by(0, 1)
        hierarchy = schema.hierarchy(0)
        by_label = {hierarchy.label(k): v for k, v in groups.items()}
        assert by_label == {"DE": 35.0, "FR": 10.0, "US": 51.0}

    def test_group_by_city(self):
        schema, tree, _records = build_tree_and_records()
        groups = tree.group_by(0, 0)
        assert len(groups) == 6  # Munich occurs in two rows
        assert math.isclose(sum(groups.values()), 96.0)

    def test_group_by_color_count(self):
        schema, tree, _records = build_tree_and_records()
        groups = tree.group_by(1, 0, op="count")
        hierarchy = schema.hierarchy(1)
        by_label = {hierarchy.label(k): v for k, v in groups.items()}
        assert by_label == {"red": 3, "blue": 2, "green": 2}

    def test_group_by_with_range(self):
        schema, tree, _records = build_tree_and_records()
        query = query_from_labels(schema, {"Color": ("Color", ["red"])})
        groups = tree.group_by(0, 1, range_mds=query.mds)
        hierarchy = schema.hierarchy(0)
        by_label = {hierarchy.label(k): v for k, v in groups.items()}
        assert by_label == {"DE": 15.0, "US": 40.0}

    def test_group_sums_match_range_queries(self):
        schema, tree, _records = build_tree_and_records()
        groups = tree.group_by(0, 1)
        hierarchy = schema.hierarchy(0)
        for value, total in groups.items():
            query = query_from_labels(
                schema, {"Geo": ("Country", [hierarchy.label(value)])}
            )
            assert math.isclose(total, tree.range_query(query.mds))

    def test_invalid_dimension(self):
        _schema, tree, _records = build_tree_and_records()
        with pytest.raises(QueryError):
            tree.group_by(5, 0)

    def test_invalid_level(self):
        _schema, tree, _records = build_tree_and_records()
        with pytest.raises(QueryError):
            tree.group_by(0, 2)  # ALL is not a group-by level

    def test_empty_tree_groups_empty(self, toy_schema):
        tree = DCTree(toy_schema)
        assert tree.group_by(0, 0) == {}

    def test_aggregates_disabled_same_result(self):
        """The aggregate-using roll-up equals a per-group record fold."""
        _schema, tree, records = build_tree_and_records()
        expected = {}
        for record in records:
            value = record.value_at_level(0, 1)
            expected[value] = expected.get(value, 0.0) + record.measures[0]
        assert tree.group_by(0, 1) == expected


class TestWarehouseGroupBy:
    @pytest.mark.parametrize("backend", ["dc-tree", "x-tree", "scan"])
    def test_labels_merged_across_backends(self, backend):
        warehouse = Warehouse(build_toy_schema(), backend)
        for country, city, color, sales in TOY_ROWS:
            warehouse.insert(((country, city), (color,)), (sales,))
        groups = warehouse.group_by("Geo", "Country")
        assert groups == {"DE": 35.0, "FR": 10.0, "US": 51.0}

    def test_duplicate_labels_merge(self):
        warehouse = Warehouse(build_toy_schema())
        warehouse.insert((("DE", "Springfield"), ("red",)), (1.0,))
        warehouse.insert((("US", "Springfield"), ("red",)), (2.0,))
        groups = warehouse.group_by("Geo", "City")
        assert groups == {"Springfield": 3.0}

    def test_avg_merges_correctly(self):
        warehouse = Warehouse(build_toy_schema())
        warehouse.insert((("DE", "Springfield"), ("red",)), (1.0,))
        warehouse.insert((("US", "Springfield"), ("red",)), (3.0,))
        groups = warehouse.group_by("Geo", "City", op="avg")
        assert groups == {"Springfield": 2.0}

    def test_with_where(self):
        warehouse = Warehouse(build_toy_schema())
        for country, city, color, sales in TOY_ROWS:
            warehouse.insert(((country, city), (color,)), (sales,))
        groups = warehouse.group_by(
            "Color", "Color", where={"Geo": ("Country", ["DE"])}
        )
        assert groups == {"red": 15.0, "blue": 20.0}

    def test_unknown_level_rejected(self):
        warehouse = Warehouse(build_toy_schema())
        with pytest.raises(SchemaError):
            warehouse.group_by("Geo", "Continent")

    def test_tpcd_segments_merge_to_five(self):
        schema = make_tpcd_schema()
        warehouse = Warehouse(schema)
        generator = TPCDGenerator(schema, seed=2, scale_records=400)
        for record in generator.records(400):
            warehouse.insert_record(record)
        groups = warehouse.group_by("Customer", "MktSegment")
        assert len(groups) <= 5
        assert math.isclose(sum(groups.values()), warehouse.query("sum"))


row_strategy = st.tuples(
    st.sampled_from(["DE", "FR", "US"]),
    st.sampled_from(["A", "B", "C", "D"]),
    st.sampled_from(["red", "blue", "green"]),
    st.floats(min_value=0, max_value=100, allow_nan=False),
)


@PROFILE_SETTINGS
@given(rows=st.lists(row_strategy, min_size=1, max_size=50))
def test_groups_partition_the_total(rows):
    schema = build_toy_schema()
    tree = DCTree(
        schema, config=DCTreeConfig(dir_capacity=4, leaf_capacity=4)
    )
    records = [toy_record(schema, *row) for row in rows]
    for record in records:
        tree.insert(record)
    for dim, level in ((0, 0), (0, 1), (1, 0)):
        groups = tree.group_by(dim, level)
        assert math.isclose(
            sum(groups.values()),
            sum(r.measures[0] for r in records),
            abs_tol=1e-6,
        )
        counts = tree.group_by(dim, level, op="count")
        assert sum(counts.values()) == len(records)


@pytest.mark.parametrize("n_rows", [0, len(TOY_ROWS)], ids=["empty", "toy"])
@pytest.mark.parametrize("backend", ["dc-tree", "x-tree", "scan"])
def test_unsupported_op_rejected_before_any_charge(backend, n_rows):
    """A bad aggregate raises QueryError before anything is read or
    looked up, on an empty index too, where no aggregator is ever
    created to reject it."""
    schema = build_toy_schema()
    warehouse = Warehouse(schema, backend)
    for row in TOY_ROWS[:n_rows]:
        warehouse.insert_record(toy_record(schema, *row))
    before = counter_tuple(warehouse)
    with pytest.raises(QueryError):
        warehouse.group_by("Geo", "Country", op="median")
    if backend == "dc-tree":
        with pytest.raises(QueryError):
            warehouse.index.group_by(0, 1, op="median")
        with pytest.raises(QueryError):
            warehouse.index.range_query(
                query_from_labels(schema, {}).mds, op="median"
            )
        assert warehouse.index.result_cache.stats().lookups == 0
    assert counter_tuple(warehouse) == before
