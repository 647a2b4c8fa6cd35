"""Unit tests for the range-query workload generator (§5.2)."""

import pytest

from repro import BACKENDS, TPCDGenerator, Warehouse, make_tpcd_schema
from repro.core.mds import MDS
from repro.errors import QueryError
from repro.workload.queries import QueryGenerator, RangeQuery, query_from_labels
from tests.conftest import TOY_ROWS, build_toy_schema, toy_record


@pytest.fixture
def populated_tpcd():
    schema = make_tpcd_schema()
    generator = TPCDGenerator(schema, seed=1, scale_records=400)
    records = generator.generate(400)
    return schema, records


class TestQueryGenerator:
    def test_selectivity_bounds_validated(self, populated_tpcd):
        schema, _records = populated_tpcd
        with pytest.raises(QueryError):
            QueryGenerator(schema, 0.0)
        with pytest.raises(QueryError):
            QueryGenerator(schema, 1.5)

    def test_deterministic_given_seed(self, populated_tpcd):
        schema, _records = populated_tpcd
        a = [q.mds for q in QueryGenerator(schema, 0.1, seed=5).queries(10)]
        b = [q.mds for q in QueryGenerator(schema, 0.1, seed=5).queries(10)]
        assert a == b

    def test_levels_are_functional_attributes(self, populated_tpcd):
        schema, _records = populated_tpcd
        for query in QueryGenerator(schema, 0.2, seed=3).queries(20):
            for dim in range(schema.n_dimensions):
                assert (
                    0 <= query.mds.level(dim)
                    < schema.dimensions[dim].hierarchy.top_level
                )

    def test_set_sizes_bounded_by_selectivity(self, populated_tpcd):
        schema, _records = populated_tpcd
        selectivity = 0.25
        for query in QueryGenerator(schema, selectivity, seed=7).queries(30):
            for dim in range(schema.n_dimensions):
                level = query.mds.level(dim)
                hierarchy = schema.dimensions[dim].hierarchy
                total = hierarchy.n_values_at_level(level)
                cap = max(1, int(selectivity * total))
                assert 1 <= query.mds.cardinality(dim) <= cap

    def test_values_exist_at_their_level(self, populated_tpcd):
        schema, _records = populated_tpcd
        for query in QueryGenerator(schema, 0.1, seed=2).queries(10):
            for dim in range(schema.n_dimensions):
                level = query.mds.level(dim)
                known = set(
                    schema.dimensions[dim].hierarchy.values_at_level(level)
                )
                assert query.mds.value_set(dim) <= known

    def test_empty_hierarchy_falls_back_to_all(self):
        schema = build_toy_schema()  # no values inserted yet
        query = QueryGenerator(schema, 0.5, seed=0).query()
        for dim in range(schema.n_dimensions):
            hierarchy = schema.dimensions[dim].hierarchy
            assert query.mds.level(dim) == hierarchy.top_level
            assert query.mds.value_set(dim) == {hierarchy.all_id}


class TestRangeQuery:
    def test_dimension_count_checked(self, populated_tpcd):
        schema, _records = populated_tpcd
        with pytest.raises(QueryError):
            RangeQuery(schema, MDS([{1}], [0]))

    def test_matches_equals_predicate(self, populated_tpcd):
        schema, records = populated_tpcd
        query = QueryGenerator(schema, 0.3, seed=9).query()
        predicate = query.predicate()
        for record in records[:50]:
            assert predicate(record) == query.matches(record)

    def test_mbr_conversion_is_superset(self, populated_tpcd):
        """Every record matching the MDS lies inside the converted MBR."""
        schema, records = populated_tpcd
        for query in QueryGenerator(schema, 0.2, seed=4).queries(10):
            box = query.to_mbr()
            for record in records:
                if query.matches(record):
                    assert box.contains_point(record.flat_point())

    def test_mbr_constrains_only_chosen_levels(self, populated_tpcd):
        schema, _records = populated_tpcd
        query = QueryGenerator(schema, 0.2, seed=4).query()
        box = query.to_mbr()
        constrained = set()
        for dim in range(schema.n_dimensions):
            level = query.mds.level(dim)
            if level < schema.dimensions[dim].hierarchy.top_level:
                constrained.add(schema.flat_position(dim, level))
        for position in range(schema.n_flat_attributes):
            if position not in constrained:
                assert box.lows[position] == 0
                assert box.highs[position] == 0xFFFFFFFF

    def test_describe_mentions_levels(self, populated_tpcd):
        schema, _records = populated_tpcd
        query = query_from_labels(
            schema, {"Customer": ("Region", ["EUROPE"])}
        )
        text = query.describe()
        assert "Customer.Region" in text
        assert "EUROPE" in text
        assert "Time=ALL" in text


class TestQueryFromLabels:
    def test_unconstrained_dimensions_are_all(self):
        schema = build_toy_schema()
        toy_record(schema, "DE", "Munich", "red", 1.0)
        query = query_from_labels(schema, {})
        for dim in range(schema.n_dimensions):
            hierarchy = schema.dimensions[dim].hierarchy
            assert query.mds.value_set(dim) == {hierarchy.all_id}

    def test_selects_all_nodes_with_label(self):
        schema = build_toy_schema()
        for row in TOY_ROWS:
            toy_record(schema, *row)
        # Insert a duplicate city label under another country.
        toy_record(schema, "FR", "Munich", "red", 1.0)
        query = query_from_labels(schema, {"Geo": ("City", ["Munich"])})
        assert query.mds.cardinality(0) == 2

    def test_unknown_level_rejected(self):
        schema = build_toy_schema()
        with pytest.raises(QueryError):
            query_from_labels(schema, {"Geo": ("Continent", ["Europe"])})

    def test_unknown_label_rejected(self):
        schema = build_toy_schema()
        toy_record(schema, "DE", "Munich", "red", 1.0)
        with pytest.raises(QueryError):
            query_from_labels(schema, {"Geo": ("Country", ["Atlantis"])})

    def test_unknown_dimension_rejected(self):
        schema = build_toy_schema()
        toy_record(schema, "DE", "Munich", "red", 1.0)
        with pytest.raises(QueryError):
            query_from_labels(schema, {"Geos": ("Country", ["DE"])})


class TestConstrainDims:
    def test_constrained_count(self, populated_tpcd):
        schema, _records = populated_tpcd
        for query in QueryGenerator(
            schema, 0.2, seed=5, constrain_dims=1
        ).queries(15):
            constrained = sum(
                1 for dim in range(schema.n_dimensions)
                if query.mds.level(dim)
                < schema.dimensions[dim].hierarchy.top_level
            )
            assert constrained == 1

    def test_unconstrained_dims_are_all(self, populated_tpcd):
        schema, _records = populated_tpcd
        query = QueryGenerator(schema, 0.2, seed=6, constrain_dims=2).query()
        for dim in range(schema.n_dimensions):
            hierarchy = schema.dimensions[dim].hierarchy
            if query.mds.level(dim) == hierarchy.top_level:
                assert query.mds.value_set(dim) == {hierarchy.all_id}

    def test_bounds_validated(self, populated_tpcd):
        schema, _records = populated_tpcd
        with pytest.raises(QueryError):
            QueryGenerator(schema, 0.2, constrain_dims=0)
        with pytest.raises(QueryError):
            QueryGenerator(schema, 0.2, constrain_dims=5)


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_label_list_rejected_on_every_backend(backend):
    """An empty value set describes no range: every backend refuses it
    with the same QueryError instead of its own answer or crash."""
    schema = build_toy_schema()
    warehouse = Warehouse(schema, backend)
    warehouse.insert_records([toy_record(schema, *row) for row in TOY_ROWS])
    with pytest.raises(QueryError):
        warehouse.query("sum", where={"Geo": ("Country", [])})
    with pytest.raises(QueryError):
        RangeQuery(schema, MDS([set(), {1}], [1, 0]))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("side", ["below", "above"])
def test_out_of_range_level_rejected_on_every_backend(backend, side):
    """A level below 0 or above ALL describes no range: every backend
    refuses it with the DC-tree's QueryError instead of its own answer
    (the X-tree and the scan used to count every record above ALL) or
    crash."""
    schema = build_toy_schema()
    warehouse = Warehouse(schema, backend)
    warehouse.insert_records([toy_record(schema, *row) for row in TOY_ROWS])
    hierarchies = [d.hierarchy for d in schema.dimensions]
    levels = [h.top_level for h in hierarchies]
    levels[0] = -1 if side == "below" else levels[0] + 1
    mds = MDS([{h.all_id} for h in hierarchies], levels)
    with pytest.raises(QueryError, match="query level"):
        warehouse.execute(RangeQuery(schema, mds), op="count")
