"""Unit tests for the Warehouse facade."""

import math

import pytest

from repro import (
    DCTreeConfig,
    Warehouse,
    XTreeConfig,
    make_tpcd_schema,
)
from repro.errors import SchemaError
from repro.workload.queries import QueryGenerator, query_from_labels
from tests.conftest import TOY_ROWS, build_toy_schema


def populate(warehouse):
    for country, city, color, sales in TOY_ROWS:
        warehouse.insert(((country, city), (color,)), (sales,))


class TestConstruction:
    def test_unknown_backend_rejected(self):
        with pytest.raises(SchemaError):
            Warehouse(build_toy_schema(), backend="b-tree")

    def test_backend_config_type_checked(self):
        with pytest.raises(SchemaError):
            Warehouse(build_toy_schema(), "dc-tree", config=XTreeConfig())
        with pytest.raises(SchemaError):
            Warehouse(build_toy_schema(), "x-tree", config=DCTreeConfig())

    def test_tpcd_classmethod(self):
        warehouse = Warehouse.tpcd()
        assert warehouse.schema.n_dimensions == 4
        assert warehouse.backend == "dc-tree"

    def test_repr(self):
        warehouse = Warehouse(build_toy_schema())
        assert "dc-tree" in repr(warehouse)


@pytest.mark.parametrize("backend", ["dc-tree", "x-tree", "scan"])
class TestAllBackends:
    def test_insert_and_len(self, backend):
        warehouse = Warehouse(build_toy_schema(), backend)
        populate(warehouse)
        assert len(warehouse) == len(TOY_ROWS)

    def test_query_by_labels(self, backend):
        warehouse = Warehouse(build_toy_schema(), backend)
        populate(warehouse)
        assert warehouse.query(
            "sum", where={"Geo": ("Country", ["DE"])}
        ) == 35.0

    def test_count(self, backend):
        warehouse = Warehouse(build_toy_schema(), backend)
        populate(warehouse)
        assert warehouse.count(where={"Color": ("Color", ["red"])}) == 3

    def test_execute_prepared_query(self, backend):
        warehouse = Warehouse(build_toy_schema(), backend)
        populate(warehouse)
        query = query_from_labels(
            warehouse.schema, {"Geo": ("City", ["Munich"])}
        )
        assert warehouse.execute(query) == 30.0

    def test_records_matching(self, backend):
        warehouse = Warehouse(build_toy_schema(), backend)
        populate(warehouse)
        query = query_from_labels(
            warehouse.schema, {"Geo": ("Country", ["US"])}
        )
        assert len(warehouse.records_matching(query)) == 2

    def test_delete(self, backend):
        warehouse = Warehouse(build_toy_schema(), backend)
        populate(warehouse)
        record = warehouse.insert((("IT", "Rome"), ("red",)), (100.0,))
        warehouse.delete(record)
        assert len(warehouse) == len(TOY_ROWS)
        assert warehouse.query("sum") == 96.0

    def test_tracker_and_footprint(self, backend):
        warehouse = Warehouse(build_toy_schema(), backend)
        populate(warehouse)
        assert warehouse.tracker.snapshot().node_accesses > 0
        assert warehouse.byte_size() > 0


class TestQueryValidation:
    def test_execute_requires_range_query(self):
        warehouse = Warehouse(build_toy_schema())
        with pytest.raises(SchemaError):
            warehouse.execute("not a query")

    def test_execute_rejects_foreign_schema_query(self):
        warehouse = Warehouse(build_toy_schema())
        other_schema = build_toy_schema()
        query = query_from_labels(other_schema, {})
        with pytest.raises(SchemaError):
            warehouse.execute(query)


class TestCrossBackendAgreement:
    def test_all_backends_agree_on_tpcd(self):
        schema = make_tpcd_schema()
        from repro import TPCDGenerator

        generator = TPCDGenerator(schema, seed=11, scale_records=300)
        records = generator.generate(300)
        warehouses = {
            backend: Warehouse(schema, backend)
            for backend in ("dc-tree", "x-tree", "scan")
        }
        for record in records:
            for warehouse in warehouses.values():
                warehouse.insert_record(record)
        for query in QueryGenerator(schema, 0.1, seed=3).queries(15):
            results = {
                backend: warehouse.execute(query)
                for backend, warehouse in warehouses.items()
            }
            values = list(results.values())
            assert math.isclose(values[0], values[1], abs_tol=1e-6)
            assert math.isclose(values[1], values[2], abs_tol=1e-6)


@pytest.mark.parametrize("backend", ["dc-tree", "x-tree", "scan"])
class TestSummaryAndEstimate:
    def test_summary_matches_queries(self, backend):
        warehouse = Warehouse(build_toy_schema(), backend)
        populate(warehouse)
        where = {"Geo": ("Country", ["DE"])}
        summary = warehouse.summary(where=where)
        assert summary.aggregate("sum") == warehouse.query("sum", where=where)
        assert summary.aggregate("count") == warehouse.count(where=where)
        assert summary.aggregate("min") == warehouse.query(
            "min", where=where
        )
        assert summary.aggregate("max") == warehouse.query(
            "max", where=where
        )

    def test_summary_unconstrained(self, backend):
        warehouse = Warehouse(build_toy_schema(), backend)
        populate(warehouse)
        summary = warehouse.summary()
        assert summary.aggregate("count") == len(warehouse)
