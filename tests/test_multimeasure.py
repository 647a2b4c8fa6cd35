"""End-to-end tests for cubes with several measures.

The data-cube definition (Definition 2) allows m measures; the TPC-D
evaluation uses one, so the multi-measure paths deserve their own
coverage: per-measure aggregate vectors, measure selection by name and
index on every backend, persistence, group-by and bulk load.
"""

import math

import pytest

from repro import (
    CubeSchema,
    Dimension,
    Measure,
    Warehouse,
)
from repro.core.bulkload import bulk_load
from repro.errors import QueryError, SchemaError
from repro.persist import warehouse_from_dict, warehouse_to_dict
from repro.workload.queries import query_from_labels


def build_sales_schema():
    """Two dimensions, three measures (revenue, units, discount)."""
    return CubeSchema(
        dimensions=[
            Dimension("Store", ("City", "Country")),
            Dimension("Product", ("Item", "Category")),
        ],
        measures=[Measure("Revenue"), Measure("Units"), Measure("Discount")],
    )


ROWS = (
    (("DE", "Munich"), ("Food", "Bread"), (120.0, 40.0, 0.05)),
    (("DE", "Munich"), ("Food", "Milk"), (80.0, 60.0, 0.00)),
    (("DE", "Berlin"), ("Tools", "Drill"), (400.0, 4.0, 0.10)),
    (("FR", "Paris"), ("Food", "Bread"), (90.0, 30.0, 0.02)),
    (("FR", "Paris"), ("Tools", "Saw"), (150.0, 5.0, 0.15)),
)


def populate(warehouse):
    for store, product, measures in ROWS:
        warehouse.insert((store, product), measures)


@pytest.mark.parametrize("backend", ["dc-tree", "x-tree", "scan"])
class TestPerMeasureQueries:
    def test_sum_by_index(self, backend):
        warehouse = Warehouse(build_sales_schema(), backend)
        populate(warehouse)
        assert warehouse.query("sum", measure=0) == 840.0
        assert warehouse.query("sum", measure=1) == 139.0

    def test_by_name(self, backend):
        warehouse = Warehouse(build_sales_schema(), backend)
        populate(warehouse)
        assert warehouse.query("sum", measure="Units") == 139.0
        assert math.isclose(
            warehouse.query("max", measure="Discount"), 0.15
        )

    def test_with_where(self, backend):
        warehouse = Warehouse(build_sales_schema(), backend)
        populate(warehouse)
        where = {"Product": ("Category", ["Food"])}
        assert warehouse.query("sum", measure="Revenue",
                               where=where) == 290.0
        assert warehouse.query("sum", measure="Units", where=where) == 130.0

    def test_min_max_per_measure(self, backend):
        warehouse = Warehouse(build_sales_schema(), backend)
        populate(warehouse)
        where = {"Store": ("Country", ["DE"])}
        assert warehouse.query("min", measure="Revenue", where=where) == 80.0
        assert warehouse.query("max", measure="Units", where=where) == 60.0

    def test_unknown_measure_rejected(self, backend):
        warehouse = Warehouse(build_sales_schema(), backend)
        populate(warehouse)
        with pytest.raises(QueryError):
            warehouse.query("sum", measure=3)

    def test_summary_per_measure(self, backend):
        warehouse = Warehouse(build_sales_schema(), backend)
        populate(warehouse)
        units = warehouse.summary(measure="Units")
        assert units.aggregate("sum") == 139.0
        assert units.aggregate("count") == len(ROWS)
        assert units.aggregate("max") == 60.0


_DE = {"Store": ("Country", ["DE"])}
_ASK = {
    "query": lambda w, measure: w.query("sum", measure=measure, where=_DE),
    "summary": lambda w, measure: [
        w.summary(measure=measure, where=_DE).aggregate(op)
        for op in ("sum", "count", "min", "max")
    ],
    "group_by": lambda w, measure: w.group_by(
        "Product", "Category", measure=measure, where=_DE
    ),
}


@pytest.mark.parametrize("method", sorted(_ASK))
@pytest.mark.parametrize("backend", ["dc-tree", "x-tree", "scan"])
def test_measure_argument_means_the_same_on_every_backend(backend, method):
    ask = _ASK[method]
    warehouse = Warehouse(build_sales_schema(), backend)
    reference = Warehouse(build_sales_schema(), "dc-tree")
    populate(warehouse)
    populate(reference)
    for index, name in enumerate(("Revenue", "Units", "Discount")):
        answer = ask(warehouse, name)
        assert ask(warehouse, index) == answer
        assert answer == pytest.approx(ask(reference, index))
    for measure in (3, -1):
        with pytest.raises(QueryError):
            ask(warehouse, measure)
    with pytest.raises(SchemaError):
        ask(warehouse, "Profit")


class TestGroupByPerMeasure:
    def test_group_by_second_measure(self):
        warehouse = Warehouse(build_sales_schema())
        populate(warehouse)
        units = warehouse.group_by("Store", "Country", measure="Units")
        assert units == {"DE": 104.0, "FR": 35.0}

    def test_group_by_avg_third_measure(self):
        warehouse = Warehouse(build_sales_schema())
        populate(warehouse)
        discount = warehouse.group_by(
            "Product", "Category", op="avg", measure="Discount"
        )
        assert math.isclose(discount["Food"], (0.05 + 0.0 + 0.02) / 3)
        assert math.isclose(discount["Tools"], (0.10 + 0.15) / 2)


class TestStructuresCarryAllMeasures:
    def test_tree_aggregate_vector_width(self):
        warehouse = Warehouse(build_sales_schema())
        populate(warehouse)
        assert len(warehouse.index.root.aggregate.summaries) == 3
        warehouse.index.check_invariants()

    def test_persist_roundtrip_all_measures(self):
        warehouse = Warehouse(build_sales_schema())
        populate(warehouse)
        restored = warehouse_from_dict(warehouse_to_dict(warehouse))
        for measure in ("Revenue", "Units", "Discount"):
            assert restored.query("sum", measure=measure) == warehouse.query(
                "sum", measure=measure
            )

    def test_bulk_load_all_measures(self):
        schema = build_sales_schema()
        records = [
            schema.record((store, product), measures)
            for store, product, measures in ROWS
        ]
        tree = bulk_load(schema, records)
        tree.check_invariants()
        query = query_from_labels(schema, {})
        assert tree.range_query(query.mds, measure=2) == pytest.approx(0.32)

    def test_delete_updates_every_measure(self):
        warehouse = Warehouse(build_sales_schema())
        populate(warehouse)
        record = warehouse.insert(
            (("IT", "Rome"), ("Food", "Pasta")), (999.0, 1.0, 0.5)
        )
        warehouse.delete(record)
        assert warehouse.query("sum", measure="Revenue") == 840.0
        assert warehouse.query("max", measure="Discount") == 0.15
        warehouse.index.check_invariants()

    def test_wrong_measure_arity_rejected(self):
        schema = build_sales_schema()
        warehouse = Warehouse(schema)
        with pytest.raises(SchemaError):
            warehouse.insert((("DE", "Munich"), ("Food", "Bread")), (1.0,))
