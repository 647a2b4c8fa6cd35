"""One end-to-end acceptance flow across every major feature.

Simulates a realistic deployment day: export operational data, bulk-load
the warehouse, run analyst queries (label-based, SQL, group-by), stream
live updates, take a snapshot, re-ask the workload against the
snapshot, and verify everything against the sequential-scan oracle.
"""

import math

import pytest

from repro import (
    FlatTable,
    TPCDGenerator,
    Warehouse,
    make_tpcd_schema,
)
from repro.core.bulkload import bulk_load
from repro.persist import load_warehouse, save_warehouse
from repro.query import execute as sql
from repro.tpcd.flatfile import read_flatfile, write_flatfile
from repro.workload.queries import QueryGenerator, RangeQuery


@pytest.fixture(scope="module")
def deployment(tmp_path_factory):
    root = tmp_path_factory.mktemp("deployment")
    flat_path = root / "lineitems.tbl"
    schema = make_tpcd_schema()
    generator = TPCDGenerator(schema, seed=2026, scale_records=1200)
    write_flatfile(flat_path, schema, generator.records(1200))

    loaded_schema, records = read_flatfile(flat_path)
    warehouse = Warehouse.wrap(bulk_load(loaded_schema, records))
    oracle = FlatTable(loaded_schema)
    for record in records:
        oracle.insert(record)
    return root, loaded_schema, warehouse, oracle, records


def test_bulk_load_from_flatfile(deployment):
    _root, _schema, warehouse, oracle, records = deployment
    assert len(warehouse) == len(records) == len(oracle)
    warehouse.index.check_invariants()


def test_analyst_session_matches_oracle(deployment):
    _root, schema, warehouse, oracle, _records = deployment
    for query in QueryGenerator(schema, 0.2, seed=1).queries(15):
        assert math.isclose(
            warehouse.execute(query),
            oracle.range_query(query.mds),
            abs_tol=1e-4,
        )


def test_sql_and_groupby_agree(deployment):
    _root, schema, warehouse, _oracle, _records = deployment
    region = sorted(warehouse.group_by("Customer", "Region"))[0]
    via_sql = sql(
        warehouse,
        "SELECT SUM(ExtendedPrice) WHERE Customer.Region = '%s'" % region,
    )
    via_api = warehouse.query(
        "sum", where={"Customer": ("Region", [region])}
    )
    assert math.isclose(via_sql, via_api, abs_tol=1e-9)
    groups = sql(
        warehouse, "SELECT SUM(ExtendedPrice) GROUP BY Customer.Region"
    )
    assert math.isclose(
        sum(groups.values()), warehouse.query("sum"), abs_tol=1e-4
    )


def test_live_updates_stay_consistent(deployment):
    _root, schema, warehouse, oracle, _records = deployment
    generator = TPCDGenerator(schema, seed=9, scale_records=200)
    fresh = generator.generate(60)
    for record in fresh:
        warehouse.insert_record(record)
        oracle.insert(record)
    for record in fresh[:20]:
        warehouse.delete(record)
        oracle.delete(record)
    warehouse.index.check_invariants()
    for query in QueryGenerator(schema, 0.3, seed=2).queries(10):
        assert math.isclose(
            warehouse.execute(query),
            oracle.range_query(query.mds),
            abs_tol=1e-4,
        )


def test_snapshot_and_trace_replay(deployment):
    root, schema, warehouse, _oracle, _records = deployment
    snapshot_path = root / "snapshot.json"
    workload = list(QueryGenerator(schema, 0.15, seed=3).queries(12))

    save_warehouse(warehouse, snapshot_path)

    resumed = load_warehouse(snapshot_path)
    resumed.index.check_invariants()
    # Save/load restores hierarchy IDs verbatim, so the workload's MDSs
    # are valid range queries against the snapshot's schema.
    for query in workload:
        assert math.isclose(
            warehouse.execute(query),
            resumed.execute(RangeQuery(resumed.schema, query.mds)),
            abs_tol=1e-6,
        )

    # The snapshot is itself live: it absorbs an update independently.
    generator = TPCDGenerator(resumed.schema, seed=4, scale_records=10)
    resumed.insert_record(generator.record())
    assert len(resumed) == len(warehouse) + 1
