"""Pinned telemetry: every counter and gauge of one scripted session.

A toy durable session with observability on runs serial and batched
inserts (leaf and directory splits, a leaf supernode growth), deletes,
a plain query asked twice, one EXPLAIN of each kind and a checkpoint;
it then closes and reopens, replaying the inserts logged after the
checkpoint.  The registry of each half must hold exactly the pinned
samples, family by family: tree counters, WAL counters, checkpoint and
recovery figures, and the tracker, result-cache and structure gauges
that :func:`~repro.obs.warehouse_registry` refreshes.  The recovery
gauge ``recovery_checkpoint_age_seconds`` reads the wall clock and is
left out.  A change to where telemetry is counted must leave every
pinned value unmoved.
"""

from __future__ import annotations

import itertools

from repro import DCTreeConfig, DurableWarehouse, Warehouse
from repro.obs import warehouse_registry
from tests.conftest import build_toy_schema, toy_record

CITIES = (
    ("DE", ("Munich", "Berlin", "Hamburg")),
    ("FR", ("Paris", "Lyon")),
    ("US", ("NYC", "Boston", "Austin")),
)
COLORS = ("red", "blue", "green")

#: 24 distinct cells, each with its own sales figure.
ROWS = tuple(
    (country, city, color, float(index))
    for index, ((country, city), color) in enumerate(
        itertools.product(
            [(country, city) for country, cities in CITIES
             for city in cities],
            COLORS,
        ),
        start=1,
    )
)

#: Six copies of one cell: no hierarchy split separates them, so their
#: leaf grows into a supernode.
SAME = ("DE", "Munich", "red", 1.0)

WHERE_DE = {"Geo": ("Country", ["DE"])}


def _config():
    return DCTreeConfig(leaf_capacity=4, dir_capacity=4, observability=True)


def _samples(snapshot):
    """``{family: {"label=value,...": value}}`` of a registry snapshot."""
    return {
        name: {
            ",".join("%s=%s" % item for item in sorted(
                sample["labels"].items()
            )): sample["value"]
            for sample in family["samples"]
        }
        for name, family in snapshot.items()
    }


def _check(snapshot, pinned):
    measured = _samples(snapshot)
    for name, expected in pinned.items():
        assert measured.get(name) == expected, name


def test_session_telemetry_is_pinned(tmp_path):
    directory = tmp_path / "dw"
    warehouse = Warehouse(build_toy_schema(), config=_config())
    schema = warehouse.schema
    records = [toy_record(schema, *row) for row in ROWS]
    same = [toy_record(schema, *SAME) for _ in range(6)]
    session = DurableWarehouse.create(directory, warehouse)
    try:
        for record in records[:12]:
            session.insert_record(record)
        session.insert_records(records[12:20])
        session.insert_records(same)
        session.checkpoint()
        for record in records[20:]:
            session.insert_record(record)
        for record in (records[0], records[13], same[0]):
            session.delete(record)
        for _ in range(2):
            assert warehouse.query("sum", where=WHERE_DE) == 49.0
        value, profile = warehouse.query("sum", where=WHERE_DE, explain=True)
        assert value == 49.0 and profile.reconciles()
        groups, profile = warehouse.group_by("Geo", "Country", explain=True)
        assert groups == {"DE": 49.0, "FR": 61.0, "US": 180.0}
        assert profile.reconciles()
    finally:
        session.close()
    _check(warehouse_registry(warehouse).snapshot(), PINNED_SESSION)

    reopened = DurableWarehouse.open(directory, config=_config())
    try:
        assert len(reopened) == len(warehouse)
        _check(
            warehouse_registry(reopened.warehouse).snapshot(), PINNED_REOPEN
        )
    finally:
        reopened.close()


#: The creating session's registry after close.
PINNED_SESSION = {
    "checkpoints_total": {"": 1},
    "dctree_batch_inserts_total": {"": 2},
    "dctree_batch_records_total": {"": 14},
    "dctree_deletes_total": {"": 3},
    "dctree_explains_total": {"kind=group_by": 1, "kind=range_query": 1},
    "dctree_height": {"": 3},
    "dctree_inserts_total": {"": 16},
    "dctree_level_blocks_avg": {
        "depth=0": 1.0, "depth=1": 1.0, "depth=2": 1.1111111111111112,
    },
    "dctree_level_entries_avg": {"depth=0": 3.0, "depth=1": 3.0,
                                 "depth=2": 3.0},
    "dctree_level_nodes": {"depth=0": 1, "depth=1": 3, "depth=2": 9},
    "dctree_level_supernodes": {"depth=0": 0, "depth=1": 0, "depth=2": 1},
    "dctree_nodes_total": {"": 13},
    "dctree_records": {"": 27},
    "dctree_splits_total": {"kind=dir": 2, "kind=leaf": 9},
    "dctree_supernode_growths_total": {"kind=leaf": 1},
    "dctree_supernodes_total": {"": 1},
    "dctree_tree_version": {"": 21},
    "result_cache_capacity": {"": 128},
    "result_cache_evictions": {"": 0},
    "result_cache_hit_rate": {"": 0.5},
    "result_cache_hits": {"": 2},
    "result_cache_invalidations": {"": 0},
    "result_cache_misses": {"": 2},
    "result_cache_size": {"": 2},
    "storage_buffer_hits": {"": 96},
    "storage_buffer_misses": {"": 26},
    "storage_cpu_units": {"": 1884},
    "storage_node_accesses": {"": 118},
    "storage_page_ios": {"": 100},
    "storage_page_writes": {"": 74},
    "storage_simulated_seconds": {"": 1.001884},
    "wal_appends_total": {"op=apply": 21},
    "wal_bytes_written_total": {"": 2148},
    "wal_fsyncs_total": {"": 22},
    "wal_truncates_total": {"": 1},
}

#: The reopened session's registry: recovery replayed four inserts and
#: three deletes onto the checkpoint, then audited the result.
PINNED_REOPEN = {
    "dctree_deletes_total": {"": 3},
    "dctree_height": {"": 3},
    "dctree_inserts_total": {"": 4},
    "dctree_level_blocks_avg": {
        "depth=0": 1.0, "depth=1": 1.0, "depth=2": 1.1111111111111112,
    },
    "dctree_level_entries_avg": {"depth=0": 3.0, "depth=1": 3.0,
                                 "depth=2": 3.0},
    "dctree_level_nodes": {"depth=0": 1, "depth=1": 3, "depth=2": 9},
    "dctree_level_supernodes": {"depth=0": 0, "depth=1": 0, "depth=2": 1},
    "dctree_nodes_total": {"": 13},
    "dctree_records": {"": 27},
    "dctree_splits_total": {"kind=dir": 1, "kind=leaf": 3},
    "dctree_supernodes_total": {"": 1},
    "dctree_tree_version": {"": 8},
    "recovery_applied_batches": {"": 0},
    "recovery_applied_deletes": {"": 3},
    "recovery_applied_inserts": {"": 4},
    "recovery_checkpoint_lsn": {"": 14},
    "recovery_failed_deletes": {"": 0},
    "recovery_last_lsn": {"": 21},
    "recovery_n_records": {"": 27},
    "recovery_records_at_checkpoint": {"": 26},
    "recovery_skipped_stale": {"": 0},
    "recovery_stopped_at_rebase": {"": 0},
    "recovery_torn_tail": {"": 0},
    "recovery_validated": {"": 1},
    "recovery_wal_bytes_scanned": {"": 528},
    "recovery_wal_records_seen": {"": 7},
    "result_cache_capacity": {"": 128},
    "result_cache_evictions": {"": 0},
    "result_cache_hit_rate": {"": 0.0},
    "result_cache_hits": {"": 0},
    "result_cache_invalidations": {"": 0},
    "result_cache_misses": {"": 1},
    "result_cache_size": {"": 1},
    "storage_buffer_hits": {"": 32},
    "storage_buffer_misses": {"": 19},
    "storage_cpu_units": {"": 679},
    "storage_node_accesses": {"": 48},
    "storage_page_ios": {"": 55},
    "storage_page_writes": {"": 36},
    "storage_simulated_seconds": {"": 0.550679},
    "wal_truncates_total": {"": 1},
}
