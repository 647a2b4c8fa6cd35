"""Pinned telemetry: every event counter and state figure of one session.

A toy durable session with observability on runs serial and batched
inserts (leaf and directory splits, a leaf supernode growth), deletes,
a plain query asked twice, one EXPLAIN of each kind and a checkpoint;
it then closes and reopens, replaying the inserts logged after the
checkpoint.  Each half pins two things.  The event counters come from
the tree's registry (tree, WAL and checkpoint families).  The state
figures come from the objects that own them: the tracker's
``AccessStats``, the result cache's ``stats()``, ``collect_stats`` and
``tree_version``, and on reopen the session's ``RecoveryReport``.  A
change to where telemetry is counted must leave every pinned value
unmoved.
"""

from __future__ import annotations

import itertools

from repro import DCTreeConfig, DurableWarehouse, Warehouse
from repro.core.stats import collect_stats
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


def _state(tree):
    """The pinned state figures of ``tree``, grouped by their owner."""
    access = tree.tracker.snapshot()
    stats = collect_stats(tree)
    return {
        "tracker": dict(
            {name: getattr(access, name) for name in (
                "node_accesses", "buffer_hits", "buffer_misses",
                "page_writes", "page_ios", "cpu_units",
            )},
            simulated_seconds=access.simulated_seconds(),
        ),
        "result_cache": {
            name: getattr(tree.result_cache.stats(), name) for name in (
                "hits", "misses", "evictions", "invalidations", "size",
                "capacity", "hit_rate",
            )
        },
        "structure": {
            "n_records": stats.n_records,
            "height": stats.height,
            "n_nodes": stats.n_nodes,
            "n_supernodes": stats.n_supernodes,
            "tree_version": tree.tree_version,
        },
        "levels": {
            name: tuple(getattr(level, name) for level in stats.levels)
            for name in ("n_nodes", "n_supernodes", "avg_entries",
                         "avg_blocks")
        },
    }


def _recovery(report):
    """The pinned figures of a :class:`RecoveryReport`."""
    figures = {name: getattr(report, name) for name in (
        "records_at_checkpoint", "checkpoint_lsn", "wal_records_seen",
        "wal_bytes_scanned", "applied_inserts", "applied_batches",
        "applied_deletes", "skipped_stale", "failed_deletes", "n_records",
        "last_lsn",
    )}
    figures["torn_tail"] = int(report.torn_tail)
    figures["validated"] = int(report.validated)
    return figures


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
        with warehouse.explain() as profiles:
            value = warehouse.query("sum", where=WHERE_DE)
            groups = warehouse.group_by("Geo", "Country")
        assert value == 49.0
        assert groups == {"DE": 49.0, "FR": 61.0, "US": 180.0}
        assert all(profile.reconciles() for profile in profiles)
    finally:
        session.close()
    assert _samples(warehouse.observability.snapshot()) == PINNED_SESSION_EVENTS
    assert _state(warehouse.index) == PINNED_SESSION_STATE

    reopened = DurableWarehouse.open(directory, config=_config())
    try:
        assert len(reopened) == len(warehouse)
        assert (_samples(reopened.warehouse.observability.snapshot())
                == PINNED_REOPEN_EVENTS)
        assert _state(reopened.warehouse.index) == PINNED_REOPEN_STATE
        assert _recovery(reopened.report) == PINNED_RECOVERY
    finally:
        reopened.close()


#: The creating session's event counters after close.
PINNED_SESSION_EVENTS = {
    "checkpoints_total": {"": 1},
    "dctree_batch_inserts_total": {"": 2},
    "dctree_batch_pages_written_total": {"": 13},
    "dctree_batch_records_total": {"": 14},
    "dctree_deletes_total": {"": 3},
    "dctree_explains_total": {"kind=group_by": 1, "kind=range_query": 1},
    "dctree_inserts_total": {"": 16},
    "dctree_splits_total": {"kind=dir": 2, "kind=leaf": 9},
    "dctree_supernode_growths_total": {"kind=leaf": 1},
    "wal_appends_total": {"op=apply": 21},
    "wal_bytes_written_total": {"": 2148},
    "wal_fsyncs_total": {"": 22},
    "wal_truncates_total": {"": 1},
}

#: The creating session's state after close.
PINNED_SESSION_STATE = {
    "tracker": {
        "node_accesses": 118, "buffer_hits": 96, "buffer_misses": 26,
        "page_writes": 74, "page_ios": 100, "cpu_units": 1884,
        "simulated_seconds": 1.001884,
    },
    "result_cache": {
        "hits": 2, "misses": 2, "evictions": 0, "invalidations": 0,
        "size": 2, "capacity": 128, "hit_rate": 0.5,
    },
    "structure": {
        "n_records": 27, "height": 3, "n_nodes": 13, "n_supernodes": 1,
        "tree_version": 21,
    },
    "levels": {
        "n_nodes": (1, 3, 9),
        "n_supernodes": (0, 0, 1),
        "avg_entries": (3.0, 3.0, 3.0),
        "avg_blocks": (1.0, 1.0, 1.1111111111111112),
    },
}

#: The reopened session's event counters: recovery replayed four inserts
#: and three deletes onto the checkpoint, then audited the result.
PINNED_REOPEN_EVENTS = {
    "dctree_deletes_total": {"": 3},
    "dctree_inserts_total": {"": 4},
    "dctree_splits_total": {"kind=dir": 1, "kind=leaf": 3},
    "wal_truncates_total": {"": 1},
}

#: The reopened session's state.
PINNED_REOPEN_STATE = {
    "tracker": {
        "node_accesses": 48, "buffer_hits": 32, "buffer_misses": 19,
        "page_writes": 36, "page_ios": 55, "cpu_units": 679,
        "simulated_seconds": 0.550679,
    },
    "result_cache": {
        "hits": 0, "misses": 1, "evictions": 0, "invalidations": 0,
        "size": 1, "capacity": 128, "hit_rate": 0.0,
    },
    "structure": {
        "n_records": 27, "height": 3, "n_nodes": 13, "n_supernodes": 1,
        "tree_version": 8,
    },
    "levels": {
        "n_nodes": (1, 3, 9),
        "n_supernodes": (0, 0, 1),
        "avg_entries": (3.0, 3.0, 3.0),
        "avg_blocks": (1.0, 1.0, 1.1111111111111112),
    },
}

#: The reopened session's recovery audit.
PINNED_RECOVERY = {
    "records_at_checkpoint": 26, "checkpoint_lsn": 14,
    "wal_records_seen": 7, "wal_bytes_scanned": 528,
    "applied_inserts": 4, "applied_batches": 0, "applied_deletes": 3,
    "skipped_stale": 0, "failed_deletes": 0, "n_records": 27,
    "last_lsn": 21, "torn_tail": 0, "validated": 1,
}
