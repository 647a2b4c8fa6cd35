"""``DCTree.apply``: a mixed insert/delete batch against one-op calls.

The one mutator's contract: however operations are grouped into calls,
the tree and every read counter come out the same, and a call of more
than one operation writes at most the pages the one-op calls write.  A
batch logged through a :class:`WalSink` then recovers to the same tree
with the same tracker deltas, because its WAL record replays as the
same one call.
"""

from __future__ import annotations

import random

import pytest

from repro import DCTree, DCTreeConfig, Warehouse
from repro.core.debug import structure_digest
from repro.core.tree import DELETE, INSERT
from repro.errors import RecordNotFoundError, TreeError
from repro.persist.durable import WalSink
from repro.persist.io import (
    read_warehouse_file,
    record_from_labels,
    record_to_labels,
    save_warehouse,
    warehouse_from_dict,
)
from repro.persist.recovery import RecoveryReport, _replay_wal
from repro.persist.wal import WriteAheadLog
from repro.workload.queries import QueryGenerator
from tests.conftest import build_toy_schema, toy_record

pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning",
    "error::pytest.PytestUnraisableExceptionWarning",
)

COUNTRIES = {"DE": ("Munich", "Berlin", "Hamburg"), "FR": ("Paris", "Lyon"),
             "US": ("NYC", "Boston", "Austin", "Denver")}
COLORS = ("red", "blue", "green")


def _config():
    return DCTreeConfig(leaf_capacity=4, dir_capacity=4)


def _rows(seed, n):
    rng = random.Random(seed)
    rows = []
    for index in range(n):
        country = rng.choice(sorted(COUNTRIES))
        rows.append((country, rng.choice(COUNTRIES[country]),
                     rng.choice(COLORS), float(index + 1)))
    return rows


def _reads(tracker):
    stats = tracker.snapshot()
    return stats.node_accesses, stats.buffer_hits, stats.buffer_misses


def _mixed_ops(records, fresh, rng):
    """Interleave ``fresh`` inserts with deletes of half of ``records``."""
    doomed = rng.sample(records, len(records) // 2)
    ops = [(INSERT, record) for record in fresh]
    ops += [(DELETE, record) for record in doomed]
    rng.shuffle(ops)
    return ops


SCHEMA = build_toy_schema()


def _tree(records):
    tree = DCTree(SCHEMA, config=_config())
    tree.insert_batch(records)
    return tree


def _scenario(seed):
    """40 indexed records, and a shuffled batch inserting 12 more and
    deleting 20 of them."""
    rng = random.Random(seed)
    base = [toy_record(SCHEMA, *row) for row in _rows(seed, 40)]
    fresh = [toy_record(SCHEMA, *row) for row in _rows(seed + 100, 12)]
    return base, _mixed_ops(base, fresh, rng)


def _condenses(base, ops):
    """Does applying ``ops`` one by one reinsert condensed orphans?"""
    tree = _tree(base)
    condensed = []
    collect = tree._collect_orphans

    def counting(node, orphans):
        condensed.append(node)
        collect(node, orphans)

    tree._collect_orphans = counting
    for op in ops:
        tree.apply([op])
    return bool(condensed)


def _answers(tree):
    answers = [tree.group_by(0, 1), tree.group_by(1, 0, op="count")]
    generator = QueryGenerator(SCHEMA, 0.5, seed=7)
    for _ in range(8):
        query = generator.query()
        answers.append(tree.range_query(query.mds))
        answers.append(tree.range_query(query.mds, op="max"))
    return answers


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mixed_batch_equals_one_op_calls(seed):
    base, ops = _scenario(seed)
    assert _condenses(base, ops), "scenario must condense and reinsert"
    serial = _tree(base)
    batched = _tree(base)
    before = serial.tracker.snapshot()
    assert repr(before) == repr(batched.tracker.snapshot())
    for op in ops:
        assert serial.apply([op]) == 1
    version = batched.tree_version
    assert batched.apply(ops) == len(ops)
    assert batched.tree_version == version + 1
    assert len(batched) == len(serial) == 40 + 12 - 20
    assert structure_digest(batched) == structure_digest(serial)
    assert _reads(batched.tracker) == _reads(serial.tracker)
    assert (batched.tracker.page_writes - before.page_writes
            <= serial.tracker.page_writes - before.page_writes)
    batched.check_invariants()
    assert _answers(batched) == _answers(serial)


def test_logged_batch_recovers_with_the_same_charges(tmp_path):
    """The batch's WAL record replays as the same one call: the
    recovered tree has the original's digest, and replay charges the
    tracker exactly what the original apply did."""
    base, ops = _scenario(1)
    checkpoint = str(tmp_path / "checkpoint.json")
    wal_path = str(tmp_path / "wal.log")
    save_warehouse(Warehouse.wrap(_tree(base)), checkpoint)

    original = warehouse_from_dict(read_warehouse_file(checkpoint))
    # The ops in the loaded schema's IDs, built as replay builds them.
    own_ops = [
        (kind, record_from_labels(original.schema,
                                  record_to_labels(SCHEMA, record)))
        for kind, record in ops
    ]
    with WriteAheadLog(wal_path) as wal:
        original.index.set_mutation_sink(WalSink(wal, original.schema))
        before = original.tracker.snapshot()
        original.index.apply(own_ops)
        applied = repr(original.tracker.snapshot() - before)

    recovered = warehouse_from_dict(read_warehouse_file(checkpoint))
    report = RecoveryReport(checkpoint, wal_path)
    before = recovered.tracker.snapshot()
    _replay_wal(recovered, wal_path, report, None)
    assert repr(recovered.tracker.snapshot() - before) == applied
    assert structure_digest(recovered.index) == \
        structure_digest(original.index)
    assert report.applied_batches == 1
    assert report.applied_deletes == 20
    assert report.applied_inserts == 12


def test_lone_missing_delete_changes_nothing():
    base, _ops = _scenario(1)
    tree = _tree(base)
    digest, version = structure_digest(tree), tree.tree_version
    ghost = toy_record(SCHEMA, "DE", "Munich", "red", -1.0)
    with pytest.raises(RecordNotFoundError):
        tree.apply([(DELETE, ghost)])
    assert (structure_digest(tree), tree.tree_version) == (digest, version)


def test_unknown_kind_refused_before_anything_applies():
    base, _ops = _scenario(1)
    tree = _tree(base)
    digest = structure_digest(tree)
    extra = toy_record(SCHEMA, "FR", "Lyon", "red", 5.5)
    with pytest.raises(TreeError, match="unknown operation"):
        tree.apply([(INSERT, extra), ("upsert", extra)])
    assert structure_digest(tree) == digest
    assert tree.apply([]) == 0
