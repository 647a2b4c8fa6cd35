"""Crash matrix and recovery tests for the durability layer.

The core suite enumerates every fault-injection site a scripted
workload touches (WAL appends and fsyncs, checkpoint writes and
replaces, tracker page events) and simulates process death at each one,
then asserts the recovered warehouse holds exactly the acknowledged
mutations — never fewer, and at most the single in-flight one more.
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from tests.conftest import TOY_ROWS, build_toy_schema, toy_record
from repro import (
    DCTreeConfig,
    DurableWarehouse,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    StorageError,
    TreeError,
    Warehouse,
    recover_warehouse,
)
from repro.core.bulkload import bulk_load
from repro.persist.format import (
    CHECKPOINT_MAGIC,
    FRAME_PREFIX,
    SECTIONS,
    encode_checkpoint,
    scan_frames,
)
from repro.persist.io import (
    load_warehouse,
    record_to_labels,
    save_warehouse,
    warehouse_to_dict,
)
from repro.persist.wal import OP_APPLY, encode_record, read_wal
from repro.workload.queries import query_from_labels

pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning",
    "error::pytest.PytestUnraisableExceptionWarning",
)

_CONFIG = dict(leaf_capacity=4, dir_capacity=4)


def _toy_warehouse():
    return Warehouse(build_toy_schema(), "dc-tree",
                     config=DCTreeConfig(**_CONFIG))


def _key(schema, record):
    return json.dumps(record_to_labels(schema, record), sort_keys=True)


def _snapshot(warehouse):
    """Multiset of (labels, measures) keys of every stored record."""
    query = query_from_labels(warehouse.schema, {})
    return Counter(
        _key(warehouse.schema, record)
        for record in warehouse.records_matching(query)
    )


def _drop_dead(session):
    """Simulated process death: release the WAL handle without syncing
    or detaching anything."""
    wal = session.wal
    if wal is not None and wal._handle is not None:
        wal._handle.close()
        wal._handle = None


def _workload_steps(records):
    return [
        ("insert", records[0]), ("insert", records[1]),
        ("insert", records[2]), ("insert", records[3]),
        ("checkpoint", None),
        ("insert", records[4]), ("insert", records[5]),
        ("delete", records[1]),
        ("insert", records[6]),
        ("checkpoint", None),
        ("delete", records[4]),
    ]


#: Rows for the batched workload — TOY_ROWS plus enough extras that the
#: batches split pages and cross a checkpoint boundary.
_BATCH_ROWS = TOY_ROWS + (
    ("IT", "Rome", "red", 9.0),
    ("IT", "Milan", "blue", 4.0),
    ("JP", "Tokyo", "green", 6.0),
)


def _batch_workload_steps(records):
    """Batched inserts interleaved with a delete and a checkpoint.  Each
    ``batch`` step is acknowledged as a unit, so the crash matrix proves
    group-commit atomicity: a batch replays whole or not at all."""
    return [
        ("insert", records[0]),
        ("batch", records[1:4]),
        ("checkpoint", None),
        ("batch", records[4:7]),
        ("delete", records[2]),
        ("batch", records[7:10]),
    ]


def _apply_expected(schema, state, step):
    kind, payload = step
    if kind == "insert":
        state[_key(schema, payload)] += 1
    elif kind == "batch":
        for record in payload:
            state[_key(schema, record)] += 1
    elif kind == "delete":
        state[_key(schema, payload)] -= 1
    return +state  # drop zero entries


def _run_workload(directory, plan, steps_fn=_workload_steps,
                  rows=TOY_ROWS):
    """One scripted run under ``plan``; returns what recovery must honor.

    The injector is armed from ``create`` on, so the initial checkpoint
    and the WAL header are fault sites too.  Returns ``(committed,
    maybe, fault, injector)`` — the acknowledged state, the state if the
    in-flight step also survives, and the fault that fired (None on a
    clean run).
    """
    warehouse = _toy_warehouse()
    schema = warehouse.schema
    records = [toy_record(schema, *row) for row in rows]
    injector = FaultInjector(plan)
    session = None
    state = Counter()
    maybe = Counter()
    fault = None
    try:
        session = DurableWarehouse.create(directory, warehouse,
                                          faults=injector)
        for step in steps_fn(records):
            maybe = _apply_expected(schema, Counter(state), step)
            kind, payload = step
            if kind == "insert":
                session.insert_record(payload)
            elif kind == "batch":
                session.insert_records(payload)
            elif kind == "delete":
                session.delete(payload)
            else:
                session.checkpoint()
            state = Counter(maybe)
        session.close()
    except InjectedFault as exc:
        fault = exc
        if session is not None:
            _drop_dead(session)
    return state, maybe, fault, injector


def _recovered_snapshot(directory):
    warehouse, report = recover_warehouse(
        DurableWarehouse.checkpoint_path(directory),
        DurableWarehouse.wal_path(directory),
    )
    assert warehouse is not None, report.checkpoint_error
    assert report.ok, (report.validation_error, report.checkpoint_error)
    return _snapshot(warehouse), report


#: The insert a reopened session acknowledges after every matrix fault.
_RESUME_ROW = ("IT", "Rome", "red", 9.0)


def _crash_matrix(tmp_path, label, **workload):
    """Fault the workload at every I/O operation it performs, from
    ``create`` on; recovery must always yield committed ⊆ recovered ⊆
    committed + in-flight.  The directory must then keep working: a
    reopened session acknowledges one more insert, and the next reopen
    holds it."""
    probe_dir = os.path.join(str(tmp_path), "probe")
    state, _, fault, tracer = _run_workload(probe_dir, plan=None, **workload)
    assert fault is None
    trace = tracer.trace
    assert trace, "fault tracer saw no I/O operations"
    clean_snapshot, clean_report = _recovered_snapshot(probe_dir)
    assert clean_snapshot == state

    matrix = []
    for index, (site, kind) in enumerate(trace, start=1):
        matrix.append((index, site, "crash"))
        if kind == "write":
            matrix.append((index, site, "torn"))

    for fail_at, site, mode in matrix:
        directory = os.path.join(
            str(tmp_path), "%s-%d-%s" % (label, fail_at, mode)
        )
        committed, maybe, fault, _ = _run_workload(
            directory, FaultPlan(fail_at=fail_at, mode=mode), **workload
        )
        assert fault is not None, (
            "plan (%d, %s) at site %s never fired" % (fail_at, mode, site)
        )
        where = "fault at op %d (%s, %s)" % (fail_at, site, mode)
        if os.path.exists(DurableWarehouse.checkpoint_path(directory)):
            recovered, _ = _recovered_snapshot(directory)
            assert recovered in (committed, maybe), (
                "%s: recovered %r, acknowledged %r, with in-flight %r"
                % (where, dict(recovered), dict(committed), dict(maybe))
            )
            session = DurableWarehouse.open(directory)
            assert _snapshot(session.warehouse) == recovered, where
            assert session.report.ok, where
        else:
            # create's first checkpoint never landed: nothing was
            # acknowledged and the directory holds no session yet.
            assert not committed, where
            recovered = Counter()
            session = DurableWarehouse.create(directory, _toy_warehouse())
        extra = toy_record(session.warehouse.schema, *_RESUME_ROW)
        session.insert_record(extra)
        session.close()
        recovered[_key(session.warehouse.schema, extra)] += 1
        session = DurableWarehouse.open(directory)
        try:
            assert _snapshot(session.warehouse) == recovered, where
        finally:
            session.close()
    return clean_report


def test_crash_matrix_no_acknowledged_mutation_lost(tmp_path):
    _crash_matrix(tmp_path, "run")


def test_batch_crash_matrix_is_all_or_nothing(tmp_path):
    """The crash matrix over a batched workload.  Because a ``maybe``
    state only ever differs from ``committed`` by one *whole* batch, the
    membership assertion proves group-commit atomicity: the recovered
    warehouse never holds a strict subset of a batch, and never misses
    a batch that was acknowledged."""
    clean_report = _crash_matrix(
        tmp_path, "batch", steps_fn=_batch_workload_steps, rows=_BATCH_ROWS,
    )
    # Both post-checkpoint batches replay, each as a single WAL record.
    assert clean_report.applied_batches == 2


def test_torn_wal_header_at_create_keeps_later_writes(tmp_path):
    """A crash that tears the WAL header inside ``create`` must not
    cost the writes a later session acknowledges."""
    directory = str(tmp_path / "torn-header")
    with pytest.raises(InjectedFault):
        DurableWarehouse.create(
            directory, _toy_warehouse(),
            faults=FaultInjector(FaultPlan(1, "torn", site="wal.header")),
        )
    session = DurableWarehouse.open(directory)
    assert session.report.ok and len(session) == 0
    rows = [(((country, city), (color,)), (sales,))
            for country, city, color, sales in TOY_ROWS[:5]]
    session.insert_many(rows)
    session.close()
    reopened = DurableWarehouse.open(directory)
    try:
        assert reopened.report.applied_inserts == 5
        assert len(reopened) == 5
    finally:
        reopened.close()


@pytest.mark.parametrize("header", [b"DCWAL00\n", b"DCWAL01\n"])
def test_foreign_wal_header_is_refused_not_truncated(tmp_path, header):
    """A complete header of another format version is not a torn tail:
    replaying nothing and re-checkpointing would silently drop every
    acknowledged record behind it.  ``open`` and ``recover_warehouse``
    raise instead, and the log keeps its bytes."""
    directory = str(tmp_path / "foreign")
    warehouse = _toy_warehouse()
    session = DurableWarehouse.create(directory, warehouse)
    for row in TOY_ROWS[:3]:
        session.insert_record(toy_record(warehouse.schema, *row))
    session.close()
    path = DurableWarehouse.wal_path(directory)
    with open(path, "r+b") as handle:
        handle.write(header)
    with open(path, "rb") as handle:
        before = handle.read()
    with pytest.raises(StorageError, match="checkpoint before upgrading"):
        DurableWarehouse.open(directory)
    with pytest.raises(StorageError, match="checkpoint before upgrading"):
        recover_warehouse(DurableWarehouse.checkpoint_path(directory), path)
    with open(path, "rb") as handle:
        assert handle.read() == before


@pytest.mark.parametrize("call, site", [
    ("create", "wal.header"),
    ("open", "wal.truncate"),
    ("open", "wal.header"),
])
def test_failed_log_setup_closes_the_log(tmp_path, call, site):
    """``create`` and ``open`` close the log they opened when its
    header write or its truncate raises (the module turns the
    ResourceWarning of a leaked handle into a failure)."""
    directory = str(tmp_path / "leak")
    faults = FaultInjector(FaultPlan(1, "crash", site=site))
    if call == "open":
        DurableWarehouse.create(directory, _toy_warehouse()).close()
    with pytest.raises(InjectedFault):
        if call == "create":
            DurableWarehouse.create(directory, _toy_warehouse(),
                                    faults=faults)
        else:
            DurableWarehouse.open(directory, faults=faults)
    DurableWarehouse.open(directory).close()


@pytest.mark.parametrize("mode", ["crash", "torn"])
def test_lost_wal_header_refuses_later_writes(tmp_path, mode):
    """A checkpoint whose header rewrite raises leaves the log without a
    header.  The session then refuses every mutation and checkpoint,
    before the tree is touched, instead of acknowledging writes that
    no reopen could replay; a reopen holds every acknowledged record."""
    directory = str(tmp_path / "headerless")
    warehouse = _toy_warehouse()
    schema = warehouse.schema
    session = DurableWarehouse.create(directory, warehouse)
    stored = session.insert_many(
        [(((country, city), (color,)), (sales,))
         for country, city, color, sales in TOY_ROWS[:4]]
    )
    acknowledged = _snapshot(warehouse)
    session.wal.faults = FaultInjector(FaultPlan(1, mode, site="wal.header"))
    with pytest.raises(InjectedFault):
        session.checkpoint()
    country, city, color, sales = TOY_ROWS[4]
    record = toy_record(schema, country, city, color, sales)
    row = (((country, city), (color,)), (sales,))
    tree = warehouse.index
    state = (len(session), tree.tree_version)
    for call, args in [
        ("insert", row), ("insert_record", (record,)),
        ("insert_many", ([row],)), ("insert_records", ([record],)),
        ("delete", (stored[0],)), ("checkpoint", ()),
    ]:
        with pytest.raises(StorageError, match="header"):
            getattr(session, call)(*args)
        assert (len(session), tree.tree_version) == state
    with pytest.raises(StorageError, match="header"):
        session.wal.append(OP_APPLY, [])
    session.close()
    reopened = DurableWarehouse.open(directory)
    try:
        assert _snapshot(reopened.warehouse) == acknowledged
        reopened.insert_record(toy_record(reopened.warehouse.schema,
                                          country, city, color, sales))
    finally:
        reopened.close()
    recovered, _report = _recovered_snapshot(directory)
    assert sum(recovered.values()) == sum(acknowledged.values()) + 1


def test_headerless_log_is_not_called_another_version(tmp_path):
    """Records with no header in front are not an older format: the
    refusal must not suggest checkpointing before an upgrade."""
    path = str(tmp_path / "wal.log")
    with open(path, "wb") as handle:
        handle.write(encode_record(1, OP_APPLY, []))
    with pytest.raises(StorageError, match="not a WAL") as info:
        read_wal(path)
    assert "upgrading" not in str(info.value)


def test_batch_replay_counts_batches(tmp_path):
    """An acknowledged batch survives a crash as one WAL record's
    replay."""
    directory = str(tmp_path / "batchcount")
    warehouse = _toy_warehouse()
    schema = warehouse.schema
    records = [toy_record(schema, *row) for row in _BATCH_ROWS]
    session = DurableWarehouse.create(directory, warehouse)
    session.insert_record(records[0])
    session.insert_records(records[1:5])
    session.insert_records(records[5:8])
    _drop_dead(session)
    recovered, report = _recovered_snapshot(directory)
    assert report.applied_batches == 2
    assert report.applied_inserts == 8
    assert sum(recovered.values()) == 8


def test_clean_shutdown_reopens_identically(tmp_path):
    directory = str(tmp_path / "clean")
    state, _, fault, _ = _run_workload(directory, plan=None)
    assert fault is None
    session = DurableWarehouse.open(directory)
    try:
        assert _snapshot(session.warehouse) == state
        assert session.report.ok
        assert not session.report.torn_tail
    finally:
        session.close()


def test_recovered_session_keeps_logging(tmp_path):
    directory = str(tmp_path / "resume")
    _run_workload(directory, plan=None)
    session = DurableWarehouse.open(directory)
    country, city, color, sales = ("IT", "Rome", "red", 9.0)
    session.insert(((country, city), (color,)), (sales,))
    before = _snapshot(session.warehouse)
    _drop_dead(session)  # crash right after the acknowledged insert
    recovered, report = _recovered_snapshot(directory)
    assert recovered == before
    assert report.applied_inserts == 1


@pytest.mark.parametrize("call", [
    "insert", "insert_record", "insert_many", "insert_records", "delete",
    "checkpoint",
])
def test_closed_session_refuses_mutations(tmp_path, call):
    session = DurableWarehouse.create(str(tmp_path / "closed"),
                                      _toy_warehouse())
    schema = session.warehouse.schema
    stored = session.insert_many(
        [(((country, city), (color,)), (sales,))
         for country, city, color, sales in TOY_ROWS]
    )
    session.close()
    record = toy_record(schema, "IT", "Rome", "red", 9.0)
    row = ((("IT", "Rome"), ("red",)), (9.0,))
    args = {
        "insert": row, "insert_record": (record,),
        "insert_many": ([row],), "insert_records": ([record],),
        "delete": (stored[0],), "checkpoint": (),
    }[call]
    tree = session.warehouse.index
    n_records, version = len(session), tree.tree_version
    with pytest.raises(StorageError, match="closed"):
        getattr(session, call)(*args)
    assert (len(session), tree.tree_version) == (n_records, version)


def test_failed_close_still_closes_the_session(tmp_path):
    """A close whose final WAL fsync raises still closes the log's file
    (the module turns a leaked handle into a failure) and the session:
    later writes are refused instead of being applied in memory only,
    and a reopen holds exactly the acknowledged records."""
    directory = str(tmp_path / "failed-close")
    warehouse = Warehouse(build_toy_schema(), "dc-tree", config=DCTreeConfig(
        wal_fsync_interval=8, **_CONFIG
    ))
    session = DurableWarehouse.create(
        directory, warehouse,
        faults=FaultInjector(FaultPlan(1, "crash", site="wal.fsync")),
    )
    rows = [(((country, city), (color,)), (sales,))
            for country, city, color, sales in TOY_ROWS]
    session.insert_many(rows[:3])
    with pytest.raises(InjectedFault):
        session.close()
    with pytest.raises(StorageError, match="closed"):
        session.insert_many(rows[3:6])
    assert len(session) == 3
    session.close()  # closing again is a no-op
    reopened = DurableWarehouse.open(directory)
    try:
        assert len(reopened) == 3
    finally:
        reopened.close()


@pytest.mark.parametrize("leftover", ["checkpoint", "wal"])
def test_create_refuses_a_directory_holding_a_session(tmp_path, leftover):
    """A second ``create`` must not adopt the first session's log: its
    checkpoint says ``wal_lsn 0``, so recovery would replay the old
    records onto the new warehouse."""
    directory = str(tmp_path / "taken")
    first = DurableWarehouse.create(directory, _toy_warehouse())
    first.insert_many([(((country, city), (color,)), (sales,))
                       for country, city, color, sales in TOY_ROWS])
    first.close()
    if leftover == "wal":
        os.remove(DurableWarehouse.checkpoint_path(directory))
    with pytest.raises(StorageError, match="already exists"):
        DurableWarehouse.create(directory, _toy_warehouse())
    if leftover == "checkpoint":
        reopened = DurableWarehouse.open(directory)
        assert len(reopened) == len(TOY_ROWS)
        reopened.close()


def test_unreadable_checkpoint_reports_not_raises(tmp_path):
    directory = str(tmp_path / "corrupt")
    _run_workload(directory, plan=None)
    with open(DurableWarehouse.checkpoint_path(directory), "w") as handle:
        handle.write("{ not json")
    warehouse, report = recover_warehouse(
        DurableWarehouse.checkpoint_path(directory),
        DurableWarehouse.wal_path(directory),
    )
    assert warehouse is None
    assert not report.ok
    assert report.checkpoint_error
    with pytest.raises(StorageError):
        DurableWarehouse.open(directory)


def test_checkpoint_bit_rot_detected(tmp_path):
    directory = str(tmp_path / "bitrot")
    _run_workload(directory, plan=None)
    path = DurableWarehouse.checkpoint_path(directory)
    with open(path, "rb") as handle:
        raw = handle.read()
    frames = dict(zip(SECTIONS, scan_frames(raw, len(CHECKPOINT_MAGIC))))
    start, payload = frames["index"]
    middle = start + FRAME_PREFIX.size + len(payload) // 2
    with open(path, "wb") as handle:
        handle.write(raw[:middle] + bytes([raw[middle] ^ 0x01])
                     + raw[middle + 1:])
    warehouse, report = recover_warehouse(path)
    assert warehouse is None
    assert "checksum" in report.checkpoint_error
    assert "'index'" in report.checkpoint_error


def test_version_1_checkpoint_rejected(tmp_path):
    """A checkpoint in the retired version 1 (JSON) format is refused
    with a StorageError naming the magic this build expects."""
    directory = str(tmp_path / "v1")
    _run_workload(directory, plan=None)
    path = DurableWarehouse.checkpoint_path(directory)
    data = warehouse_to_dict(load_warehouse(path))
    data["meta"]["version"] = 1
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    warehouse, report = recover_warehouse(
        path, DurableWarehouse.wal_path(directory)
    )
    assert warehouse is None
    assert repr(CHECKPOINT_MAGIC) in report.checkpoint_error
    with pytest.raises(StorageError, match="expected magic"):
        DurableWarehouse.open(directory)


def test_version_4_checkpoint_rejected(tmp_path):
    """A framed version 4 checkpoint, whose DC-tree config still held
    the split thresholds and the result-cache settings, is refused by
    load, recovery and open alike, naming the magic this build expects."""
    directory = str(tmp_path / "v4")
    _run_workload(directory, plan=None)
    path = DurableWarehouse.checkpoint_path(directory)
    data = warehouse_to_dict(load_warehouse(path))
    data["meta"]["version"] = 4
    data["index"]["config"].update(
        min_fanout_fraction=0.35, max_overlap_fraction=0.2,
        use_result_cache=True, result_cache_capacity=128,
    )
    raw = encode_checkpoint(data)
    with open(path, "wb") as handle:
        handle.write(b"DCWH004\n" + raw[len(CHECKPOINT_MAGIC):])
    with pytest.raises(StorageError, match=re.escape(repr(CHECKPOINT_MAGIC))):
        load_warehouse(path)
    warehouse, report = recover_warehouse(
        path, DurableWarehouse.wal_path(directory)
    )
    assert warehouse is None
    assert repr(CHECKPOINT_MAGIC) in report.checkpoint_error
    with pytest.raises(StorageError, match=re.escape(repr(CHECKPOINT_MAGIC))):
        DurableWarehouse.open(directory)


def test_durable_tree_refuses_a_root_swap(tmp_path):
    """A root swap cannot be logged record by record, so a tree with a
    mutation sink refuses it: the version, the records, the log and the
    recovered state stay as they were."""
    directory = str(tmp_path / "swap")
    warehouse = _toy_warehouse()
    schema = warehouse.schema
    records = [toy_record(schema, *row) for row in TOY_ROWS]
    session = DurableWarehouse.create(directory, warehouse)
    for record in records[:3]:
        session.insert_record(record)
    tree = warehouse.index
    committed = _snapshot(warehouse)
    version = tree.tree_version
    with open(DurableWarehouse.wal_path(directory), "rb") as handle:
        log = handle.read()
    loaded = bulk_load(schema, records, config=tree.config)
    with pytest.raises(TreeError, match="root swap"):
        tree.adopt_root(loaded.root, len(loaded))
    assert tree.tree_version == version
    assert _snapshot(warehouse) == committed
    session.close()
    with open(DurableWarehouse.wal_path(directory), "rb") as handle:
        assert handle.read() == log
    recovered, _report = _recovered_snapshot(directory)
    assert recovered == committed


def _good_labels(schema):
    return record_to_labels(schema, toy_record(schema, "IT", "Rome", "red",
                                               9.0))


#: One checksummed WAL record each whose content does not decode into
#: valid operations; the later cases lead with a valid operation, which
#: must not be applied either.
_BAD_RECORDS = {
    "legacy rebase": lambda schema: (4, "rebase", 7),
    "payload is a number": lambda schema: (4, OP_APPLY, 7),
    "lsn is text": lambda schema: (
        "4", OP_APPLY, [["insert", _good_labels(schema)]]),
    "unknown kind": lambda schema: (4, OP_APPLY, [
        ["insert", _good_labels(schema)],
        ["upsert", _good_labels(schema)]]),
    "labels are text": lambda schema: (4, OP_APPLY, [
        ["insert", _good_labels(schema)], ["insert", "garbage"]]),
    "path one dimension short": lambda schema: (4, OP_APPLY, [
        ["insert", _good_labels(schema)],
        ["insert", [_good_labels(schema)[0][:-1], [1.0]]]]),
    "measure is text": lambda schema: (4, OP_APPLY, [
        ["insert", _good_labels(schema)],
        ["insert", [_good_labels(schema)[0], ["x"]]]]),
}


@pytest.mark.parametrize("case", sorted(_BAD_RECORDS))
def test_malformed_wal_record_ends_replay_before_it(case, tmp_path, capsys):
    """A record whose frame checks out but whose content does not decode
    ends replay as a checksum failure does: the three acknowledged
    inserts before it survive, nothing of it or after it is applied,
    every reader recovers, and a reopened session resumes from there."""
    from repro.cli import main

    directory = str(tmp_path / "badrecord")
    warehouse = _toy_warehouse()
    schema = warehouse.schema
    session = DurableWarehouse.create(directory, warehouse)
    for row in TOY_ROWS[:3]:
        session.insert_record(toy_record(schema, *row))
    committed = _snapshot(warehouse)
    session.close()
    with open(DurableWarehouse.wal_path(directory), "ab") as handle:
        handle.write(encode_record(*_BAD_RECORDS[case](schema)))
        handle.write(encode_record(5, OP_APPLY,
                                   [["insert", _good_labels(schema)]]))

    recovered, report = _recovered_snapshot(directory)
    assert recovered == committed
    assert re.search(r"LSN '?4'?", report.wal_error), report.wal_error
    assert main(["recover", directory]) == 0
    assert main(["query", directory, "--op", "count"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "3"

    session = DurableWarehouse.open(directory)
    assert _snapshot(session.warehouse) == committed
    session.insert_record(toy_record(session.warehouse.schema,
                                     *_RESUME_ROW))
    session.close()
    reopened = DurableWarehouse.open(directory)
    try:
        assert len(reopened) == 4
        assert reopened.report.wal_error is None
    finally:
        reopened.close()


def test_delete_replay(tmp_path):
    directory = str(tmp_path / "deletes")
    warehouse = _toy_warehouse()
    schema = warehouse.schema
    records = [toy_record(schema, *row) for row in TOY_ROWS]
    session = DurableWarehouse.create(directory, warehouse)
    for record in records[:4]:
        session.insert_record(record)
    session.delete(records[0])
    _drop_dead(session)
    recovered, report = _recovered_snapshot(directory)
    assert report.applied_inserts == 4
    assert report.applied_deletes == 1
    assert sum(recovered.values()) == 3


def test_short_read_of_checkpoint_is_graceful(tmp_path):
    directory = str(tmp_path / "shortread")
    _run_workload(directory, plan=None)
    injector = FaultInjector(
        FaultPlan(fail_at=1, mode="short_read", site="checkpoint.read")
    )
    warehouse, report = recover_warehouse(
        DurableWarehouse.checkpoint_path(directory),
        DurableWarehouse.wal_path(directory),
        faults=injector,
    )
    assert warehouse is None
    assert report.checkpoint_error


def test_wal_is_invisible_to_the_cost_model(tmp_path):
    """Identical insert streams with and without a durable session must
    leave bit-identical tracker counters (WAL I/O is real, not simulated)."""
    def run(directory):
        warehouse = _toy_warehouse()
        schema = warehouse.schema
        if directory is not None:
            session = DurableWarehouse.create(directory, warehouse)
        for row in TOY_ROWS:
            warehouse.insert_record(toy_record(schema, *row))
        if directory is not None:
            session.close()
        stats = warehouse.tracker.snapshot()
        return (stats.node_accesses, stats.buffer_hits, stats.buffer_misses,
                stats.page_writes, stats.cpu_units)

    assert run(None) == run(str(tmp_path / "walled"))


# ----------------------------------------------------------------------
# save/load round-trip property
# ----------------------------------------------------------------------

_LABELS = st.sampled_from(["DE", "FR", "US", "JP"])
_CITIES = st.sampled_from(["Alpha", "Beta", "Gamma", "Delta"])
_COLORS = st.sampled_from(["red", "green", "blue"])
_SALES = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
_ROWS = st.lists(st.tuples(_LABELS, _CITIES, _COLORS, _SALES),
                 min_size=0, max_size=12)


@given(rows=_ROWS)
def test_save_load_roundtrip_property(rows, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("roundtrip")
    path = str(tmp / "warehouse.json")
    schema = build_toy_schema()
    warehouse = Warehouse(schema, "dc-tree")
    for country, city, color, sales in rows:
        warehouse.insert(((country, city), (color,)), (sales,))
    save_warehouse(warehouse, path)
    loaded = load_warehouse(path)

    assert loaded.backend == "dc-tree"
    assert len(loaded) == len(warehouse)
    assert _snapshot(loaded) == _snapshot(warehouse)
    assert loaded.query("sum") == pytest.approx(warehouse.query("sum"))

    version = loaded.index.tree_version
    before = loaded.query("sum")
    loaded.insert((("IT", "Rome"), ("red",)), (5.0,))
    # tree_version is monotone across save/load and mutation, and the
    # versioned result cache must not serve the pre-insert answer.
    assert loaded.index.tree_version > version
    assert loaded.query("sum") == pytest.approx(before + 5.0)
