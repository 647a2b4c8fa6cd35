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
    Warehouse,
    recover_warehouse,
)
from repro.core.bulkload import bulk_load
from repro.persist.format import CHECKPOINT_MAGIC
from repro.persist.io import (
    load_warehouse,
    record_to_labels,
    save_warehouse,
    warehouse_to_dict,
)
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


def _attach(session, injector):
    """Arm an injector on a live session (after ``create``)."""
    session.faults = injector
    session.wal.faults = injector
    session.warehouse.index.tracker.faults = injector


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
    middle = len(raw) // 2  # inside the index section, the largest
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


def test_replay_stops_at_uncheckpointed_rebase(tmp_path):
    """A rebase marker whose checkpoint never landed ends replay: the
    bulk load was never acknowledged, the pre-load state was."""
    directory = str(tmp_path / "rebase")
    warehouse = _toy_warehouse()
    schema = warehouse.schema
    records = [toy_record(schema, *row) for row in TOY_ROWS]
    session = DurableWarehouse.create(directory, warehouse)
    for record in records[:3]:
        session.insert_record(record)
    committed = _snapshot(session.warehouse)
    # Crash inside the checkpoint the rebase marker triggers.
    injector = FaultInjector(FaultPlan(fail_at=1, site="checkpoint.write"))
    _attach(session, injector)
    loaded = bulk_load(schema, records, config=warehouse.index.config)
    with pytest.raises(InjectedFault):
        warehouse.index.adopt_root(loaded._root, len(records))
    _drop_dead(session)
    recovered, report = _recovered_snapshot(directory)
    assert report.stopped_at_rebase
    assert recovered == committed


def test_checkpointed_rebase_survives(tmp_path):
    directory = str(tmp_path / "rebase-ok")
    warehouse = _toy_warehouse()
    schema = warehouse.schema
    records = [toy_record(schema, *row) for row in TOY_ROWS]
    session = DurableWarehouse.create(directory, warehouse)
    loaded = bulk_load(schema, records, config=warehouse.index.config)
    warehouse.index.adopt_root(loaded._root, len(records))
    _drop_dead(session)
    recovered, report = _recovered_snapshot(directory)
    assert not report.stopped_at_rebase
    assert sum(recovered.values()) == len(TOY_ROWS)


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
# save/load round-trip property over all three backends
# ----------------------------------------------------------------------

_LABELS = st.sampled_from(["DE", "FR", "US", "JP"])
_CITIES = st.sampled_from(["Alpha", "Beta", "Gamma", "Delta"])
_COLORS = st.sampled_from(["red", "green", "blue"])
_SALES = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
_ROWS = st.lists(st.tuples(_LABELS, _CITIES, _COLORS, _SALES),
                 min_size=0, max_size=12)


@given(rows=_ROWS, backend=st.sampled_from(["dc-tree", "x-tree", "scan"]))
def test_save_load_roundtrip_property(rows, backend, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("roundtrip")
    path = str(tmp / "warehouse.json")
    schema = build_toy_schema()
    warehouse = Warehouse(schema, backend)
    for country, city, color, sales in rows:
        warehouse.insert(((country, city), (color,)), (sales,))
    save_warehouse(warehouse, path)
    loaded = load_warehouse(path)

    assert loaded.backend == backend
    assert len(loaded) == len(warehouse)
    assert _snapshot(loaded) == _snapshot(warehouse)
    assert loaded.query("sum") == pytest.approx(warehouse.query("sum"))

    if backend == "dc-tree":
        version = loaded.index.tree_version
        before = loaded.query("sum")
        loaded.insert((("IT", "Rome"), ("red",)), (5.0,))
        # tree_version is monotone across save/load and mutation, and the
        # versioned result cache must not serve the pre-insert answer.
        assert loaded.index.tree_version > version
        assert loaded.query("sum") == pytest.approx(before + 5.0)
