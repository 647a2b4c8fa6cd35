"""Stateful fuzzing of a durable warehouse session across crashes.

A hypothesis rule machine drives a toy-cube :class:`DurableWarehouse` in
a temporary directory through inserts, batched inserts, deletes (of a
stored and of a missing record), checkpoints, clean reopens and
crashes.  ``crash_and_reopen`` arms one fault of
:mod:`repro.storage.faults` — a WAL or checkpoint site and a mode — for
one mutation or checkpoint, drops the session the way process death
would, and reopens the directory, itself sometimes under a crash or a
torn write.  The session is created under a drawn fault too, so the
sites of ``create`` are covered.

The model is the multiset of acknowledged rows.  After every reopen the
recovery report must be validated and the warehouse must hold exactly
the model: its length, its records, its answers (against a scan-backend
warehouse over the model's rows) and its invariants.  A mutation that
raised is absent — unless the fault hit the fsync that follows its WAL
append, when the record already reached the file whole and process
death does not take it back.

A short read only fires at a read site, and the only read sites are
inside ``open``; the mutation faults leave it unfired, and the reopen
faults draw crashes and torn writes only (a short read of the log reads
as a torn tail and drops acknowledged records by construction).
"""

from __future__ import annotations

import os
import shutil
import tempfile
from collections import Counter

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import (
    DCTreeConfig,
    DurableWarehouse,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    Warehouse,
)
from repro.errors import RecordNotFoundError
from repro.persist.io import record_to_labels
from repro.workload.queries import query_from_labels
from tests.conftest import build_toy_schema, toy_record
from tests.hypothesis_settings import DURABLE_MACHINE_SETTINGS

pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning",
    "error::pytest.PytestUnraisableExceptionWarning",
)

#: Every fault site of the WAL and the checkpoint writer.
SITES = (
    "wal.header", "wal.append", "wal.fsync", "wal.truncate", "wal.read",
    "checkpoint.write", "checkpoint.fsync", "checkpoint.replace",
    "checkpoint.read",
)

COUNTRIES = ("DE", "FR", "US")
CITIES = ("A", "B", "C")
COLORS = ("red", "blue")

row_strategy = st.tuples(
    st.sampled_from(COUNTRIES),
    st.sampled_from(CITIES),
    st.sampled_from(COLORS),
    st.sampled_from((1.0, 2.0, 5.0)),
)
rows_strategy = st.lists(row_strategy, min_size=1, max_size=6)
#: (site, mode, fail_at): the nth operation at that site faults.
fault_strategy = st.tuples(
    st.sampled_from(SITES),
    st.sampled_from(FaultPlan.MODES),
    st.integers(min_value=1, max_value=2),
)
write_fault_strategy = st.none() | st.tuples(
    st.sampled_from(SITES),
    st.sampled_from(("crash", "torn")),
    st.integers(min_value=1, max_value=2),
)

#: Never drawn for an insert, so deleting it always misses.
MISSING = ("DE", "A", "red", 99.0)

WHERES = (
    None,
    {"Geo": ("Country", ["DE"])},
    {"Color": ("Color", ["red"])},
)


def _config():
    return DCTreeConfig(leaf_capacity=4, dir_capacity=4)


def _interned(schema):
    """Intern every label of the domain, so each WHERE resolves."""
    for country in COUNTRIES:
        for city in CITIES:
            for color in COLORS:
                toy_record(schema, country, city, color, 0.0)
    return schema


def _fresh_warehouse():
    return Warehouse(_interned(build_toy_schema()), config=_config())


def _row(schema, record):
    (country, city), (color,) = record_to_labels(schema, record)[0]
    return (country, city, color, record.measures[0])


def _injector(fault):
    if fault is None:
        return None
    site, mode, fail_at = fault
    return FaultInjector(FaultPlan(fail_at, mode, site=site))


def _attach(session, injector):
    session.faults = session.wal.faults = injector
    session.warehouse.index.tracker.faults = injector


def _drop_dead(session):
    """Simulated process death: release the WAL handle, nothing else."""
    wal = session.wal
    if wal is not None and wal._handle is not None:
        wal._handle.close()
        wal._handle = None


class DurableSessionMachine(RuleBasedStateMachine):
    @initialize(fault=write_fault_strategy)
    def create(self, fault):
        self.root = tempfile.mkdtemp(prefix="durable-machine-")
        self.directory = os.path.join(self.root, "dw")
        self.model = Counter()
        self.session = None
        try:
            self.session = DurableWarehouse.create(
                self.directory, _fresh_warehouse(), faults=_injector(fault)
            )
        except InjectedFault:
            # create acknowledged nothing; its checkpoint may or may not
            # have landed.
            self._reopen(None)
        else:
            _attach(self.session, None)

    def teardown(self):
        if getattr(self, "session", None) is not None:
            self.session.close()
        if hasattr(self, "root"):
            shutil.rmtree(self.root, ignore_errors=True)

    # -- helpers ------------------------------------------------------------

    def _records(self, rows):
        schema = self.session.warehouse.schema
        return [toy_record(schema, *row) for row in rows]

    def _plan(self, action, rows):
        """One action's call and the model it leaves once acknowledged."""
        after = Counter(self.model)
        session = self.session
        if action == "insert":
            record, = self._records(rows[:1])
            after[rows[0]] += 1
            return (lambda: session.insert_record(record)), after
        if action == "insert_many":
            records = self._records(rows)
            after.update(rows)
            return (lambda: session.insert_records(records)), after
        if action == "delete":
            row = sorted(self.model)[len(rows) % len(self.model)]
            record, = self._records([row])
            after[row] -= 1
            return (lambda: session.delete(record)), +after
        return session.checkpoint, after

    def _reopen(self, fault):
        """Reopen the directory (create it afresh when create's
        checkpoint never landed), retrying once cleanly when ``fault``
        fires inside ``open``; then check it against the model."""
        self.session = None
        if not os.path.exists(DurableWarehouse.checkpoint_path(
                self.directory)):
            assert not self.model
            self.session = DurableWarehouse.create(self.directory,
                                                   _fresh_warehouse())
            return
        try:
            self.session = DurableWarehouse.open(
                self.directory, config=_config(), faults=_injector(fault)
            )
        except InjectedFault:
            self.session = DurableWarehouse.open(self.directory,
                                                 config=_config())
        _attach(self.session, None)
        self._check_recovered()

    def _check_recovered(self):
        report = self.session.report
        assert report.validated, report.validation_error
        warehouse = self.session.warehouse
        schema = warehouse.schema
        assert len(warehouse) == sum(self.model.values())
        stored = Counter(
            _row(schema, record) for record in
            warehouse.records_matching(query_from_labels(schema, {}))
        )
        assert stored == self.model
        warehouse.index.check_invariants()
        oracle = Warehouse(_interned(build_toy_schema()), "scan")
        oracle.insert_records(
            toy_record(oracle.schema, *row) for row in self.model.elements()
        )
        for where in WHERES:
            for op in ("sum", "count", "max"):
                assert (warehouse.query(op, where=where)
                        == oracle.query(op, where=where)), (op, where)
        assert (warehouse.group_by("Geo", "Country")
                == oracle.group_by("Geo", "Country"))

    # -- rules --------------------------------------------------------------

    def _acknowledged(self, action, rows):
        call, after = self._plan(action, rows)
        call()
        self.model = after

    @rule(row=row_strategy)
    def insert(self, row):
        self._acknowledged("insert", [row])

    @rule(rows=rows_strategy)
    def insert_many(self, rows):
        self._acknowledged("insert_many", rows)

    @precondition(lambda self: self.model)
    @rule(rows=rows_strategy)
    def delete_present(self, rows):
        self._acknowledged("delete", rows)

    @rule()
    def delete_missing(self):
        tree = self.session.warehouse.index
        version = tree.tree_version
        record, = self._records([MISSING])
        with pytest.raises(RecordNotFoundError):
            self.session.delete(record)
        assert tree.tree_version == version

    @rule()
    def checkpoint(self):
        self.session.checkpoint()

    @rule()
    def close_and_reopen(self):
        self.session.close()
        self._reopen(None)

    @rule(
        action=st.sampled_from(("insert", "insert_many", "delete",
                                "checkpoint")),
        rows=rows_strategy,
        fault=fault_strategy,
        reopen_fault=write_fault_strategy,
    )
    def crash_and_reopen(self, action, rows, fault, reopen_fault):
        if action == "delete" and not self.model:
            action = "insert"
        call, after = self._plan(action, rows)
        _attach(self.session, _injector(fault))
        try:
            call()
        except InjectedFault as error:
            # A raised mutation is absent, unless only the fsync after
            # its whole WAL record failed: that record is in the file.
            if error.site == "wal.fsync":
                self.model = after
        else:
            self.model = after
        _drop_dead(self.session)
        self._reopen(reopen_fault)

    @invariant()
    def length_matches_model(self):
        if getattr(self, "session", None) is not None:
            assert len(self.session) == sum(self.model.values())


TestDurableSession = DurableSessionMachine.TestCase
TestDurableSession.settings = DURABLE_MACHINE_SETTINGS
