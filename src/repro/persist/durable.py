"""Durable warehouse sessions: one directory, one checkpoint, one WAL.

:class:`DurableWarehouse` is the crash-safe way to run a dynamic
warehouse.  The directory layout is::

    <directory>/checkpoint.json    last atomic full save, framed
    <directory>/wal.log            mutations acknowledged since then

Every ``insert``/``delete`` that returns to the caller has already been
appended (and, per the fsync policy, synced) to the WAL by the DC-tree's
mutation sink, one record per :meth:`~repro.core.tree.DCTree.apply`
call; :meth:`checkpoint` folds the log into a fresh atomic
checkpoint and truncates it.  Both files use the length+CRC32 frames
of :mod:`repro.persist.format`.  After a crash, :meth:`open` replays
checkpoint + WAL, validates the result, immediately re-checkpoints the
recovered state (log compaction) and resumes logging — acknowledged
mutations are never lost, unacknowledged ones never half-applied.

Root swaps (bulk loads) cannot be replayed record by record, so the
sink writes a *rebase* marker and checkpoints on the spot; recovery
refuses to replay past a marker whose checkpoint never landed — the
swap simply was not yet acknowledged.

The durability path shares no state with the simulated cost model: WAL
appends and checkpoint writes are real file I/O, invisible to the
:class:`~repro.storage.tracker.StorageTracker`, so all deterministic
counters are bit-identical with or without a session attached (the
regression bench enforces this).
"""

from __future__ import annotations

import os

from ..errors import StorageError
from .io import record_to_labels, save_warehouse
from .recovery import recover_warehouse
from .wal import OP_APPLY, OP_REBASE, WriteAheadLog


class WalSink:
    """Adapts a :class:`WriteAheadLog` to the DC-tree mutation-sink
    protocol (``record_ops`` / ``record_rebase``).

    Records are logged as *label* paths (see
    :func:`~repro.persist.io.record_to_labels`): hierarchy IDs interned
    after the checkpoint mean nothing to a recovered hierarchy, labels
    always re-intern.
    """

    def __init__(self, wal, schema, on_rebase=None):
        self.wal = wal
        self.schema = schema
        self._on_rebase = on_rebase

    def record_ops(self, ops):
        """Group-commit one acknowledged ``apply`` call as one atomic
        WAL record: one append (one fsync at ``fsync_interval=1``) per
        call, and a torn tail drops the whole call, never a prefix."""
        self.wal.append(
            OP_APPLY,
            [[kind, record_to_labels(self.schema, record)]
             for kind, record in ops],
        )

    def record_rebase(self, n_records):
        self.wal.append(OP_REBASE, n_records)
        if self._on_rebase is not None:
            self._on_rebase()


class DurableWarehouse:
    """A crash-safe session over one warehouse directory.

    Build one with :meth:`create` (fresh warehouse) or :meth:`open`
    (recover an existing directory); mutate through :meth:`insert` /
    :meth:`insert_record` / :meth:`delete` or directly through
    :attr:`warehouse` — the tree-level sink logs either way.
    """

    CHECKPOINT_NAME = "checkpoint.json"
    WAL_NAME = "wal.log"

    def __init__(self, directory, warehouse, wal, faults=None, report=None):
        _require_dc_tree(warehouse)
        self.directory = os.fspath(directory)
        self.warehouse = warehouse
        self.wal = wal
        self.faults = faults
        #: RecoveryReport of the :meth:`open` that built this session
        #: (None for :meth:`create`).
        self.report = report
        warehouse.index.set_mutation_sink(
            WalSink(wal, warehouse.schema,
                    on_rebase=self._checkpoint_after_rebase)
        )
        if faults is not None:
            warehouse.index.tracker.faults = faults

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------

    @classmethod
    def checkpoint_path(cls, directory):
        return os.path.join(os.fspath(directory), cls.CHECKPOINT_NAME)

    @classmethod
    def wal_path(cls, directory):
        return os.path.join(os.fspath(directory), cls.WAL_NAME)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, directory, warehouse, faults=None):
        """Start a durable session over a fresh (or bulk-loaded)
        warehouse: write its initial checkpoint, then log from LSN 1.

        Raises :class:`StorageError` when ``directory`` already holds a
        session (its log would be replayed onto the new warehouse);
        resume one with :meth:`open`.
        """
        _require_dc_tree(warehouse)
        directory = os.fspath(directory)
        for path in (cls.checkpoint_path(directory), cls.wal_path(directory)):
            if os.path.exists(path):
                raise StorageError(
                    "%s already exists; open the session or remove it"
                    % path
                )
        os.makedirs(directory, exist_ok=True)
        save_warehouse(
            warehouse, cls.checkpoint_path(directory),
            extra_meta={"wal_lsn": 0}, faults=faults,
        )
        wal = WriteAheadLog(
            cls.wal_path(directory),
            fsync_interval=warehouse.index.config.wal_fsync_interval,
            start_lsn=0, faults=faults,
            metrics=warehouse.index.observability,
        )
        return cls(directory, warehouse, wal, faults=faults)

    @classmethod
    def open(cls, directory, config=None, faults=None):
        """Recover a directory (crash-safe) and resume the session.

        Replays checkpoint + WAL, validates, re-checkpoints the
        recovered state and truncates the log, so each open starts from
        a compact, trustworthy base.  Raises :class:`StorageError`, and
        changes no file, when the checkpoint is unreadable, the WAL is of
        another format version or validation fails.
        """
        directory = os.fspath(directory)
        checkpoint = cls.checkpoint_path(directory)
        wal_file = cls.wal_path(directory)
        warehouse, report = recover_warehouse(
            checkpoint, wal_file, config=config, faults=faults
        )
        if warehouse is None:
            raise StorageError(
                "cannot recover %s: %s" % (directory, report.checkpoint_error)
            )
        if not report.validated:
            raise StorageError(
                "recovered warehouse failed validation: %s"
                % report.validation_error
            )
        _require_dc_tree(warehouse)
        # Log compaction: fold the replayed WAL into a fresh checkpoint
        # before accepting new traffic.  A crash in here is itself
        # recoverable — the old checkpoint+WAL are intact until the
        # atomic replace, and stale records after it are LSN-skipped.
        save_warehouse(
            warehouse, checkpoint,
            extra_meta={"wal_lsn": report.last_lsn}, faults=faults,
        )
        wal = WriteAheadLog(
            wal_file,
            fsync_interval=warehouse.index.config.wal_fsync_interval,
            start_lsn=report.last_lsn, faults=faults,
            metrics=warehouse.index.observability,
        )
        try:
            wal.truncate()
        except BaseException:
            wal.close()
            raise
        return cls(directory, warehouse, wal, faults=faults, report=report)

    # ------------------------------------------------------------------
    # mutation / lifecycle
    # ------------------------------------------------------------------

    def insert(self, dimension_values, measures):
        """Insert one cell from label tuples; durable once returned."""
        self._require_open()
        return self.warehouse.insert(dimension_values, measures)

    def insert_record(self, record):
        """Insert an already-built record; durable once returned."""
        self._require_open()
        return self.warehouse.insert_record(record)

    def insert_many(self, rows):
        """Insert many ``(dimension_values, measures)`` pairs as one
        group-committed batch: the in-memory apply amortizes page
        writes, and the whole batch lands in the WAL as one atomic
        record (one fsync per acknowledged batch at
        ``wal_fsync_interval=1``).  Durable once returned; a crash
        before the return loses the entire batch, never part of it."""
        self._require_open()
        return self.warehouse.insert_many(rows)

    def insert_records(self, records):
        """Batch variant of :meth:`insert_record` (see
        :meth:`insert_many` for the durability semantics)."""
        self._require_open()
        return self.warehouse.insert_records(records)

    def delete(self, record):
        """Delete one record; durable once returned."""
        self._require_open()
        self.warehouse.delete(record)

    def __len__(self):
        return len(self.warehouse)

    def checkpoint(self):
        """Fold the WAL into a fresh atomic checkpoint and truncate it."""
        self._require_open()
        self.wal.sync()
        save_warehouse(
            self.warehouse, self.checkpoint_path(self.directory),
            extra_meta={"wal_lsn": self.wal.last_lsn}, faults=self.faults,
        )
        self.wal.truncate()
        metrics = self.warehouse.index.observability
        if metrics is not None:
            metrics.counter("checkpoints_total",
                            "Atomic checkpoints written by the session.").inc()

    def _checkpoint_after_rebase(self):
        # A root swap invalidates record-level replay; only a checkpoint
        # makes it durable, so one is taken before the swap is
        # acknowledged to the caller.
        self.checkpoint()

    def _require_open(self):
        # A closed session has no log to make a mutation durable, so it
        # refuses every mutation and checkpoint instead of applying one
        # in memory only.
        if self.wal is None:
            raise StorageError("durable session %s is closed" % self.directory)

    def close(self):
        """Detach the sink and close the log (the WAL stays replayable).

        Afterwards the session's mutators and :meth:`checkpoint` raise
        :class:`StorageError`."""
        if self.warehouse is not None:
            self.warehouse.index.set_mutation_sink(None)
        if self.wal is not None:
            self.wal.close()
            self.wal = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def _require_dc_tree(warehouse):
    if warehouse.backend != "dc-tree":
        raise StorageError(
            "durable sessions require the dc-tree backend (its mutation "
            "sink feeds the WAL); got %r" % warehouse.backend
        )
