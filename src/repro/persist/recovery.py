"""Crash recovery: last good checkpoint + WAL replay + validation.

:func:`recover_warehouse` rebuilds the warehouse a crashed process
would have acknowledged: load the checkpoint (integrity-checked — see
:func:`~repro.persist.io.read_warehouse_file`), replay every WAL record
the checkpoint does not already cover, and validate the result with the
tree's own :meth:`~repro.core.tree.DCTree.check_invariants` plus a
record-count and aggregate audit.  The whole run is summarized in a
structured :class:`RecoveryReport` (surfaced by ``python -m repro
recover`` and ``inspect``).

Replay is deterministic: the same checkpoint and WAL always produce the
same tree *and* the same tracker counters — recovery is just a sequence
of ordinary inserts/deletes, so nothing about the durability layer
perturbs the simulated cost model.
"""

from __future__ import annotations

import math
import os
import time

from ..errors import RecordNotFoundError, ReproError, StorageError
from ..workload.queries import query_from_labels
from . import wal as wal_mod
from .io import read_warehouse_file, record_from_labels, warehouse_from_dict


class RecoveryReport:
    """Structured account of one recovery run (all counters exact)."""

    def __init__(self, checkpoint_path, wal_path):
        self.checkpoint_path = str(checkpoint_path)
        self.wal_path = str(wal_path) if wal_path is not None else None
        self.checkpoint_ok = False
        self.checkpoint_error = None
        self.checkpoint_lsn = 0
        self.records_at_checkpoint = 0
        self.wal_records_seen = 0
        self.applied_inserts = 0
        self.applied_batches = 0
        self.applied_deletes = 0
        self.skipped_stale = 0
        self.failed_deletes = 0
        self.torn_tail = False
        self.wal_error = None
        self.stopped_at_rebase = False
        self.validated = False
        self.validation_error = None
        self.n_records = 0
        self.last_lsn = 0
        self.wal_bytes_scanned = 0
        self.checkpoint_age_seconds = None

    @property
    def ok(self):
        """Did recovery produce a validated warehouse?"""
        return self.checkpoint_ok and self.validated

    def publish_metrics(self, registry, prefix="recovery"):
        """Export the audit as gauges into a metrics registry.

        The satellite contract of the observability layer: the recovery
        audit is queryable through the same registry as every other
        stat, not only through this report's bespoke fields.
        """
        gauges = (
            ("records_at_checkpoint", self.records_at_checkpoint,
             "Records in the checkpoint the replay started from."),
            ("checkpoint_lsn", self.checkpoint_lsn,
             "Last WAL LSN the checkpoint already covered."),
            ("wal_records_seen", self.wal_records_seen,
             "WAL records scanned during replay."),
            ("wal_bytes_scanned", self.wal_bytes_scanned,
             "WAL bytes scanned (through the last trustworthy record)."),
            ("applied_inserts", self.applied_inserts,
             "Inserts replayed onto the checkpoint (batched included)."),
            ("applied_batches", self.applied_batches,
             "Group-committed insert batches replayed."),
            ("applied_deletes", self.applied_deletes,
             "Deletes replayed onto the checkpoint."),
            ("skipped_stale", self.skipped_stale,
             "Stale records skipped (LSN covered by the checkpoint)."),
            ("failed_deletes", self.failed_deletes,
             "Replayed deletes that targeted absent records."),
            ("torn_tail", int(self.torn_tail),
             "1 when a torn tail was discarded."),
            ("stopped_at_rebase", int(self.stopped_at_rebase),
             "1 when replay stopped at an uncheckpointed rebase."),
            ("validated", int(self.validated),
             "1 when the recovered warehouse passed validation."),
            ("n_records", self.n_records,
             "Records in the recovered warehouse."),
            ("last_lsn", self.last_lsn,
             "Highest LSN known after recovery."),
        )
        for name, value, help_text in gauges:
            registry.gauge("%s_%s" % (prefix, name), help_text).set(value)
        if self.checkpoint_age_seconds is not None:
            registry.gauge(
                prefix + "_checkpoint_age_seconds",
                "Age of the checkpoint file at recovery time.",
            ).set(self.checkpoint_age_seconds)

    def describe(self):
        """Human-readable multi-line summary (the CLI's output)."""
        lines = ["recovery: %s" % ("OK" if self.ok else "FAILED")]
        if self.checkpoint_ok:
            lines.append(
                "checkpoint: %s (%d records, covers WAL through LSN %d)"
                % (self.checkpoint_path, self.records_at_checkpoint,
                   self.checkpoint_lsn)
            )
        else:
            lines.append(
                "checkpoint: %s UNREADABLE: %s"
                % (self.checkpoint_path, self.checkpoint_error)
            )
        lines.append(
            "wal: %s — %d record(s) / %d byte(s) scanned, %d insert(s) + "
            "%d delete(s) replayed, %d stale skipped"
            % (self.wal_path or "(none)", self.wal_records_seen,
               self.wal_bytes_scanned, self.applied_inserts,
               self.applied_deletes, self.skipped_stale)
        )
        if self.applied_batches:
            lines.append(
                "wal: %d group-committed batch(es) among the replayed "
                "inserts" % self.applied_batches
            )
        if self.torn_tail:
            lines.append(
                "wal: torn tail discarded (%s) — expected crash residue, "
                "only unacknowledged work lost" % self.wal_error
            )
        if self.stopped_at_rebase:
            lines.append(
                "wal: replay stopped at a rebase marker (bulk load whose "
                "checkpoint never completed; that load was not yet "
                "acknowledged)"
            )
        if self.failed_deletes:
            lines.append(
                "wal: %d delete(s) targeted absent records (skipped)"
                % self.failed_deletes
            )
        if self.validated:
            lines.append(
                "validated: %d record(s), invariants and aggregate audit "
                "hold" % self.n_records
            )
        elif self.checkpoint_ok:
            lines.append("validation FAILED: %s" % self.validation_error)
        return "\n".join(lines)


def _audit(warehouse, report):
    """Invariant + count + aggregate audit of the recovered warehouse."""
    expected = (
        report.records_at_checkpoint
        + report.applied_inserts - report.applied_deletes
    )
    if len(warehouse) != expected:
        raise StorageError(
            "recovered record count %d, checkpoint+WAL implies %d"
            % (len(warehouse), expected)
        )
    index = warehouse.index
    if hasattr(index, "check_invariants"):
        index.check_invariants()
    # Independent aggregate audit: the materialized totals must equal a
    # fold over the actual records (for the scan backend both sides walk
    # the records, which still cross-checks the count).
    count = warehouse.query("count") if len(warehouse) else 0
    if count != len(warehouse):
        raise StorageError(
            "aggregate COUNT says %s, warehouse holds %d records"
            % (count, len(warehouse))
        )
    for measure_index in range(warehouse.schema.n_measures):
        summary = warehouse.summary(measure=measure_index)
        fold = 0.0
        for record in warehouse.records_matching(
            query_from_labels(warehouse.schema, {})
        ):
            fold += record.measures[measure_index]
        if not math.isclose(summary.sum, fold, rel_tol=1e-9, abs_tol=1e-9):
            raise StorageError(
                "aggregate SUM of measure %d is %r, record fold is %r"
                % (measure_index, summary.sum, fold)
            )


def _replay_wal(warehouse, wal_path, report, faults):
    """Scan + replay the WAL onto the loaded checkpoint (report-driven)."""
    try:
        scan = wal_mod.read_wal(wal_path, faults=faults)
    except StorageError as error:
        scan = wal_mod.WalScan([], True, str(error), 0)
    report.torn_tail = scan.torn_tail
    report.wal_error = scan.error
    report.wal_bytes_scanned = scan.bytes_scanned
    for lsn, op, payload in scan.records:
        report.wal_records_seen += 1
        report.last_lsn = max(report.last_lsn, int(lsn))
        if lsn <= report.checkpoint_lsn:
            report.skipped_stale += 1
            continue
        if op == wal_mod.OP_REBASE:
            report.stopped_at_rebase = True
            break
        if op == wal_mod.OP_INSERT:
            warehouse.index.insert(
                record_from_labels(warehouse.schema, payload)
            )
            report.applied_inserts += 1
        elif op == wal_mod.OP_BATCH:
            # One atomic group commit: the record either survived the
            # crash whole (every insert replays, batched so the replayed
            # tracker charges match the original run) or was torn away
            # whole — read_wal never yields a prefix of it.
            records = warehouse.insert_records(
                record_from_labels(warehouse.schema, labels)
                for labels in payload
            )
            report.applied_inserts += len(records)
            report.applied_batches += 1
        elif op == wal_mod.OP_DELETE:
            try:
                warehouse.index.delete(
                    record_from_labels(warehouse.schema, payload)
                )
                report.applied_deletes += 1
            except RecordNotFoundError:
                report.failed_deletes += 1
        else:
            report.wal_error = "unknown WAL op %r at LSN %d" % (op, lsn)
            break


def recover_warehouse(checkpoint_path, wal_path=None, config=None,
                      faults=None):
    """Rebuild the warehouse from checkpoint + WAL; never raises on
    corruption.

    Returns ``(warehouse, report)``; the warehouse is ``None`` exactly
    when the checkpoint itself is unreadable (``report.checkpoint_error``
    says why).  WAL damage is never fatal: a torn tail or unreadable
    record ends replay at the last trustworthy mutation — precisely the
    acknowledged-durable prefix.
    """
    report = RecoveryReport(checkpoint_path, wal_path)
    try:
        data = read_warehouse_file(checkpoint_path, faults=faults)
        warehouse = warehouse_from_dict(data, config=config)
    except ReproError as error:
        report.checkpoint_error = str(error)
        return None, report
    except (KeyError, IndexError, TypeError, ValueError) as error:
        report.checkpoint_error = "%s: %s" % (type(error).__name__, error)
        return None, report
    report.checkpoint_ok = True
    report.records_at_checkpoint = len(warehouse)
    report.checkpoint_lsn = int(data["meta"].get("wal_lsn", 0))
    report.last_lsn = report.checkpoint_lsn
    try:
        report.checkpoint_age_seconds = max(
            0.0, time.time() - os.path.getmtime(checkpoint_path)
        )
    except OSError:
        report.checkpoint_age_seconds = None

    if wal_path is not None:
        _replay_wal(warehouse, wal_path, report, faults)

    try:
        _audit(warehouse, report)
        report.validated = True
    except ReproError as error:
        report.validation_error = str(error)
    report.n_records = len(warehouse)
    # Published last, so the gauges describe the finished recovery.
    metrics = warehouse.observability
    if metrics is not None:
        report.publish_metrics(metrics)
    return warehouse, report
