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
same tree *and* the same tracker counters — each WAL record replays as
the one :meth:`~repro.core.tree.DCTree.apply` call that logged it, so
nothing about the durability layer perturbs the simulated cost model.
"""

from __future__ import annotations

import math
import os
import time

from ..core.tree import DELETE, INSERT
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
             "Group-committed multi-operation records replayed."),
            ("applied_deletes", self.applied_deletes,
             "Deletes replayed onto the checkpoint."),
            ("skipped_stale", self.skipped_stale,
             "Stale records skipped (LSN covered by the checkpoint)."),
            ("failed_deletes", self.failed_deletes,
             "Replayed deletes that targeted absent records."),
            ("torn_tail", int(self.torn_tail),
             "1 when a torn tail was discarded."),
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
                "operations" % self.applied_batches
            )
        if self.torn_tail:
            lines.append(
                "wal: torn tail discarded (%s) — expected crash residue, "
                "only unacknowledged work lost" % self.wal_error
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
    warehouse.index.check_invariants()
    # Independent aggregate audit: the materialized totals must equal a
    # fold over the actual records.
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


def _decode_ops(schema, op, payload):
    """The ``(kind, record)`` pairs of one ``apply`` record, every one
    decoded before any is applied; raises on anything else."""
    if op != wal_mod.OP_APPLY:
        raise StorageError("unknown WAL op %r" % (op,))
    ops = []
    for kind, labels in payload:
        if kind != INSERT and kind != DELETE:
            raise StorageError("unknown operation %r" % (kind,))
        ops.append((kind, record_from_labels(schema, labels)))
    return ops


def _replay_wal(warehouse, wal_path, report, faults):
    """Scan + replay the WAL onto the loaded checkpoint (report-driven):
    each record replays as the one ``apply`` call that logged it.

    A record that does not decode into valid operations ends replay
    before it, as a checksum failure does: nothing of it is applied."""
    scan = wal_mod.read_wal(wal_path, faults=faults)
    report.torn_tail = scan.torn_tail
    report.wal_error = scan.error
    report.wal_bytes_scanned = scan.bytes_scanned
    schema = warehouse.schema
    for lsn, op, payload in scan.records:
        report.wal_records_seen += 1
        if type(lsn) is not int:
            report.wal_error = "WAL record %d has LSN %r, not an integer" % (
                report.wal_records_seen, lsn)
            break
        report.last_lsn = max(report.last_lsn, lsn)
        if lsn <= report.checkpoint_lsn:
            report.skipped_stale += 1
            continue
        try:
            ops = _decode_ops(schema, op, payload)
        except (ReproError, TypeError, ValueError) as error:
            report.wal_error = "malformed WAL record at LSN %d: %s" % (
                lsn, error)
            break
        try:
            warehouse.index.apply(ops)
        except RecordNotFoundError:
            report.failed_deletes += 1
            continue
        n_deletes = sum(kind == DELETE for kind, _record in ops)
        report.applied_deletes += n_deletes
        report.applied_inserts += len(ops) - n_deletes
        report.applied_batches += len(ops) > 1


def recover_warehouse(checkpoint_path, wal_path=None, config=None,
                      faults=None):
    """Rebuild the warehouse from checkpoint + WAL; never raises on
    corruption.

    Returns ``(warehouse, report)``; the warehouse is ``None`` exactly
    when the checkpoint itself is unreadable (``report.checkpoint_error``
    says why).  WAL damage is never fatal: a torn tail or unreadable
    record ends replay at the last trustworthy mutation — precisely the
    acknowledged-durable prefix.  A WAL that cannot be read or is of
    another format version is not damage; it raises
    :class:`StorageError`.
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
    report.checkpoint_lsn = data["meta"].get("wal_lsn", 0)
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
