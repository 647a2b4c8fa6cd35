"""Write-ahead log for acknowledged warehouse mutations.

The checkpoint file makes a warehouse durable *up to the last save*; the
WAL makes every mutation acknowledged since then durable as well.  The
DC-tree's mutation sink (see
:meth:`~repro.core.tree.DCTree.set_mutation_sink`) appends one record
per acknowledged :meth:`~repro.core.tree.DCTree.apply` call; recovery
replays each record on top of the last good checkpoint as one ``apply``.

On-disk format
--------------

::

    file   := header record*
    header := b"DCWAL02\\n"                      (8 bytes)
    record := frame(UTF-8 JSON [lsn, op, data])

``lsn`` is a monotone log sequence number (checkpoints remember the last
LSN they contain, so replay skips records a newer checkpoint already
covers).  ``op`` is always ``"apply"``: one group-committed call,
atomic on disk, whose ``data`` lists its ``[kind, labels]`` operations,
``kind`` being ``"insert"`` or ``"delete"``.  Recovery ends replay at a
record of any other op, as it does at a checksum failure.  A log of
another header version is refused, so checkpoint a session before
upgrading.

Each record is one length-prefixed, CRC-checksummed frame of the codec
the checkpoint shares (:mod:`repro.persist.format`), so a torn tail —
the expected residue of a crash mid-append — is detected and cleanly
discarded: replay stops at the first record whose length or checksum
does not hold.  The file is opened unbuffered; an append either reaches
the OS entirely or (under fault injection) leaves exactly the torn
prefix a real crash would.

``fsync`` batching is configurable (``DCTreeConfig.wal_fsync_interval``):
1 syncs every append (strongest durability), N syncs every Nth append,
0 leaves syncing to the OS (fastest, loses at most the OS write-back
window on power failure — process death alone loses nothing).
"""

from __future__ import annotations

import collections
import json
import os

from ..errors import StorageError
from ..storage import faults as faults_mod
from . import format as fmt

#: File magic and format version; 8 bytes so records start aligned.
WAL_HEADER = b"DCWAL02\n"

#: The one kind of WAL record (see the module docstring).
OP_APPLY = "apply"


def encode_record(lsn, op, data):
    """One record's bytes: length + CRC32 prefix, JSON payload."""
    return fmt.encode_frame(json.dumps([lsn, op, data]).encode("utf-8"))


class WriteAheadLog:
    """Append-only, checksummed mutation log on one file.

    Parameters
    ----------
    path:
        Log file; created (with header) when missing or empty.
    fsync_interval:
        Sync every Nth append; 0 disables explicit syncing.
    start_lsn:
        LSN of the last already-durable record (recovery hands the log
        back after replay so numbering continues seamlessly).
    faults:
        Optional :class:`~repro.storage.faults.FaultInjector` through
        which every write/fsync/truncate is routed.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry` (normally the
        owning tree's) that appends, bytes, fsyncs and truncates are
        counted into.  Purely observational — the byte stream and sync
        schedule are identical with it attached or not.
    """

    def __init__(self, path, fsync_interval=1, start_lsn=0, faults=None,
                 metrics=None):
        if fsync_interval < 0:
            raise StorageError("fsync_interval must be >= 0")
        self.path = os.fspath(path)
        self.fsync_interval = fsync_interval
        self.faults = faults
        self.metrics = metrics
        self._lsn = start_lsn
        self._since_sync = 0
        #: False while the file lacks its header: inside :meth:`truncate`,
        #: and for good once a header rewrite there raised.
        self.intact = True
        self._handle = open(self.path, "ab", buffering=0)
        if self._handle.tell() == 0:
            try:
                faults_mod.write_through(
                    faults, self._handle, "wal.header", WAL_HEADER
                )
            except BaseException:
                self._handle.close()
                raise

    # ------------------------------------------------------------------

    @property
    def last_lsn(self):
        """LSN of the most recently appended (or replayed) record."""
        return self._lsn

    def append(self, op, data):
        """Append one mutation record; returns its LSN.

        The record is on its way to the OS when this returns (and
        fsynced per the batching policy) — appending *before* the caller
        acknowledges the mutation is what makes the mutation durable.
        Raises :class:`StorageError` once the log has lost its header
        (:attr:`intact`): no reopen could read the record.
        """
        if not self.intact:
            raise StorageError("WAL %s lost its header; reopen the session"
                               % self.path)
        lsn = self._lsn + 1
        record = encode_record(lsn, op, data)
        faults_mod.write_through(self.faults, self._handle, "wal.append",
                                 record)
        self._count("wal_bytes_written_total", len(record))
        self._lsn = lsn
        self._since_sync += 1
        if self.fsync_interval and self._since_sync >= self.fsync_interval:
            self.sync()
        self._count("wal_appends_total", op=op)
        return lsn

    def sync(self):
        """Force appended records to stable storage."""
        faults_mod.op_through(self.faults, "wal.fsync")
        os.fsync(self._handle.fileno())
        self._since_sync = 0
        self._count("wal_fsyncs_total")

    def truncate(self):
        """Drop every record and rewrite the header — called after a
        checkpoint and when a session opens.

        A crash *before* the truncate leaves stale records behind; their
        LSNs are at most the new checkpoint's, so replay skips them.  The
        header is written afresh, so a header torn by an earlier crash
        (inside ``create``, or inside this very call) never sits in front
        of records a later session acknowledges.  If the rewrite
        raises, the log stays without a header and refuses appends.
        """
        faults_mod.op_through(self.faults, "wal.truncate")
        self.intact = False
        self._handle.truncate(0)
        faults_mod.write_through(self.faults, self._handle, "wal.header",
                                 WAL_HEADER)
        self.intact = True
        self._since_sync = 0
        self._count("wal_truncates_total")

    def _count(self, name, amount=1, **labels):
        if self.metrics is not None:
            self.metrics.count(name, amount, **labels)

    def close(self):
        """Sync any unsynced tail and close the file; the handle is
        closed even when that final sync raises."""
        if self._handle is not None:
            try:
                if self.fsync_interval and self._since_sync:
                    self.sync()
            finally:
                self._handle.close()
                self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


#: Result of :func:`read_wal`: the readable records plus diagnostics.
WalScan = collections.namedtuple(
    "WalScan", ("records", "torn_tail", "error", "bytes_scanned")
)


def read_wal(path, faults=None):
    """Scan a WAL file; returns a :class:`WalScan`.

    Stops at the first incomplete or checksum-failing record (torn tail
    after a crash, or bit-rot) — everything before it is trustworthy,
    nothing after it is reachable.  A missing file scans as empty: a
    checkpoint with no log simply has nothing to replay; so does a file
    holding a prefix of the header, with a torn tail.  Raises
    :class:`StorageError` when the file starts with any other header —
    another format version, or not a WAL at all.
    """
    try:
        with open(path, "rb") as handle:
            raw = faults_mod.read_through(faults, handle, "wal.read")
    except FileNotFoundError:
        return WalScan([], False, None, 0)
    except OSError as error:
        raise StorageError("cannot read WAL %s: %s" % (path, error))
    if not raw:
        return WalScan([], False, None, 0)
    if len(raw) < len(WAL_HEADER) and WAL_HEADER.startswith(raw):
        return WalScan([], True, "torn header %r" % raw, 0)
    header = raw[:len(WAL_HEADER)]
    if not header.startswith(b"DCWAL"):
        raise StorageError("%s is not a WAL file (it starts with %r)"
                           % (path, header))
    if header != WAL_HEADER:
        raise StorageError(
            "%s is a WAL file of another version (header %r, expected "
            "%r; checkpoint before upgrading)" % (path, header, WAL_HEADER)
        )
    records = []
    try:
        for offset, payload in fmt.scan_frames(raw, len(WAL_HEADER)):
            try:
                lsn, op, data = json.loads(payload.decode("utf-8"))
            except (TypeError, ValueError) as error:  # bad UTF-8/JSON/shape
                raise fmt.FrameError("unreadable payload at byte %d: %s"
                                     % (offset, error), offset)
            records.append((lsn, op, data))
    except fmt.FrameError as error:
        return WalScan(records, True, str(error), error.offset)
    return WalScan(records, False, None, len(raw))
