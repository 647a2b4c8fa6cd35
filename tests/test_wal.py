"""Write-ahead log unit tests: format, torn tails, fsync batching."""

from __future__ import annotations

import os
import zlib

import pytest

from repro import StorageError
from repro.persist.wal import (
    OP_APPLY,
    WAL_HEADER,
    WriteAheadLog,
    encode_record,
    read_wal,
)
from repro.storage.faults import FaultInjector, FaultPlan, InjectedFault

pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning",
    "error::pytest.PytestUnraisableExceptionWarning",
)


def _wal_path(tmp_path):
    return os.path.join(str(tmp_path), "wal.log")


def test_new_wal_writes_header(tmp_path):
    path = _wal_path(tmp_path)
    with WriteAheadLog(path):
        pass
    with open(path, "rb") as handle:
        assert handle.read() == WAL_HEADER


def test_append_and_replay_roundtrip(tmp_path):
    path = _wal_path(tmp_path)
    with WriteAheadLog(path) as wal:
        assert wal.append(OP_APPLY, [["insert", [["a"], [1.0]]]]) == 1
        assert wal.append(OP_APPLY, [["delete", [["b"], [2.0]]]]) == 2
        assert wal.last_lsn == 2
    scan = read_wal(path)
    assert not scan.torn_tail
    assert scan.records == [
        (1, OP_APPLY, [["insert", [["a"], [1.0]]]]),
        (2, OP_APPLY, [["delete", [["b"], [2.0]]]]),
    ]


def test_missing_file_scans_empty(tmp_path):
    scan = read_wal(_wal_path(tmp_path))
    assert scan.records == [] and not scan.torn_tail


def test_bad_header_rejected(tmp_path):
    path = _wal_path(tmp_path)
    with open(path, "wb") as handle:
        handle.write(b"NOTAWAL!" + encode_record(1, OP_APPLY, {}))
    with pytest.raises(StorageError, match="not a WAL file"):
        read_wal(path)


def test_older_format_version_rejected(tmp_path):
    """A ``DCWAL01`` log (one record kind per mutator) is refused, not
    read as a torn tail that would silently drop its records."""
    path = _wal_path(tmp_path)
    with open(path, "wb") as handle:
        handle.write(b"DCWAL01\n" + encode_record(1, "insert", []))
    with pytest.raises(StorageError, match="checkpoint before upgrading"):
        read_wal(path)


@pytest.mark.parametrize("size", range(1, len(WAL_HEADER)))
def test_torn_header_scans_as_empty_torn_tail(tmp_path, size):
    path = _wal_path(tmp_path)
    with open(path, "wb") as handle:
        handle.write(WAL_HEADER[:size])
    scan = read_wal(path)
    assert scan.records == [] and scan.torn_tail
    assert scan.bytes_scanned == 0


@pytest.mark.parametrize("mode", ["crash", "torn"])
def test_failed_header_write_closes_the_file(tmp_path, mode):
    """The handle opened for a new log is closed when its header write
    raises (the module turns a ResourceWarning into a failure)."""
    faults = FaultInjector(FaultPlan(1, mode, site="wal.header"))
    with pytest.raises(InjectedFault):
        WriteAheadLog(_wal_path(tmp_path), faults=faults)


def test_torn_tail_detected_and_prefix_kept(tmp_path):
    path = _wal_path(tmp_path)
    with WriteAheadLog(path) as wal:
        wal.append(OP_APPLY, 1)
        wal.append(OP_APPLY, 2)
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(size - 3)
    scan = read_wal(path)
    assert scan.torn_tail
    assert [record[2] for record in scan.records] == [1]
    assert "byte" in scan.error


def test_crc_corruption_stops_replay(tmp_path):
    path = _wal_path(tmp_path)
    with WriteAheadLog(path) as wal:
        wal.append(OP_APPLY, 1)
        wal.append(OP_APPLY, 2)
    with open(path, "r+b") as handle:
        raw = handle.read()
        # Flip one payload byte of the first record (prefix is 8 bytes).
        pos = len(WAL_HEADER) + 8 + 2
        handle.seek(pos)
        handle.write(bytes([raw[pos] ^ 0xFF]))
    scan = read_wal(path)
    assert scan.torn_tail
    assert scan.records == []
    assert "checksum mismatch" in scan.error


def test_encode_record_is_length_prefixed_and_checksummed():
    record = encode_record(7, OP_APPLY, {"k": [1, 2]})
    length = int.from_bytes(record[:4], "big")
    crc = int.from_bytes(record[4:8], "big")
    payload = record[8:]
    assert len(payload) == length
    assert zlib.crc32(payload) == crc
    # The exact bytes: logs of this format version stay replayable.
    assert record == b'\x00\x00\x00\x1b\xdc\xc2]O[7, "apply", {"k": [1, 2]}]'


def test_fsync_batching_counts_syncs(tmp_path):
    faults = FaultInjector()
    with WriteAheadLog(_wal_path(tmp_path), fsync_interval=3,
                       faults=faults) as wal:
        for value in range(7):
            wal.append(OP_APPLY, value)
    # 7 appends at interval 3 → syncs after #3 and #6, plus the
    # close-time sync for the final unsynced append.
    syncs = [site for site, _ in faults.trace if site == "wal.fsync"]
    assert len(syncs) == 3


def test_fsync_interval_zero_never_syncs(tmp_path):
    faults = FaultInjector()
    with WriteAheadLog(_wal_path(tmp_path), fsync_interval=0,
                       faults=faults) as wal:
        for value in range(5):
            wal.append(OP_APPLY, value)
    assert all(site != "wal.fsync" for site, _ in faults.trace)


def test_start_lsn_continues_numbering(tmp_path):
    path = _wal_path(tmp_path)
    with WriteAheadLog(path) as wal:
        wal.append(OP_APPLY, "a")
    with WriteAheadLog(path, start_lsn=1) as wal:
        assert wal.append(OP_APPLY, "b") == 2
    lsns = [record[0] for record in read_wal(path).records]
    assert lsns == [1, 2]


def test_truncate_keeps_header_drops_records(tmp_path):
    path = _wal_path(tmp_path)
    with WriteAheadLog(path) as wal:
        wal.append(OP_APPLY, "a")
        wal.truncate()
        wal.append(OP_APPLY, "b")
    assert os.path.getsize(path) > len(WAL_HEADER)
    records = read_wal(path).records
    assert [record[2] for record in records] == ["b"]


def test_torn_write_injection_leaves_replayable_prefix(tmp_path):
    path = _wal_path(tmp_path)
    # fail_at is 1-based: the 3rd wal.append tears (the header write is
    # site "wal.header" and does not match).
    faults = FaultInjector(FaultPlan(fail_at=3, mode="torn",
                                     site="wal.append"))
    with WriteAheadLog(path, fsync_interval=0, faults=faults) as wal:
        wal.append(OP_APPLY, "first")
        wal.append(OP_APPLY, "second")
        with pytest.raises(InjectedFault):
            wal.append(OP_APPLY, "third")
    scan = read_wal(path)
    assert scan.torn_tail
    assert [record[2] for record in scan.records] == ["first", "second"]


def test_crash_injection_writes_nothing(tmp_path):
    path = _wal_path(tmp_path)
    faults = FaultInjector(FaultPlan(fail_at=2, mode="crash",
                                     site="wal.append"))
    with WriteAheadLog(path, fsync_interval=0, faults=faults) as wal:
        wal.append(OP_APPLY, "first")
        with pytest.raises(InjectedFault):
            wal.append(OP_APPLY, "second")
    scan = read_wal(path)
    assert not scan.torn_tail
    assert [record[2] for record in scan.records] == ["first"]


def test_torn_batch_append_drops_the_whole_batch(tmp_path):
    """A group commit is one length-prefixed, checksummed record, so a
    tear mid-append can never expose a prefix of the batch: replay keeps
    everything before the batch's record and none of the batch."""
    path = _wal_path(tmp_path)
    faults = FaultInjector(FaultPlan(fail_at=2, mode="torn",
                                     site="wal.append"))
    with WriteAheadLog(path, fsync_interval=1, faults=faults) as wal:
        wal.append(OP_APPLY, [["insert", ["solo"]]])
        with pytest.raises(InjectedFault):
            wal.append(OP_APPLY, [["insert", ["a"]], ["delete", ["b"]],
                                  ["insert", ["c"]], ["insert", ["d"]]])
    scan = read_wal(path)
    assert scan.torn_tail
    assert [(record[1], record[2]) for record in scan.records] == [
        (OP_APPLY, [["insert", ["solo"]]])
    ]


def test_batch_group_commit_is_one_append_one_fsync(tmp_path):
    """The acknowledged-batch durability cost: a single WAL append and,
    at fsync_interval=1, a single fsync for the whole batch."""
    faults = FaultInjector()
    with WriteAheadLog(_wal_path(tmp_path), fsync_interval=1,
                       faults=faults) as wal:
        wal.append(OP_APPLY, [["insert", ["a"]], ["delete", ["b"]],
                              ["insert", ["c"]], ["insert", ["d"]]])
        appends = [site for site, _ in faults.trace
                   if site == "wal.append"]
        syncs = [site for site, _ in faults.trace if site == "wal.fsync"]
        assert len(appends) == 1
        assert len(syncs) == 1


def test_negative_fsync_interval_rejected(tmp_path):
    with pytest.raises(StorageError):
        WriteAheadLog(_wal_path(tmp_path), fsync_interval=-1)


def test_seeded_fault_plans_are_deterministic():
    plans = [FaultPlan.seeded(seed=7, n_ops=50) for _ in range(3)]
    assert len({(p.fail_at, p.mode, p.site) for p in plans}) == 1
    spread = {
        (FaultPlan.seeded(seed=s, n_ops=50).fail_at,
         FaultPlan.seeded(seed=s, n_ops=50).mode)
        for s in range(20)
    }
    assert len(spread) > 1


def test_fault_plan_validates_mode():
    with pytest.raises(ValueError):
        FaultPlan(fail_at=0, mode="explode")
