"""On-disk framing shared by the checkpoint file and the write-ahead log.

Both durable files are an 8-byte magic followed by frames::

    frame := length(u32 BE) crc32(u32 BE) payload

The CRC covers exactly the payload bytes written, so a reader checks a
frame before it decodes it and names a torn or bit-rotted frame by its
byte offset.  The WAL (:mod:`repro.persist.wal`) frames one record per
mutation; a checkpoint (:func:`encode_checkpoint`,
:func:`decode_checkpoint`) frames one section each::

    file := CHECKPOINT_MAGIC frame(meta) frame(schema)
            frame(hierarchies) frame(index)

* ``meta``        — format version, backend name (always ``dc-tree``),
                    record count (and a durable session's WAL position)
* ``schema``      — dimension names + level names, measure names
* ``hierarchies`` — per dimension, every node as ``[id, parent, label]``
                    (the dictionary encoding of §3.1)
* ``index``       — the DC-tree structure dump; every leaf's
                    ``records`` are columns::

                        records := [id_0 .. id_{D-1}, m_0 .. m_{M-1}]

                    D columns of level-0 IDs, one per dimension, then M
                    measure columns, all of one length (one entry per
                    record, leaf order).  A record's full path is not
                    stored: the loader rebuilds it from the restored
                    ``hierarchies`` ancestor table.

Each section is compact JSON, encoded once on save and decoded once on
load.  The index section stores the *structure*, not just the records:
loading a DC-tree restores its exact nodes, MDSs, supernode block
counts and materialized aggregates without re-running any split, so a
load is a plain O(n) deserialization (and the loaded tree is
bit-for-bit query-equivalent to the saved one — a property the test
suite checks).  IDs are plain integers (the level tag lives inside the
integer, §3.1).  The magic carries the format version; files of an
older version (1: one JSON document; 2: full-path leaf records; 3: a
DC-tree config with the retired split, aggregate and capacity knobs; 4:
configs with the split thresholds and, for the DC-tree, the result-cache
switch and capacity, all now constants) are refused, not migrated.
"""

from __future__ import annotations

import json
import struct
import zlib

from ..errors import StorageError

#: Current format version; bumped on breaking changes.
FORMAT_VERSION = 5

#: Checkpoint file magic; 8 bytes, like the WAL header.
CHECKPOINT_MAGIC = b"DCWH%03d\n" % FORMAT_VERSION

#: Checkpoint sections, one frame each, in file order.
SECTIONS = ("meta", "schema", "hierarchies", "index")

#: Node-type tags inside the index section.
DATA_NODE = "data"
DIR_NODE = "dir"

#: Per-frame prefix: payload length + CRC32, both big-endian u32.
FRAME_PREFIX = struct.Struct(">II")


class FrameError(StorageError):
    """A torn or checksum-failing frame starting at byte :attr:`offset`."""

    def __init__(self, message, offset):
        super().__init__(message)
        self.offset = offset


def encode_frame(payload):
    """One frame's bytes: length + CRC32 prefix, then ``payload``."""
    return FRAME_PREFIX.pack(len(payload), zlib.crc32(payload)) + payload


def scan_frames(raw, offset):
    """Yield ``(offset, payload)`` for each frame of ``raw`` from ``offset``.

    Raises :class:`FrameError` at the first incomplete or
    checksum-failing frame; every frame yielded before it is intact.
    """
    total = len(raw)
    while offset < total:
        if offset + FRAME_PREFIX.size > total:
            raise FrameError(
                "torn frame prefix at byte %d of %d" % (offset, total), offset
            )
        length, crc = FRAME_PREFIX.unpack_from(raw, offset)
        start = offset + FRAME_PREFIX.size
        end = start + length
        if end > total:
            raise FrameError(
                "torn frame payload at byte %d of %d (wanted %d bytes)"
                % (start, total, length), offset,
            )
        payload = raw[start:end]
        if zlib.crc32(payload) != crc:
            raise FrameError(
                "checksum mismatch at byte %d of %d" % (offset, total), offset
            )
        yield offset, payload
        offset = end


#: One compact encoder for every checkpoint section.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def encode_checkpoint(data):
    """A warehouse dict's checkpoint bytes, each section encoded once."""
    return CHECKPOINT_MAGIC + b"".join(
        encode_frame(_ENCODER.encode(data[name]).encode("utf-8"))
        for name in SECTIONS
    )


def decode_checkpoint(raw, path):
    """The warehouse dict in checkpoint bytes ``raw`` read from ``path``.

    Checks every frame before it decodes any section.  A wrong magic, a
    torn or bit-rotted frame, a missing section or trailing bytes raise
    :class:`StorageError` naming ``path``, the section and byte offset.
    """
    if raw[:len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise StorageError(
            "%s is not a version %d warehouse file: expected magic %r at "
            "byte 0, found %r" % (path, FORMAT_VERSION, CHECKPOINT_MAGIC,
                                  raw[:len(CHECKPOINT_MAGIC)])
        )
    frames = scan_frames(raw, len(CHECKPOINT_MAGIC))
    sections = []
    for name in SECTIONS:
        try:
            sections.append((name,) + next(frames))
        except StopIteration:
            raise StorageError(
                "corrupt warehouse file %s: section %r missing at byte %d "
                "(truncated file?)" % (path, name, len(raw))
            )
        except FrameError as error:
            raise StorageError(
                "corrupt warehouse file %s: section %r: %s "
                "(truncated or bit-rotted file)" % (path, name, error)
            )
    _name, offset, payload = sections[-1]
    end = offset + FRAME_PREFIX.size + len(payload)
    if end != len(raw):
        raise StorageError(
            "corrupt warehouse file %s: %d unexpected byte(s) after "
            "section %r at byte %d" % (path, len(raw) - end, name, end)
        )
    data = {}
    for name, offset, payload in sections:
        try:
            data[name] = json.loads(payload.decode("utf-8"))
        except ValueError as error:
            raise StorageError(
                "corrupt warehouse file %s: section %r at byte %d does not "
                "decode: %s" % (path, name, offset, error)
            )
    return data


def check_version(meta):
    """Raise on a format-version mismatch."""
    version = meta.get("version")
    if version != FORMAT_VERSION:
        raise StorageError(
            "unsupported warehouse file version %r (this build reads %d)"
            % (version, FORMAT_VERSION)
        )
