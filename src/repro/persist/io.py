"""Saving and loading DC-tree warehouses.

``save_warehouse`` writes the checkpoint format of
:mod:`repro.persist.format` — a magic, then one length+CRC32 frame per
section — *atomically*: the bytes go to a same-directory temp file, are
fsynced, and replace the target with ``os.replace``, so a crash leaves
either the complete old file or the complete new one.  Every frame is
checked before it is decoded, so truncation and bit-rot surface as a
:class:`~repro.errors.StorageError` naming the section and byte offset.
``load_warehouse`` restores the exact structure — nodes, MDSs,
supernode block counts and materialized aggregates — so loading never
re-splits and costs O(n) deserialization.  Only the ``dc-tree`` backend
is persisted (:func:`require_dc_tree`): the X-tree and the scan are the
in-memory comparators of the figures.

Leaf records are stored column-wise (:func:`_records_to_columns`): per
dimension one column of level-0 IDs, then one column per measure.  A
loader rebuilds each record's path from the restored hierarchy
(:func:`_leaf_paths`), so the records of a loaded warehouse share one
path tuple per leaf value.  The loaded record count is the sum over the
restored leaves and must equal the file's ``meta.records``.

The dict-level functions (``warehouse_to_dict`` / ``warehouse_from_dict``)
are exposed for tests and for callers who want a different transport.
"""

from __future__ import annotations

import math
import os

from ..config import DCTreeConfig
from ..core.mds import MDS
from ..core.node import DCDataNode, DCDirNode
from ..core.tree import DCTree
from ..cube.aggregation import AggregateVector
from ..cube.record import DataRecord
from ..cube.schema import CubeSchema, Dimension, Measure
from ..errors import ReproError, StorageError
from ..warehouse import Warehouse
from ..storage import faults as faults_mod
from . import format as fmt

# ----------------------------------------------------------------------
# backend and field checks
# ----------------------------------------------------------------------


def require_dc_tree(backend):
    """Refuse every backend but ``dc-tree``, by name: checkpoints and
    durable sessions hold DC-tree warehouses only."""
    if backend != "dc-tree":
        raise StorageError(
            "only dc-tree warehouses are persisted (checkpoints, durable "
            "sessions); got backend %r" % (backend,)
        )


def _count_field(value, what, minimum=0):
    """``value`` when it is an integer of at least ``minimum``."""
    if type(value) is not int or value < minimum:
        raise StorageError(
            "%s is %r, expected an integer of at least %d"
            % (what, value, minimum)
        )
    return value


# ----------------------------------------------------------------------
# schema & hierarchy sections
# ----------------------------------------------------------------------


def _schema_to_dict(schema):
    return {
        "dimensions": [
            {"name": dim.name, "levels": list(dim.level_names)}
            for dim in schema.dimensions
        ],
        "measures": [measure.name for measure in schema.measures],
    }


def _schema_from_dict(data):
    return CubeSchema(
        dimensions=[
            Dimension(entry["name"], tuple(entry["levels"]))
            for entry in data["dimensions"]
        ],
        measures=[Measure(name) for name in data["measures"]],
    )


def _hierarchies_to_list(schema):
    return [
        dim.hierarchy.dump_nodes() for dim in schema.dimensions
    ]


def _restore_hierarchies(schema, rows_per_dimension):
    if len(rows_per_dimension) != schema.n_dimensions:
        raise StorageError(
            "file has %d hierarchies, schema has %d dimensions"
            % (len(rows_per_dimension), schema.n_dimensions)
        )
    for dim, rows in zip(schema.dimensions, rows_per_dimension):
        dim.hierarchy.restore_nodes(rows)


# ----------------------------------------------------------------------
# records: checkpoint leaf columns, WAL label paths
# ----------------------------------------------------------------------


def _records_to_columns(records, schema):
    """A leaf's records as columns: D level-0 ID columns, then M measures.

    Column ``d < D`` holds each record's level-0 ID in dimension ``d``;
    the rest of the path is a chain of parent links the ``hierarchies``
    section already stores.  Column ``D + m`` holds measure ``m``.
    """
    return [
        [record.paths[dim][-1] for record in records]
        for dim in range(schema.n_dimensions)
    ] + [
        [record.measures[index] for record in records]
        for index in range(schema.n_measures)
    ]


def _leaf_paths(schema):
    """Per dimension, ``{level-0 id: path tuple}`` from the restored
    hierarchies' ancestor tables (top attribute first, ALL dropped).

    Built once per load, so every loaded record with the same leaf value
    shares one path tuple.
    """
    return [
        {
            leaf: hierarchy.ancestors_of(leaf)[-2::-1]
            for leaf in hierarchy.values_at_level(0)
        }
        for hierarchy in (dim.hierarchy for dim in schema.dimensions)
    ]


def _records_from_columns(columns, leaf_paths, n_measures):
    """Rebuild the records of :func:`_records_to_columns` output.

    ``leaf_paths`` is :func:`_leaf_paths` of the restored schema.  Raises
    :class:`StorageError` unless there are exactly D+M columns of equal
    length and every ID is a level-0 value of its dimension.
    """
    n_dimensions = len(leaf_paths)
    if len(columns) != n_dimensions + n_measures:
        raise StorageError(
            "leaf has %d record columns, expected %d (%d ID + %d measure)"
            % (len(columns), n_dimensions + n_measures, n_dimensions,
               n_measures)
        )
    n_records = len(columns[0])
    for index, column in enumerate(columns):
        if len(column) != n_records:
            raise StorageError(
                "leaf record column %d holds %d values, column 0 holds %d"
                % (index, len(column), n_records)
            )
    path_columns = []
    for dim, (paths, column) in enumerate(zip(leaf_paths, columns)):
        try:
            path_columns.append([paths[value] for value in column])
        except KeyError as error:
            raise StorageError(
                "leaf record ID %r is not a level-0 value of dimension %d"
                % (error.args[0], dim)
            ) from None
    return [
        DataRecord(paths, measures)
        for paths, measures in zip(zip(*path_columns),
                                   zip(*columns[n_dimensions:]))
    ]


def record_to_labels(schema, record):
    """Schema-independent record encoding: label paths plus measures.

    This is the WAL codec.  Hierarchy IDs are interned on first use, so
    a record inserted *after* a checkpoint carries IDs the checkpointed
    hierarchy has never seen; logging labels instead lets replay
    re-intern them through :meth:`~repro.cube.schema.CubeSchema.record`
    exactly like the original insert did.
    """
    paths = [
        [dim.hierarchy.label(value) for value in path]
        for dim, path in zip(schema.dimensions, record.paths)
    ]
    return [paths, list(record.measures)]


def record_from_labels(schema, data):
    """Rebuild a WAL-logged record against ``schema`` (interns labels)."""
    paths, measures = data
    return schema.record(tuple(tuple(path) for path in paths), measures)


def _aggregate_to_list(aggregate):
    rows = []
    for summary in aggregate.summaries:
        if summary.count == 0:
            rows.append([0.0, 0, None, None])
        else:
            rows.append([summary.sum, summary.count, summary.min,
                         summary.max])
    return rows


def _aggregate_from_list(rows):
    vector = AggregateVector(len(rows))
    for summary, (sum_, count, min_, max_) in zip(vector.summaries, rows):
        summary.sum = sum_
        summary.count = count
        summary.min = math.inf if min_ is None else min_
        summary.max = -math.inf if max_ is None else max_
    return vector


def _mds_to_list(mds):
    return [
        [sorted(mds.value_set(dim)), mds.level(dim)]
        for dim in range(mds.n_dimensions)
    ]


def _mds_from_list(rows, n_dimensions):
    if len(rows) != n_dimensions:
        raise StorageError(
            "node MDS has %d dimensions, schema has %d"
            % (len(rows), n_dimensions)
        )
    return MDS([set(values) for values, _level in rows],
               [level for _values, level in rows])


# ----------------------------------------------------------------------
# DC-tree
# ----------------------------------------------------------------------


def _dc_node_to_dict(node, schema):
    base = {
        "blocks": node.n_blocks,
        "mds": _mds_to_list(node.mds),
        "agg": _aggregate_to_list(node.aggregate),
    }
    if node.is_leaf:
        base["type"] = fmt.DATA_NODE
        base["records"] = _records_to_columns(node.records, schema)
    else:
        base["type"] = fmt.DIR_NODE
        base["children"] = [
            _dc_node_to_dict(c, schema) for c in node.children
        ]
    return base


def _dc_node_from_dict(data, tree, leaf_paths):
    """The node in ``data`` and the number of records under it."""
    mds = _mds_from_list(data["mds"], tree.schema.n_dimensions)
    aggregate = _aggregate_from_list(data["agg"])
    page_id = tree.tracker.new_page_id()
    if data["type"] == fmt.DATA_NODE:
        records = _records_from_columns(
            data["records"], leaf_paths, tree.schema.n_measures
        )
        node = DCDataNode(mds, aggregate, page_id, records=records)
        n_records = len(records)
    elif data["type"] == fmt.DIR_NODE:
        loaded = [_dc_node_from_dict(c, tree, leaf_paths)
                  for c in data["children"]]
        node = DCDirNode(mds, aggregate, page_id,
                         children=[child for child, _n in loaded])
        n_records = sum(n for _child, n in loaded)
    else:
        raise StorageError("unknown node type %r" % (data.get("type"),))
    node.n_blocks = _count_field(data["blocks"], "node blocks", 1)
    return node, n_records


def _dc_config_to_dict(config):
    return {
        "dir_capacity": config.dir_capacity,
        "leaf_capacity": config.leaf_capacity,
        "wal_fsync_interval": config.wal_fsync_interval,
    }


def _dc_tree_to_dict(tree):
    return {
        "root": _dc_node_to_dict(tree.root, tree.schema),
        "config": _dc_config_to_dict(tree.config),
    }


def _dc_tree_from_dict(data, schema, config=None):
    if config is None:
        # Restore the saved configuration - capacities in particular must
        # match the stored structure (a node legal at dir_capacity 64 is
        # overfull at the default 16).
        config = DCTreeConfig(**data["config"])
    tree = DCTree(schema, config=config)
    root, n_records = _dc_node_from_dict(
        data["root"], tree, _leaf_paths(schema)
    )
    # Root swap = mutation: adopt_root keeps the result cache's version
    # discipline.
    tree.adopt_root(root, n_records)
    return tree


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------


def warehouse_to_dict(warehouse):
    """The warehouse as one JSON-serializable dict (dc-tree only)."""
    require_dc_tree(warehouse.backend)
    return {
        "meta": {
            "version": fmt.FORMAT_VERSION,
            "backend": warehouse.backend,
            "records": len(warehouse),
        },
        "schema": _schema_to_dict(warehouse.schema),
        "hierarchies": _hierarchies_to_list(warehouse.schema),
        "index": _dc_tree_to_dict(warehouse.index),
    }


def warehouse_from_dict(data, config=None):
    """Restore a warehouse from :func:`warehouse_to_dict` output."""
    meta = data.get("meta", {})
    if not isinstance(meta, dict):
        raise StorageError("meta section is a %s, not an object"
                           % type(meta).__name__)
    fmt.check_version(meta)
    require_dc_tree(meta.get("backend"))
    _count_field(meta.get("wal_lsn", 0), "meta wal_lsn")
    schema = _schema_from_dict(data["schema"])
    _restore_hierarchies(schema, data["hierarchies"])
    warehouse = Warehouse.wrap(_dc_tree_from_dict(data["index"], schema,
                                                  config))
    if len(warehouse.index) != meta["records"]:
        raise StorageError(
            "record count mismatch: meta says %d, the restored leaves hold %d"
            % (meta["records"], len(warehouse.index))
        )
    return warehouse


#: Checkpoint bytes are written in chunks so fault injection can tear a
#: save at page-like granularity, as a real crash would.
_SAVE_CHUNK_BYTES = 1 << 16


def _fsync_directory(dirpath):
    """Best-effort directory fsync so a rename itself is durable."""
    try:
        fd = os.open(dirpath or ".", os.O_RDONLY)
    except OSError:
        return  # platform without directory fds — nothing more we can do
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def save_warehouse(warehouse, path, extra_meta=None, faults=None):
    """Write the warehouse to ``path`` as a checkpoint, atomically.

    The checkpoint — ``extra_meta`` merged into its meta section — is
    written to ``path + ".tmp"``, flushed and fsynced, then moved over
    ``path`` with ``os.replace``.  A crash at any point leaves the
    previous file intact; a leftover ``.tmp`` is overwritten by the next
    save.  ``faults`` optionally routes every write/fsync/rename through
    a fault injector (crash testing).
    """
    path = os.fspath(path)
    data = warehouse_to_dict(warehouse)
    if extra_meta:
        data["meta"].update(extra_meta)
    payload = fmt.encode_checkpoint(data)
    tmp_path = path + ".tmp"
    handle = open(tmp_path, "wb")
    try:
        for start in range(0, len(payload), _SAVE_CHUNK_BYTES):
            faults_mod.write_through(
                faults, handle, "checkpoint.write",
                payload[start:start + _SAVE_CHUNK_BYTES],
            )
        handle.flush()
        faults_mod.op_through(faults, "checkpoint.fsync")
        os.fsync(handle.fileno())
    finally:
        handle.close()
    faults_mod.op_through(faults, "checkpoint.replace")
    os.replace(tmp_path, path)
    _fsync_directory(os.path.dirname(path))


def read_warehouse_file(path, faults=None):
    """Read and integrity-check a warehouse file; returns the raw dict.

    Raises :class:`StorageError` on unreadable files and on everything
    :func:`~repro.persist.format.decode_checkpoint` rejects, before any
    deserialization.  Recovery uses this to decide whether a checkpoint
    is trustworthy.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            raw = faults_mod.read_through(faults, handle, "checkpoint.read")
    except OSError as error:
        raise StorageError(
            "cannot read warehouse file %s: %s" % (path, error)
        )
    return fmt.decode_checkpoint(raw, path)


def load_warehouse(path, config=None):
    """Read a warehouse back from ``path``.

    ``config`` optionally overrides the tree configuration of the loaded
    index (capacities must be compatible with the stored structure: a
    loaded node may exceed a smaller capacity until its next split).

    Every failure mode — missing file, truncation, bit-rot, missing or
    malformed fields — surfaces as a :class:`StorageError` naming the
    file, so callers (the CLI in particular) never see a raw
    ``JSONDecodeError``/``KeyError`` traceback.
    """
    data = read_warehouse_file(path)
    try:
        return warehouse_from_dict(data, config=config)
    except ReproError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as error:
        raise StorageError(
            "malformed warehouse file %s: %s: %s"
            % (path, type(error).__name__, error)
        )
