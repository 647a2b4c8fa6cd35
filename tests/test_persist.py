"""Tests for warehouse persistence (save/load of DC-tree warehouses)."""

import json
import math
import os
import re

import pytest

from repro import TPCDGenerator, Warehouse, make_tpcd_schema
from repro.core.mds import MDS
from repro.errors import StorageError, TreeError
from repro.persist import (
    FORMAT_VERSION,
    load_warehouse,
    save_warehouse,
    warehouse_from_dict,
    warehouse_to_dict,
)
from repro.cube import ids as ids_mod
from repro.persist import recover_warehouse
from repro.persist.format import (
    CHECKPOINT_MAGIC,
    FRAME_PREFIX,
    SECTIONS,
    encode_checkpoint,
    scan_frames,
)
from repro.workload.queries import QueryGenerator, query_from_labels
from tests.conftest import TOY_ROWS, build_toy_schema

pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning",
    "error::pytest.PytestUnraisableExceptionWarning",
)


def _read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def build_warehouse(backend):
    warehouse = Warehouse(build_toy_schema(), backend)
    for country, city, color, sales in TOY_ROWS:
        warehouse.insert(((country, city), (color,)), (sales,))
    return warehouse


def _frames(path):
    """``(section, start, end)`` of every frame in a saved file."""
    raw = _read_bytes(path)
    frames = []
    for name, (start, payload) in zip(
        SECTIONS, scan_frames(raw, len(CHECKPOINT_MAGIC))
    ):
        frames.append((name, start, start + FRAME_PREFIX.size + len(payload)))
    return frames


def _write(path, raw):
    with open(path, "wb") as handle:
        handle.write(raw)


def _assert_rejected(path, section, detail=""):
    """Loading fails naming the path, the section and a byte offset."""
    with pytest.raises(StorageError) as excinfo:
        load_warehouse(path)
    message = str(excinfo.value)
    assert path in message, message
    assert "section %r" % section in message, message
    assert "byte" in message and detail in message, message


@pytest.mark.parametrize("backend", ["dc-tree"])
class TestRoundtrip:
    def test_dict_roundtrip_preserves_queries(self, backend):
        original = build_warehouse(backend)
        restored = warehouse_from_dict(warehouse_to_dict(original))
        assert len(restored) == len(original)
        for where in (
            {},
            {"Geo": ("Country", ["DE"])},
            {"Geo": ("City", ["Munich"]), "Color": ("Color", ["red"])},
        ):
            assert restored.query("sum", where=where) == original.query(
                "sum", where=where
            )

    def test_file_roundtrip(self, backend, tmp_path):
        original = build_warehouse(backend)
        path = tmp_path / "wh.json"
        save_warehouse(original, path)
        restored = load_warehouse(path)
        assert restored.backend == backend
        assert restored.query("sum") == original.query("sum")

    def test_restored_warehouse_stays_dynamic(self, backend):
        original = build_warehouse(backend)
        restored = warehouse_from_dict(warehouse_to_dict(original))
        record = restored.insert((("IT", "Rome"), ("red",)), (50.0,))
        assert restored.query(
            "sum", where={"Geo": ("Country", ["IT"])}
        ) == 50.0
        restored.delete(record)
        assert len(restored) == len(original)

    def test_hierarchy_ids_preserved(self, backend):
        original = build_warehouse(backend)
        restored = warehouse_from_dict(warehouse_to_dict(original))
        for dim_original, dim_restored in zip(
            original.schema.dimensions, restored.schema.dimensions
        ):
            for level in range(dim_original.hierarchy.top_level + 1):
                assert dim_original.hierarchy.values_at_level(level) == (
                    dim_restored.hierarchy.values_at_level(level)
                )


class TestTreeStructurePreserved:
    def test_dc_tree_structure_identical(self):
        schema = make_tpcd_schema()
        warehouse = Warehouse(schema, "dc-tree")
        generator = TPCDGenerator(schema, seed=8, scale_records=600)
        for record in generator.records(600):
            warehouse.insert_record(record)
        restored = warehouse_from_dict(warehouse_to_dict(warehouse))
        restored.index.check_invariants()

        def shape(node):
            if node.is_leaf:
                return ("leaf", node.n_blocks, len(node.records))
            return ("dir", node.n_blocks,
                    tuple(shape(c) for c in node.children))

        assert shape(restored.index.root) == shape(warehouse.index.root)

    def test_dc_tree_queries_identical_after_load(self):
        schema = make_tpcd_schema()
        warehouse = Warehouse(schema, "dc-tree")
        generator = TPCDGenerator(schema, seed=8, scale_records=600)
        for record in generator.records(600):
            warehouse.insert_record(record)
        restored = warehouse_from_dict(warehouse_to_dict(warehouse))
        for query in QueryGenerator(schema, 0.2, seed=4).queries(10):
            rebuilt_query = query_from_labels(restored.schema, {})
            # Same-schema queries: re-run the original MDS on both (IDs
            # are preserved, so the MDS transfers verbatim).
            assert math.isclose(
                warehouse.index.range_query(query.mds),
                restored.index.range_query(query.mds),
                abs_tol=1e-6,
            )
            assert rebuilt_query.schema is restored.schema


class TestFormatValidation:
    def test_version_checked(self):
        data = warehouse_to_dict(build_warehouse("dc-tree"))
        data["meta"]["version"] = FORMAT_VERSION + 1
        with pytest.raises(StorageError):
            warehouse_from_dict(data)

    def test_missing_version_rejected(self):
        data = warehouse_to_dict(build_warehouse("dc-tree"))
        del data["meta"]["version"]
        with pytest.raises(StorageError):
            warehouse_from_dict(data)

    def test_unknown_backend_rejected(self):
        data = warehouse_to_dict(build_warehouse("dc-tree"))
        data["meta"]["backend"] = "b-tree"
        with pytest.raises(StorageError):
            warehouse_from_dict(data)

    def test_record_count_mismatch_rejected(self):
        data = warehouse_to_dict(build_warehouse("dc-tree"))
        data["meta"]["records"] += 1
        with pytest.raises(StorageError):
            warehouse_from_dict(data)

    def test_unknown_node_type_rejected(self):
        data = warehouse_to_dict(build_warehouse("dc-tree"))
        data["index"]["root"]["type"] = "mystery"
        with pytest.raises(StorageError):
            warehouse_from_dict(data)

    def test_file_starts_with_versioned_magic(self, tmp_path):
        path = tmp_path / "wh.json"
        save_warehouse(build_warehouse("dc-tree"), path)
        assert path.read_bytes().startswith(b"DCWH%03d\n" % FORMAT_VERSION)
        assert load_warehouse(path).query("count") == len(TOY_ROWS)

    def test_empty_warehouse_roundtrip(self):
        warehouse = Warehouse(build_toy_schema(), "dc-tree")
        restored = warehouse_from_dict(warehouse_to_dict(warehouse))
        assert len(restored) == 0
        restored.insert((("DE", "Munich"), ("red",)), (1.0,))
        assert restored.query("sum") == 1.0


class TestConfigPersistence:
    def test_custom_capacities_survive_roundtrip(self):
        from repro import DCTreeConfig, TPCDGenerator

        schema = make_tpcd_schema()
        warehouse = Warehouse(
            schema, "dc-tree",
            config=DCTreeConfig(dir_capacity=64, leaf_capacity=256),
        )
        generator = TPCDGenerator(schema, seed=0, scale_records=2000)
        for record in generator.records(2000):
            warehouse.insert_record(record)
        restored = warehouse_from_dict(warehouse_to_dict(warehouse))
        restored.index.check_invariants()
        assert restored.index.config.dir_capacity == 64
        assert restored.index.config.leaf_capacity == 256

    def test_explicit_config_still_overrides(self):
        from repro import DCTreeConfig

        warehouse = build_warehouse("dc-tree")
        restored = warehouse_from_dict(
            warehouse_to_dict(warehouse),
            config=DCTreeConfig(dir_capacity=128, leaf_capacity=128),
        )
        assert restored.index.config.dir_capacity == 128


class TestDurableSave:
    def test_sections_framed_in_order(self, tmp_path):
        path = str(tmp_path / "wh.json")
        warehouse = build_warehouse("dc-tree")
        save_warehouse(warehouse, path)
        frames = _frames(path)
        assert [name for name, _start, _end in frames] == list(SECTIONS)
        raw = _read_bytes(path)
        assert frames[-1][2] == len(raw)
        expected = warehouse_to_dict(warehouse)
        for name, start, end in frames:
            payload = raw[start + FRAME_PREFIX.size:end]
            assert json.loads(payload) == json.loads(json.dumps(
                expected[name]))

    def test_atomic_save_keeps_original_on_crash(self, tmp_path):
        from repro.storage.faults import FaultInjector, FaultPlan, InjectedFault

        path = str(tmp_path / "wh.json")
        original = build_warehouse("dc-tree")
        save_warehouse(original, path)
        bigger = build_warehouse("dc-tree")
        bigger.insert((("IT", "Rome"), ("red",)), (1.0,))
        for mode, site in (("crash", "checkpoint.write"),
                           ("torn", "checkpoint.write"),
                           ("crash", "checkpoint.fsync"),
                           ("crash", "checkpoint.replace")):
            injector = FaultInjector(FaultPlan(fail_at=1, mode=mode, site=site))
            with pytest.raises(InjectedFault):
                save_warehouse(bigger, path, faults=injector)
            # The visible file is still the complete original save.
            assert len(load_warehouse(path)) == len(original)

    def test_truncated_file_reports_path_and_offset(self, tmp_path):
        path = str(tmp_path / "wh.json")
        save_warehouse(build_warehouse("dc-tree"), path)
        raw = _read_bytes(path)
        with open(path, "wb") as handle:
            handle.write(raw[:len(raw) // 2])
        with pytest.raises(StorageError) as excinfo:
            load_warehouse(path)
        message = str(excinfo.value)
        assert path in message and "byte" in message

    def test_missing_file_is_storage_error(self, tmp_path):
        with pytest.raises(StorageError):
            load_warehouse(str(tmp_path / "nope.json"))

    def test_bit_rot_detected_by_section_checksum(self, tmp_path):
        path = str(tmp_path / "wh.json")
        save_warehouse(build_warehouse("dc-tree"), path)
        raw = _read_bytes(path)
        for name, start, end in _frames(path):
            middle = (start + FRAME_PREFIX.size + end) // 2
            _write(path, raw[:middle] + bytes([raw[middle] ^ 0x01])
                   + raw[middle + 1:])
            _assert_rejected(path, name, "checksum")

    def test_damaged_frame_prefix_detected(self, tmp_path):
        path = str(tmp_path / "wh.json")
        save_warehouse(build_warehouse("dc-tree"), path)
        raw = _read_bytes(path)
        for name, start, _end in _frames(path):
            # Low and high byte of the length, then of the CRC.
            for position in (start + 3, start, start + 7, start + 4):
                _write(path, raw[:position]
                       + bytes([raw[position] ^ 0x01])
                       + raw[position + 1:])
                _assert_rejected(path, name)

    def test_truncation_at_frame_boundaries_detected(self, tmp_path):
        path = str(tmp_path / "wh.json")
        save_warehouse(build_warehouse("dc-tree"), path)
        raw = _read_bytes(path)
        frames = _frames(path)
        ends = [end for _name, _start, end in frames]
        for boundary in [start for _name, start, _end in frames] + ends:
            for cut in (boundary - 1, boundary, boundary + 1):
                if cut >= len(raw):
                    continue
                _write(path, raw[:cut])
                if cut < len(CHECKPOINT_MAGIC):
                    with pytest.raises(StorageError,
                                       match="expected magic") as excinfo:
                        load_warehouse(path)
                    assert path in str(excinfo.value)
                    continue
                intact = sum(1 for end in ends if end <= cut)
                _assert_rejected(path, SECTIONS[intact])

    def test_trailing_bytes_detected(self, tmp_path):
        path = str(tmp_path / "wh.json")
        save_warehouse(build_warehouse("dc-tree"), path)
        with open(path, "ab") as handle:
            handle.write(b"\x00")
        _assert_rejected(path, "index", "unexpected")

    def test_version_1_json_file_rejected(self, tmp_path):
        path = str(tmp_path / "wh.json")
        data = warehouse_to_dict(build_warehouse("dc-tree"))
        data["meta"]["version"] = 1  # version 1: one JSON document
        _write(path, json.dumps(data).encode("utf-8"))
        with pytest.raises(StorageError) as excinfo:
            load_warehouse(path)
        message = str(excinfo.value)
        assert path in message and repr(CHECKPOINT_MAGIC) in message

    def test_malformed_document_wrapped(self, tmp_path):
        path = str(tmp_path / "wh.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("[1, 2, 3]")
        with pytest.raises(StorageError):
            load_warehouse(path)


def _leaf_columns(data):
    """The record columns of the first non-empty leaf in a dict dump."""
    stack = [data["index"]["root"]]
    while stack:
        node = stack.pop()
        if node["type"] == "data":
            if node["records"][0]:
                return node["records"]
        else:
            stack.extend(node["children"])
    raise AssertionError("no leaf holds records")


def _short_column(data, columns):
    columns[-1].pop()


def _extra_column(data, columns):
    columns.append(list(columns[-1]))


def _dropped_record(data, columns):
    for column in columns:
        column.pop()


def _unknown_leaf_id(data, columns):
    columns[0][0] = ids_mod.make_id(0, ids_mod.MAX_COUNTER)


def _inner_level_id(data, columns):
    # A known value of the dimension, but not a level-0 one.
    columns[0][0] = data["hierarchies"][0][1][0]


def _v2_file(data, columns):
    # Written under the version 2 magic below; the magic alone decides.
    data["meta"]["version"] = 2


def _v3_file(data, columns):
    # Written under the version 3 magic below.  A v3 DC-tree config still
    # held the retired split, aggregate and capacity knobs, which the
    # current DCTreeConfig would reject with a bare TypeError.
    data["meta"]["version"] = 3
    data["index"]["config"].update(
        split_algorithm="quadratic", use_materialized_aggregates=True,
        capacity_mode="entries",
    )


def _v4_file(data, columns):
    # Written under the version 4 magic below.  A v4 DC-tree config still
    # held the split thresholds, the result-cache switch and capacity,
    # which the current config would reject with a bare TypeError.
    data["meta"]["version"] = 4
    data["index"]["config"].update(
        min_fanout_fraction=0.35, max_overlap_fraction=0.2,
        use_result_cache=True, result_cache_capacity=128,
    )


_DAMAGE = {
    "short column": (_short_column, "holds 6 values, column 0 holds 7"),
    "extra column": (_extra_column, "record columns, expected"),
    "dropped record": (_dropped_record,
                       "meta says 7, the restored leaves hold 6"),
    "unknown leaf id": (_unknown_leaf_id, "not a level-0 value"),
    "inner-level id": (_inner_level_id, "not a level-0 value"),
    "framed v2 file": (_v2_file, repr(CHECKPOINT_MAGIC)),
    "framed v3 file": (_v3_file, repr(CHECKPOINT_MAGIC)),
    "framed v4 file": (_v4_file, repr(CHECKPOINT_MAGIC)),
}


@pytest.mark.parametrize("backend", ["dc-tree"])
@pytest.mark.parametrize("damage", sorted(_DAMAGE))
def test_damaged_leaf_columns_rejected(backend, damage, tmp_path):
    """Every damaged leaf is refused by load and by recovery alike.  A
    dropped record is caught by counting the restored leaves, not by
    trusting the DC-tree's root aggregate or a stored count."""
    mutate, detail = _DAMAGE[damage]
    data = warehouse_to_dict(build_warehouse(backend))
    mutate(data, _leaf_columns(data))
    raw = encode_checkpoint(data)
    version = data["meta"]["version"]
    if version != FORMAT_VERSION:
        raw = b"DCWH%03d\n" % version + raw[len(CHECKPOINT_MAGIC):]
    path = str(tmp_path / "wh.json")
    _write(path, raw)
    with pytest.raises(StorageError, match=re.escape(detail)):
        load_warehouse(path)
    warehouse, report = recover_warehouse(path)
    assert warehouse is None
    assert detail in report.checkpoint_error, report.checkpoint_error


def test_dc_leaf_records_are_id_and_measure_columns():
    schema = make_tpcd_schema()
    warehouse = Warehouse(schema, "dc-tree")
    warehouse.insert_records(
        TPCDGenerator(schema, seed=8, scale_records=600).records(600)
    )
    n_dims, n_measures = schema.n_dimensions, schema.n_measures
    stack = [(warehouse.index.root,
              warehouse_to_dict(warehouse)["index"]["root"])]
    leaves = 0
    while stack:
        node, dumped = stack.pop()
        if not node.is_leaf:
            stack.extend(zip(node.children, dumped["children"]))
            continue
        leaves += 1
        columns = dumped["records"]
        assert len(columns) == n_dims + n_measures
        assert {len(column) for column in columns} == {len(node.records)}
        for dim in range(n_dims):
            assert columns[dim] == [r.leaf_value(dim) for r in node.records]
            assert all(ids_mod.level_of(v) == 0 for v in columns[dim])
        for index in range(n_measures):
            assert columns[n_dims + index] == [
                r.measures[index] for r in node.records
            ]
    assert leaves > 1


@pytest.mark.parametrize("backend", ["x-tree", "scan"])
def test_saving_another_backend_is_refused_before_any_file(backend,
                                                           tmp_path):
    """Only DC-tree warehouses are persisted: saving an X-tree or scan
    warehouse names the backend and leaves neither the file nor its
    temporary twin."""
    path = str(tmp_path / "wh.json")
    with pytest.raises(StorageError, match=re.escape(repr(backend))):
        save_warehouse(build_warehouse(backend), path)
    assert os.listdir(str(tmp_path)) == []


def _names_backend(backend):
    def mutate(data):
        data["meta"]["backend"] = backend
    return mutate


def _meta_is_a_list(data):
    data["meta"] = list(data["meta"].values())


def _wal_lsn_is_text(data):
    data["meta"]["wal_lsn"] = "seven"


def _blocks_is_text(data):
    data["index"]["root"]["blocks"] = "x"


def _root_mds_short(data):
    data["index"]["root"]["mds"].pop()


#: Checksummed, well-framed v5 checkpoints whose content is refused:
#: another backend's file (refused by name) or malformed fields.
_REFUSED = {
    "backend x-tree": (_names_backend("x-tree"), "backend 'x-tree'"),
    "backend scan": (_names_backend("scan"), "backend 'scan'"),
    "meta is a list": (_meta_is_a_list, "meta section is a list"),
    "wal_lsn is text": (_wal_lsn_is_text, "meta wal_lsn is 'seven'"),
    "blocks is text": (_blocks_is_text, "node blocks is 'x'"),
    "root mds short": (_root_mds_short, "MDS has 1 dimensions, schema has 2"),
}


@pytest.mark.parametrize("case", sorted(_REFUSED))
def test_refused_checkpoint_is_a_storage_error(case, tmp_path):
    """Every frame's CRC holds, yet the content is refused: load raises
    StorageError and recovery reports the checkpoint unreadable, neither
    raises anything else nor accepts the file."""
    mutate, detail = _REFUSED[case]
    data = warehouse_to_dict(build_warehouse("dc-tree"))
    mutate(data)
    path = str(tmp_path / "wh.json")
    _write(path, encode_checkpoint(data))
    with pytest.raises(StorageError, match=re.escape(detail)):
        load_warehouse(path)
    warehouse, report = recover_warehouse(path)
    assert warehouse is None
    assert detail in report.checkpoint_error, report.checkpoint_error


def test_invariants_check_the_mds_dimension_count():
    warehouse = build_warehouse("dc-tree")
    tree = warehouse.index
    mds = tree.root.mds
    tree.root.mds = MDS(
        [mds.value_set(dim) for dim in range(mds.n_dimensions - 1)],
        mds.levels[:-1],
    )
    with pytest.raises(TreeError, match="MDS has 1 dimensions, schema has 2"):
        tree.check_invariants()
