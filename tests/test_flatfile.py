"""Tests for flat insert files (§5.1)."""

import pytest

from repro import (
    CubeSchema, Dimension, Measure, TPCDGenerator, make_tpcd_schema,
)
from repro.core.bulkload import bulk_load
from repro.errors import StorageError
from repro.tpcd.flatfile import read_flatfile, read_schema, write_flatfile
from tests.conftest import TOY_ROWS, build_toy_schema, toy_record


@pytest.fixture
def toy_file(tmp_path):
    schema = build_toy_schema()
    records = [toy_record(schema, *row) for row in TOY_ROWS]
    path = tmp_path / "cube.tbl"
    write_flatfile(path, schema, records)
    return schema, records, path


class TestWrite:
    def test_returns_count(self, tmp_path):
        schema = build_toy_schema()
        records = [toy_record(schema, *row) for row in TOY_ROWS]
        assert write_flatfile(tmp_path / "x.tbl", schema, records) == len(
            records
        )

    def test_header_lines(self, toy_file):
        _schema, _records, path = toy_file
        lines = path.read_text().splitlines()
        assert lines[0] == "#dcube 1"
        assert lines[1] == "#dimension Geo|City|Country"
        assert lines[2] == "#dimension Color|Color"
        assert lines[3] == "#measure Sales"

    def test_record_lines_are_pipe_delimited(self, toy_file):
        _schema, _records, path = toy_file
        data_lines = [
            line for line in path.read_text().splitlines()
            if not line.startswith("#")
        ]
        assert len(data_lines) == len(TOY_ROWS)
        assert data_lines[0].split("|")[:3] == ["DE", "Munich", "red"]

    def test_pipe_in_label_escaped(self, tmp_path):
        schema = build_toy_schema()
        record = toy_record(schema, "D|E", "Mun|ich", "red", 1.0)
        path = tmp_path / "weird.tbl"
        write_flatfile(path, schema, [record])
        _schema2, records = read_flatfile(path)
        hierarchy = _schema2.hierarchy(0)
        assert hierarchy.label(records[0].value_at_level(0, 1)) == "D|E"

    @pytest.mark.parametrize(
        "top",
        ["#1 Land", "a\\u007cb", "two\nlines", "back\\slash", "cr\rlf"],
        ids=["leading-hash", "escape-text", "newline", "backslash",
             "carriage-return"],
    )
    def test_every_label_roundtrips(self, tmp_path, top):
        schema = CubeSchema(
            dimensions=[Dimension("Store", ("Shop", "Land"))],
            measures=[Measure("Sales")],
        )
        rows = [(top, "S1"), ("Other", "S2"), (top, "S3")]
        records = [schema.record((labels,), (1.0,)) for labels in rows]
        path = tmp_path / "labels.tbl"
        assert write_flatfile(path, schema, records) == 3
        schema2, records2 = read_flatfile(path)
        hierarchy = schema2.hierarchy(0)
        assert [
            tuple(hierarchy.label(value) for value in record.paths[0])
            for record in records2
        ] == rows


class TestRead:
    def test_roundtrip_fresh_schema(self, toy_file):
        schema, records, path = toy_file
        schema2, records2 = read_flatfile(path)
        assert schema2.n_dimensions == schema.n_dimensions
        assert len(records2) == len(records)
        assert [r.measures for r in records2] == [
            r.measures for r in records
        ]

    def test_read_schema_only(self, toy_file):
        _schema, _records, path = toy_file
        schema = read_schema(path)
        assert [d.name for d in schema.dimensions] == ["Geo", "Color"]
        assert schema.measures[0].name == "Sales"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.tbl"
        path.write_text("not a cube\n")
        with pytest.raises(StorageError):
            read_flatfile(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.tbl"
        path.write_text("#dcube 1\nDE|Munich|red|1.0\n")
        with pytest.raises(StorageError):
            read_flatfile(path)

    def test_wrong_field_count_rejected(self, toy_file):
        _schema, _records, path = toy_file
        with open(path, "a") as handle:
            handle.write("DE|Munich|red\n")
        with pytest.raises(StorageError):
            read_flatfile(path)

    def test_non_numeric_measure_rejected(self, toy_file):
        _schema, _records, path = toy_file
        with open(path, "a") as handle:
            handle.write("DE|Munich|red|abc\n")
        with pytest.raises(StorageError):
            read_flatfile(path)

    def test_blank_lines_ignored(self, toy_file):
        _schema, records, path = toy_file
        with open(path, "a") as handle:
            handle.write("\n\n")
        _schema2, records2 = read_flatfile(path)
        assert len(records2) == len(records)


class TestAsInsertFile:
    def test_feeds_bulk_load(self, tmp_path):
        schema = make_tpcd_schema()
        generator = TPCDGenerator(schema, seed=3, scale_records=400)
        records = generator.generate(400)
        path = tmp_path / "tpcd.tbl"
        write_flatfile(path, schema, records)

        fresh_schema, loaded = read_flatfile(path)
        tree = bulk_load(fresh_schema, loaded)
        tree.check_invariants()
        assert len(tree) == 400
        total = sum(r.measures[0] for r in records)
        from repro.workload.queries import query_from_labels

        assert abs(
            tree.range_query(query_from_labels(fresh_schema, {}).mds) - total
        ) < 1e-4
