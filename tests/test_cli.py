"""Tests for the ``python -m repro`` command-line interface."""

import importlib
import sys

import pytest

from repro.cli import main


@pytest.fixture
def loaded_warehouse(tmp_path):
    flat = tmp_path / "cube.tbl"
    warehouse = tmp_path / "wh.json"
    assert main(["generate", str(flat), "--records", "300",
                 "--seed", "2"]) == 0
    assert main(["load", str(flat), str(warehouse)]) == 0
    return warehouse


class TestGenerate:
    def test_writes_file(self, tmp_path, capsys):
        path = tmp_path / "out.tbl"
        assert main(["generate", str(path), "--records", "50"]) == 0
        assert path.exists()
        assert "wrote 50 records" in capsys.readouterr().out

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.tbl"
        b = tmp_path / "b.tbl"
        main(["generate", str(a), "--records", "30", "--seed", "9"])
        main(["generate", str(b), "--records", "30", "--seed", "9"])
        assert a.read_text() == b.read_text()


class TestLoad:
    def test_bulk_load_dc_tree(self, loaded_warehouse):
        assert loaded_warehouse.exists()

    def test_load_rejects_backend_flag(self, tmp_path, capsys):
        # Only DC-tree warehouses are persisted, so load has no backend.
        flat = tmp_path / "cube.tbl"
        warehouse = tmp_path / "x.json"
        main(["generate", str(flat), "--records", "40"])
        with pytest.raises(SystemExit) as exit_info:
            main(["load", str(flat), str(warehouse), "--backend", "x-tree"])
        assert exit_info.value.code == 2
        assert "--backend" in capsys.readouterr().err
        assert not warehouse.exists()


class TestQuery:
    def test_count_matches_records(self, loaded_warehouse, capsys):
        assert main(["query", str(loaded_warehouse), "--op", "count"]) == 0
        assert capsys.readouterr().out.strip() == "300"

    def test_where_filters(self, loaded_warehouse, capsys):
        assert main([
            "query", str(loaded_warehouse),
            "--op", "count",
            "--where", "Time.Year=1996",
        ]) == 0
        count = int(capsys.readouterr().out.strip())
        assert 0 < count < 300

    def test_bad_where_syntax(self, loaded_warehouse):
        with pytest.raises(SystemExit):
            main(["query", str(loaded_warehouse), "--where", "garbage"])

    def test_unknown_label_reports_error(self, loaded_warehouse, capsys):
        code = main([
            "query", str(loaded_warehouse),
            "--where", "Customer.Region=ATLANTIS",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["query"], ["groupby", "Time.Year"], ["explain"],
])
def test_where_rejects_a_repeated_dimension(loaded_warehouse, command):
    # Customer.Region=EUROPE and Customer.Nation=CHINA match nothing
    # together; keeping only the last clause would answer for CHINA.
    argv = command[:1] + [str(loaded_warehouse)] + command[1:] + [
        "--where", "Customer.Region=EUROPE",
        "--where", "Customer.Nation=CHINA",
    ]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    message = str(exit_info.value.code)
    assert "'Customer' twice" in message
    assert "DIM.LEVEL=A,B" in message


@pytest.mark.parametrize("argv", [
    ["generate", "out.tbl", "--records", "0"],
    ["load", "in.tbl", "out.wh", "--batch-size", "0"],
])
def test_counts_must_be_positive(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", ["query", "groupby", "sql", "explain", "inspect"]
)
def test_read_command_help_names_both_forms(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "warehouse file or durable session directory" in out


def test_importing_the_entry_module_does_not_run_the_cli(monkeypatch):
    monkeypatch.delitem(sys.modules, "repro.__main__", raising=False)
    module = importlib.import_module("repro.__main__")
    assert module.main is main


def test_empty_where_list_is_an_error(loaded_warehouse, capsys):
    # query_from_labels refuses it before any backend runs.
    code = main(["query", str(loaded_warehouse),
                 "--where", "Customer.Region=,"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


class TestGroupBy:
    def test_groups_partition_count(self, loaded_warehouse, capsys):
        assert main([
            "groupby", str(loaded_warehouse), "Time.Year", "--op", "count",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        total = sum(int(line.split("\t")[1]) for line in lines)
        assert total == 300

    def test_bad_by_syntax(self, loaded_warehouse):
        with pytest.raises(SystemExit):
            main(["groupby", str(loaded_warehouse), "TimeYear"])


class TestInspect:
    def test_prints_profile(self, loaded_warehouse, capsys):
        assert main(["inspect", str(loaded_warehouse)]) == 0
        out = capsys.readouterr().out
        assert "backend:  dc-tree" in out
        assert "records:  300" in out
        assert "height:" in out
        assert "Customer" in out

    def test_prints_checkpoint_bytes_per_section(self, loaded_warehouse,
                                                 capsys):
        assert main(["inspect", str(loaded_warehouse)]) == 0
        lines = capsys.readouterr().out.splitlines()
        sizes = {}
        for line in lines:
            if line.startswith("section "):
                _word, name, size, unit = line.split()
                assert unit == "B"
                sizes[name] = int(size)
        assert list(sizes) == ["meta", "schema", "hierarchies", "index"]
        total = loaded_warehouse.stat().st_size
        assert sum(sizes.values()) + 8 == total  # plus the 8-byte magic
        assert "file:     %d B, %.1f B/record" % (total, total / 300) \
            in lines


class TestTopLevel:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "generate" in capsys.readouterr().out


class TestSql:
    def test_scalar_query(self, loaded_warehouse, capsys):
        assert main([
            "sql", str(loaded_warehouse), "SELECT COUNT(*)",
        ]) == 0
        assert capsys.readouterr().out.strip() == "300"

    def test_group_by_output(self, loaded_warehouse, capsys):
        assert main([
            "sql", str(loaded_warehouse),
            "SELECT COUNT(*) GROUP BY Time.Year",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert sum(int(line.split("\t")[1]) for line in lines) == 300

    def test_where_clause(self, loaded_warehouse, capsys):
        assert main([
            "sql", str(loaded_warehouse),
            "SELECT COUNT(*) WHERE Time.Year = '1996'",
        ]) == 0
        assert 0 < int(capsys.readouterr().out.strip()) < 300

    def test_parse_error_reported(self, loaded_warehouse, capsys):
        code = main(["sql", str(loaded_warehouse), "SELEC SUM(x)"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestDurability:
    def _durable_dir(self, tmp_path):
        from repro import DurableWarehouse, Warehouse
        from tests.conftest import TOY_ROWS, build_toy_schema, toy_record

        directory = str(tmp_path / "session")
        schema = build_toy_schema()
        session = DurableWarehouse.create(
            directory, Warehouse(schema, "dc-tree")
        )
        for row in TOY_ROWS:
            session.insert_record(toy_record(schema, *row))
        # Simulated crash: never close, never checkpoint.
        session.wal._handle.close()
        session.wal._handle = None
        return directory

    def test_missing_warehouse_friendly_error(self, tmp_path, capsys):
        code = main(["query", str(tmp_path / "absent.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "absent.json" in err

    def test_corrupt_warehouse_friendly_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{ definitely not json")
        code = main(["query", str(path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_recover_reports_and_exits_zero(self, tmp_path, capsys):
        directory = self._durable_dir(tmp_path)
        assert main(["recover", directory]) == 0
        out = capsys.readouterr().out
        assert "recovery: OK" in out
        assert "7 insert(s)" in out

    def test_recover_output_checkpoint(self, tmp_path, capsys):
        directory = self._durable_dir(tmp_path)
        output = str(tmp_path / "recovered.json")
        assert main(["recover", directory, "--output", output]) == 0
        capsys.readouterr()
        assert main(["query", output, "--op", "count"]) == 0
        assert capsys.readouterr().out.strip() == "7"

    def test_recover_missing_dir_exits_one(self, tmp_path, capsys):
        assert main(["recover", str(tmp_path / "ghost")]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_query_accepts_durable_directory(self, tmp_path, capsys):
        directory = self._durable_dir(tmp_path)
        assert main(["query", directory, "--op", "count"]) == 0
        assert capsys.readouterr().out.strip() == "7"

    def test_inspect_prints_recovery_report(self, tmp_path, capsys):
        directory = self._durable_dir(tmp_path)
        assert main(["inspect", directory]) == 0
        out = capsys.readouterr().out
        assert "recovery: OK" in out and "backend:  dc-tree" in out
        # Bytes of the checkpoint file, which holds no record yet (all
        # seven are in the WAL).
        assert "section index" in out
        assert "B, - B/record" in out

    def test_recover_metrics_flag(self, tmp_path, capsys):
        directory = self._durable_dir(tmp_path)
        assert main(["recover", directory, "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "recovery_applied_inserts 7" in out
        assert "recovery_validated 1" in out
        assert "# TYPE recovery_wal_bytes_scanned gauge" in out


class TestExplainSurface:
    def test_explain_command_renders_profile(self, loaded_warehouse,
                                             capsys):
        assert main([
            "explain", str(loaded_warehouse),
            "--op", "sum", "--where", "Time.Year=1996",
        ]) == 0
        out = capsys.readouterr().out
        assert "EXPLAIN range_query op=sum" in out
        assert "reconcile with tracker delta: OK" in out

    def test_explain_json(self, loaded_warehouse, capsys):
        import json

        assert main([
            "explain", str(loaded_warehouse), "--json",
            "--by", "Time.Year",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reconciles"] is True
        assert payload["kind"] == "group_by"
        assert payload["result"]

    def test_explain_sql(self, loaded_warehouse, capsys):
        assert main([
            "explain", str(loaded_warehouse),
            "--sql", "SELECT COUNT(*) WHERE Time.Year = '1996'",
        ]) == 0
        out = capsys.readouterr().out
        assert "EXPLAIN" in out and "reconcile with tracker delta: OK" in out

    @pytest.mark.parametrize("argv", [
        ["query", "--op", "count"], ["groupby", "Time.Year"],
        ["sql", "SELECT COUNT(*)"],
    ], ids=["query", "groupby", "sql"])
    def test_explain_flag_is_rejected(self, loaded_warehouse, argv):
        # EXPLAIN has one CLI surface: the explain command.
        with pytest.raises(SystemExit) as exit_info:
            main(argv[:1] + [str(loaded_warehouse)] + argv[1:]
                 + ["--explain"])
        assert exit_info.value.code == 2

    def test_inspect_prints_metrics_snapshot(self, loaded_warehouse,
                                             capsys):
        assert main(["inspect", str(loaded_warehouse)]) == 0
        out = capsys.readouterr().out
        assert "metrics:" in out
        assert "dctree_records" in out
        assert "storage_node_accesses" in out
