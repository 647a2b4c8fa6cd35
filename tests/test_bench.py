"""Tests for the benchmark harness (tiny scales, shape assertions)."""

import statistics

import pytest

from repro.bench import harness
from repro.bench.fig11 import fig11a_rows, fig11b_rows
from repro.bench.fig12 import PANELS, fig12_rows
from repro.bench.fig13 import fig13_rows
from repro.bench import regression
from repro.bench.reporting import format_speedup, format_table, speedup


@pytest.fixture(scope="module")
def tiny_sweep():
    return harness.run_combined_sweep(
        sizes=(300, 600), selectivities=(0.05, 0.25), n_queries=5, seed=0
    )


class TestCombinedSweep:
    def test_checkpoints_match_sizes(self, tiny_sweep):
        assert [p.n_records for p in tiny_sweep.checkpoints] == [300, 600]

    def test_checkpoint_lookup(self, tiny_sweep):
        assert tiny_sweep.checkpoint(600).n_records == 600
        with pytest.raises(KeyError):
            tiny_sweep.checkpoint(999)

    def test_insert_times_cumulative(self, tiny_sweep):
        for backend in tiny_sweep.backends:
            first = tiny_sweep.checkpoints[0].insert_seconds[backend]
            second = tiny_sweep.checkpoints[1].insert_seconds[backend]
            assert second >= first > 0

    def test_query_measurements_present(self, tiny_sweep):
        point = tiny_sweep.checkpoints[-1]
        for backend in tiny_sweep.backends:
            for selectivity in tiny_sweep.selectivities:
                measurement = point.queries[(backend, selectivity)]
                assert measurement.wall_seconds > 0
                assert measurement.node_accesses > 0
                assert measurement.simulated_seconds > 0

    def test_dc_stats_collected(self, tiny_sweep):
        for point in tiny_sweep.checkpoints:
            assert point.dc_stats is not None
            assert point.dc_stats.n_records == point.n_records

    def test_dc_tree_beats_scan_on_low_selectivity(self, tiny_sweep):
        point = tiny_sweep.checkpoints[-1]
        dc = point.queries[("dc-tree", 0.05)]
        scan = point.queries[("scan", 0.05)]
        assert dc.simulated_seconds < scan.simulated_seconds


class TestFigureRows:
    def test_fig11a_rows(self, tiny_sweep):
        rows = fig11a_rows(tiny_sweep)
        assert len(rows) == 2
        assert rows[0][0] == 300

    def test_fig11b_rows(self, tiny_sweep):
        rows = fig11b_rows(tiny_sweep)
        assert all(per_record > 0 for _n, per_record in rows)

    def test_fig12_rows_all_panels(self, tiny_sweep):
        for panel, (selectivity, competitor) in PANELS.items():
            if selectivity not in tiny_sweep.selectivities:
                continue
            rows = fig12_rows(tiny_sweep, selectivity, competitor)
            assert len(rows) == len(tiny_sweep.checkpoints)

    def test_fig13_rows(self, tiny_sweep):
        rows = fig13_rows(tiny_sweep)
        assert len(rows) == 2
        for row in rows:
            assert row[4] >= 1  # height


class TestHelpers:
    def test_cached_sweep_memoizes(self):
        harness._SWEEP_CACHE.clear()
        first = harness.cached_sweep(
            sizes=(100,), selectivities=(0.25,), n_queries=2, seed=1
        )
        second = harness.cached_sweep(
            sizes=(100,), selectivities=(0.25,), n_queries=2, seed=1
        )
        assert first is second


class TestReporting:
    def test_format_table_aligns(self):
        table = format_table(("a", "bb"), [(1, 2.5), (10, 0.25)])
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_format_table_with_title(self):
        table = format_table(("x",), [(1,)], title="T")
        assert table.splitlines()[0] == "T"

    def test_speedup(self):
        assert speedup(10.0, 2.0) == 5.0
        assert speedup(10.0, 0.0) is None

    def test_format_speedup(self):
        assert format_speedup(4.5) == "4.5x"
        assert format_speedup(None) == "n/a"


class TestCli:
    def test_main_quick_fig13(self, capsys):
        from repro.bench.__main__ import main

        harness._SWEEP_CACHE.clear()
        code = main(["fig13", "--sizes", "150,300", "--queries", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 13" in out


@pytest.mark.parametrize("argv", [
    ["fig11a", "--queries", "0", "--sizes", "200"],
    ["fig11a", "--sizes", "0"],
    ["fig11a", "--sizes", "200,-5"],
    ["fig11a", "--sizes", ","],
])
def test_main_rejects_bad_sizes_and_query_counts(argv, capsys):
    from repro.bench.__main__ import main
    from repro.cli import main as repro_main

    for entry, args in ((main, argv), (repro_main, ["bench"] + argv)):
        with pytest.raises(SystemExit) as exit_info:
            entry(args)
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestChart:
    def test_renders_markers_and_legend(self):
        from repro.bench.reporting import format_chart

        chart = format_chart(
            [1, 2, 3], {"a": [1.0, 2.0, 3.0], "b": [3.0, 2.0, 1.0]}
        )
        assert "*" in chart and "o" in chart
        assert "* a" in chart and "o b" in chart

    def test_axis_labels(self):
        from repro.bench.reporting import format_chart

        chart = format_chart([10, 30], {"s": [0.0, 100.0]}, title="T")
        assert chart.splitlines()[0] == "T"
        assert "100" in chart
        assert "10" in chart and "30" in chart

    def test_empty_series(self):
        from repro.bench.reporting import format_chart

        assert format_chart([], {}) == "(no data)"

    def test_single_point(self):
        from repro.bench.reporting import format_chart

        chart = format_chart([5], {"s": [1.0]})
        assert "*" in chart

    def test_constant_series_no_crash(self):
        from repro.bench.reporting import format_chart

        chart = format_chart([1, 2], {"s": [4.0, 4.0]})
        assert "*" in chart


class TestVerdict:
    def _synthetic_sweep(self):
        """A fabricated sweep embodying the paper's shapes exactly."""
        from repro.bench.harness import Checkpoint, QueryMeasurement, SweepResult
        from repro.core.stats import LevelStats, TreeStats

        sweep = SweepResult(
            sizes=(100, 200), selectivities=(0.01, 0.05, 0.25),
            n_queries=5, backends=("dc-tree", "x-tree", "scan"), seed=0,
        )
        for i, n in enumerate(sweep.sizes, start=1):
            point = Checkpoint(n)
            point.insert_seconds = {"dc-tree": 2.0 * i, "x-tree": 1.0 * i,
                                    "scan": 0.5 * i}
            point.insert_simulated = {"dc-tree": 20.0 * i, "x-tree": 10.0 * i,
                                      "scan": 5.0 * i}
            point.per_record_seconds = {"dc-tree": 0.001, "x-tree": 0.0005,
                                        "scan": 0.0001}
            for selectivity in sweep.selectivities:
                dc_cost = selectivity * i
                factors = {"x-tree": 30.0 / (selectivity * 100),
                           "scan": 1.0 + i * 0.2}
                for backend in sweep.backends:
                    factor = factors.get(backend, 1.0)
                    point.queries[(backend, selectivity)] = QueryMeasurement(
                        wall_seconds=dc_cost * factor,
                        node_accesses=10,
                        buffer_misses=5,
                        cpu_units=100,
                        simulated_seconds=dc_cost * factor,
                    )
            levels = [LevelStats(0), LevelStats(1), LevelStats(2)]
            levels[0].n_nodes, levels[0].n_entries = 1, 2
            levels[1].n_nodes, levels[1].n_entries = 2, 40 * i
            levels[1].n_supernodes = i
            levels[1].n_blocks = 2 * i
            levels[2].n_nodes, levels[2].n_entries = 10, 450
            point.dc_stats = TreeStats(levels, n_records=n, height=3)
            sweep.checkpoints.append(point)
        return sweep

    def test_all_claims_pass_on_ideal_shapes(self):
        from repro.bench.verdict import evaluate_claims

        claims = evaluate_claims(self._synthetic_sweep())
        failing = [c.row() for c in claims if not c.passed]
        assert not failing, failing

    def test_detects_inverted_winner(self):
        from repro.bench.verdict import evaluate_claims

        sweep = self._synthetic_sweep()
        for point in sweep.checkpoints:
            # Make the X-tree insert *more* expensive than the DC-tree.
            point.insert_simulated["x-tree"] = (
                point.insert_simulated["dc-tree"] * 2
            )
        claims = evaluate_claims(sweep)
        failed = [c for c in claims if not c.passed]
        assert any(c.artifact == "fig11a" for c in failed)

    def test_report_renders(self):
        import repro.bench.verdict as verdict_mod

        sweep = self._synthetic_sweep()
        claims = verdict_mod.evaluate_claims(sweep)
        from repro.bench.reporting import format_table

        table = format_table(
            ("artifact", "claim", "verdict", "measured"),
            [c.row() for c in claims],
        )
        assert "PASS" in table


class TestRegressionHarness:
    def test_run_workload_is_deterministic(self):
        schema, records = regression.make_dataset(150, seed=3)
        first = regression.run_workload(schema, records, 6, seed=3)
        second = regression.run_workload(schema, records, 6, seed=3)
        assert first.digest == second.digest
        assert first.structure == second.structure
        assert first.delete_digest == second.delete_digest
        assert regression._phase_counters(first.phases) \
            == regression._phase_counters(second.phases)
        assert regression._counter_key(first.inserted) \
            == regression._counter_key(second.inserted)

    def test_observability_pass_is_invariant(self, monkeypatch):
        monkeypatch.setitem(
            regression.PROFILES, "tiny",
            {"records": 200, "queries": 5, "repeats": 10},
        )
        entry, metrics = regression.run_benchmark(profile="tiny", seed=1)
        assert set(entry["phases"]) == set(regression.PHASES)
        assert entry["phases"]["delete"]["ops"] \
            == 200 // regression.DELETE_FRACTION
        assert "modes" not in entry
        observability = entry["observability"]
        assert observability["digest_identical"] is True
        assert observability["counters_identical"] is True
        assert "metrics" not in observability  # only --report carries it
        # the observed pass counted every insert of the serial workload
        assert observability["inserts"] == 200
        assert metrics["dctree_inserts_total"]["samples"][0]["value"] == 200
        assert "dctree_records" in metrics
        batch = entry["batch_insert"]
        assert batch["reads_identical"] and batch["cpu_not_worse"]
        assert batch["structure_identical"]
        assert entry["durability"]["counters_identical"] is True

    def test_wal_overhead_is_the_median_of_back_to_back_pairs(self):
        schema, records = regression.make_dataset(80, seed=4)
        serial = regression.run_workload(schema, records, 2, seed=4)
        durability = regression.measure_wal_overhead(schema, records, serial)
        ratios = durability["pair_ratios"]
        assert len(ratios) == regression.WAL_PAIRS
        assert all(ratio > 0 for ratio in ratios)
        assert durability["overhead_ratio"] == statistics.median(ratios)
        assert durability["counters_identical"] is True
        assert durability["wal_bytes"] > 0
        # The logged phases are compared with the serial pass's counters.
        other = regression.run_workload(schema, records[:-1], 2, seed=4)
        moved = regression.measure_wal_overhead(schema, records, other)
        assert moved["counters_identical"] is False

    def test_run_workload_observability_snapshot(self):
        schema, records = regression.make_dataset(120, seed=2)
        observed = regression.run_workload(
            schema, records, 4, seed=2, observability=True
        )
        plain = regression.run_workload(schema, records, 4, seed=2)
        assert plain.metrics is None
        assert observed.digest == plain.digest
        assert observed.delete_digest == plain.delete_digest
        assert regression._phase_counters(observed.phases) \
            == regression._phase_counters(plain.phases)
        # the snapshot is taken after the delete phase
        assert observed.metrics["dctree_records"]["samples"][0]["value"] \
            == 120 - 120 // regression.DELETE_FRACTION

    def test_repeat_speedup_compares_reasks_with_first_asks(self):
        phases = {
            "query": _fake_phase(1, ops=30, wall_seconds=2.0),
            "groupby": _fake_phase(1, ops=10, wall_seconds=2.0),
            "repeat": _fake_phase(1, ops_per_second=50.0),
        }
        # first asks: 40 ops in 4 s = 10 ops/s
        assert regression.repeat_speedup(phases) == 5.0

    def test_compare_to_baseline_flags_regressions(self):
        entry = _fake_entry()
        assert regression.compare_to_baseline(entry, _fake_entry()) == []
        for delta in (+1, -1):  # exact: a drop fails as well as a rise
            changed = _fake_entry()
            changed["phases"]["query"]["page_ios"] += delta
            problems = regression.compare_to_baseline(changed, entry)
            assert problems == ["query page_ios changed: 50 -> %d"
                                % (50 + delta)]
        changed = _fake_entry()
        changed["batch_insert"]["batched_page_writes"] -= 1
        assert regression.compare_to_baseline(changed, entry) == [
            "batched page writes changed: 40 -> 39"
        ]
        changed = _fake_entry(digest="other")
        problems = regression.compare_to_baseline(changed, entry)
        assert any("result digest" in problem for problem in problems)
        changed = _fake_entry(delete_digest="other")
        assert regression.compare_to_baseline(changed, entry) == [
            "delete digest changed: def -> other"
        ]
        mismatched = _fake_entry(records=999)
        problems = regression.compare_to_baseline(mismatched, entry)
        assert any("workload mismatch" in problem for problem in problems)

    def test_compare_to_baseline_flags_missing_baseline_blocks(self):
        entry = _fake_entry()
        no_repeat = _fake_entry()
        del no_repeat["phases"]["repeat"]
        problems = regression.compare_to_baseline(entry, no_repeat)
        assert problems and all("repeat" in problem for problem in problems)
        no_delete = _fake_entry()
        del no_delete["phases"]["delete"], no_delete["delete_digest"]
        assert regression.compare_to_baseline(entry, no_delete) == [
            "baseline lacks the delete digest",
            "baseline lacks the delete node_accesses",
            "baseline lacks the delete page_ios",
            "baseline lacks the delete cpu_units",
        ]
        no_batch = _fake_entry()
        del no_batch["batch_insert"]
        problems = regression.compare_to_baseline(entry, no_batch)
        assert "baseline lacks the batched page writes" in problems

    @pytest.mark.parametrize("block,key", [
        ("batch_insert", "cpu_not_worse"),
        ("batch_insert", "reads_identical"),
        ("batch_insert", "structure_identical"),
        ("durability", "counters_identical"),
        ("observability", "digest_identical"),
        ("observability", "counters_identical"),
    ])
    def test_check_gates_flags_each_verdict(self, block, key):
        assert regression.check_gates(_fake_entry()) == []
        entry = _fake_entry()
        entry[block][key] = False
        assert len(regression.check_gates(entry)) == 1

    def test_check_gates_applies_the_fixed_ratios(self):
        entry = _fake_entry()
        entry["phases"]["repeat"]["ops_per_second"] = 1.0
        entry["batch_insert"]["page_write_reduction"] = 1.5
        entry["durability"]["overhead_ratio"] = 2.5
        problems = regression.check_gates(entry)
        assert len(problems) == 3
        assert any("re-ask speedup" in problem for problem in problems)
        assert any("page-write reduction" in problem for problem in problems)
        assert any("WAL wall overhead" in problem for problem in problems)

    def test_main_compares_and_writes_only_on_rebaseline(
            self, monkeypatch, tmp_path, capsys):
        measured = {"entry": _fake_entry(profile="smoke")}
        monkeypatch.setattr(
            regression, "run_benchmark",
            lambda profile: (measured["entry"], {"dctree_inserts_total": {}}),
        )
        path = str(tmp_path / "bench.json")
        args = ["--smoke", "--output", path]
        assert regression.main(args) == 1  # no baseline yet
        assert regression.load_bench_file(path) is None
        assert regression.main(args + ["--rebaseline"]) == 0
        assert regression.main(args) == 0
        baseline = regression.load_bench_file(path)
        for delta in (+1, -1):
            measured["entry"] = _fake_entry(profile="smoke")
            measured["entry"]["phases"]["insert"]["cpu_units"] += delta
            assert regression.main(args) == 1
            assert regression.load_bench_file(path) == baseline
        # A run failing its own gates never rebaselines.
        measured["entry"]["observability"]["counters_identical"] = False
        assert regression.main(args + ["--rebaseline"]) == 1
        assert regression.load_bench_file(path) == baseline
        report = str(tmp_path / "report.json")
        regression.main(args + ["--report", report])
        assert "metrics" in regression.load_bench_file(report)[
            "observability"]
        capsys.readouterr()


def _fake_phase(units, ops_per_second=100.0, ops=1, wall_seconds=1.0):
    return {
        "node_accesses": units,
        "page_ios": units,
        "cpu_units": units,
        "ops_per_second": ops_per_second,
        "wall_seconds": wall_seconds,
        "ops": ops,
    }


def _fake_entry(**overrides):
    """A BENCH entry that passes every gate of the regression harness."""
    entry = {
        "profile": "tiny", "records": 100, "queries": 5, "repeats": 4,
        "seed": 0, "digest": "abc", "delete_digest": "def",
        "phases": {
            "insert": _fake_phase(100), "query": _fake_phase(50),
            "groupby": _fake_phase(20),
            "repeat": _fake_phase(10, ops_per_second=1000.0),
            "delete": _fake_phase(30),
        },
        "batch_insert": {
            "batch_size": 64, "serial_page_writes": 100,
            "batched_page_writes": 40, "page_write_reduction": 2.5,
            "simulated_speedup": 2.0, "reads_identical": True,
            "cpu_not_worse": True, "structure_identical": True,
        },
        "durability": {
            "fsync_interval": 64, "plain_wall_seconds": 1.0,
            "wal_wall_seconds": 1.2, "overhead_ratio": 1.2,
            "wal_bytes": 10, "counters_identical": True,
        },
        "observability": {
            "digest_identical": True, "counters_identical": True,
            "inserts": 100,
        },
    }
    entry.update(overrides)
    return entry
