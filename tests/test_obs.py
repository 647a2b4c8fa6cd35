"""Tests for the unified telemetry layer (``repro.obs``).

Four contracts:

* the metrics registry counts events by name and labels and snapshots
  them as JSON;
* the tree, the WAL and checkpoints count their events into the tree's
  registry, and nothing else (no spans, no gauges, no histograms);
* EXPLAIN per-level totals reconcile *exactly* with the StorageTracker
  delta of each query profiled in an ``explain()`` scope, on cold runs
  and cache hits alike;
* observability is strictly observational — deterministic counters,
  query answers and ``tree_version`` are bit-identical with the layer
  on or off (property-tested over seeded workloads).
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import DCTreeConfig
from repro.core.tree import DCTree
from repro.errors import QueryError, TreeError
from repro.obs import MetricsRegistry, QueryProfile, describe_result_cache
from repro.persist.durable import DurableWarehouse
from repro.tpcd.generator import TPCDGenerator
from repro.warehouse import Warehouse
from repro.workload.queries import QueryGenerator, query_from_labels
from tests.conftest import TOY_ROWS, build_toy_schema, toy_record
from tests.differential import assert_same_run, counter_tuple
from tests.hypothesis_settings import TREE_SETTINGS


def build_tree(observability=True, rows=TOY_ROWS):
    """Toy tree with tiny node capacities, so even the 7 toy rows build
    a directory level (EXPLAIN has entries to classify)."""
    schema = build_toy_schema()
    tree = DCTree(schema, config=DCTreeConfig(
        dir_capacity=4, leaf_capacity=4, observability=observability
    ))
    for row in rows:
        tree.insert(toy_record(schema, *row))
    return schema, tree


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_basics(self):
        registry = MetricsRegistry()
        assert registry.get("ops_total") is None
        registry.count("ops_total")
        registry.count("ops_total", 4)
        assert registry.get("ops_total") == 5
        assert registry.snapshot() == {
            "ops_total": {"samples": [{"labels": {}, "value": 5}]},
        }
        # Counters are the only kind: no gauges, no histograms.
        assert not hasattr(registry, "gauge")
        assert not hasattr(registry, "histogram")

    def test_counters_never_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.count("ops_total", -1)
        assert registry.get("ops_total") is None

    def test_labels_fan_out_children(self):
        registry = MetricsRegistry()
        registry.count("wal_appends_total", 2, op="insert")
        registry.count("wal_appends_total", op="delete")
        assert registry.get("wal_appends_total", op="insert") == 2
        assert registry.get("wal_appends_total") is None
        snap = registry.snapshot()["wal_appends_total"]
        by_op = {
            sample["labels"]["op"]: sample["value"]
            for sample in snap["samples"]
        }
        assert by_op == {"insert": 2, "delete": 1}

    def test_name_is_a_legal_label(self):
        # ``name=`` must land in **labels, not collide with the
        # positional metric name.
        registry = MetricsRegistry()
        registry.count("spans_total", name="insert")
        assert registry.get("spans_total", name="insert") == 1

    def test_snapshot_json_is_valid(self):
        registry = MetricsRegistry()
        registry.count("bytes_total", 1.5, path='va"l\\ue')
        assert json.loads(registry.snapshot_json()) == registry.snapshot()


# ----------------------------------------------------------------------
# EXPLAIN profiles
# ----------------------------------------------------------------------

WHERE_DE = {"Geo": ("Country", ["DE"])}


def explained(tree, ask):
    """Run ``ask()`` in one EXPLAIN scope: ``(answer, its one profile)``."""
    with tree.explain() as profiles:
        value = ask()
    [profile] = profiles
    return value, profile


class TestExplain:
    def test_range_query_reconciles_with_tracker_delta(self):
        schema, tree = build_tree()
        query = query_from_labels(schema, WHERE_DE)
        before = tree.tracker.snapshot()
        value, profile = explained(tree, lambda: tree.range_query(query.mds))
        delta = tree.tracker.snapshot() - before
        assert value == tree.range_query(query.mds)
        assert profile.reconciles()
        # the profile's own delta is the full external delta too
        assert profile.total_node_accesses == delta.node_accesses
        assert profile.total_page_ios == delta.page_ios
        assert profile.total_cpu_units == delta.cpu_units
        assert profile.levels[0].depth == 0
        assert sum(level.records_scanned for level in profile.levels) >= 0

    def test_cache_hit_charges_match_miss(self):
        schema, tree = build_tree()
        query = query_from_labels(schema, WHERE_DE)
        _, miss_profile = explained(tree, lambda: tree.range_query(query.mds))
        assert miss_profile.cache_outcome == "miss"
        before = counter_tuple(tree)
        _, hit_profile = explained(tree, lambda: tree.range_query(query.mds))
        assert hit_profile.cache_outcome == "hit"
        assert hit_profile.reconciles()
        # counter invisibility: the hit recomputes but charges exactly
        # what a replayed hit (or the original miss) would have charged
        assert hit_profile.delta.node_accesses \
            == miss_profile.delta.node_accesses
        assert hit_profile.delta.cpu_units == miss_profile.delta.cpu_units
        assert counter_tuple(tree) != before  # it did charge

    def test_group_by_explain_reconciles(self):
        schema, tree = build_tree()
        groups, profile = explained(
            tree, lambda: tree.group_by(0, 1)  # Geo by Country
        )
        assert isinstance(profile, QueryProfile)
        assert profile.kind == "group_by"
        assert profile.reconciles()
        assert groups == tree.group_by(0, 1)

    def test_classifications_recorded(self):
        schema, tree = build_tree()
        query = query_from_labels(schema, WHERE_DE)
        _, profile = explained(tree, lambda: tree.range_query(query.mds))
        total = sum(
            level.disjoint + level.partial + level.contained
            for level in profile.levels
        )
        assert total > 0

    def test_render_and_to_dict(self):
        schema, tree = build_tree()
        query = query_from_labels(schema, WHERE_DE)
        _, profile = explained(tree, lambda: tree.range_query(query.mds))
        text = profile.render()
        assert "EXPLAIN range_query op=sum" in text
        assert "reconcile with tracker delta: OK" in text
        payload = profile.to_dict()
        assert payload["reconciles"] is True
        assert payload["totals"]["node_accesses"] \
            == profile.total_node_accesses
        json.dumps(payload)  # must be a JSON-ready dict

    def test_explain_works_without_observability(self):
        # EXPLAIN is scoped and independent of the config switch.
        schema, tree = build_tree(observability=False)
        query = query_from_labels(schema, WHERE_DE)
        value, profile = explained(tree, lambda: tree.range_query(query.mds))
        assert profile.reconciles()
        assert value == tree.range_query(query.mds)

    def test_warehouse_explain_surface(self):
        warehouse = Warehouse(build_toy_schema())
        for row in TOY_ROWS:
            warehouse.insert_record(toy_record(warehouse.schema, *row))
        with warehouse.explain() as profiles:
            value = warehouse.query("sum", where=WHERE_DE)
            groups = warehouse.group_by("Geo", "Country")
        assert value == warehouse.query("sum", where=WHERE_DE)
        assert groups == warehouse.group_by("Geo", "Country")
        assert [profile.kind for profile in profiles] \
            == ["range_query", "group_by"]
        assert all(profile.reconciles() for profile in profiles)

    def test_explain_requires_dc_tree_backend(self):
        for backend in ("scan", "x-tree"):
            warehouse = Warehouse(build_toy_schema(), backend=backend)
            for row in TOY_ROWS:
                warehouse.insert_record(toy_record(warehouse.schema, *row))
            before = counter_tuple(warehouse.index)
            with pytest.raises(QueryError, match="dc-tree"):
                warehouse.explain()
            # refused before anything is charged
            assert counter_tuple(warehouse.index) == before

    def test_scopes_do_not_nest(self):
        _schema, tree = build_tree()
        with tree.explain() as profiles:
            with pytest.raises(TreeError, match="nested"):
                with tree.explain():
                    pass
            tree.group_by(0, 1)
        # the refused inner scope left the outer one collecting
        assert len(profiles) == 1

    def test_two_queries_two_profiles(self):
        schema, tree = build_tree()
        query = query_from_labels(schema, WHERE_DE)
        deltas = []
        with tree.explain() as profiles:
            for ask in (lambda: tree.range_query(query.mds),
                        lambda: tree.group_by(0, 1)):
                before = tree.tracker.snapshot()
                ask()
                deltas.append(tree.tracker.snapshot() - before)
        assert [profile.kind for profile in profiles] \
            == ["range_query", "group_by"]
        for profile, delta in zip(profiles, deltas):
            assert profile.reconciles()
            assert profile.total_node_accesses == delta.node_accesses
            assert profile.total_page_ios == delta.page_ios
            assert profile.total_cpu_units == delta.cpu_units

    def test_failed_query_leaves_no_session_attached(self, monkeypatch):
        schema, tree = build_tree()
        query = query_from_labels(schema, WHERE_DE)
        tree.range_query(query.mds)  # cached

        def broken(*_args):
            raise TreeError("traversal failed")

        with pytest.raises(TreeError, match="traversal failed"):
            with tree.explain():
                # a group-by miss, so the traversal itself raises
                monkeypatch.setattr(tree, "_group_by_computed", broken)
                tree.group_by(0, 1)
        monkeypatch.undo()
        assert tree._profile is None
        hits = tree.result_cache.hits
        tree.range_query(query.mds)  # a plain re-ask replays the cache
        assert tree.result_cache.hits == hits + 1
        with tree.explain() as profiles:  # and a fresh scope opens
            tree.range_query(query.mds)
        assert len(profiles) == 1

    def test_tpcd_explain_reconciles(self, tpcd_schema):
        generator = TPCDGenerator(tpcd_schema, seed=5, scale_records=300)
        tree = DCTree(tpcd_schema, config=DCTreeConfig(observability=True))
        for record in generator.generate(300):
            tree.insert(record)
        with tree.explain() as profiles:
            for selectivity in (0.01, 0.25):
                query = QueryGenerator(
                    tpcd_schema, selectivity, seed=7
                ).query()
                tree.range_query(query.mds)
        assert len(profiles) == 2
        assert all(profile.reconciles() for profile in profiles)


# ----------------------------------------------------------------------
# invariance: telemetry must be strictly observational
# ----------------------------------------------------------------------


class TestInvariance:
    @TREE_SETTINGS
    @given(seed=st.integers(0, 1000), n_records=st.integers(20, 120))
    def test_counters_results_bit_identical(self, seed, n_records):
        def run(observability):
            schema = build_toy_schema()
            tree = DCTree(schema, config=DCTreeConfig(
                observability=observability
            ))
            rng = random.Random(seed)
            countries = ("DE", "FR", "US")
            colors = ("red", "blue", "green")
            records = []
            inserted = set()
            for index in range(n_records):
                country = rng.choice(countries)
                record = toy_record(
                    schema, country, "City%d" % (index % 9),
                    rng.choice(colors), float(rng.randrange(1, 50)),
                )
                tree.insert(record)
                records.append(record)
                inserted.add(country)
            # A label that no record carries is unknown to the schema, so
            # only the countries actually drawn can be queried.
            answers = [
                tree.range_query(query_from_labels(
                    schema, {"Geo": ("Country", [country])}
                ).mds)
                for country in sorted(inserted)
            ]
            answers.append(sorted(tree.group_by(1, 0).items()))
            tree.delete(records[0])
            answers.append(tree.range_query(query_from_labels(
                schema, {}
            ).mds))
            return tree, (tree.tree_version, answers)

        assert_same_run(run, True, False)

    def test_explain_leaves_counters_identical(self):
        # the same query inside and outside a scope charges the same
        schema_a, tree_a = build_tree()
        schema_b, tree_b = build_tree()
        query_a = query_from_labels(schema_a, WHERE_DE)
        query_b = query_from_labels(schema_b, WHERE_DE)
        for _ in range(2):  # cold then cache-hit
            plain = tree_a.range_query(query_a.mds)
            explained_value, _profile = explained(
                tree_b, lambda: tree_b.range_query(query_b.mds)
            )
            assert plain == explained_value
            assert counter_tuple(tree_a) == counter_tuple(tree_b)
            assert tree_a.tree_version == tree_b.tree_version


# ----------------------------------------------------------------------
# tree and durability telemetry
# ----------------------------------------------------------------------


class TestBridgesAndDurability:
    def test_tree_spans_and_counters(self):
        schema, tree = build_tree()
        registry = tree.observability
        assert registry.get("dctree_inserts_total") == len(TOY_ROWS)
        # 7 rows at leaf capacity 4 split at least one leaf
        assert registry.get("dctree_splits_total", kind="leaf") is not None
        # counters only: no span families are recorded any more
        assert not any(
            name.startswith("repro_span") for name in registry.snapshot()
        )

    def test_wal_checkpoint_recovery_telemetry(self, tmp_path):
        directory = tmp_path / "dw"
        warehouse = Warehouse(
            build_toy_schema(), config=DCTreeConfig(observability=True)
        )
        session = DurableWarehouse.create(directory, warehouse)
        try:
            for row in TOY_ROWS[:3]:
                session.insert_record(toy_record(warehouse.schema, *row))
            session.checkpoint()
            for row in TOY_ROWS[3:5]:
                session.insert_record(toy_record(warehouse.schema, *row))
        finally:
            session.close()
        registry = warehouse.observability
        assert registry.get("wal_appends_total", op="apply") == 5
        assert registry.get("checkpoints_total") == 1

        # recover (2 uncheckpointed inserts replay) with telemetry on
        recovered = DurableWarehouse.open(
            directory, config=DCTreeConfig(observability=True)
        )
        try:
            report = recovered.report
            assert report.applied_inserts == 2
            assert report.wal_bytes_scanned > 0
            # The report describes the finished recovery, audit included.
            assert report.validated and report.n_records == 5
            # Replay runs through ``apply``, so the replayed inserts
            # count as tree events; the audit figures stay in the report.
            registry = recovered.warehouse.observability
            assert registry.get("dctree_inserts_total") == 2
            assert not any(name.startswith("recovery_")
                           for name in registry.snapshot())
        finally:
            recovered.close()

    def test_describe_result_cache(self):
        _schema, tree = build_tree()
        assert "result-cache" in describe_result_cache(tree)


class TestConfig:
    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBSERVABILITY", "1")
        assert DCTreeConfig().observability is True
        assert DCTreeConfig(observability=False).observability is False
        monkeypatch.setenv("REPRO_OBSERVABILITY", "0")
        assert DCTreeConfig().observability is False
        monkeypatch.delenv("REPRO_OBSERVABILITY")
        assert DCTreeConfig().observability is False

    def test_off_by_default_means_no_bundle(self):
        schema, tree = build_tree(observability=False)
        assert tree.observability is None
