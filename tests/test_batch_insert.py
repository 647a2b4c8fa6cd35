"""Differential equivalence suite for batched insertion.

The batch-insert contract (see :meth:`repro.core.tree.DCTree.insert_batch`)
has two halves, and this program pins both down against serial insertion
on fixed-seed workloads:

* **Bit-identical semantics** — same query and group-by answers, same
  structure digest, same node-count/height/supernode statistics, same
  *read* counters (node accesses, buffer hits/misses): batching may not
  change what the index is or what it reads.
* **Amortized charging** — batched page writes and fold CPU are at most
  the serial charges (strictly below once any node is touched twice in a
  batch), because the write-through charge coalesces to once per touched
  node per batch.

Both halves are checked across all three backends (the X-tree falls back
to serial insertion inside ``Warehouse.insert_records``, where the
relationship holds with equality) and across batch sizes 1, a ragged 7,
the page capacity, and 10x the page capacity.
"""

from __future__ import annotations

import random

import pytest

from tests.conftest import build_toy_schema, toy_record
from tests.differential import READ_COUNTERS, assert_same_run

from repro import Warehouse
from repro.config import DCTreeConfig
from repro.core.stats import collect_stats
from repro.core.tree import DCTree
from repro.errors import TreeError

#: Toy trees use capacity 4, so these are {1, ragged, page, 10x page}.
BATCH_SIZES = (1, 7, 4, 40)
CAPACITY = 4

BACKENDS = ("dc-tree", "x-tree", "scan")


def _workload_rows(n=150, seed=11):
    """Fixed-seed toy rows with enough repetition to split and supernode."""
    rng = random.Random(seed)
    countries = (
        ("DE", ("Munich", "Berlin", "Hamburg")),
        ("FR", ("Paris", "Lyon")),
        ("US", ("NYC", "Boston", "Austin")),
    )
    colors = ("red", "blue", "green")
    rows = []
    for index in range(n):
        country, cities = countries[rng.randrange(len(countries))]
        rows.append((country, rng.choice(cities), rng.choice(colors),
                     float(index % 17) + 0.5))
    return rows


def _query_battery(schema):
    """Aggregates that together cover partial/contained/disjoint paths."""
    return (
        ("sum", None),
        ("count", None),
        ("sum", {"Geo": ("Country", ["DE"])}),
        ("sum", {"Geo": ("City", ["Paris", "NYC"])}),
        ("min", {"Color": ("Color", ["red", "green"])}),
        ("max", {"Geo": ("Country", ["FR", "US"]),
                 "Color": ("Color", ["blue"])}),
        ("count", {"Geo": ("City", ["Hamburg"])}),
    )


def _differential(backend, batch_size):
    """Fill one warehouse serially and one in batches, then query both.

    Asserts equal answers, structure digests and read counters; returns
    the (serial, batched) warehouses.
    """
    schema = build_toy_schema()
    records = [toy_record(schema, *row) for row in _workload_rows()]
    config = (
        DCTreeConfig(dir_capacity=CAPACITY, leaf_capacity=CAPACITY)
        if backend == "dc-tree" else None
    )

    def run(batched):
        warehouse = Warehouse(schema, backend, config)
        if batched:
            for begin in range(0, len(records), batch_size):
                warehouse.insert_records(records[begin:begin + batch_size])
        else:
            for record in records:
                warehouse.insert_record(record)
        answers = [len(warehouse)]
        answers += [
            warehouse.query(op, where=where)
            for op, where in _query_battery(schema)
        ]
        answers += [
            warehouse.group_by(dim, level)
            for dim, level in (("Geo", "Country"), ("Geo", "City"),
                               ("Color", "Color"))
        ]
        return warehouse, answers

    return assert_same_run(run, False, True, counters=READ_COUNTERS)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("backend", BACKENDS)
class TestBatchSerialEquivalence:
    def test_identical_answers(self, backend, batch_size):
        _differential(backend, batch_size)

    def test_identical_structure(self, backend, batch_size):
        serial, batched = _differential(backend, batch_size)
        if backend == "scan":
            return
        stats_serial = collect_stats(serial.index)
        stats_batched = collect_stats(batched.index)
        assert stats_serial.n_nodes == stats_batched.n_nodes
        assert stats_serial.height == stats_batched.height
        assert stats_serial.n_supernodes == stats_batched.n_supernodes
        assert repr(stats_serial.levels) == repr(stats_batched.levels)

    def test_counter_relationship(self, backend, batch_size):
        """Reads identical; batched writes and fold CPU never exceed serial.

        The batch path replays the exact serial descent (same accesses in
        the same order, hence the same buffer-pool evolution) and only
        coalesces write-through charges, so reads must match bit-for-bit
        while writes/CPU shrink — down to equality for backends without a
        batch path (x-tree) or batches that never touch a node twice.
        """
        serial, batched = _differential(backend, batch_size)
        stats_serial = serial.tracker.snapshot()
        stats_batched = batched.tracker.snapshot()
        assert stats_batched.page_writes <= stats_serial.page_writes
        assert stats_batched.cpu_units <= stats_serial.cpu_units
        if backend == "x-tree":
            # Serial fallback: charges are exactly the serial charges.
            assert stats_batched.page_writes == stats_serial.page_writes
            assert stats_batched.cpu_units == stats_serial.cpu_units

    def test_amortization_kicks_in(self, backend, batch_size):
        """Batches above one record strictly beat serial write charges on
        the backends with a batch path (shared path nodes coalesce)."""
        if backend == "x-tree" or batch_size == 1:
            pytest.skip("no amortization expected")
        serial, batched = _differential(backend, batch_size)
        assert batched.tracker.snapshot().page_writes < \
            serial.tracker.snapshot().page_writes


class TestTpcdDifferential:
    """The same contract on the realistic cube at the default capacities."""

    @pytest.mark.parametrize("batch_size", (64, 640))
    def test_batch_matches_serial(self, tpcd_schema, tpcd_records_500,
                                  batch_size):
        records = tpcd_records_500

        def run(batched):
            tree = DCTree(tpcd_schema)
            if batched:
                for begin in range(0, len(records), batch_size):
                    tree.insert_batch(records[begin:begin + batch_size])
            else:
                for record in records:
                    tree.insert(record)
            return tree, tree.check_invariants()

        serial, batched = assert_same_run(
            run, False, True, counters=READ_COUNTERS
        )
        assert batched.tracker.snapshot().page_writes < \
            serial.tracker.snapshot().page_writes


class TestBatchSemantics:
    def _tree(self, schema, **overrides):
        config = dict(dir_capacity=CAPACITY, leaf_capacity=CAPACITY)
        config.update(overrides)
        return DCTree(schema, config=DCTreeConfig(**config))

    def _records(self, schema, n=20):
        return [toy_record(schema, *row) for row in _workload_rows(n)]

    def test_single_version_bump(self, toy_schema):
        tree = self._tree(toy_schema)
        before = tree.tree_version
        tree.insert_batch(self._records(toy_schema, 20))
        assert tree.tree_version == before + 1

    def test_empty_batch_is_free(self, toy_schema):
        tree = self._tree(toy_schema)
        before = tree.tree_version
        assert tree.insert_batch([]) == 0
        assert tree.tree_version == before
        assert tree.tracker.snapshot().page_writes == 0

    def test_returns_count_and_len(self, toy_schema):
        tree = self._tree(toy_schema)
        records = self._records(toy_schema, 13)
        assert tree.insert_batch(records) == 13
        assert len(tree) == 13

    def test_nested_batch_rejected(self, toy_schema):
        tree = self._tree(toy_schema)
        tree._batch = object()  # simulate an open batch
        with pytest.raises(TreeError):
            tree.insert_batch(self._records(toy_schema, 2))
        tree._batch = None

    def test_result_cache_fresh_after_batch(self, toy_schema):
        """One bump per batch still invalidates every memoized answer."""
        tree = self._tree(toy_schema, use_result_cache=True)
        warehouse = Warehouse.wrap(tree)
        records = self._records(toy_schema, 30)
        warehouse.insert_records(records[:20])
        first = warehouse.query("sum")
        again = warehouse.query("sum")
        assert again == first  # served (possibly cached) consistently
        warehouse.insert_records(records[20:])
        fresh = warehouse.query("sum")
        expected = sum(record.measures[0] for record in records)
        assert fresh == pytest.approx(expected)
        assert fresh != first

    def test_sink_with_batch_support_gets_one_call(self, toy_schema):
        calls = []

        class Sink:
            def record_ops(self, ops):
                calls.append(("batch", [record for _kind, record in ops]))

        tree = self._tree(toy_schema)
        tree.set_mutation_sink(Sink())
        records = self._records(toy_schema, 6)
        tree.insert_batch(records)
        assert calls == [("batch", records)]

    def test_batch_metrics_and_span(self, toy_schema):
        tree = self._tree(toy_schema, observability=True)
        tree.insert_batch(self._records(toy_schema, 8))
        tree.insert_batch(self._records(toy_schema, 4))
        snap = tree.observability.snapshot()
        assert snap["dctree_batch_inserts_total"]["samples"][0]["value"] == 2
        assert snap["dctree_batch_records_total"]["samples"][0]["value"] == 12
        # The flushes' page writes, as the tracker charged them.
        written = snap["dctree_batch_pages_written_total"]["samples"][0]
        assert written["value"] == tree.tracker.snapshot().page_writes
        # The batch is counted, not traced: no span or histogram family.
        assert "repro_spans_total" not in snap
        assert "dctree_batch_pages_per_record" not in snap

    def test_observability_counters_invisible(self, toy_schema):
        """Telemetry must not perturb the deterministic batch charges."""
        records = self._records(toy_schema, 25)
        plain = self._tree(toy_schema)
        observed = self._tree(toy_schema, observability=True)
        plain.insert_batch(records)
        observed.insert_batch(records)
        assert repr(plain.tracker.snapshot()) == \
            repr(observed.tracker.snapshot())
