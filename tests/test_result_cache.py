"""Tests for the versioned query-result cache (``core/result_cache.py``).

The cache must be *fully* invisible except for wall-clock time: answers,
tracker counters and buffer-pool evolution are bit-identical to a run
that clears the cache before every ask, and no mutation path may ever
leave a stale answer servable.  These tests drive both properties, plus the LRU bound, the
counter bookkeeping, and the canonical-digest guarantees the cache key
relies on.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bulkload import bulk_load
from repro.core.mds import MDS
from repro.core.result_cache import ResultCache
from repro.core.tree import DCTree
from repro.errors import SchemaError
from repro.storage.tracker import StorageTracker
from repro.warehouse import Warehouse
from repro.workload.queries import query_from_labels
from tests.conftest import TOY_ROWS, build_toy_schema, toy_record
from tests.differential import assert_same_run, counter_tuple

COUNTRIES = ("DE", "FR", "US")
COLORS = ("red", "blue", "green")

EXTRA_ROWS = (
    ("DE", "Hamburg", "blue", 13.0),
    ("FR", "Nice", "red", 9.0),
    ("US", "Austin", "blue", 21.0),
    ("DE", "Munich", "green", 2.0),
)


def build_tree():
    """Toy tree over TOY_ROWS."""
    schema = build_toy_schema()
    tree = DCTree(schema)
    records = [toy_record(schema, *row) for row in TOY_ROWS]
    for record in records:
        tree.insert(record)
    return schema, tree, records


def country_mds(schema, countries):
    query = query_from_labels(schema, {"Geo": ("Country", list(countries))})
    return query.mds


class TestResultCacheUnit:
    def test_capacity_must_be_positive(self):
        with pytest.raises(SchemaError):
            ResultCache(capacity=0)

    def test_every_tree_builds_its_own_cache(self, toy_schema):
        one, two = DCTree(toy_schema), DCTree(toy_schema)
        assert one.result_cache is not two.result_cache
        assert one.result_cache.capacity == 128

    def test_hit_and_miss_counters(self):
        schema, tree, _records = build_tree()
        mds = country_mds(schema, ["DE"])
        first = tree.range_query(mds)
        second = tree.range_query(mds)
        assert first == second == 35.0
        stats = tree.result_cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.lookups == 2
        assert stats.hit_rate == 0.5

    def test_cached_none_answer_is_a_hit(self):
        schema, tree, _records = build_tree()
        query = query_from_labels(
            schema,
            {"Geo": ("Country", ["DE"]), "Color": ("Color", ["green"])},
        )
        assert tree.range_query(query.mds, op="avg") is None
        assert tree.range_query(query.mds, op="avg") is None
        stats = tree.result_cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)


def ask(cache, key):
    """One lookup at tree version 0; a miss stores ``key`` as its answer."""
    if cache.fetch(key, 0, StorageTracker()) is None:
        cache.store(key, 0, key, [], 0)


class TestLRUEviction:
    def test_capacity_is_enforced(self):
        cache = ResultCache(capacity=2)
        for country in COUNTRIES:
            ask(cache, country)
        stats = cache.stats()
        assert stats.size == 2
        assert stats.evictions == 1
        assert len(cache) == 2

    def test_least_recently_used_goes_first(self):
        cache = ResultCache(capacity=2)
        ask(cache, "DE")  # miss
        ask(cache, "FR")  # miss
        ask(cache, "DE")  # hit: DE now MRU
        ask(cache, "US")  # miss: evicts FR
        ask(cache, "DE")  # still cached
        ask(cache, "FR")  # evicted: miss again
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (2, 4)
        assert stats.evictions == 2


class TestInvalidation:
    """Every mutator entry point must make cached answers unservable."""

    def test_insert_invalidates(self):
        schema, tree, _records = build_tree()
        mds = country_mds(schema, ["DE"])
        assert tree.range_query(mds) == 35.0
        tree.insert(toy_record(schema, "DE", "Bonn", "red", 7.0))
        assert tree.range_query(mds) == 42.0
        assert tree.result_cache.stats().invalidations == 1

    def test_delete_invalidates(self):
        schema, tree, records = build_tree()
        mds = country_mds(schema, ["DE"])
        assert tree.range_query(mds) == 35.0
        tree.delete(records[0])  # Munich red, 10.0
        assert tree.range_query(mds) == 25.0
        assert tree.result_cache.stats().invalidations == 1

    def test_group_by_never_stale(self):
        schema, tree, _records = build_tree()
        before = tree.group_by(0, 1)  # per country
        tree.insert(toy_record(schema, "FR", "Paris", "red", 100.0))
        after = tree.group_by(0, 1)
        assert before != after
        fresh = DCTree(schema)
        for record in tree.records():
            fresh.insert(record)
        assert after == fresh.group_by(0, 1)

    def test_bulk_load_bumps_version(self, toy_schema):
        records = [toy_record(toy_schema, *row) for row in TOY_ROWS]
        tree = bulk_load(toy_schema, records)
        assert tree.tree_version > 0
        mds = country_mds(toy_schema, ["DE"])
        assert tree.range_query(mds) == 35.0
        tree.insert(toy_record(toy_schema, "DE", "Bonn", "red", 5.0))
        assert tree.range_query(mds) == 40.0

    def test_insert_many_invalidates(self):
        warehouse = Warehouse(build_toy_schema())
        warehouse.insert_many(
            (((row[0], row[1]), (row[2],)), (row[3],)) for row in TOY_ROWS
        )
        where = {"Geo": ("Country", ["DE"])}
        assert warehouse.query(where=where) == 35.0
        assert warehouse.query(where=where) == 35.0
        assert warehouse.index.result_cache.stats().hits == 1
        warehouse.insert_many([((("DE", "Bonn"), ("red",)), (8.0,))])
        assert warehouse.query(where=where) == 43.0

    def test_version_is_monotone_across_mutators(self):
        schema, tree, records = build_tree()
        seen = [tree.tree_version]
        tree.insert(toy_record(schema, "FR", "Nice", "red", 1.0))
        seen.append(tree.tree_version)
        tree.delete(records[0])
        seen.append(tree.tree_version)
        assert seen == sorted(set(seen))


def populated_schema():
    """Toy schema with the TOY_ROWS label paths registered."""
    schema = build_toy_schema()
    for row in TOY_ROWS:
        toy_record(schema, *row)
    return schema


class TestDigest:
    def test_key_and_digest_ignore_construction_order(self):
        toy_schema = populated_schema()
        hierarchies = tuple(d.hierarchy for d in toy_schema.dimensions)
        geo = hierarchies[0]
        countries = sorted(geo.values_at_level(1))[:2]
        color_all = {hierarchies[1].all_id}
        forward = MDS([set(countries), set(color_all)], [1, 1])
        backward = MDS([set(reversed(countries)), set(color_all)], [1, 1])
        assert forward.cache_key() == backward.cache_key()
        assert forward.digest() == backward.digest()

    def test_different_mds_has_different_key(self):
        toy_schema = populated_schema()
        hierarchies = tuple(d.hierarchy for d in toy_schema.dimensions)
        geo = hierarchies[0]
        countries = sorted(geo.values_at_level(1))
        color_all = {hierarchies[1].all_id}
        one = MDS([{countries[0]}, set(color_all)], [1, 1])
        two = MDS([{countries[1]}, set(color_all)], [1, 1])
        assert one.cache_key() != two.cache_key()
        assert one.digest() != two.digest()

    def test_digest_is_stable_across_calls(self):
        toy_schema = populated_schema()
        mds = MDS.all_mds(tuple(d.hierarchy for d in toy_schema.dimensions))
        assert mds.digest() == mds.digest()
        assert len(mds.digest()) == 64


class TestGroupByCopies:
    def test_cached_aggregators_cannot_be_poisoned(self):
        schema, tree, _records = build_tree()
        first = tree.group_by_aggregators(0, 1)
        baseline = {value: agg.result() for value, agg in first.items()}
        victim = next(iter(first.values()))
        victim.add_summary(victim._summary.copy())  # double it in place
        second = tree.group_by_aggregators(0, 1)
        assert {v: a.result() for v, a in second.items()} == baseline


ops_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.sampled_from(COUNTRIES),
            st.integers(min_value=0, max_value=5),
            st.sampled_from(COLORS),
            st.integers(min_value=1, max_value=50),
        ),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=30)),
        st.tuples(
            st.just("range"),
            st.sets(st.sampled_from(COUNTRIES), min_size=1),
            st.sampled_from(["sum", "count", "avg", "min", "max"]),
        ),
        st.tuples(st.just("groupby"), st.integers(min_value=0, max_value=1)),
    ),
    min_size=1,
    max_size=30,
)


def run_sequence(tree, schema, operations, clear_cache=False):
    """Apply an op sequence; returns the answers it produced.

    With ``clear_cache`` every ask finds the result cache empty, so each
    answer is computed: the reference the cache must be invisible to.
    """
    live = [toy_record(schema, *row) for row in TOY_ROWS]
    answers = []
    for operation in operations:
        kind = operation[0]
        if kind == "insert":
            _, country, city_n, color, sales = operation
            record = toy_record(
                schema, country, "city%d" % city_n, color, float(sales)
            )
            tree.insert(record)
            live.append(record)
        elif kind == "delete":
            if live:
                record = live.pop(operation[1] % len(live))
                tree.delete(record)
        else:
            if clear_cache:
                tree.result_cache.clear()
            if kind == "range":
                _, countries, op = operation
                mds = country_mds(schema, sorted(countries))
                answers.append(tree.range_query(mds, op=op))
            else:
                answers.append(tree.group_by(0, operation[1]))
    return answers


class TestEquivalence:
    @given(operations=ops_strategy)
    def test_cache_on_off_bit_identical(self, operations):
        """Same answers, tree and tracker counters, served from the cache
        or computed on every ask."""

        def run(clear_cache):
            schema, tree, _ = build_tree()
            tree.tracker.reset(clear_buffer=True)
            return tree, run_sequence(tree, schema, operations, clear_cache)

        assert_same_run(run, False, True)

    @given(operations=ops_strategy)
    def test_repeated_queries_hit_without_mutation(self, operations):
        """Re-asking the same queries with no mutation in between is all
        hits, and the repeated pass charges the same counters again."""
        schema, tree, _ = build_tree()
        queries = [op for op in operations if op[0] in ("range", "groupby")]
        if not queries:
            return
        tree.tracker.reset(clear_buffer=True)
        first = run_sequence(tree, schema, queries)
        first_cost = counter_tuple(tree)
        before = tree.result_cache.stats()
        second = run_sequence(tree, schema, queries)
        after = tree.result_cache.stats()
        assert first == second
        assert after.hits - before.hits == len(first)
        second_cost = tuple(
            now - then for now, then in zip(counter_tuple(tree), first_cost)
        )
        # Node accesses and CPU replay exactly; the buffer hit/miss split
        # may shift because the pool is warmer on the second pass (exactly
        # as it would be when recomputing without the cache).
        assert second_cost[0] == first_cost[0]
        assert second_cost[4] == first_cost[4]
