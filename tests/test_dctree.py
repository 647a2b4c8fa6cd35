"""Unit, integration and property tests for the DC-tree itself."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import DCTree, DCTreeConfig, TPCDGenerator
from repro.core.mds import MDS
from repro.core.stats import collect_stats
from repro.errors import QueryError, RecordNotFoundError, TreeError
from repro.workload.queries import QueryGenerator, query_from_labels
from tests.conftest import TOY_ROWS, build_toy_schema, toy_record
from tests.hypothesis_settings import PROFILE_SETTINGS


def build_toy_tree(config=None):
    schema = build_toy_schema()
    tree = DCTree(schema, config=config)
    records = [toy_record(schema, *row) for row in TOY_ROWS]
    for record in records:
        tree.insert(record)
    return schema, tree, records


class TestEmptyTree:
    def test_len(self, toy_schema):
        assert len(DCTree(toy_schema)) == 0

    def test_height_one(self, toy_schema):
        assert DCTree(toy_schema).height() == 1

    def test_root_mds_is_all(self, toy_schema):
        tree = DCTree(toy_schema)
        assert tree.root.mds == MDS.all_mds(tree.hierarchies)

    def test_invariants_hold(self, toy_schema):
        DCTree(toy_schema).check_invariants()

    def test_query_on_empty_tree_is_zero(self, toy_schema):
        tree = DCTree(toy_schema)
        everything = MDS.all_mds(tree.hierarchies)
        assert tree.range_query(everything) == 0.0
        assert tree.range_count(everything) == 0


class TestInsert:
    def test_len_counts_inserts(self):
        _schema, tree, records = build_toy_tree()
        assert len(tree) == len(records)

    def test_all_records_reachable(self):
        _schema, tree, records = build_toy_tree()
        assert sorted(map(hash, tree.records())) == sorted(
            map(hash, records)
        )

    def test_invariants_after_each_insert(self, toy_schema):
        tree = DCTree(toy_schema)
        for row in TOY_ROWS:
            tree.insert(toy_record(toy_schema, *row))
            tree.check_invariants()

    def test_duplicate_records_allowed(self, toy_schema):
        tree = DCTree(toy_schema)
        record = toy_record(toy_schema, "DE", "Munich", "red", 1.0)
        tree.insert(record)
        tree.insert(record)
        assert len(tree) == 2
        tree.check_invariants()

    def test_root_aggregate_tracks_total(self):
        _schema, tree, records = build_toy_tree()
        expected = sum(r.measures[0] for r in records)
        assert math.isclose(
            tree.root.aggregate.aggregate("sum"), expected
        )

    def test_insert_charges_io_and_cpu(self, toy_schema):
        tree = DCTree(toy_schema)
        tree.insert(toy_record(toy_schema, "DE", "Munich", "red", 1.0))
        stats = tree.tracker.snapshot()
        assert stats.node_accesses >= 1
        assert stats.page_writes >= 1
        assert stats.cpu_units > 0


class TestSplitsAndGrowth:
    def test_leaf_split_grows_tree(self, toy_schema):
        tree = DCTree(
            toy_schema, config=DCTreeConfig(dir_capacity=4, leaf_capacity=4)
        )
        for i in range(16):
            tree.insert(
                toy_record(
                    toy_schema, "C%d" % (i % 4), "City%d" % i, "red", 1.0
                )
            )
        assert tree.height() >= 2
        tree.check_invariants()

    def test_identical_cells_force_supernode(self, toy_schema):
        """Records in one cube cell cannot be separated: supernode."""
        tree = DCTree(
            toy_schema, config=DCTreeConfig(dir_capacity=4, leaf_capacity=4)
        )
        for i in range(12):
            tree.insert(toy_record(toy_schema, "DE", "Munich", "red", float(i)))
        assert tree.height() == 1
        assert tree.root.is_supernode
        tree.check_invariants()

    def test_supernode_can_split_later(self, toy_schema):
        """A supernode splits once separable data arrives (§4.2)."""
        tree = DCTree(
            toy_schema, config=DCTreeConfig(dir_capacity=4, leaf_capacity=4)
        )
        for i in range(8):
            tree.insert(toy_record(toy_schema, "DE", "Munich", "red", float(i)))
        assert tree.root.is_supernode
        for i in range(30):
            tree.insert(
                toy_record(
                    toy_schema, "C%d" % (i % 5), "City%d" % i, "blue", 1.0
                )
            )
        assert tree.height() >= 2
        tree.check_invariants()

    def test_deep_tree_invariants(self, tpcd_schema):
        generator = TPCDGenerator(tpcd_schema, seed=7, scale_records=1500)
        tree = DCTree(
            tpcd_schema,
            config=DCTreeConfig(dir_capacity=8, leaf_capacity=8),
        )
        for record in generator.records(1500):
            tree.insert(record)
        assert tree.height() >= 3
        tree.check_invariants()

    def test_child_levels_never_exceed_parent_levels(self, tpcd_schema):
        generator = TPCDGenerator(tpcd_schema, seed=3, scale_records=800)
        tree = DCTree(
            tpcd_schema, config=DCTreeConfig(dir_capacity=8, leaf_capacity=8)
        )
        for record in generator.records(800):
            tree.insert(record)

        def walk(node):
            if node.is_leaf:
                return
            for child in node.children:
                for dim in range(node.mds.n_dimensions):
                    assert child.mds.level(dim) <= node.mds.level(dim)
                walk(child)

        walk(tree.root)

    def test_split_refines_grandchildren_of_a_coarse_child(self, toy_schema):
        """A directory split that deepens a child to the City level must
        deepen that child's own Country-level children too.  This stream
        (shrunk from a stateful-machine failure) left a City-level node
        over Country-level leaves, and ``check_invariants`` raised "child
        level 1 exceeds parent level 0"; an int step deletes the oldest
        live record."""
        steps = [
            ("DE", "A", "red"), ("DE", "A", "red"), ("DE", "A", "red"),
            ("DE", "A", "blue"), ("DE", "A", "blue"), 0, 0,
            ("FR", "A", "blue"), ("FR", "D", "green"), ("US", "A", "blue"),
            ("US", "D", "green"), 0, 0, 0,
            ("FR", "B", "green"), ("FR", "C", "red"), ("US", "A", "red"),
            ("US", "C", "red"), ("DE", "A", "green"), ("FR", "C", "blue"),
            ("DE", "A", "green"), ("DE", "B", "red"), ("DE", "D", "green"),
            ("US", "C", "blue"), ("DE", "D", "blue"), ("DE", "B", "red", 1.0),
            ("DE", "B", "blue"), ("FR", "D", "green"),
            ("FR", "D", "blue", 5.0), ("DE", "A", "red"), ("DE", "A", "red"),
            ("DE", "B", "blue"), ("DE", "B", "green"), ("DE", "B", "green"),
            ("FR", "A", "green"), ("FR", "A", "green"), ("FR", "A", "green"),
        ]
        tree = DCTree(
            toy_schema, config=DCTreeConfig(dir_capacity=4, leaf_capacity=4)
        )
        live = []
        for step in steps:
            if step == 0:
                tree.delete(live.pop(0))
            else:
                row = step if len(step) == 4 else step + (0.0,)
                record = toy_record(toy_schema, *row)
                tree.insert(record)
                live.append(record)
            tree.check_invariants()
        assert len(tree) == len(live)


class TestRangeQuery:
    def test_sum_by_country(self):
        schema, tree, _records = build_toy_tree()
        query = query_from_labels(schema, {"Geo": ("Country", ["DE"])})
        assert tree.range_query(query.mds) == 35.0

    def test_sum_by_city(self):
        schema, tree, _records = build_toy_tree()
        query = query_from_labels(schema, {"Geo": ("City", ["Munich"])})
        assert tree.range_query(query.mds) == 30.0

    def test_sum_by_color(self):
        schema, tree, _records = build_toy_tree()
        query = query_from_labels(schema, {"Color": ("Color", ["red"])})
        assert tree.range_query(query.mds) == 55.0

    def test_conjunction(self):
        schema, tree, _records = build_toy_tree()
        query = query_from_labels(
            schema,
            {"Geo": ("Country", ["DE"]), "Color": ("Color", ["red"])},
        )
        assert tree.range_query(query.mds) == 15.0

    def test_unconstrained_query_sums_everything(self):
        schema, tree, records = build_toy_tree()
        query = query_from_labels(schema, {})
        assert tree.range_query(query.mds) == sum(
            r.measures[0] for r in records
        )

    def test_count(self):
        schema, tree, _records = build_toy_tree()
        query = query_from_labels(schema, {"Geo": ("Country", ["FR"])})
        assert tree.range_count(query.mds) == 2

    def test_avg_min_max(self):
        schema, tree, _records = build_toy_tree()
        query = query_from_labels(schema, {"Geo": ("Country", ["US"])})
        assert tree.range_query(query.mds, op="avg") == 25.5
        assert tree.range_query(query.mds, op="min") == 11.0
        assert tree.range_query(query.mds, op="max") == 40.0

    def test_empty_result_aggregates(self):
        schema, tree, _records = build_toy_tree()
        query = query_from_labels(schema, {"Color": ("Color", ["green"])})
        narrow = query_from_labels(
            schema,
            {"Geo": ("City", ["Munich"]), "Color": ("Color", ["green"])},
        )
        assert tree.range_query(narrow.mds) == 0.0
        assert tree.range_query(narrow.mds, op="avg") is None
        assert tree.range_query(query.mds) == 14.0

    def test_measure_by_name(self):
        schema, tree, _records = build_toy_tree()
        query = query_from_labels(schema, {})
        assert tree.range_query(query.mds, measure="Sales") == 96.0

    def test_unknown_measure_index_rejected(self):
        schema, tree, _records = build_toy_tree()
        query = query_from_labels(schema, {})
        with pytest.raises(QueryError):
            tree.range_query(query.mds, measure=3)

    def test_dimension_mismatch_rejected(self):
        _schema, tree, _records = build_toy_tree()
        with pytest.raises(QueryError):
            tree.range_query(MDS([{1}], [0]))

    def test_empty_query_mds_rejected(self):
        _schema, tree, _records = build_toy_tree()
        with pytest.raises(QueryError):
            tree.range_query(MDS([set(), {1}], [0, 0]))

    @pytest.mark.parametrize("entry", [
        lambda tree, mds: tree.range_query(mds, op="count"),
        lambda tree, mds: tree.group_by(0, 1, range_mds=mds),
        lambda tree, mds: tree.range_records(mds),
    ], ids=["range_query", "group_by", "range_records"])
    @pytest.mark.parametrize("dim", [0, 1])
    @pytest.mark.parametrize("side", ["below", "above"])
    def test_out_of_range_query_level_rejected(self, entry, dim, side):
        # Below 0 would index a record's path from the wrong end; above
        # the top level has no meaning (the top level is ALL).
        schema, tree, _records = build_toy_tree()
        hierarchies = [d.hierarchy for d in schema.dimensions]
        sets = [{h.all_id} for h in hierarchies]
        levels = [h.top_level for h in hierarchies]
        levels[dim] = -1 if side == "below" else levels[dim] + 1
        with pytest.raises(QueryError, match="query level"):
            entry(tree, MDS(sets, levels))

    def test_range_records(self):
        schema, tree, _records = build_toy_tree()
        query = query_from_labels(schema, {"Geo": ("Country", ["DE"])})
        found = tree.range_records(query.mds)
        assert len(found) == 3
        assert all(query.matches(record) for record in found)

    def test_query_without_aggregates_same_answer(self):
        """The aggregate-using answer equals a fold of the matching records."""
        schema, tree, records = build_toy_tree()
        query = query_from_labels(schema, {"Geo": ("Country", ["DE"])})
        expected = sum(r.measures[0] for r in records if query.matches(r))
        assert tree.range_query(query.mds) == expected


class TestDelete:
    def test_delete_reduces_len_and_sum(self):
        schema, tree, records = build_toy_tree()
        tree.delete(records[0])
        assert len(tree) == len(records) - 1
        query = query_from_labels(schema, {})
        assert tree.range_query(query.mds) == 86.0
        tree.check_invariants()

    def test_delete_missing_raises(self):
        schema, tree, _records = build_toy_tree()
        query = query_from_labels(schema, {})
        answer = tree.range_query(query.mds)
        version = tree.tree_version
        hits = tree.result_cache.stats().hits
        ghost = toy_record(schema, "DE", "Munich", "red", 999.0)
        with pytest.raises(RecordNotFoundError):
            tree.delete(ghost)
        # Nothing changed, so the version stands and the cache still serves.
        assert tree.tree_version == version
        assert tree.range_query(query.mds) == answer
        assert tree.result_cache.stats().hits == hits + 1

    def test_delete_all_then_queries_empty(self):
        schema, tree, records = build_toy_tree()
        for record in records:
            tree.delete(record)
        assert len(tree) == 0
        query = query_from_labels(schema, {})
        assert tree.range_count(query.mds) == 0

    def test_delete_maintains_min_max(self):
        schema, tree, records = build_toy_tree()
        # records[5] is the maximum (40.0, US/NYC/red).
        tree.delete(records[5])
        query = query_from_labels(schema, {})
        assert tree.range_query(query.mds, op="max") == 20.0
        tree.check_invariants()

    def test_delete_shrinks_mds(self):
        schema, tree, records = build_toy_tree()
        for record in records:
            if schema.hierarchy(0).label(record.value_at_level(0, 1)) == "US":
                tree.delete(record)
        query = query_from_labels(schema, {"Geo": ("Country", ["US"])})
        assert tree.range_count(query.mds) == 0
        tree.check_invariants()

    def test_interleaved_insert_delete_invariants(self, toy_schema):
        tree = DCTree(
            toy_schema, config=DCTreeConfig(dir_capacity=4, leaf_capacity=4)
        )
        live = []
        for i in range(60):
            record = toy_record(
                toy_schema, "C%d" % (i % 3), "City%d" % (i % 9),
                "col%d" % (i % 2), float(i),
            )
            tree.insert(record)
            live.append(record)
            if i % 3 == 2:
                tree.delete(live.pop(0))
        tree.check_invariants()
        assert len(tree) == len(live)


class TestStats:
    def test_collect_stats_counts_records(self):
        _schema, tree, records = build_toy_tree()
        stats = collect_stats(tree)
        assert stats.n_records == len(records)
        assert stats.height == tree.height()

    def test_level_zero_is_root(self):
        _schema, tree, _records = build_toy_tree()
        stats = collect_stats(tree)
        assert stats.level(0).n_nodes == 1

    def test_supernode_counting(self, toy_schema):
        tree = DCTree(
            toy_schema, config=DCTreeConfig(dir_capacity=4, leaf_capacity=4)
        )
        for i in range(12):
            tree.insert(toy_record(toy_schema, "DE", "Munich", "red", float(i)))
        stats = collect_stats(tree)
        assert stats.n_supernodes == 1
        assert stats.level(0).avg_blocks > 1


class TestFootprint:
    def test_byte_size_grows_with_inserts(self, toy_schema):
        tree = DCTree(toy_schema)
        before = tree.byte_size()
        tree.insert(toy_record(toy_schema, "DE", "Munich", "red", 1.0))
        assert tree.byte_size() > before

    def test_page_count_positive(self):
        _schema, tree, _records = build_toy_tree()
        assert tree.page_count() >= 1


class TestInvariantChecker:
    def test_detects_corrupted_aggregate(self):
        _schema, tree, _records = build_toy_tree()
        tree.root.aggregate.summaries[0].sum += 1.0
        with pytest.raises(TreeError):
            tree.check_invariants()

    def test_detects_corrupted_mds(self):
        _schema, tree, _records = build_toy_tree()
        tree.root.mds.value_set(0).add(12345)
        with pytest.raises(TreeError):
            tree.check_invariants()

    def test_detects_wrong_record_count(self):
        _schema, tree, _records = build_toy_tree()
        tree._n_records += 1
        with pytest.raises(TreeError):
            tree.check_invariants()


# ----------------------------------------------------------------------
# property-based: the DC-tree agrees with a naive evaluation
# ----------------------------------------------------------------------

row_strategy = st.tuples(
    st.sampled_from(["DE", "FR", "US"]),
    st.sampled_from(
        ["Munich", "Berlin", "Paris", "Lyon", "NYC", "Boston", "LA"]
    ),
    st.sampled_from(["red", "blue", "green"]),
    st.floats(min_value=-100, max_value=100, allow_nan=False),
)


@PROFILE_SETTINGS
@given(
    rows=st.lists(row_strategy, min_size=1, max_size=60),
    seed=st.integers(min_value=0, max_value=5),
)
def test_tree_queries_agree_with_naive_filter(rows, seed):
    schema = build_toy_schema()
    tree = DCTree(
        schema, config=DCTreeConfig(dir_capacity=4, leaf_capacity=4)
    )
    records = []
    for row in rows:
        record = toy_record(schema, *row)
        tree.insert(record)
        records.append(record)
    tree.check_invariants()
    generator = QueryGenerator(schema, 0.5, seed=seed)
    for query in generator.queries(5):
        expected = sum(
            r.measures[0] for r in records if query.matches(r)
        )
        assert math.isclose(
            tree.range_query(query.mds), expected, abs_tol=1e-6
        )
        expected_count = sum(1 for r in records if query.matches(r))
        assert tree.range_count(query.mds) == expected_count


@PROFILE_SETTINGS
@given(
    rows=st.lists(row_strategy, min_size=4, max_size=40),
    delete_every=st.integers(min_value=2, max_value=4),
)
def test_tree_survives_random_delete_mix(rows, delete_every):
    schema = build_toy_schema()
    tree = DCTree(
        schema, config=DCTreeConfig(dir_capacity=4, leaf_capacity=4)
    )
    live = []
    for i, row in enumerate(rows):
        record = toy_record(schema, *row)
        tree.insert(record)
        live.append(record)
        if i % delete_every == 0 and len(live) > 1:
            tree.delete(live.pop(0))
    tree.check_invariants()
    query = query_from_labels(schema, {})
    assert tree.range_count(query.mds) == len(live)
    assert math.isclose(
        tree.range_query(query.mds),
        sum(r.measures[0] for r in live),
        abs_tol=1e-6,
    )


class TestSupernodeLifecycle:
    def test_grown_supernode_splits_when_separable(self, toy_schema):
        """A supernode re-attempts its split at every further overflow
        and succeeds once separable entries arrived (§4.2)."""
        from repro import DCTreeConfig

        tree = DCTree(
            toy_schema, config=DCTreeConfig(dir_capacity=4, leaf_capacity=4)
        )
        # 9 identical cells -> a 2-block supernode leaf.
        for i in range(9):
            tree.insert(toy_record(toy_schema, "DE", "Munich", "red",
                                   float(i)))
        assert tree.root.is_supernode
        blocks_before = tree.root.n_blocks
        # Distinguishable records arrive; the next overflow splits.
        for i in range(12):
            tree.insert(toy_record(toy_schema, "C%d" % (i % 3),
                                   "City%d" % i, "blue", 1.0))
        tree.check_invariants()
        assert tree.height() >= 2 or tree.root.n_blocks > blocks_before

    def test_supernode_shrinks_on_deletes(self, toy_schema):
        from repro import DCTreeConfig

        tree = DCTree(
            toy_schema, config=DCTreeConfig(dir_capacity=4, leaf_capacity=4)
        )
        records = [
            toy_record(toy_schema, "DE", "Munich", "red", float(i))
            for i in range(12)
        ]
        for record in records:
            tree.insert(record)
        assert tree.root.n_blocks >= 3
        for record in records[:8]:
            tree.delete(record)
        tree.check_invariants()
        # The root is reached via the parentless path, so only interior
        # supernodes shrink through _handle_underflow; build an interior
        # one to check the mechanism end to end instead.
        inner_tree = DCTree(
            toy_schema, config=DCTreeConfig(dir_capacity=4, leaf_capacity=4)
        )
        inner_records = []
        for i in range(40):
            record = toy_record(
                inner_tree.schema, "C%d" % (i % 4), "City%d" % (i % 2),
                "red", float(i),
            )
            # identical city labels under different countries force some
            # dense cells below directory nodes
            inner_tree.insert(record)
            inner_records.append(record)
        for record in inner_records[:30]:
            inner_tree.delete(record)
        inner_tree.check_invariants()
        assert len(inner_tree) == 10


class TestHarnessBufferEqualization:
    def test_query_phase_uses_equal_buffers(self):
        from repro.bench.harness import run_combined_sweep

        sweep = run_combined_sweep(
            sizes=(300,), selectivities=(0.25,), n_queries=3, seed=0
        )
        point = sweep.checkpoints[0]
        # Every backend was measured (buffers were swapped in); the scan
        # must miss at least its own page count per query.
        scan = point.queries[("scan", 0.25)]
        assert scan.buffer_misses > 0
        dc = point.queries[("dc-tree", 0.25)]
        assert dc.node_accesses > 0
