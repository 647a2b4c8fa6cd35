"""Stateful (model-based) fuzzing of the DC-tree.

A hypothesis rule machine drives a DC-tree through arbitrary interleaved
operations — inserts, batched inserts, deletes, mixed insert/delete
bursts, range queries, group-bys, summaries — against a trivial
in-memory model (a list of records).  After every step the tree must
agree with the model; the result cache rides along (enabled in the
machine's config), so every model comparison doubles as a cache-
freshness check — a batch that failed to bump ``tree_version`` would
serve a stale memoized answer and diverge from the model immediately.
At the end, the deep invariant audit must pass.  This is the test that
catches cross-operation interactions no scenario test thinks of.
"""

import math

from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import DCTree, DCTreeConfig
from repro.workload.queries import QueryGenerator
from tests.conftest import build_toy_schema, toy_record
from tests.hypothesis_settings import STATE_MACHINE_SETTINGS

COUNTRIES = ("DE", "FR", "US")
CITIES = ("A", "B", "C", "D")
COLORS = ("red", "blue", "green")

row_strategy = st.tuples(
    st.sampled_from(COUNTRIES),
    st.sampled_from(CITIES),
    st.sampled_from(COLORS),
    st.floats(min_value=-100, max_value=100, allow_nan=False),
)


class DCTreeMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.schema = build_toy_schema()
        self.tree = DCTree(
            self.schema,
            config=DCTreeConfig(dir_capacity=4, leaf_capacity=4),
        )
        self.model = []
        self.query_seed = 0

    # -- operations ---------------------------------------------------------

    @rule(row=row_strategy)
    def insert(self, row):
        record = toy_record(self.schema, *row)
        self.tree.insert(record)
        self.model.append(record)

    @rule(rows=st.lists(row_strategy, min_size=1, max_size=12))
    def batch_insert(self, rows):
        """One amortized batch; must bump the version exactly once."""
        records = [toy_record(self.schema, *row) for row in rows]
        version = self.tree.tree_version
        assert self.tree.insert_batch(records) == len(records)
        assert self.tree.tree_version == version + 1
        self.model.extend(records)

    @rule(
        rows=st.lists(row_strategy, min_size=1, max_size=8),
        delete_positions=st.lists(
            st.integers(min_value=0, max_value=10**6), max_size=3
        ),
    )
    def mixed_burst(self, rows, delete_positions):
        """A mixed burst: a batch of inserts, a few deletes, then a second
        batch of inserts."""
        run = [toy_record(self.schema, *row) for row in rows]
        half = len(run) // 2
        if half:
            self.tree.insert_batch(run[:half])
            self.model.extend(run[:half])
        for position in delete_positions:
            if not self.model:
                break
            record = self.model.pop(position % len(self.model))
            self.tree.delete(record)
        if run[half:]:
            self.tree.insert_batch(run[half:])
            self.model.extend(run[half:])

    @precondition(lambda self: self.model)
    @rule(index=st.integers(min_value=0, max_value=10**6))
    def delete_existing(self, index):
        record = self.model.pop(index % len(self.model))
        self.tree.delete(record)

    @rule(row=row_strategy)
    def delete_missing_raises(self, row):
        from repro.errors import RecordNotFoundError

        ghost = toy_record(self.schema, row[0], row[1], row[2], 12345.678)
        if ghost in self.model:
            return
        try:
            self.tree.delete(ghost)
        except RecordNotFoundError:
            pass
        else:
            raise AssertionError("deleting a missing record must raise")

    @rule()
    def random_range_query(self):
        self.query_seed += 1
        query = QueryGenerator(
            self.schema, 0.5, seed=self.query_seed
        ).query()
        expected_sum = sum(
            r.measures[0] for r in self.model if query.matches(r)
        )
        expected_count = sum(1 for r in self.model if query.matches(r))
        assert math.isclose(
            self.tree.range_query(query.mds), expected_sum, abs_tol=1e-6
        )
        assert self.tree.range_count(query.mds) == expected_count
        matching = [r.measures[0] for r in self.model if query.matches(r)]
        expected_max = max(matching) if matching else None
        assert self.tree.range_query(query.mds, op="max") == expected_max

    @rule(dim=st.integers(min_value=0, max_value=1))
    def group_by_matches_model(self, dim):
        level = 0
        groups = self.tree.group_by(dim, level, op="count")
        expected = {}
        for record in self.model:
            value = record.value_at_level(dim, level)
            expected[value] = expected.get(value, 0) + 1
        assert groups == expected

    @rule()
    def summary_matches_model(self):
        from repro.core.mds import MDS

        everything = MDS.all_mds(self.tree.hierarchies)
        summary = self.tree.range_summary(everything)
        assert summary.aggregate("count") == len(self.model)
        assert math.isclose(
            summary.aggregate("sum"),
            sum(r.measures[0] for r in self.model),
            abs_tol=1e-6,
        )

    # -- continuous checks --------------------------------------------------

    @invariant()
    def length_matches(self):
        if hasattr(self, "tree"):
            assert len(self.tree) == len(self.model)

    @invariant()
    def structure_is_sound(self):
        if hasattr(self, "tree"):
            self.tree.check_invariants()


TestDCTreeStateful = DCTreeMachine.TestCase
TestDCTreeStateful.settings = STATE_MACHINE_SETTINGS
