"""Differential tests: the leaf record filter against Definition 3.

:func:`repro.core.mds.record_filter` resolves a range MDS once into
per-dimension path tests and filters a leaf's records column-wise, one
dimension at a time.  It must keep exactly the records
:func:`~repro.core.mds.covers_record` accepts, in their given order (the
aggregators' floating-point sums fold in that order).

The pinned battery closes the loop end to end: its answer digest and
tracker counters must not move.  It was first pinned with the
per-record ``covers_record`` loops at the data nodes, and re-pinned on
the filter code, unchanged, when it lost its directory-estimator calls.
"""

from __future__ import annotations

import functools
import hashlib

from hypothesis import given
from hypothesis import strategies as st

from repro import TPCDGenerator, make_tpcd_schema
from repro.config import DCTreeConfig
from repro.core import mds as mds_mod
from repro.core.mds import MDS
from repro.core.tree import DCTree
from repro.workload.queries import QueryGenerator
from tests.conftest import TOY_ROWS, build_toy_schema, toy_record
from tests.hypothesis_settings import FILTER_SETTINGS


@functools.lru_cache(maxsize=None)
def populated(kind):
    """``(hierarchies, records)`` of a populated toy or TPC-D cube."""
    if kind == "toy":
        schema = build_toy_schema()
        records = [toy_record(schema, *row) for row in TOY_ROWS]
    else:
        schema = make_tpcd_schema()
        records = TPCDGenerator(schema, seed=3, scale_records=300).generate(
            300
        )
    return tuple(d.hierarchy for d in schema.dimensions), tuple(records)


@st.composite
def query_mds(draw, hierarchies):
    """A range MDS at random levels, including the top (ALL) level.

    A top-level set may hold ALL, lower-level IDs, or both: the filter
    must treat a top-level dimension without ALL as matching nothing.
    """
    sets, levels = [], []
    for hierarchy in hierarchies:
        level = draw(st.integers(0, hierarchy.top_level))
        if level == hierarchy.top_level:
            pool = (hierarchy.all_id,) + hierarchy.values_at_level(0)[:3]
        else:
            pool = hierarchy.values_at_level(level)
        sets.append(draw(st.sets(st.sampled_from(pool), min_size=1)))
        levels.append(level)
    return MDS(sets, levels)


@st.composite
def filter_case(draw):
    hierarchies, pool = populated(draw(st.sampled_from(["toy", "tpcd"])))
    mds = draw(query_mds(hierarchies))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=80))
    return hierarchies, mds, [pool[i] for i in picks]


class TestAgainstCoversRecord:
    @FILTER_SETTINGS
    @given(case=filter_case())
    def test_same_records_same_order(self, case):
        hierarchies, mds, records = case
        before = list(records)
        got = mds_mod.record_filter(mds, hierarchies)(records)
        expected = [
            r for r in records if mds_mod.covers_record(mds, r, hierarchies)
        ]
        assert [id(r) for r in got] == [id(r) for r in expected]
        assert records == before

    def test_all_query_keeps_everything(self):
        hierarchies, records = populated("tpcd")
        keep = mds_mod.record_filter(MDS.all_mds(hierarchies), hierarchies)
        assert keep(list(records)) == list(records)

    def test_top_level_without_all_keeps_nothing(self):
        hierarchies, records = populated("toy")
        geo, color = hierarchies
        mds = MDS(
            [{geo.all_id}, set(color.values_at_level(0))],
            [geo.top_level, color.top_level],
        )
        assert mds_mod.record_filter(mds, hierarchies)(list(records)) == []


# ----------------------------------------------------------------------
# pinned battery
# ----------------------------------------------------------------------

#: Answer digest and battery counters (node accesses, buffer hits, buffer
#: misses, page writes, CPU units).
PINNED_DIGEST = (
    "8de3af9d6c6aa033c6422d9fa12a6ce2dfa0478f54839bc52c2196f7fcc60d89"
)
PINNED_COUNTERS = (16724, 1232, 22146, 0, 1076586)


def _record_key(record):
    return (record.flat_point(), tuple(record.measures))


def run_battery():
    """Answer digest and counter delta of a fixed query battery.

    A 2,048-record TPC-D tree of height 4 (leaf/directory capacity
    16/4); 50 % and 25 % queries over all four dimensions, 5 % queries
    over one and 25 % queries over two (the others stay ALL).  Every
    query matches 3 to 298 records.
    """
    schema = make_tpcd_schema()
    records = TPCDGenerator(schema, seed=1, scale_records=2048).generate(2048)
    tree = DCTree(schema, DCTreeConfig(leaf_capacity=16, dir_capacity=4))
    tree.insert_batch(records)
    queries = []
    for selectivity, constrain_dims, seed in (
        (0.5, None, 1), (0.25, None, 2), (0.05, 1, 4), (0.25, 2, 3),
    ):
        generator = QueryGenerator(
            schema, selectivity, seed=seed, constrain_dims=constrain_dims
        )
        queries.extend(q.mds for q in generator.queries(6))
    before = tree.tracker.snapshot()
    answers = []
    for mds in queries:
        for op in ("sum", "count", "avg", "min", "max"):
            answers.append(tree.range_query(mds, op=op))
        summary = tree.range_summary(mds)
        answers.append((summary.sum, summary.count, summary.min, summary.max))
        answers.append(sorted(tree.group_by(2, 1, range_mds=mds).items()))
        answers.append([_record_key(r) for r in tree.range_records(mds)])
    for dim, level in ((0, 0), (1, 2), (3, 1)):
        answers.append(sorted(tree.group_by(dim, level, op="avg").items()))
    after = tree.tracker.snapshot()
    digest = hashlib.sha256(repr(answers).encode()).hexdigest()
    counters = (
        after.node_accesses - before.node_accesses,
        after.buffer_hits - before.buffer_hits,
        after.buffer_misses - before.buffer_misses,
        after.page_writes - before.page_writes,
        after.cpu_units - before.cpu_units,
    )
    return digest, counters


def test_pinned_battery():
    assert run_battery() == (PINNED_DIGEST, PINNED_COUNTERS)
