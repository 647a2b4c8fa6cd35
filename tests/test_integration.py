"""Cross-backend integration tests: the three backends are one oracle.

Every query must return the identical answer on the DC-tree, the X-tree
and the sequential scan — the paper's comparison is only meaningful under
that equivalence, and it is the strongest end-to-end correctness check
available (the scan is trivially correct; the trees must agree with it).
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import (
    DCTree,
    DCTreeConfig,
    FlatTable,
    TPCDGenerator,
    Warehouse,
    XTree,
    XTreeConfig,
    make_tpcd_schema,
)
from repro.workload.queries import QueryGenerator
from tests.conftest import build_toy_schema, toy_record
from tests.hypothesis_settings import TREE_SETTINGS


def build_all_backends(schema, records, dc_config=None, x_config=None):
    dc = DCTree(schema, config=dc_config)
    xt = XTree(schema, config=x_config)
    scan = FlatTable(schema)
    for record in records:
        dc.insert(record)
        xt.insert(record)
        scan.insert(record)
    return {"dc-tree": dc, "x-tree": xt, "scan": scan}


def execute(index, query, op="sum"):
    return Warehouse.wrap(index).execute(query, op=op)


@pytest.fixture(scope="module")
def tpcd_backends():
    schema = make_tpcd_schema()
    generator = TPCDGenerator(schema, seed=99, scale_records=1000)
    records = generator.generate(1000)
    return schema, records, build_all_backends(schema, records)


class TestTPCDAgreement:
    @pytest.mark.parametrize("selectivity", [0.01, 0.05, 0.25, 0.6])
    def test_sum_agreement(self, tpcd_backends, selectivity):
        schema, _records, backends = tpcd_backends
        for query in QueryGenerator(
            schema, selectivity, seed=int(selectivity * 100)
        ).queries(10):
            results = [
                execute(index, query)
                for index in backends.values()
            ]
            assert math.isclose(results[0], results[1], abs_tol=1e-4)
            assert math.isclose(results[1], results[2], abs_tol=1e-4)

    @pytest.mark.parametrize("op", ["count", "min", "max", "avg"])
    def test_other_aggregates_agree(self, tpcd_backends, op):
        schema, _records, backends = tpcd_backends
        for query in QueryGenerator(schema, 0.25, seed=77).queries(5):
            results = [
                execute(index, query, op=op)
                for index in backends.values()
            ]
            if results[0] is None:
                assert results[1] is None and results[2] is None
            else:
                assert math.isclose(results[0], results[1], abs_tol=1e-6)
                assert math.isclose(results[1], results[2], abs_tol=1e-6)

    def test_trees_match_naive_ground_truth(self, tpcd_backends):
        schema, records, backends = tpcd_backends
        for query in QueryGenerator(schema, 0.1, seed=13).queries(10):
            expected = sum(
                r.measures[0] for r in records if query.matches(r)
            )
            for name, index in backends.items():
                assert math.isclose(
                    execute(index, query), expected, abs_tol=1e-4
                ), name

    def test_structural_invariants(self, tpcd_backends):
        _schema, _records, backends = tpcd_backends
        backends["dc-tree"].check_invariants()
        backends["x-tree"].check_invariants()

    def test_dc_tree_reads_fewer_pages_than_scan(self, tpcd_backends):
        """The headline claim at moderate selectivity."""
        schema, _records, backends = tpcd_backends
        queries = list(QueryGenerator(schema, 0.05, seed=5).queries(10))
        costs = {}
        for name in ("dc-tree", "scan"):
            index = backends[name]
            index.tracker.reset(clear_buffer=True)
            for query in queries:
                execute(index, query)
            costs[name] = index.tracker.snapshot().node_accesses
        assert costs["dc-tree"] < costs["scan"]


class TestDynamicUpdates:
    def test_backends_agree_under_interleaved_updates(self):
        schema = make_tpcd_schema()
        generator = TPCDGenerator(schema, seed=5, scale_records=400)
        backends = build_all_backends(schema, [])
        live = []
        query_gen = QueryGenerator(schema, 0.3, seed=1)
        for i, record in enumerate(generator.records(400)):
            for index in backends.values():
                index.insert(record)
            live.append(record)
            if i % 7 == 3:
                victim = live.pop(i % len(live))
                for index in backends.values():
                    index.delete(victim)
            if i % 50 == 49:
                query = query_gen.query()
                results = [
                    execute(index, query)
                    for index in backends.values()
                ]
                assert math.isclose(results[0], results[1], abs_tol=1e-4)
                assert math.isclose(results[1], results[2], abs_tol=1e-4)
        backends["dc-tree"].check_invariants()
        backends["x-tree"].check_invariants()
        assert len(backends["dc-tree"]) == len(live)


row_strategy = st.tuples(
    st.sampled_from(["DE", "FR", "US", "JP"]),
    st.sampled_from(["A", "B", "C", "D", "E"]),
    st.sampled_from(["red", "blue"]),
    st.floats(min_value=0, max_value=100, allow_nan=False),
)


@TREE_SETTINGS
@given(
    rows=st.lists(row_strategy, min_size=1, max_size=80),
    seed=st.integers(min_value=0, max_value=9),
)
def test_property_three_backends_one_answer(rows, seed):
    schema = build_toy_schema()
    records = [toy_record(schema, *row) for row in rows]
    backends = build_all_backends(
        schema,
        records,
        dc_config=DCTreeConfig(dir_capacity=4, leaf_capacity=4),
        x_config=XTreeConfig(dir_capacity=4, leaf_capacity=4),
    )
    for query in QueryGenerator(schema, 0.5, seed=seed).queries(4):
        results = [
            execute(index, query)
            for index in backends.values()
        ]
        assert math.isclose(results[0], results[1], abs_tol=1e-6)
        assert math.isclose(results[1], results[2], abs_tol=1e-6)
