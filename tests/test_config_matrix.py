"""Cross-backend equivalence under a matrix of configurations.

The invariant "all backends return identical answers" must hold for any
capacities and split thresholds — not just the defaults the other suites
use.
"""

import math

import pytest

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

DC_CONFIGS = [
    pytest.param(DCTreeConfig(), id="dc-defaults"),
    pytest.param(
        DCTreeConfig(dir_capacity=4, leaf_capacity=4), id="dc-tiny-nodes"
    ),
    pytest.param(
        DCTreeConfig(dir_capacity=64, leaf_capacity=256), id="dc-fat-nodes"
    ),
    pytest.param(
        DCTreeConfig(max_overlap_fraction=0.0), id="dc-zero-overlap"
    ),
    pytest.param(
        DCTreeConfig(max_overlap_fraction=1.0, min_fanout_fraction=0.1),
        id="dc-loose-splits",
    ),
]


@pytest.fixture(scope="module")
def dataset():
    schema = make_tpcd_schema()
    generator = TPCDGenerator(schema, seed=55, scale_records=700)
    records = generator.generate(700)
    oracle = FlatTable(schema)
    for record in records:
        oracle.insert(record)
    queries = list(QueryGenerator(schema, 0.2, seed=6).queries(12))
    return schema, records, oracle, queries


@pytest.mark.parametrize("config", DC_CONFIGS)
def test_dc_tree_correct_under_config(dataset, config):
    schema, records, oracle, queries = dataset
    tree = DCTree(schema, config=config)
    for record in records:
        tree.insert(record)
    tree.check_invariants()
    for query in queries:
        assert math.isclose(
            tree.range_query(query.mds),
            oracle.range_query(query.mds),
            abs_tol=1e-4,
        )
        assert tree.range_query(query.mds, op="max") == oracle.range_query(
            query.mds, op="max"
        )


@pytest.mark.parametrize("config", DC_CONFIGS[:3])
def test_dc_tree_delete_mix_under_config(dataset, config):
    schema, records, _oracle, queries = dataset
    tree = DCTree(schema, config=config)
    live = []
    for i, record in enumerate(records[:300]):
        tree.insert(record)
        live.append(record)
        if i % 5 == 4:
            tree.delete(live.pop(0))
    tree.check_invariants()
    for query in queries[:5]:
        expected = sum(r.measures[0] for r in live if query.matches(r))
        assert math.isclose(tree.range_query(query.mds), expected,
                            abs_tol=1e-6)


X_CONFIGS = [
    pytest.param(XTreeConfig(), id="x-defaults"),
    pytest.param(
        XTreeConfig(dir_capacity=4, leaf_capacity=4), id="x-tiny-nodes"
    ),
    pytest.param(
        XTreeConfig(max_overlap_fraction=0.0), id="x-always-minimal-split"
    ),
    pytest.param(
        XTreeConfig(max_overlap_fraction=10.0), id="x-never-minimal-split"
    ),
]


@pytest.mark.parametrize("config", X_CONFIGS)
def test_x_tree_correct_under_config(dataset, config):
    schema, records, oracle, queries = dataset
    tree = XTree(schema, config=config)
    for record in records:
        tree.insert(record)
    tree.check_invariants()
    for query in queries:
        assert math.isclose(
            Warehouse.wrap(tree).execute(query),
            oracle.range_query(query.mds),
            abs_tol=1e-4,
        )
