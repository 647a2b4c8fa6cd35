"""Cross-backend equivalence under a matrix of configurations.

The invariant "all backends return identical answers" must hold for any
capacities and split thresholds — not just the defaults the other suites
use.  The split thresholds are constants of :mod:`repro.config`; the
threshold regimes patch them in every module that reads them, on tiny
nodes, where they change the tree that 700 records build.
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
from repro import config as config_mod
from repro.core import split as dc_split
from repro.core.debug import structure_digest
from repro.workload.queries import QueryGenerator
from repro.xtree import tree as xtree_mod

#: Every module binding a split threshold, per constant.
THRESHOLD_READERS = {
    "MIN_FANOUT_FRACTION": (config_mod,),
    "MAX_OVERLAP_FRACTION": (dc_split, xtree_mod),
}


@pytest.fixture
def thresholds(monkeypatch):
    """Set split thresholds for one test: ``thresholds(NAME=value, ...)``."""

    def apply(**values):
        for name, value in values.items():
            for module in THRESHOLD_READERS[name]:
                monkeypatch.setattr(module, name, value)

    return apply


DC_CONFIGS = [
    pytest.param(DCTreeConfig(), {}, id="dc-defaults"),
    pytest.param(
        DCTreeConfig(dir_capacity=4, leaf_capacity=4), {}, id="dc-tiny-nodes"
    ),
    pytest.param(
        DCTreeConfig(dir_capacity=64, leaf_capacity=256), {},
        id="dc-fat-nodes",
    ),
    pytest.param(
        DCTreeConfig(dir_capacity=4, leaf_capacity=4),
        {"MAX_OVERLAP_FRACTION": 0.0},
        id="dc-zero-overlap",
    ),
    pytest.param(
        DCTreeConfig(dir_capacity=4, leaf_capacity=4),
        {"MAX_OVERLAP_FRACTION": 1.0, "MIN_FANOUT_FRACTION": 0.1},
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


@pytest.mark.parametrize("config, regime", DC_CONFIGS)
def test_dc_tree_correct_under_config(dataset, thresholds, config, regime):
    schema, records, oracle, queries = dataset
    thresholds(**regime)
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


@pytest.mark.parametrize("config, regime", DC_CONFIGS[:3])
def test_dc_tree_delete_mix_under_config(dataset, thresholds, config, regime):
    schema, records, _oracle, queries = dataset
    thresholds(**regime)
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
    pytest.param(XTreeConfig(), {}, id="x-defaults"),
    pytest.param(
        XTreeConfig(dir_capacity=4, leaf_capacity=4), {}, id="x-tiny-nodes"
    ),
    pytest.param(
        XTreeConfig(dir_capacity=4, leaf_capacity=4),
        {"MAX_OVERLAP_FRACTION": 0.0},
        id="x-always-minimal-split",
    ),
    pytest.param(
        XTreeConfig(dir_capacity=4, leaf_capacity=4),
        {"MAX_OVERLAP_FRACTION": 10.0},
        id="x-never-minimal-split",
    ),
]


@pytest.mark.parametrize("config, regime", X_CONFIGS)
def test_x_tree_correct_under_config(dataset, thresholds, config, regime):
    schema, records, oracle, queries = dataset
    thresholds(**regime)
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


def _structure(schema, records, config):
    tree_class = DCTree if isinstance(config, DCTreeConfig) else XTree
    tree = tree_class(schema, config=config)
    for record in records:
        tree.insert(record)
    return structure_digest(tree)


@pytest.mark.parametrize(
    "config, regime",
    [param for param in DC_CONFIGS + X_CONFIGS if param.values[1]],
)
def test_threshold_regime_changes_the_tree(dataset, thresholds, config,
                                           regime):
    """Each threshold regime builds another tree than its capacities do
    at the default thresholds, so its rows above test the thresholds."""
    schema, records, _oracle, _queries = dataset
    default = _structure(schema, records, config)
    thresholds(**regime)
    assert _structure(schema, records, config) != default
