"""Pinned write paths: deletes, bulk loads and the X-tree.

``repro.bench regression`` gates DC-tree inserts and queries exactly,
and ``test_split_equivalence`` pins serial DC-tree builds.  This module
pins the write paths neither covers: the DC-tree's deletes (condense
reinserts included) and bulk load, and the X-tree's inserts and
deletes, each at the default capacities and at tiny ones.  Every entry
holds the five tracker counters (node accesses, buffer hits, buffer
misses, page writes, CPU units) and the structure digest; X-tree entries
add ``byte_size()``, ``page_count()`` and ``height()``.  A refactor of
node building or capacity bookkeeping must leave all of them unmoved.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    DCTree,
    DCTreeConfig,
    TPCDGenerator,
    XTree,
    XTreeConfig,
    bulk_load,
    make_tpcd_schema,
)
from repro.core.debug import structure_digest

N_RECORDS = 2048
N_DELETES = 256

#: (leaf capacity, dir capacity) -> stage -> (digest, counters).
DC_PINNED = {
    (64, 16): {
        "insert": (
            "55686b9927c71f9194eae620cced65436e414a53f21a3526a81216bdbfaf9e14",
            (5466, 5635, 96, 5478, 1215267),
        ),
        "delete": (
            "ad3e4d5dda0253381791c384dd7cdf06fa9dae000448892a7fd84b5b0747b242",
            (6362, 6644, 96, 6309, 1292764),
        ),
        "bulk_load": (
            "d09c2fc22e1e0c4d29e3c6927b7840a7fdbc8d82f960e47bf26b79f34603ee31",
            (68, 0, 68, 68, 34960),
        ),
    },
    (8, 4): {
        "insert": (
            "3798e21cd2ac3370cda6ad7953014a45c82814948bb5c70011e3175e43fbd562",
            (9205, 20037, 5694, 9134, 684622),
        ),
        "delete": (
            "25f967dcc1ee077ea421c677f19b2afa63f99ba6ef6460abf35f666376bb8291",
            (10278, 23434, 7688, 10170, 806908),
        ),
        "bulk_load": (
            "0f891308469ab74ed67d51d64d9adacf66c3a2d3131b85392e5e93e5383b346e",
            (501, 0, 501, 501, 40229),
        ),
    },
}

#: (leaf capacity, dir capacity) -> stage -> (digest, counters,
#: (byte size, page count, height)).
X_PINNED = {
    (64, 32): {
        "insert": (
            "816d0f56eddb53608fd2a9854c16b96565e8d0a4398591fab2628ee339d4eb04",
            (4178, 4774, 101, 3484, 891956),
            (129396, 52, 2),
        ),
        "delete": (
            "113a899e9016b73ef0fbeed64fcfccbafeac481791b38fbc449d16d69644d19b",
            (4705, 5557, 101, 3996, 891956),
            (114036, 52, 2),
        ),
    },
    (8, 4): {
        "insert": (
            "f830c0f71b962af29e13802295775f9bbedd8c766ff9942dfd749f685b7cfef6",
            (7098, 21117, 3217, 5598, 1254201),
            (166056, 338, 3),
        ),
        "delete": (
            "863297e7e88b3fb2e009bbf876f63327b33c5e6ff276eb54750d2750eebdd4a2",
            (7990, 24886, 5064, 6366, 1254201),
            (150696, 338, 3),
        ),
    },
}


@pytest.fixture(scope="module")
def workload():
    """2,048 TPC-D records and a seeded sample of 256 of them to delete.

    At both DC-tree capacities the sample condenses underfull nodes
    (their records are reinserted) and shrinks supernodes.
    """
    schema = make_tpcd_schema()
    records = TPCDGenerator(schema, seed=0, scale_records=N_RECORDS).generate(
        N_RECORDS
    )
    doomed = random.Random(0).sample(records, N_DELETES)
    return schema, records, doomed


def _counters(tree):
    stats = tree.tracker.snapshot()
    return (stats.node_accesses, stats.buffer_hits, stats.buffer_misses,
            stats.page_writes, stats.cpu_units)


def _stage(tree, footprint=False):
    tree.check_invariants()
    observed = (structure_digest(tree), _counters(tree))
    if footprint:
        observed += ((tree.byte_size(), tree.page_count(), tree.height()),)
    return observed


def dc_stages(workload, leaf_capacity, dir_capacity):
    """Observed DC-tree stages: serial inserts, deletes, bulk load."""
    schema, records, doomed = workload
    config = DCTreeConfig(leaf_capacity=leaf_capacity,
                          dir_capacity=dir_capacity)
    tree = DCTree(schema, config)
    for record in records:
        tree.insert(record)
    stages = {"insert": _stage(tree)}
    for record in doomed:
        tree.delete(record)
    stages["delete"] = _stage(tree)
    stages["bulk_load"] = _stage(bulk_load(schema, records, config))
    return stages


def x_stages(workload, leaf_capacity, dir_capacity):
    """Observed X-tree stages: serial inserts, then deletes."""
    schema, records, doomed = workload
    tree = XTree(schema, XTreeConfig(leaf_capacity=leaf_capacity,
                                     dir_capacity=dir_capacity))
    for record in records:
        tree.insert(record)
    stages = {"insert": _stage(tree, footprint=True)}
    for record in doomed:
        tree.delete(record)
    stages["delete"] = _stage(tree, footprint=True)
    return stages


@pytest.mark.parametrize("capacities", sorted(DC_PINNED))
def test_dctree_write_paths(workload, capacities):
    assert dc_stages(workload, *capacities) == DC_PINNED[capacities]


@pytest.mark.parametrize("capacities", sorted(X_PINNED))
def test_xtree_write_paths(workload, capacities):
    assert x_stages(workload, *capacities) == X_PINNED[capacities]
