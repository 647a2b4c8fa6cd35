"""Ablation `abl-capacity`: the DC-tree's node-capacity (page-size) sweep."""

from __future__ import annotations

import time

from ..config import CostModel, DCTreeConfig
from ..core.tree import DCTree
from ..tpcd.generator import TPCDGenerator
from ..tpcd.schema import make_tpcd_schema
from ..workload.queries import QueryGenerator
from .reporting import format_table


def _build_dataset(n_records, seed):
    schema = make_tpcd_schema()
    generator = TPCDGenerator(schema, seed=seed, scale_records=n_records)
    return schema, generator.generate(n_records)


def _build_tree(schema, records, config):
    tree = DCTree(schema, config=config)
    start = time.perf_counter()
    for record in records:
        tree.insert(record)
    return tree, time.perf_counter() - start


def _query_cost(tree, queries, model):
    tree.tracker.reset(clear_buffer=True)
    start = time.perf_counter()
    for query in queries:
        tree.range_query(query.mds)
    wall = time.perf_counter() - start
    stats = tree.tracker.snapshot()
    n = len(queries)
    return wall / n, stats.simulated_seconds(model) / n, stats.node_accesses / n


def ablation_capacity(n_records=10000, n_queries=50, selectivity=0.05,
                      seed=0, capacities=((8, 16), (16, 32), (32, 64))):
    """Directory/leaf capacity sweep; returns table rows."""
    schema, records = _build_dataset(n_records, seed)
    queries = list(
        QueryGenerator(schema, selectivity, seed=seed + 1).queries(n_queries)
    )
    model = CostModel()
    rows = []
    for dir_capacity, leaf_capacity in capacities:
        config = DCTreeConfig(
            dir_capacity=dir_capacity, leaf_capacity=leaf_capacity
        )
        tree, build_seconds = _build_tree(schema, records, config)
        wall, simulated, nodes = _query_cost(tree, queries, model)
        rows.append(
            (
                "%d/%d" % (dir_capacity, leaf_capacity),
                build_seconds,
                wall,
                simulated,
                nodes,
                tree.height(),
            )
        )
    return rows


def report_ablation_capacity(**kwargs):
    return format_table(
        (
            "dir/leaf capacity",
            "build [s]",
            "query wall [s]",
            "query sim [s]",
            "nodes/query",
            "height",
        ),
        ablation_capacity(**kwargs),
        title="Ablation: node capacity sweep (DC-tree)",
    )
