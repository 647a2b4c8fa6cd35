"""Ablation experiments for the design choices DESIGN.md calls out.

* `abl-split`  — the paper's future work asks for sub-quadratic splits:
  quadratic hierarchy split vs the linear single-pass variant, comparing
  build cost (wall and simulated) and the query quality of the resulting
  trees.
* `abl-measures` — the value of materialized aggregates: the same DC-tree
  queried with and without the stored-measure shortcut.
* `abl-capacity` — node-capacity sweep for the DC-tree (page-size proxy).
"""

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


def ablation_split(n_records=10000, n_queries=50, selectivity=0.05, seed=0):
    """Quadratic vs linear hierarchy split; returns table rows.

    Rows: ``(split, build wall, build sim, query wall, query sim,
    nodes/query, height)``.  Compare builds on the simulated cost: the
    quadratic seed scan exits early, so build wall time favours neither.
    """
    schema, records = _build_dataset(n_records, seed)
    queries = list(
        QueryGenerator(schema, selectivity, seed=seed + 1).queries(n_queries)
    )
    model = CostModel()
    rows = []
    for algorithm in ("quadratic", "linear"):
        config = DCTreeConfig(split_algorithm=algorithm)
        tree, build_seconds = _build_tree(schema, records, config)
        build_simulated = tree.tracker.snapshot().simulated_seconds(model)
        wall, simulated, nodes = _query_cost(tree, queries, model)
        rows.append(
            (
                algorithm,
                build_seconds,
                build_simulated,
                wall,
                simulated,
                nodes,
                tree.height(),
            )
        )
    return rows


def report_ablation_split(**kwargs):
    return format_table(
        (
            "split",
            "build [s]",
            "build sim [s]",
            "query wall [s]",
            "query sim [s]",
            "nodes/query",
            "height",
        ),
        ablation_split(**kwargs),
        title="Ablation: quadratic vs linear hierarchy split",
    )


def ablation_measures(n_records=10000, n_queries=50, selectivity=0.05,
                      seed=0):
    """Materialized aggregates on vs off, on two workload shapes.

    §5.2's workload constrains *every* dimension, so an entry is almost
    never fully contained in the query and the stored aggregates barely
    fire; interactive drill-downs constrain one dimension (rest ALL) and
    are where the materialization pays.  Rows:
    ``(workload, aggregates, wall, sim, nodes/query)``.
    """
    schema, records = _build_dataset(n_records, seed)
    workloads = [
        (
            "all-dims (§5.2)",
            list(
                QueryGenerator(schema, selectivity, seed=seed + 1).queries(
                    n_queries
                )
            ),
        ),
        (
            "drill-down (1 dim)",
            # Interactive drill-downs constrain one dimension at an
            # aggregation level (never the raw leaf keys) and leave the
            # other dimensions at ALL.
            list(
                QueryGenerator(
                    schema, selectivity, seed=seed + 2, constrain_dims=1,
                    min_levels=(1,) * schema.n_dimensions,
                ).queries(n_queries)
            ),
        ),
    ]
    model = CostModel()
    tree, _build_seconds = _build_tree(schema, records, DCTreeConfig())
    rows = []
    for workload_name, queries in workloads:
        for use_aggregates in (True, False):
            tree.config.use_materialized_aggregates = use_aggregates
            wall, simulated, nodes = _query_cost(tree, queries, model)
            rows.append(
                (
                    workload_name,
                    "on" if use_aggregates else "off",
                    wall,
                    simulated,
                    nodes,
                )
            )
    tree.config.use_materialized_aggregates = True
    return rows


def report_ablation_measures(**kwargs):
    return format_table(
        ("workload", "aggregates", "query wall [s]", "query sim [s]",
         "nodes/query"),
        ablation_measures(**kwargs),
        title="Ablation: materialized measures on vs off (same DC-tree)",
    )


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
