"""Experiment `aggview`: DC-tree vs static materialized aggregate view.

The related-work baseline answers the queries it covers very fast, but
(a) it cannot answer queries below its granularity at all, and (b) a
single warehouse update forces a full rebuild.  The DC-tree answers
everything and absorbs updates in place — the trade the paper's
introduction describes.
"""

from __future__ import annotations

from ..aggview.view import MaterializedAggregateView
from ..core.tree import DCTree
from ..tpcd.generator import TPCDGenerator
from ..tpcd.schema import make_tpcd_schema
from ..workload.queries import QueryGenerator
from .reporting import format_table

#: View granularity for the TPC-D cube: Nation x Nation x Brand x Month.
TPCD_VIEW_LEVELS = (2, 1, 2, 1)


def run_aggview(n_records=5000, n_queries=100, selectivity=0.25, seed=0):
    """Build both, fire one mixed query batch, measure the trade-offs."""
    schema = make_tpcd_schema()
    generator = TPCDGenerator(schema, seed=seed, scale_records=n_records)
    records = generator.generate(n_records)

    tree = DCTree(schema)
    for record in records:
        tree.insert(record)

    view = MaterializedAggregateView(schema, TPCD_VIEW_LEVELS)
    view.build(records)

    # Coverage: what fraction of the paper's unrestricted query mix can
    # the view answer at all?
    mixed = list(
        QueryGenerator(schema, selectivity, seed=seed + 1).queries(
            max(n_queries, 200)
        )
    )
    coverage = sum(1 for q in mixed if view.can_answer(q.mds)) / len(mixed)

    # Timing: a batch the view CAN answer, so both backends run it.
    answerable = list(
        QueryGenerator(
            schema, selectivity, seed=seed + 2,
            min_levels=TPCD_VIEW_LEVELS,
        ).queries(n_queries)
    )

    view.tracker.reset(clear_buffer=True)
    for query in answerable:
        view.range_query(query.mds)
    view_stats = view.tracker.snapshot()

    tree.tracker.reset(clear_buffer=True)
    for query in answerable:
        tree.range_query(query.mds)
    tree_stats = tree.tracker.snapshot()

    # The price of one dynamic update.
    extra = generator.record()
    tree.tracker.reset()
    tree.insert(extra)
    tree_update = tree.tracker.snapshot().simulated_seconds()

    view.mark_stale()
    view.tracker.reset(clear_buffer=True)
    view.build(records + [extra])
    view_update = view.tracker.snapshot().simulated_seconds()

    n_answerable = max(1, len(answerable))
    return [
        (
            "dc-tree",
            "100%",
            tree_stats.simulated_seconds() / n_answerable,
            tree_update,
        ),
        (
            "materialized view",
            "%.0f%%" % (100.0 * coverage),
            view_stats.simulated_seconds() / n_answerable,
            view_update,
        ),
    ]


def report_aggview(**kwargs):
    return format_table(
        (
            "backend",
            "queries answerable",
            "sim [s] per answerable query",
            "sim [s] per single update",
        ),
        run_aggview(**kwargs),
        title=(
            "Static materialization vs DC-tree: coverage, query cost, "
            "and the price of one update"
        ),
    )
