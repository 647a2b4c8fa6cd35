"""The experiment driver behind every figure of the evaluation (§5).

One *combined sweep* reproduces the paper's whole measurement protocol in
a single pass: the three backends are fed the same TPC-D record stream
over one shared schema; at each checkpoint size (10k/20k/30k records in
the paper) the harness records cumulative and per-record insertion times,
then fires the random range-query batches for each selectivity (100
queries of 1 %, 5 % and 25 % in the paper) against every backend with
equalized buffer budgets, and profiles the DC-tree's node sizes per level.

Figures 11, 12 and 13 are all slices of one :class:`SweepResult`, so
``python -m repro.bench all`` pays for the expensive build exactly once.
"""

from __future__ import annotations

import time

from ..config import CostModel, StorageConfig
from ..core.stats import collect_stats
from ..storage.buffer import BufferPool
from ..tpcd.generator import TPCDGenerator
from ..tpcd.schema import make_tpcd_schema
from ..warehouse import BACKENDS, Warehouse
from ..workload.queries import QueryGenerator

#: Checkpoint sizes of the paper's sweep (Figs. 11-13).
PAPER_SIZES = (10000, 20000, 30000)
#: Query selectivities of the paper's sweep (Fig. 12).
PAPER_SELECTIVITIES = (0.01, 0.05, 0.25)
#: Queries averaged per measurement in the paper.
PAPER_QUERIES = 100
#: Every backend's query-phase LRU pool, as a fraction of the DC-tree's
#: page footprint — the paper's memory-equalization rule (§5.3: "the main
#: memory available for the X-tree was restricted to the memory size that
#: the DC-tree uses").
BUFFER_FRACTION = 0.25


class QueryMeasurement:
    """Average per-query costs of one (backend, selectivity) batch."""

    __slots__ = ("wall_seconds", "node_accesses", "buffer_misses",
                 "cpu_units", "simulated_seconds")

    def __init__(self, wall_seconds, node_accesses, buffer_misses, cpu_units,
                 simulated_seconds):
        self.wall_seconds = wall_seconds
        self.node_accesses = node_accesses
        self.buffer_misses = buffer_misses
        self.cpu_units = cpu_units
        self.simulated_seconds = simulated_seconds

    def __repr__(self):
        return (
            "QueryMeasurement(wall=%.4fs, nodes=%.1f, misses=%.1f, sim=%.4fs)"
            % (self.wall_seconds, self.node_accesses, self.buffer_misses,
               self.simulated_seconds)
        )


class Checkpoint:
    """All measurements taken at one data-set size."""

    def __init__(self, n_records):
        self.n_records = n_records
        #: backend -> cumulative insertion wall seconds since the start.
        self.insert_seconds = {}
        #: backend -> cumulative simulated insertion seconds.
        self.insert_simulated = {}
        #: backend -> mean wall seconds per single insert.
        self.per_record_seconds = {}
        #: (backend, selectivity) -> QueryMeasurement.
        self.queries = {}
        #: DC-tree TreeStats (Fig. 13) at this size.
        self.dc_stats = None


class SweepResult:
    """Outcome of one combined sweep."""

    def __init__(self, sizes, selectivities, n_queries, backends, seed):
        self.sizes = tuple(sizes)
        self.selectivities = tuple(selectivities)
        self.n_queries = n_queries
        self.backends = tuple(backends)
        self.seed = seed
        self.checkpoints = []

    def checkpoint(self, n_records):
        for point in self.checkpoints:
            if point.n_records == n_records:
                return point
        raise KeyError("no checkpoint at %d records" % n_records)


def run_combined_sweep(
    sizes=PAPER_SIZES,
    selectivities=PAPER_SELECTIVITIES,
    n_queries=PAPER_QUERIES,
    seed=0,
    progress=None,
):
    """Run the paper's full measurement protocol; return a
    :class:`SweepResult`."""
    sizes = sorted(sizes)
    note = progress if progress is not None else (lambda message: None)

    schema = make_tpcd_schema()
    generator = TPCDGenerator(schema, seed=seed, scale_records=sizes[-1])
    warehouses = {
        name: Warehouse(
            schema, name, storage_config=StorageConfig(buffer_pages=0)
        )
        for name in BACKENDS
    }
    result = SweepResult(sizes, selectivities, n_queries, BACKENDS, seed)

    inserted = 0
    insert_wall = {name: 0.0 for name in BACKENDS}
    insert_ios = {name: 0 for name in BACKENDS}
    insert_cpu = {name: 0 for name in BACKENDS}
    for checkpoint_size in sizes:
        batch = generator.generate(checkpoint_size - inserted)
        inserted = checkpoint_size
        note("inserting up to %d records" % checkpoint_size)
        for name in BACKENDS:
            warehouse = warehouses[name]
            # Inserts run against an unconstrained buffer; query phases
            # swap in the equalized pool, so restore + reset here.
            warehouse.tracker.buffer = BufferPool(0)
            warehouse.tracker.reset()
            start = time.perf_counter()
            for record in batch:
                warehouse.insert_record(record)
            insert_wall[name] += time.perf_counter() - start
            stats = warehouse.tracker.snapshot()
            insert_ios[name] += stats.page_ios
            insert_cpu[name] += stats.cpu_units

        point = Checkpoint(checkpoint_size)
        for name in BACKENDS:
            point.insert_seconds[name] = insert_wall[name]
            point.insert_simulated[name] = CostModel.simulated_seconds(
                insert_ios[name], insert_cpu[name]
            )
            point.per_record_seconds[name] = (
                insert_wall[name] / checkpoint_size
            )

        dc_tree = warehouses["dc-tree"].index
        point.dc_stats = collect_stats(dc_tree)
        buffer_pages = max(16, int(dc_tree.page_count() * BUFFER_FRACTION))
        for selectivity in selectivities:
            note(
                "querying %d records at selectivity %.0f%%"
                % (checkpoint_size, selectivity * 100)
            )
            queries = list(
                QueryGenerator(
                    schema, selectivity, seed=seed + int(selectivity * 1000)
                ).queries(n_queries)
            )
            for name in BACKENDS:
                point.queries[(name, selectivity)] = _measure_queries(
                    warehouses[name], queries, buffer_pages
                )
        result.checkpoints.append(point)
    return result


def _measure_queries(warehouse, queries, buffer_pages):
    """Run one query batch; return per-query averages."""
    tracker = warehouse.tracker
    tracker.buffer = BufferPool(buffer_pages)
    tracker.reset()
    start = time.perf_counter()
    for query in queries:
        warehouse.execute(query)
    wall = time.perf_counter() - start
    stats = tracker.snapshot()
    n = len(queries)
    return QueryMeasurement(
        wall_seconds=wall / n,
        node_accesses=stats.node_accesses / n,
        buffer_misses=stats.buffer_misses / n,
        cpu_units=stats.cpu_units / n,
        simulated_seconds=stats.simulated_seconds() / n,
    )


_SWEEP_CACHE = {}


def cached_sweep(**kwargs):
    """Memoized :func:`run_combined_sweep` so figures share one build."""
    key = (
        tuple(kwargs.get("sizes", PAPER_SIZES)),
        tuple(kwargs.get("selectivities", PAPER_SELECTIVITIES)),
        kwargs.get("n_queries", PAPER_QUERIES),
        kwargs.get("seed", 0),
    )
    if key not in _SWEEP_CACHE:
        _SWEEP_CACHE[key] = run_combined_sweep(**kwargs)
    return _SWEEP_CACHE[key]
