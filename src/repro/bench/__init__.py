"""Benchmark harness regenerating every table and figure of §5."""

from .harness import (
    PAPER_QUERIES,
    PAPER_SELECTIVITIES,
    PAPER_SIZES,
    Checkpoint,
    QueryMeasurement,
    SweepResult,
    cached_sweep,
    execute_query,
    make_backend,
    run_combined_sweep,
)
from .regression import (
    check_gates,
    compare_to_baseline,
    make_dataset,
    run_benchmark,
    run_workload,
)

__all__ = [
    "check_gates",
    "compare_to_baseline",
    "make_dataset",
    "run_benchmark",
    "run_workload",
    "Checkpoint",
    "PAPER_QUERIES",
    "PAPER_SELECTIVITIES",
    "PAPER_SIZES",
    "QueryMeasurement",
    "SweepResult",
    "cached_sweep",
    "execute_query",
    "make_backend",
    "run_combined_sweep",
]
