"""The DC-tree: MDS algebra, nodes, hierarchy split, tree, statistics."""

from .mds import (
    MDS,
    contains,
    covers_record,
    extension,
    operation_cost,
    overlap,
    overlaps,
    union_cardinality,
)
from .node import DCDataNode, DCDirNode
from .result_cache import ResultCache, ResultCacheStats
from .split import (
    SplitPlan,
    choose_seeds,
    hierarchy_split,
    plan_node_split,
)
from .stats import LevelStats, TreeStats, collect_stats
from .tree import DCTree

__all__ = [
    "DCDataNode",
    "DCDirNode",
    "DCTree",
    "LevelStats",
    "MDS",
    "ResultCache",
    "ResultCacheStats",
    "SplitPlan",
    "TreeStats",
    "choose_seeds",
    "collect_stats",
    "contains",
    "covers_record",
    "extension",
    "hierarchy_split",
    "operation_cost",
    "overlap",
    "overlaps",
    "plan_node_split",
    "union_cardinality",
]
