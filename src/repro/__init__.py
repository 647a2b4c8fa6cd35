"""DC-tree: a fully dynamic index structure for data warehouses.

A full reproduction of Ester, Kohlhammer & Kriegel, *The DC-tree: A Fully
Dynamic Index Structure for Data Warehouses* (ICDE 2000): the DC-tree
itself, the X-tree and sequential-scan baselines, the TPC-D-style data
substrate, the query workload of the paper's evaluation, and the benchmark
harness regenerating its figures.

Quickstart::

    from repro import Warehouse

    warehouse = Warehouse.tpcd()            # DC-tree backend by default
    warehouse.insert(
        (("EUROPE", "GERMANY", "BUILDING", "Customer#1"),
         ("AMERICA", "CANADA", "Supplier#1"),
         ("Brand#11", "STANDARD ANODIZED TIN", "Part#1"),
         ("1996", "1996-03", "1996-03-15")),
        (4200.0,))
    total = warehouse.query("sum", where={"Customer": ("Region", ["EUROPE"])})
"""

from .config import CostModel, DCTreeConfig, StorageConfig, XTreeConfig
from .core.bulkload import bulk_load
from .core.mds import MDS
from .core.stats import collect_stats
from .core.tree import DCTree
from .persist.durable import DurableWarehouse
from .persist.io import load_warehouse, save_warehouse
from .persist.recovery import RecoveryReport, recover_warehouse
from .persist.wal import WriteAheadLog
from .storage.faults import FaultInjector, FaultPlan, InjectedFault
from .cube.record import DataRecord
from .cube.schema import CubeSchema, Dimension, Measure
from .errors import (
    HierarchyError,
    MdsError,
    QueryError,
    RecordNotFoundError,
    ReproError,
    SchemaError,
    StorageError,
    TreeError,
)
from .scan.table import FlatTable
from .tpcd.generator import TPCDGenerator
from .tpcd.schema import make_tpcd_schema
from .warehouse import BACKENDS, Warehouse
from .workload.queries import QueryGenerator, RangeQuery, query_from_labels
from .xtree.tree import XTree

__version__ = "1.0.0"

__all__ = [
    "BACKENDS",
    "CostModel",
    "CubeSchema",
    "DCTree",
    "DCTreeConfig",
    "DataRecord",
    "Dimension",
    "DurableWarehouse",
    "FaultInjector",
    "FaultPlan",
    "FlatTable",
    "HierarchyError",
    "InjectedFault",
    "MDS",
    "MdsError",
    "Measure",
    "QueryError",
    "QueryGenerator",
    "RangeQuery",
    "RecordNotFoundError",
    "RecoveryReport",
    "ReproError",
    "SchemaError",
    "StorageConfig",
    "StorageError",
    "TPCDGenerator",
    "TreeError",
    "Warehouse",
    "WriteAheadLog",
    "XTree",
    "XTreeConfig",
    "bulk_load",
    "collect_stats",
    "load_warehouse",
    "make_tpcd_schema",
    "query_from_labels",
    "recover_warehouse",
    "save_warehouse",
    "__version__",
]
