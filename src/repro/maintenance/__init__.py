"""Warehouse operation modes: batch updates with an offline window."""

from .batch import BatchWarehouse, MaintenanceStats, WarehouseOfflineError

__all__ = [
    "BatchWarehouse",
    "MaintenanceStats",
    "WarehouseOfflineError",
]
