"""Unit tests for configuration validation and the settable surface."""

import inspect

import pytest

from repro.config import (
    MAX_OVERLAP_FRACTION,
    MIN_FANOUT_FRACTION,
    PAGE_SIZE,
    CostModel,
    DCTreeConfig,
    StorageConfig,
    XTreeConfig,
)
from repro.core.bulkload import bulk_load
from repro.core.tree import DCTree
from repro.errors import SchemaError
from repro.scan.table import FlatTable
from repro.storage.tracker import StorageTracker
from repro.xtree.tree import XTree


class TestDCTreeConfig:
    def test_defaults(self):
        config = DCTreeConfig()
        assert config.dir_capacity >= 4
        assert config.leaf_capacity >= 4

    def test_capacity_bounds(self):
        with pytest.raises(SchemaError):
            DCTreeConfig(dir_capacity=3)
        with pytest.raises(SchemaError):
            DCTreeConfig(leaf_capacity=2)

    def test_fanout_fraction_bounds(self):
        assert 0.0 < MIN_FANOUT_FRACTION <= 0.5

    def test_overlap_fraction_bounds(self):
        assert MAX_OVERLAP_FRACTION >= 0.0

    @pytest.mark.parametrize("knob", [
        "split_algorithm", "use_materialized_aggregates", "capacity_mode",
        "min_fanout_fraction", "max_overlap_fraction", "use_result_cache",
        "result_cache_capacity",
    ])
    def test_retired_knobs_rejected(self, knob):
        """Setting a knob that no longer exists fails loudly, whether by
        keyword or by assignment, instead of being silently ignored."""
        with pytest.raises(TypeError):
            DCTreeConfig(**{knob: None})
        with pytest.raises(AttributeError):
            setattr(DCTreeConfig(), knob, None)

    def test_min_fanouts(self):
        config = DCTreeConfig(dir_capacity=16, leaf_capacity=64)
        assert config.min_dir_fanout() == 5
        assert config.min_leaf_fanout() == 22

    def test_min_fanout_floor(self):
        config = DCTreeConfig(dir_capacity=4, leaf_capacity=4)
        assert config.min_dir_fanout() == 2
        assert config.min_leaf_fanout() == 2


class TestXTreeConfig:
    def test_defaults(self):
        config = XTreeConfig()
        assert config.dir_capacity >= 4
        assert config.leaf_capacity >= 4

    def test_validation(self):
        with pytest.raises(SchemaError):
            XTreeConfig(dir_capacity=1)
        with pytest.raises(SchemaError):
            XTreeConfig(leaf_capacity=3)

    @pytest.mark.parametrize("knob", [
        "min_fanout_fraction", "max_overlap_fraction", "max_overlap",
    ])
    def test_retired_knobs_rejected(self, knob):
        with pytest.raises(TypeError):
            XTreeConfig(**{knob: None})
        with pytest.raises(AttributeError):
            setattr(XTreeConfig(), knob, None)


class TestCostModelAndStorage:
    def test_cost_model_defaults_io_dominated(self):
        assert CostModel.T_IO > CostModel.T_CPU > 0

    def test_storage_config_defaults(self):
        assert PAGE_SIZE == 4096
        assert StorageConfig().buffer_pages == 64


#: Every value a caller can set, by owner: the slots of the two configs
#: and the parameters of the constructors and builders.  There are seven
#: settable values (the configs' slots and ``buffer_pages``); the other
#: parameters pass a config, a schema or the data along.
SETTABLE_SURFACE = {
    DCTreeConfig: (
        "dir_capacity", "leaf_capacity", "wal_fsync_interval",
        "observability",
    ),
    XTreeConfig: ("dir_capacity", "leaf_capacity"),
    StorageConfig: ("buffer_pages",),
    CostModel: (),
    DCTree: ("schema", "config", "storage_config"),
    XTree: ("schema", "config", "storage_config"),
    FlatTable: ("schema", "storage_config"),
    bulk_load: ("schema", "records", "config", "storage_config"),
    StorageTracker: ("storage_config",),
}


@pytest.mark.parametrize(
    "owner", list(SETTABLE_SURFACE), ids=lambda owner: owner.__name__
)
def test_settable_surface_is_pinned(owner):
    expected = SETTABLE_SURFACE[owner]
    actual = tuple(inspect.signature(owner).parameters)
    if owner in (DCTreeConfig, XTreeConfig):
        assert owner.__slots__ == actual, owner.__slots__
    assert actual == expected, (
        "%s's settable surface changed: %r, pinned %r.  A new option "
        "needs two callers outside the tests; a retired one leaves this "
        "table too." % (owner.__name__, actual, expected)
    )
