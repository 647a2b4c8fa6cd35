"""Unit tests for configuration validation."""

import pytest

from repro.config import CostModel, DCTreeConfig, StorageConfig, XTreeConfig
from repro.errors import SchemaError


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
        with pytest.raises(SchemaError):
            DCTreeConfig(min_fanout_fraction=0.0)
        with pytest.raises(SchemaError):
            DCTreeConfig(min_fanout_fraction=0.6)

    def test_overlap_fraction_bounds(self):
        with pytest.raises(SchemaError):
            DCTreeConfig(max_overlap_fraction=-0.1)
        DCTreeConfig(max_overlap_fraction=0.0)

    @pytest.mark.parametrize("knob", [
        "split_algorithm", "use_materialized_aggregates", "capacity_mode",
    ])
    def test_retired_knobs_rejected(self, knob):
        """Setting a knob that no longer exists fails loudly, whether by
        keyword or by assignment, instead of being silently ignored."""
        with pytest.raises(TypeError):
            DCTreeConfig(**{knob: None})
        with pytest.raises(AttributeError):
            setattr(DCTreeConfig(), knob, None)

    def test_min_fanouts(self):
        config = DCTreeConfig(
            dir_capacity=16, leaf_capacity=64, min_fanout_fraction=0.35
        )
        assert config.min_dir_fanout() == 5
        assert config.min_leaf_fanout() == 22

    def test_min_fanout_floor(self):
        config = DCTreeConfig(
            dir_capacity=4, leaf_capacity=4, min_fanout_fraction=0.05
        )
        assert config.min_dir_fanout() == 2
        assert config.min_leaf_fanout() == 2


class TestXTreeConfig:
    def test_defaults(self):
        config = XTreeConfig()
        assert config.dir_capacity >= 4
        assert config.max_overlap_fraction > 0

    def test_validation(self):
        with pytest.raises(SchemaError):
            XTreeConfig(dir_capacity=1)
        with pytest.raises(SchemaError):
            XTreeConfig(min_fanout_fraction=0.9)
        with pytest.raises(SchemaError):
            XTreeConfig(max_overlap_fraction=-1)

    def test_min_fanouts(self):
        config = XTreeConfig(
            dir_capacity=32, leaf_capacity=64, min_fanout_fraction=0.35
        )
        assert config.min_dir_fanout() == 11
        assert config.min_leaf_fanout() == 22


class TestCostModelAndStorage:
    def test_cost_model_defaults_io_dominated(self):
        model = CostModel()
        assert model.t_io > model.t_cpu

    def test_storage_config_defaults(self):
        config = StorageConfig()
        assert config.page_size == 4096
        assert config.buffer_pages == 64
