"""Unit tests for the paged-storage substrate."""

import pytest

from repro.config import PAGE_SIZE, CostModel, StorageConfig
from repro.core.mds import MDS
from repro.errors import StorageError
from repro.storage import page as page_mod
from repro.storage.buffer import BufferPool
from repro.storage.tracker import AccessStats, StorageTracker


class TestBufferPool:
    def test_first_access_misses(self):
        pool = BufferPool(4)
        assert not pool.access("p1")
        assert pool.misses == 1

    def test_second_access_hits(self):
        pool = BufferPool(4)
        pool.access("p1")
        assert pool.access("p1")
        assert pool.hits == 1

    def test_lru_eviction(self):
        pool = BufferPool(2)
        pool.access("a")
        pool.access("b")
        pool.access("c")  # evicts a
        assert not pool.access("a")
        assert pool.misses == 4

    def test_lru_recency_updated_on_hit(self):
        pool = BufferPool(2)
        pool.access("a")
        pool.access("b")
        pool.access("a")  # a most recent
        pool.access("c")  # evicts b
        assert pool.access("a")
        assert not pool.access("b")

    def test_unbounded_pool_never_evicts(self):
        pool = BufferPool(0)
        for i in range(1000):
            pool.access(i)
        assert pool.resident_pages == 1000
        assert pool.access(0)

    def test_access_run_counts_all_blocks(self):
        pool = BufferPool(16)
        assert pool.access_run("node", 3) == 3
        assert pool.access_run("node", 3) == 0

    def test_access_run_rejects_zero_blocks(self):
        with pytest.raises(StorageError):
            BufferPool(4).access_run("node", 0)

    def test_evict_removes_pages(self):
        pool = BufferPool(8)
        pool.access_run("node", 2)
        pool.evict("node", 2)
        assert pool.access_run("node", 2) == 2

    def test_clear_keeps_counters(self):
        pool = BufferPool(8)
        pool.access("a")
        pool.clear()
        assert pool.misses == 1
        assert pool.resident_pages == 0

    def test_reset_counters(self):
        pool = BufferPool(8)
        pool.access("a")
        pool.reset_counters()
        assert pool.misses == 0
        assert pool.access("a")  # still resident


class TestStorageTracker:
    def test_page_ids_unique(self):
        tracker = StorageTracker()
        assert tracker.new_page_id() != tracker.new_page_id()

    def test_access_node_counts(self):
        tracker = StorageTracker()
        tracker.access_node(1, 2)
        stats = tracker.snapshot()
        assert stats.node_accesses == 1
        assert stats.buffer_misses == 2

    def test_write_node_counts(self):
        tracker = StorageTracker()
        tracker.write_node(1)
        tracker.write_node(2, 3)
        assert tracker.snapshot().page_writes == 4

    def test_cpu_counts(self):
        tracker = StorageTracker()
        tracker.cpu(10)
        tracker.cpu(5)
        assert tracker.snapshot().cpu_units == 15

    def test_reset(self):
        tracker = StorageTracker()
        tracker.access_node(1)
        tracker.write_node(1)
        tracker.cpu(5)
        tracker.reset()
        stats = tracker.snapshot()
        assert stats.node_accesses == 0
        assert stats.buffer_misses == 0
        assert stats.page_writes == 0
        assert stats.cpu_units == 0

    def test_reset_keeps_buffer_contents_by_default(self):
        tracker = StorageTracker()
        tracker.access_node(1)
        tracker.reset()
        tracker.access_node(1)
        assert tracker.snapshot().buffer_misses == 0

    def test_reset_clear_buffer(self):
        tracker = StorageTracker()
        tracker.access_node(1)
        tracker.reset(clear_buffer=True)
        tracker.access_node(1)
        assert tracker.snapshot().buffer_misses == 1

    def test_free_node_evicts(self):
        tracker = StorageTracker()
        tracker.access_node(1, 2)
        tracker.free_node(1, 2)
        tracker.reset()
        tracker.access_node(1, 2)
        assert tracker.snapshot().buffer_misses == 2


class TestAccessStats:
    def test_subtraction(self):
        a = AccessStats(10, 8, 2, 3, 100)
        b = AccessStats(4, 3, 1, 1, 40)
        diff = a - b
        assert diff.node_accesses == 6
        assert diff.buffer_hits == 5
        assert diff.buffer_misses == 1
        assert diff.page_writes == 2
        assert diff.cpu_units == 60

    def test_page_ios(self):
        assert AccessStats(0, 0, 3, 2, 0).page_ios == 5

    def test_simulated_seconds_uses_cost_model(self):
        stats = AccessStats(0, 0, 10, 0, 1000)
        assert stats.simulated_seconds() == CostModel.simulated_seconds(
            10, 1000
        )

    def test_simulated_seconds_default_model(self):
        stats = AccessStats(0, 0, 1, 1, 0)
        assert stats.simulated_seconds() == pytest.approx(0.02)


class TestPageSizes:
    def test_mds_bytes_varies_with_cardinality(self):
        small = MDS([{1}, {2}], [1, 0])
        large = MDS([{1, 2, 3}, {4, 5}], [1, 0])
        assert page_mod.mds_bytes(large) > page_mod.mds_bytes(small)

    def test_dc_directory_entry_includes_summaries(self):
        mds = MDS([{1}], [0])
        one = page_mod.dc_directory_entry_bytes(mds, 1)
        two = page_mod.dc_directory_entry_bytes(mds, 2)
        assert two - one == page_mod.SUMMARY_BYTES

    def test_record_bytes(self):
        assert page_mod.dc_record_bytes(13, 1) == 13 * 4 + 8
        assert page_mod.x_record_bytes(13, 1) == 13 * 4 + 8

    def test_mbr_bytes(self):
        assert page_mod.mbr_bytes(13) == 2 * 13 * 4

    def test_x_directory_entry_has_history_bits(self):
        assert page_mod.x_directory_entry_bytes(13) == 104 + 8 + 2

    def test_pages_for(self):
        assert page_mod.pages_for(0, 4096) == 1
        assert page_mod.pages_for(1, 4096) == 1
        assert page_mod.pages_for(4096, 4096) == 1
        assert page_mod.pages_for(4097, 4096) == 2


class TestConfigs:
    def test_storage_config_validates_page_size(self):
        assert PAGE_SIZE >= 256
        with pytest.raises(TypeError):
            StorageConfig(page_size=PAGE_SIZE)

    def test_cost_model_validates(self):
        assert CostModel.T_IO > 0 and CostModel.T_CPU > 0
        with pytest.raises(TypeError):
            CostModel(t_io=1.0)

    def test_cost_model_weighting(self):
        assert CostModel.simulated_seconds(10, 1000) == pytest.approx(0.101)
